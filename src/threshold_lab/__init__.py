"""Numerical laboratory for three-body eigenvalue absorption at threshold.

The package builds the constructive side of a zero-energy threshold
experiment: two-body Birman-Schwinger operators with an independent
shooting oracle, Faddeev channel operators with certified norm bounds,
an explicit IMS partition of unity, and a correlated-Gaussian variational
solver for the three-body sweep.
"""

from .errors import (
    AccuracyError,
    BasisError,
    BracketError,
    ConfigError,
    DegenerateInputError,
    FitError,
    HypothesisError,
    ThresholdLabError,
    ValidationError,
)
from .model import (
    JacobiFrame,
    PairPotential,
    ParticleSystem,
    jacobi_frame,
    potential_moment_c,
    separation_forms,
    sqrt_potential_fourier,
    uniform_system,
    validate_r6,
    zero_potential,
)
from .quadrature import QuadratureRule, gauss_legendre, semi_infinite_grid
from .twobody import (
    MarginReport,
    bs_max_eigenvalue,
    critical_coupling,
    shooting_oracle,
    subcriticality_margin,
    twobody_binding_energy,
)
from .faddeev_ops import (
    BoundConstants,
    bound_constants,
    channel_contraction_norm,
    lemma6_uniformity_audit,
    t_multiplier,
)
from .ims import build_partition, gradient_decay_audit, ims_identity_check, verify_support_cone
from .threebody import (
    SweepRecord,
    critical_coupling_3body,
    grow_basis,
    solve_ground,
    spreading_diagnostic,
)

__all__ = [
    "AccuracyError",
    "BasisError",
    "BoundConstants",
    "BracketError",
    "ConfigError",
    "DegenerateInputError",
    "FitError",
    "HypothesisError",
    "JacobiFrame",
    "MarginReport",
    "PairPotential",
    "ParticleSystem",
    "QuadratureRule",
    "SweepRecord",
    "ThresholdLabError",
    "ValidationError",
    "bound_constants",
    "bs_max_eigenvalue",
    "build_partition",
    "channel_contraction_norm",
    "critical_coupling",
    "critical_coupling_3body",
    "gauss_legendre",
    "gradient_decay_audit",
    "grow_basis",
    "ims_identity_check",
    "jacobi_frame",
    "lemma6_uniformity_audit",
    "potential_moment_c",
    "semi_infinite_grid",
    "separation_forms",
    "shooting_oracle",
    "solve_ground",
    "spreading_diagnostic",
    "sqrt_potential_fourier",
    "subcriticality_margin",
    "t_multiplier",
    "twobody_binding_energy",
    "uniform_system",
    "validate_r6",
    "verify_support_cone",
    "zero_potential",
]

__version__ = "0.1.0"
