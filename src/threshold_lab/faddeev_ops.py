"""Channel multiplier, fiber kernels, and certified norm bounds.

After the partial Fourier transform in the spectator coordinate, the
channel operator (H0 + z^2)^(-1) V^(1/2) B(z) acts fiber-wise in the
spectator momentum p.  Each fiber is a 3D resolvent kernel times
V^(1/2)(alpha x) and the scalar multiplier (t(p) + 1) + z, so its s-wave
reduction reuses the two-body Nystrom machinery.  The genuinely
cross-channel object is audited through its Hilbert-Schmidt norm, which
collapses to a 1D momentum integral with the constants c, c', c~ in front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import ConvergenceError
from .model import (
    JacobiFrame,
    PairPotential,
    plancherel_fourier_mass,
    potential_moment_c,
)
from .quadrature import composite_gauss_legendre, semi_infinite_grid
from .twobody import bs_max_eigenvalue, bs_radial_rule, green_row_operator


def t_multiplier(p: float) -> float:
    """t(p) = (sqrt(p) - 1) on p <= 1 and 0 beyond; continuous at p = 1."""
    if p < 0.0:
        raise ValueError("momentum magnitude must be >= 0")
    return math.sqrt(p) - 1.0 if p <= 1.0 else 0.0


@dataclass(frozen=True)
class BoundConstants:
    """The four finite constants entering the channel norm bounds.

    c   = integral V(alpha x) d^3x
    c'  = integral exp(-2|x|)/|x|^2 d^3x            (= 2 pi)
    c'' = sup_p [t(p) + 1]^2 / p                     (= 1)
    c~  = gamma^-6 integral |FT(V^(1/2))(p/gamma)|^2 d^3p
    """

    c: float
    c_prime: float
    c_dprime: float
    c_tilde: float

    @property
    def k1_bound(self) -> float:
        return math.sqrt(self.c * self.c_prime * self.c_dprime)

    @property
    def k2_bound(self) -> float:
        return math.sqrt(self.c * self.c_prime)

    @property
    def hs_bound(self) -> float:
        """Hilbert-Schmidt certificate c c' c~ / (2^5 pi^4)."""
        return self.c * self.c_prime * self.c_tilde / (2.0 ** 5 * math.pi ** 4)


def bound_constants(V: PairPotential, frame: JacobiFrame) -> BoundConstants:
    """All four constants by quadrature (no closed forms consumed)."""
    c = potential_moment_c(V, frame.alpha)
    rule = semi_infinite_grid(128, 1.0)
    c_prime = 4.0 * math.pi * rule.integrate(lambda r: np.exp(-2.0 * r))
    ps = np.concatenate([np.linspace(1e-6, 1.0, 2001), np.linspace(1.0, 10.0, 101)])
    c_dprime = float(np.max([(t_multiplier(p) + 1.0) ** 2 / p for p in ps]))
    c_tilde = plancherel_fourier_mass(V) / frame.gamma ** 3
    return BoundConstants(c=c, c_prime=c_prime, c_dprime=c_dprime, c_tilde=c_tilde)


# ---------------------------------------------------------------------------
# Fiber norms of K1(z) + K2(z)
# ---------------------------------------------------------------------------

# kappa stops once its Ritz pair (theta, y) has |G y - theta y| <= FIBER_RESIDUAL theta
FIBER_RESIDUAL = 1e-9


def _fiber_matrix(V: PairPotential, frame: JacobiFrame, kappa: float) -> np.ndarray:
    """Nystrom matrix m of the s-wave kernel g_kappa(r,r') V^(1/2)(alpha r') on L^2."""
    rule = bs_radial_rule(V, frame.alpha, z=kappa)
    B = green_row_operator(kappa, rule)
    sqv = np.sqrt(V.profile(frame.alpha * rule.nodes))
    sw = np.sqrt(rule.weights)
    return sw[:, None] * (B * sqv[None, :]) / sw[None, :]


def _top_ritz_pair(diag: np.ndarray, off: np.ndarray) -> tuple[float, float]:
    """Largest eigenvalue of the symmetric tridiagonal T(diag, off) and the
    last component of its unit eigenvector, NaN if LAPACK fails.

    Bisection (dstebz) finds that one eigenvalue and inverse iteration
    (dstein) its vector; T is never fully decomposed.
    """
    k = len(diag)
    if k == 1:
        return float(diag[0]), 1.0
    _, w, block, split, info = lapack.dstebz(diag, off, 3, 0.0, 0.0, k, k, 0.0, "B")
    if info:
        return math.nan, math.nan
    s, info = lapack.dstein(diag, off, w[:1], block, split)
    return (float(w[0]), float(s[-1, 0])) if info == 0 else (math.nan, math.nan)


def _top_singular_value(m: np.ndarray, kappa: float) -> float:
    """Largest singular value of the square matrix m, by Lanczos on G = m^T m.

    G is applied as m^T (m q), from the start q = (1, ..., 1) / sqrt(n), and
    each new Lanczos vector is orthogonalized twice against all earlier ones.
    After j steps the top Ritz pair (theta, y) of the tridiagonal T_j has
    residual |G y - theta y| = beta_j |s_j|, so the stop at beta_j |s_j| <=
    FIBER_RESIDUAL theta costs no extra product with G.  By the Kato-Temple
    bound theta then lies within (FIBER_RESIDUAL theta)^2 / gap of the top
    eigenvalue of G.  The step count grows like 1 / sqrt(gap), not like
    1 / gap as for a power iteration, and the Krylov space is all of R^n
    after n steps, where the Ritz value is exact; failing the stop by then
    (a non-finite m) raises ConvergenceError naming kappa.  The start needs
    a component along the top eigenvector: on the audit grids G is
    entrywise positive, so by Perron-Frobenius that eigenvector is positive.
    """
    n = m.shape[1]
    basis = np.empty((n, n))
    diag = np.empty(n)
    off = np.empty(n)
    q = np.full(n, n ** -0.5)
    for j in range(n):
        basis[j] = q
        w = (m @ q) @ m
        diag[j] = w @ q
        for _ in range(2):
            w -= (basis[:j + 1] @ w) @ basis[:j + 1]
        off[j] = math.sqrt(w @ w)
        theta, s_last = _top_ritz_pair(diag[:j + 1], off[:j])
        if off[j] * abs(s_last) <= FIBER_RESIDUAL * theta:
            return math.sqrt(theta)
        q = w / off[j]
    raise ConvergenceError(
        f"fiber norm Lanczos run met no stop in {n} steps at kappa = {kappa!r}")


def fiber_norms(V: PairPotential, frame: JacobiFrame, z, p):
    """Operator norms (|K1|, |K2|, |K1 + K2|) of the fixed-p fibers.

    z and p broadcast against each other; each norm has their broadcast
    shape.  K1 and K2 share the resolvent-times-V^(1/2) kernel and differ
    only in the scalar multipliers t(p)+1 and z, so one singular value
    serves all three.  It depends on kappa = hypot(p, z) alone and is
    computed once per distinct kappa, each on its own.
    """
    z, p = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(p, dtype=float))
    if not np.all((z > 0.0) & (z <= 1.0)):
        raise ValueError("fiber audits run on z in (0, 1]")
    m1 = np.vectorize(t_multiplier, otypes=[float])(p) + 1.0
    # math.hypot, not np.hypot: the two differ in the last bit at some points
    kappa = np.vectorize(math.hypot, otypes=[float])(p, z)
    kappas, where = np.unique(kappa.ravel(), return_inverse=True)
    base = np.array([_top_singular_value(_fiber_matrix(V, frame, k), float(k)) for k in kappas])
    base = base[where].reshape(kappa.shape)
    return m1 * base, z * base, (m1 + z) * base


# ---------------------------------------------------------------------------
# Cross-channel Hilbert-Schmidt norm
# ---------------------------------------------------------------------------

def k2_hs_integral(z: float, n_per_panel: int = 12) -> float:
    """I(z) = int_{|p|<=1} [1/(z+sqrt(p)) - 1/(z+1)]^2 / sqrt(p^2+z^2) d^3p.

    The bracket varies on the scale p ~ z^2, so the radial integral runs
    over geometrically graded panels reaching below that scale.
    """
    if z <= 0.0:
        raise ValueError("z must be positive")
    lo = min(1e-3, z * z / 10.0)
    edges = np.concatenate([[0.0], np.geomspace(lo, 1.0, 48)])
    rule = composite_gauss_legendre(edges, n_per_panel)
    p = rule.nodes
    bracket = 1.0 / (z + np.sqrt(p)) - 1.0 / (z + 1.0)
    vals = p ** 2 * bracket ** 2 / np.sqrt(p ** 2 + z ** 2)
    return 4.0 * math.pi * float(np.dot(rule.weights, vals))


def k2_hs_norm_squared_from_constants(constants: BoundConstants, z: float) -> float:
    """|K2(z)|_2^2 = c c' c~ I(z) / (2^7 pi^5)."""
    return constants.c * constants.c_prime * constants.c_tilde \
        * k2_hs_integral(z) / (2.0 ** 7 * math.pi ** 5)


# ---------------------------------------------------------------------------
# Diagonal-channel contraction (Neumann series input)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContractionReport:
    """lambda mu(k) for one channel, with the Neumann bound when contractive."""

    coupling: float
    k: float
    lambda_mu: float
    neumann_bound: float | None
    violated: bool


def channel_contraction_norm(V: PairPotential, frame: JacobiFrame,
                             lam: float, k: float) -> ContractionReport:
    """Contraction factor of the diagonal channel at momentum k.

    The diagonal channel norm equals the two-body BS eigenvalue mu(k); if
    lambda mu(k) < 1 the resolvent inverse is bounded by the Neumann sum
    1/(1 - lambda mu(k)), otherwise the subcriticality hypothesis failed
    and the structured violation branch is reported.
    """
    if k < 0.0:
        raise ValueError("momentum k must be >= 0")
    lam_mu = lam * bs_max_eigenvalue(V, frame, k)
    # the boundary lambda mu = 1 (zero-energy resonance) belongs to the
    # violation branch; a rounding-width band keeps it there
    if lam_mu < 1.0 - 1e-12:
        return ContractionReport(lam, k, lam_mu, 1.0 / (1.0 - lam_mu), False)
    return ContractionReport(lam, k, lam_mu, None, True)


# ---------------------------------------------------------------------------
# Uniformity audit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberSample:
    z: float
    p: float
    norm_k1: float
    norm_k2: float
    norm_sum: float
    k1_within_bound: bool
    k2_within_bound: bool


@dataclass(frozen=True)
class UniformityAudit:
    constants: BoundConstants
    samples: tuple
    sup_norm: float
    analytic_bound: float
    bounded: bool
    continuity_proxy: float


def lemma6_uniformity_audit(V: PairPotential, frame: JacobiFrame,
                            z_grid, p_grid) -> UniformityAudit:
    """Sup of fiber norms over a (z, p) grid against the analytic bound.

    The grid accumulates at z = 0; the reported continuity proxy is the
    largest norm difference between adjacent z samples at fixed p (strong
    continuity itself is not finitely checkable).
    """
    z_grid = np.asarray(list(z_grid), dtype=float)
    p_grid = np.asarray(list(p_grid), dtype=float)
    if z_grid.size == 0 or p_grid.size == 0:
        raise ValueError("z and p grids must be nonempty")

    # the norms first: fiber_norms rejects a z outside (0, 1] before the
    # constants' quadratures run
    n1, n2, norms = fiber_norms(V, frame, z_grid[:, None], p_grid[None, :])
    constants = bound_constants(V, frame)
    samples = tuple(
        FiberSample(
            z=float(z), p=float(p),
            norm_k1=float(n1[i, j]), norm_k2=float(n2[i, j]), norm_sum=float(norms[i, j]),
            k1_within_bound=bool(n1[i, j] <= constants.k1_bound),
            k2_within_bound=bool(n2[i, j] <= constants.k2_bound),
        )
        for i, z in enumerate(z_grid) for j, p in enumerate(p_grid))
    sup_norm = float(np.max(norms))
    bound = constants.k1_bound + constants.k2_bound
    proxy = float(np.max(np.abs(np.diff(norms, axis=0)))) if len(z_grid) > 1 else 0.0
    return UniformityAudit(
        constants=constants,
        samples=samples,
        sup_norm=sup_norm,
        analytic_bound=bound,
        bounded=sup_norm <= bound,
        continuity_proxy=proxy,
    )
