"""Particle systems, pair potentials, and Jacobi-coordinate frames.

Units: hbar = 1, masses dimensionless.  Jacobi scaling is chosen so the
center-of-mass-free kinetic energy is exactly -Lap_x - Lap_y; every kernel
in the lab assumes that form.  Built-in potential profiles are normalized
to peak value 1 so the coupling constant is the single strength parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.interpolate import PchipInterpolator

from .errors import ValidationError
from .quadrature import QuadratureRule, composite_gauss_legendre, gauss_legendre

POTENTIAL_KINDS = ("gaussian", "exponential", "square_well", "tabulated")
PAIRS = ((1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class PairPotential:
    """Nonnegative radial pair interaction V with dominating envelope F.

    The profile is normalized so V(0) = 1 for the built-in kinds; strength
    lives exclusively in the system coupling.  For built-ins the envelope
    coincides with the profile.
    """

    kind: str
    range_: float
    table: tuple[tuple[float, float], ...] | None = None
    _interp: Callable = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(f"unknown potential kind {self.kind!r}")
        if self.range_ <= 0.0:
            raise ValueError("potential range must be positive")
        if self.kind == "tabulated":
            if not self.table or len(self.table) < 2:
                raise ValueError("tabulated potential needs at least two (r, V) rows")
            r = np.array([p[0] for p in self.table], dtype=float)
            v = np.array([p[1] for p in self.table], dtype=float)
            if np.any(np.diff(r) <= 0) or r[0] < 0:
                raise ValueError("table radii must be nonnegative and strictly increasing")
            # monotone cubic keeps the interpolant sign-safe between samples
            object.__setattr__(self, "_interp", PchipInterpolator(r, v, extrapolate=False))
        elif self.table is not None:
            raise ValueError("only tabulated potentials carry a table")

    def profile(self, r):
        """V(r), vectorized over r >= 0."""
        r = np.asarray(r, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-((r / self.range_) ** 2))
        if self.kind == "exponential":
            return np.exp(-r / self.range_)
        if self.kind == "square_well":
            return np.where(r <= self.range_, 1.0, 0.0)
        vals = self._interp(np.clip(r, self.table[0][0], self.table[-1][0]))
        return np.where(r > self.table[-1][0], 0.0, vals)

    def envelope(self, r):
        """Dominating radial envelope F with V <= F (F = V for all kinds here)."""
        return self.profile(r)

    @property
    def support_radius(self) -> float | None:
        """Radius of compact support, or None for whole-line profiles."""
        if self.kind == "square_well":
            return self.range_
        if self.kind == "tabulated":
            return float(self.table[-1][0])
        return None

    @property
    def effective_radius(self) -> float:
        """Radius beyond which the profile is numerically negligible."""
        if self.support_radius is not None:
            return self.support_radius
        if self.kind == "gaussian":
            return 7.0 * self.range_
        return 40.0 * self.range_  # exponential tail e^-40


def zero_potential(range_: float = 1.0) -> PairPotential:
    """Identically zero interaction (decoupled pair), as a tabulated profile."""
    return PairPotential("tabulated", range_, table=((0.0, 0.0), (range_, 0.0)))


@dataclass(frozen=True)
class ParticleSystem:
    """Three particles with pair potentials and a common coupling lambda > 0."""

    masses: tuple[float, float, float]
    potentials: dict
    coupling: float

    def __post_init__(self):
        if len(self.masses) != 3 or any(m <= 0 for m in self.masses):
            raise ValueError("all three masses must be strictly positive")
        if self.coupling <= 0.0:
            raise ValueError("coupling must be strictly positive")
        pots = {_canonical_pair(p): v for p, v in self.potentials.items()}
        if set(pots) != set(PAIRS):
            raise ValueError(f"potentials must be indexed by the pairs {PAIRS}")
        object.__setattr__(self, "potentials", pots)

    def potential(self, pair) -> PairPotential:
        return self.potentials[_canonical_pair(pair)]

    @property
    def identical_bosons(self) -> bool:
        m = self.masses
        pots = [self.potentials[p] for p in PAIRS]
        same_mass = max(m) - min(m) <= 1e-12 * max(m)
        same_pot = all(
            p.kind == pots[0].kind and p.range_ == pots[0].range_ and p.table == pots[0].table
            for p in pots
        )
        return same_mass and same_pot


def uniform_system(kind: str, range_: float, coupling: float,
                   masses=(1.0, 1.0, 1.0), table=None) -> ParticleSystem:
    """System with the same potential on every pair."""
    pot = PairPotential(kind, range_, table=table)
    return ParticleSystem(tuple(float(m) for m in masses),
                          {p: pot for p in PAIRS}, coupling)


def _canonical_pair(pair) -> tuple[int, int]:
    i, j = pair
    if i == j or not {i, j} <= {1, 2, 3}:
        raise ValueError(f"invalid pair index {pair!r}")
    return (min(i, j), max(i, j))


@dataclass(frozen=True)
class JacobiFrame:
    """Mass-derived constants of the Jacobi frame attached to one ordered pair.

    x = sqrt(2 mu_ij) (r_j - r_i), y = sqrt(2 M_ij) (r_l - cm_ij) turn the
    kinetic energy into -Lap_x - Lap_y; the pair potential of (ij) then has
    argument alpha*|x| and the cross-pair argument is beta*x + gamma*y.
    """

    pair: tuple[int, int]
    mu: float
    M: float
    alpha: float
    beta: float
    gamma: float


def jacobi_frame(system: ParticleSystem, pair) -> JacobiFrame:
    """Closed-form frame constants for an ordered pair (i, j)."""
    i, j = pair
    if i == j or not {i, j} <= {1, 2, 3}:
        raise ValueError(f"invalid pair index {pair!r}")
    (l,) = {1, 2, 3} - {i, j}
    mi, mj, ml = (system.masses[i - 1], system.masses[j - 1], system.masses[l - 1])
    mu = mi * mj / (mi + mj)
    M = (mi + mj) * ml / (mi + mj + ml)
    alpha = 1.0 / math.sqrt(2.0 * mu)
    beta = -mj / ((mi + mj) * math.sqrt(2.0 * mu))
    gamma = 1.0 / math.sqrt(2.0 * M)
    return JacobiFrame(pair=(i, j), mu=mu, M=M, alpha=alpha, beta=beta, gamma=gamma)


def separation_forms(system: ParticleSystem, frame_pair=(1, 2)) -> dict:
    """Linear forms (u, v) with r_b - r_a = u*x + v*y in the given frame.

    Keys are canonical pairs; every pair separation is a linear map of the
    frame's Jacobi coordinates, which is what the variational and IMS
    modules consume.
    """
    i, j = frame_pair
    fr = jacobi_frame(system, (i, j))
    (l,) = {1, 2, 3} - {i, j}
    mi, mj = system.masses[i - 1], system.masses[j - 1]
    forms = {
        _canonical_pair((i, j)): (fr.alpha, 0.0),
        _canonical_pair((i, l)): (mj / (mi + mj) * fr.alpha, fr.gamma),
        _canonical_pair((j, l)): (-mi / (mi + mj) * fr.alpha, fr.gamma),
    }
    return forms


# ---------------------------------------------------------------------------
# Radial integrals and validation
# ---------------------------------------------------------------------------

# radial nodes of potential_moment_c, and the grid on which validate_r6
# samples V >= 0 and V <= F
MOMENT_NODES = 256
R6_GRID = 2048
# the tail integral doubles its panel up to TAIL_DOUBLINGS times and stops
# once a panel adds less than TAIL_REL_FLOOR of the total
TAIL_DOUBLINGS = 28
TAIL_REL_FLOOR = 1e-10


def _divergence_guard(f, start: float, label: str) -> float:
    """Integrate f over [start, inf) by doubling panels, flagging divergence.

    Panel contributions of an integrable tail must decay; a panel that
    stops shrinking relative to the accumulated total marks the integral
    as divergent.
    """
    total = 0.0
    prev = math.inf
    a = start
    for _ in range(TAIL_DOUBLINGS):
        rule = gauss_legendre(48, a, 2.0 * a)
        part = rule.integrate(f)
        total += part
        if part > max(prev, TAIL_REL_FLOOR * max(total, 1.0)):
            raise ValidationError(f"R6 violated: {label} appears divergent")
        if part <= TAIL_REL_FLOOR * max(total, 1.0):
            return total
        prev = part
        a *= 2.0
    raise ValidationError(f"R6 violated: {label} tail did not converge")


def potential_moment_c(V: PairPotential, alpha: float) -> float:
    """c = integral of V(alpha x) d^3x by radial quadrature.

    Scaling law: c(alpha) = c(1) / alpha^3.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")

    def integrand(r):
        return 4.0 * math.pi * V.profile(alpha * r) * r ** 2

    if V.support_radius is not None:
        return gauss_legendre(MOMENT_NODES, 0.0, V.support_radius / alpha).integrate(integrand)
    core = gauss_legendre(MOMENT_NODES, 0.0, V.effective_radius / alpha).integrate(integrand)
    tail = _divergence_guard(integrand, V.effective_radius / alpha, "integral of V")
    return core + tail


@lru_cache(maxsize=128)
def _uniform_composite(r_max: float, panels: int, n_per_panel: int = 8) -> QuadratureRule:
    return composite_gauss_legendre(np.linspace(0.0, r_max, panels + 1), n_per_panel)


def sqrt_potential_fourier(V: PairPotential, p: float) -> float:
    """Radial 3D Fourier transform of V^(1/2) at momentum magnitude p.

    Symmetric convention (2 pi)^(-3/2) on both transforms:
    F(p) = sqrt(2/pi) * (1/p) * int_0^inf sqrt(V(r)) sin(p r) r dr.
    """
    if p < 0.0:
        raise ValueError("momentum magnitude must be >= 0")
    r_max = V.effective_radius
    # panel count follows the sine oscillation, quantized so rules are reused
    need = max(8, int(math.ceil(p * r_max / math.pi)) + 4)
    panels = min(1 << (need - 1).bit_length(), 2048)
    rule = _uniform_composite(float(r_max), panels)

    amp = np.sqrt(V.profile(rule.nodes)) * rule.nodes
    if p == 0.0:
        w = float(np.dot(rule.weights, amp * rule.nodes))
    else:
        w = float(np.dot(rule.weights, amp * np.sin(p * rule.nodes))) / p
    return math.sqrt(2.0 / math.pi) * w


def plancherel_fourier_mass(V: PairPotential) -> float:
    """integral |FT of V^(1/2)|^2 d^3p, by momentum quadrature plus tail model.

    For compactly supported profiles the transform tail oscillates like
    cos^2(p r_edge)/p^2; its mean is added in closed form so the truncation
    bias stays below 1e-6 relative.  Smooth decaying profiles need no tail.
    """
    compact = V.support_radius is not None
    if compact:
        r_edge = V.support_radius
        p_max = 900.0 / r_edge
        n_panels = int(math.ceil(p_max * r_edge / (math.pi / 2.0)))
    else:
        p_max = (16.0 if V.kind == "gaussian" else 60.0) / V.range_
        n_panels = 64

    edges = np.linspace(0.0, p_max, n_panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        rule = gauss_legendre(10, a, b)
        vals = np.array([sqrt_potential_fourier(V, p) for p in rule.nodes])
        total += float(np.dot(rule.weights, 4.0 * math.pi * vals ** 2 * rule.nodes ** 2))
    if compact:
        # integrand ~ 8 * V(edge) * r_edge^2 * cos^2(p r_edge) / p^2 at large p
        v_edge = float(V.profile(np.array([r_edge * (1.0 - 1e-9)]))[0])
        total += 4.0 * v_edge * r_edge ** 2 / p_max
    return total


@dataclass(frozen=True)
class R6Report:
    """Outcome of the standing-assumption check on one potential."""

    nonnegative: bool
    l1_finite: bool
    l2_finite: bool
    envelope_dominates: bool
    l1_value: float
    l2_value: float
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def validate_r6(V) -> R6Report:
    """Check V >= 0, V in L1 and L2, and V <= F on a sample grid.

    Accepts any object exposing profile/envelope/range_/effective_radius
    (duck-typed so ad-hoc radial profiles can be screened in tests).
    """
    failures = []
    r_hi = V.effective_radius
    grid = np.linspace(0.0, r_hi, R6_GRID)
    vals = np.asarray(V.profile(grid), dtype=float)
    nonneg = bool(np.all(vals >= -1e-12))
    if not nonneg:
        bad = grid[vals < -1e-12][0]
        failures.append(f"nonnegativity: V({bad:.6g}) = {vals[grid == bad][0]:.6g} < 0")

    l1 = l2 = math.nan
    l1_ok = l2_ok = True
    try:
        l1 = potential_moment_c(V, 1.0)
    except ValidationError:
        l1_ok = False
        failures.append("L1: integral of V d^3x diverges")
    try:
        sq = _SquaredView(V)
        l2 = potential_moment_c(sq, 1.0)
    except ValidationError:
        l2_ok = False
        failures.append("L2: integral of V^2 d^3x diverges")

    env = np.asarray(V.envelope(grid), dtype=float)
    dominated = bool(np.all(vals <= env + 1e-12))
    if not dominated:
        failures.append("envelope: V > F somewhere on the sample grid")

    return R6Report(
        nonnegative=nonneg,
        l1_finite=l1_ok,
        l2_finite=l2_ok,
        envelope_dominates=dominated,
        l1_value=l1,
        l2_value=l2,
        failures=tuple(failures),
    )


class _SquaredView:
    """Radial view of V^2 reusing the moment machinery."""

    def __init__(self, V):
        self._V = V
        self.range_ = V.range_
        self.support_radius = getattr(V, "support_radius", None)
        self.effective_radius = V.effective_radius

    def profile(self, r):
        return np.asarray(self._V.profile(r), dtype=float) ** 2
