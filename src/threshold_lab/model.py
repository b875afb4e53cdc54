"""Particle systems, pair potentials, and Jacobi-coordinate frames.

Units: hbar = 1, masses dimensionless.  Jacobi scaling is chosen so the
center-of-mass-free kinetic energy is exactly -Lap_x - Lap_y; every kernel
in the lab assumes that form.  Built-in potential profiles are normalized
to peak value 1 so the coupling constant is the single strength parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .quadrature import composite_nodes

POTENTIAL_KINDS = ("gaussian", "exponential", "square_well", "tabulated")
PAIRS = ((1, 2), (1, 3), (2, 3))


@dataclass(frozen=True)
class PairPotential:
    """Nonnegative radial pair interaction V with dominating envelope F.

    The profile is normalized so V(0) = 1 for the built-in kinds; strength
    lives exclusively in the system coupling.  R6 (V >= 0 below a radially
    non-increasing F in L1 and L2) holds by construction: the built-in
    profiles are non-increasing and integrable, a table is finite, zero
    beyond its last radius and checked for V >= 0 here, and F is the
    non-increasing majorant of V.
    """

    kind: str
    range_: float
    table: tuple[tuple[float, float], ...] | None = None

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
            # the monotone cubic _pchip stays within the range of its two samples
            # on each interval, so V >= 0 at the samples is V >= 0 everywhere
            bad = ~(np.isfinite(v) & (v >= 0.0))
            if np.any(bad):
                k = int(np.argmax(bad))
                raise ValidationError(f"nonnegativity: V({r[k]:.6g}) = {v[k]:.6g} "
                                      "is not a finite value >= 0")
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
        radii, vals = np.array(self.table, dtype=float).T
        v = _pchip(radii, vals, np.clip(r, radii[0], radii[-1]))
        return np.where(r > radii[-1], 0.0, v)

    def envelope(self, r):
        """Non-increasing majorant F(r) = sup over s >= r of V(s).

        The built-in profiles are non-increasing, so F = V.  A table's
        interpolant is monotone between samples, so F is the larger of V(r)
        and the largest table value at a radius >= r (0 beyond the table).
        """
        v = self.profile(r)
        if self.kind != "tabulated":
            return v
        radii, vals = np.array(self.table, dtype=float).T
        later_max = np.maximum.accumulate(vals[::-1])[::-1]
        return np.maximum(v, np.append(later_max, 0.0)[np.searchsorted(radii, r)])

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


def _pchip(x, y, r):
    """The monotone cubic through the samples (x, y), at x[0] <= r <= x[-1].

    Fritsch and Carlson, SIAM J. Numer. Anal. 17 (1980) 238, with the slopes,
    power-form coefficients and summation order of scipy's PchipInterpolator
    (Fritsch-Butland harmonic means inside, a limited three-point formula at
    each end, linear for two samples), so both return the same bits.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    d = np.full_like(y, m[0])
    if len(x) > 2:
        w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
        flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            d[1:-1] = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
        h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
        e = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
        over = (np.sign(m0) != np.sign(m1)) & (np.abs(e) > 3 * np.abs(m0))
        d[[0, -1]] = np.where(np.sign(e) != np.sign(m0), 0.0, np.where(over, 3 * m0, e))
    t = (d[:-1] + d[1:] - 2 * m) / h
    i = np.clip(np.searchsorted(x, r, side="right") - 1, 0, len(h) - 1)
    s = r - x[i]
    s2 = s * s
    return (y[i] + d[i] * s) + ((m - d[:-1]) / h - t)[i] * s2 + (t / h)[i] * (s2 * s)


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
    """Mass-derived constants of the Jacobi frame of a pair (ij).

    x = sqrt(2 mu_ij) (r_j - r_i), y = sqrt(2 M_ij) (r_l - cm_ij) turn the
    kinetic energy into -Lap_x - Lap_y; the pair potential of (ij) then has
    argument alpha*|x|.  The cross-pair separations, whose y coefficient is
    gamma, come from ``separation_forms``.  A frame holds its constants
    only: two pairs with equal reduced masses have equal M as well, so their
    frames compare and hash equal and share the two-body caches.
    """

    mu: float
    M: float
    alpha: float
    gamma: float


def jacobi_frame(system: ParticleSystem, pair) -> JacobiFrame:
    """Closed-form frame constants of the pair (i, j), in either order."""
    _canonical_pair(pair)  # validates
    i, j = pair
    (l,) = {1, 2, 3} - {i, j}
    mi, mj, ml = (system.masses[i - 1], system.masses[j - 1], system.masses[l - 1])
    mu = mi * mj / (mi + mj)
    M = (mi + mj) * ml / (mi + mj + ml)
    alpha = 1.0 / math.sqrt(2.0 * mu)
    gamma = 1.0 / math.sqrt(2.0 * M)
    return JacobiFrame(mu=mu, M=M, alpha=alpha, gamma=gamma)


def separation_forms(system: ParticleSystem) -> dict:
    """Linear forms (u, v) with r_b - r_a = u*x + v*y in the frame of (1, 2).

    Keys are canonical pairs; every pair separation is a linear map of the
    frame's Jacobi coordinates, which is what the variational and IMS
    modules consume.
    """
    fr = jacobi_frame(system, (1, 2))
    m1, m2 = system.masses[0], system.masses[1]
    return {
        (1, 2): (fr.alpha, 0.0),
        (1, 3): (m2 / (m1 + m2) * fr.alpha, fr.gamma),
        (2, 3): (-m1 / (m1 + m2) * fr.alpha, fr.gamma),
    }


# ---------------------------------------------------------------------------
# Radial integrals
# ---------------------------------------------------------------------------

# order-8 panels of the radial rule of potential_moment_c and of c'
MOMENT_PANELS = 32


def potential_moment_c(V: PairPotential) -> float:
    """c1 = integral of V(x) d^3x by radial quadrature.

    The integral runs over |x| <= effective_radius; beyond it V is zero or
    below e^-40.  Every frame's c(alpha) = c1 / alpha^3 follows by scaling
    (``faddeev_ops.bound_constants``).
    """
    edges = np.linspace(0.0, V.effective_radius, MOMENT_PANELS + 1)
    r, w = (a.ravel() for a in composite_nodes(edges, 8))
    return float(np.dot(w, 4.0 * math.pi * V.profile(r) * r ** 2))
