"""Channel multiplier, fiber kernels, and certified norm bounds.

After the partial Fourier transform in the spectator coordinate, the
channel operator (H0 + z^2)^(-1) V^(1/2) B(z) acts fiber-wise in the
spectator momentum p.  Each fiber is a 3D resolvent kernel times
V^(1/2)(alpha x) and the scalar multiplier (t(p) + 1) + z.  Its s-wave
reduction m(kappa), kappa = hypot(p, z), is the two-body Nystrom matrix,
applied as an operator and never formed: its Green kernel is
semi-separable, so the panel-diagonal blocks and one sum per panel carry
all of it, and the norms of every kappa come from one batched Lanczos
iteration, with one stacked eigh of the small tridiagonals per step.  The
genuinely cross-channel object is audited through its Hilbert-Schmidt
norm, which collapses to a 1D momentum integral with the constants c, c',
c~ in front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .model import (
    MOMENT_PANELS,
    JacobiFrame,
    PairPotential,
    potential_moment_c,
)
from .quadrature import composite_nodes, half_line_map
from .twobody import (
    RADIAL_EDGES,
    RADIAL_ORDER,
    bs_max_eigenvalue,
    bs_radial_rule,
    panel_diagonal_blocks,
)


def t_multiplier(p):
    """t(p) = (sqrt(p) - 1) on p <= 1 and 0 beyond, elementwise over a float
    or an array p >= 0; continuous at p = 1."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0.0):
        raise ValueError("momentum magnitude must be >= 0")
    return np.where(p <= 1.0, np.sqrt(p) - 1.0, 0.0)[()]


@dataclass(frozen=True)
class BoundConstants:
    """The four finite constants entering the channel norm bounds.

    c   = integral V(alpha x) d^3x = alpha^-3 integral V(x) d^3x
    c'  = integral exp(-2|x|)/|x|^2 d^3x            (= 2 pi)
    c'' = sup_p [t(p) + 1]^2 / p                     (= 1)
    c~  = gamma^-6 integral |FT(V^(1/2))(p/gamma)|^2 d^3p
        = gamma^-3 integral V(x) d^3x                (Plancherel)
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
    """c' and c'' by quadrature; c = c1 / alpha^3 and, through Plancherel's
    identity, c~ = c1 / gamma^3 from the one quadrature c1 of integral V
    (no closed forms consumed)."""
    c1 = potential_moment_c(V)
    r, w = (a.ravel() for a in half_line_map(
        *composite_nodes(np.linspace(0.0, 1.0, MOMENT_PANELS + 1), 8), 1.0))
    c_prime = 4.0 * math.pi * float(np.dot(w, np.exp(-2.0 * r)))
    ps = np.concatenate([np.linspace(1e-6, 1.0, 2001), np.linspace(1.0, 10.0, 101)])
    c_dprime = float(np.max((t_multiplier(ps) + 1.0) ** 2 / ps))
    return BoundConstants(c=c1 / frame.alpha ** 3, c_prime=c_prime, c_dprime=c_dprime,
                          c_tilde=c1 / frame.gamma ** 3)


# ---------------------------------------------------------------------------
# Fiber norms of K1(z) + K2(z)
# ---------------------------------------------------------------------------

# kappa stops once its Ritz pair (theta, y) has |G y - theta y| <= FIBER_RESIDUAL theta
FIBER_RESIDUAL = 1e-9
# array elements per kappa chunk of the fiber operator's panel-diagonal
# blocks; bounds the memory of fiber_norms.  2^16 is 64 kappas of 16 panels
# of 8 x 8: fiber_norms on a 30 x 48 (z, p) grid then peaks at 5.4 MB traced
# (21.2 MB at 256 kappas), with the same bits and no loss of speed
FIBER_BLOCK_ELEMENTS = 2 ** 16


class _FiberGram:
    """G = m^T m for the fiber matrices m(kappa) of a batch of kappas, never formed.

    m(kappa) = diag(sw) B diag(V^(1/2) / sw) is the Nystrom matrix of
    g_kappa(r, r') V^(1/2)(alpha r') on L^2, with B the
    ``green_row_operator`` of kappa on its own ``bs_radial_rule`` and sw the
    square roots of the weights.  Its panel-diagonal blocks are kept as
    (K, P, q, q) arrays.  Across panels the kernel factors as
    g(r, r') = e^(-kappa |r - r'|) h(min(r, r')), h(r) = -expm1(-2 kappa r) / (2 kappa),
    so the off-diagonal blocks act through one weighted sum per panel and a
    P x P matrix of the decays e^(-kappa (e_p - e_(p'+1))) from the right
    edge of panel p' < p to the left edge of panel p.  Every exponent is
    <= 0, so nothing overflows at any kappa * span.  Each kappa's products
    are elementwise maps and sums along its own rows, so they do not depend
    on which other kappas share the batch.
    """

    def __init__(self, V: PairPotential, frame: JacobiFrame, kappas: np.ndarray):
        r, w, edges = bs_radial_rule(V, frame.alpha, kappas)
        k = kappas[:, None, None]
        sw = np.sqrt(w)
        sqv = np.sqrt(V.profile(frame.alpha * r))
        blocks = panel_diagonal_blocks(kappas, r, w, np.diff(edges))
        h = -np.expm1(-2.0 * k * r) / (2.0 * k)
        gap = edges[:, :-1, None] - edges[:, None, 1:]
        self.n = r.shape[1] * r.shape[2]
        self.full = (
            sw,                                              # left scaling of m
            sw * sqv,                                        # right scaling of m
            np.exp(-k * (edges[:, 1:, None] - r)) * h,       # to the right edge
            np.exp(-k * (r - edges[:, :-1, None])),          # from the left edge
            np.tril(np.exp(-k * np.maximum(gap, 0.0)), -1),  # panel p' < p to p
            sw[..., :, None] * blocks * (sqv / sw)[..., None, :],
        )
        self.rows, self.parts = None, None

    @staticmethod
    def _green(v, right, left, decay):
        """sum over r' outside the panel of r of g(r, r') v(r'), v (k, P, q)."""
        below = np.einsum("kpt,kt->kp", decay, np.einsum("kpq,kpq->kp", right, v))
        above = np.einsum("ktp,kt->kp", decay, np.einsum("kpq,kpq->kp", left, v))
        return left * below[..., None] + right * above[..., None]

    def __call__(self, x: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """G x for x (k, n), one row per kappa of ``rows``, indices into the batch."""
        if rows is not self.rows:   # the running set changed: slice its parts once
            self.rows, self.parts = rows, [a[rows] for a in self.full]
        sw, swv, right, left, decay, blocks = self.parts
        x = x.reshape(sw.shape)
        y = sw * self._green(swv * x, right, left, decay) \
            + np.einsum("kpij,kpj->kpi", blocks, x)
        g = swv * self._green(sw * y, right, left, decay) \
            + np.einsum("kpij,kpi->kpj", blocks, y)
        return g.reshape(len(rows), self.n)


def _top_singular_values(gram, kappas: np.ndarray, n: int) -> np.ndarray:
    """Largest singular value of each m(kappa), by Lanczos on G = m^T m.

    ``gram(x, rows)`` applies G of the kappas ``kappas[rows]`` to the rows of
    x (k, n).  Every kappa runs its own Lanczos recursion, all in lockstep:
    from the start q = (1, ..., 1) / sqrt(n), each new Lanczos vector is
    orthogonalized twice against all earlier ones.  After j steps the top
    Ritz pair (theta, y) of the tridiagonal T_j has residual
    |G y - theta y| = beta_j |s_j|, so the stop at beta_j |s_j| <=
    FIBER_RESIDUAL theta costs no extra product with G.  One stacked eigh of
    the running kappas' T_j (at most 12 x 12 on the audit grids) gives every
    theta and last eigenvector component s_j of a step.  By the Kato-Temple
    bound theta then lies within (FIBER_RESIDUAL theta)^2 / gap of the top
    eigenvalue of G.  The step count grows like 1 / sqrt(gap), not like
    1 / gap as for a power iteration, and the Krylov space is all of R^n
    after n steps, where the Ritz value is exact; failing the stop by then
    raises ConvergenceError naming kappa, as does a non-finite product of G
    at the step where it appears.  A kappa leaves the batch when it stops,
    so no beta_j = 0 is divided by.  The start needs a component along the
    top eigenvector: on the audit grids G is entrywise positive, so by
    Perron-Frobenius that eigenvector is positive.
    """
    norms = np.empty(len(kappas))
    rows = np.arange(len(kappas))
    basis = np.empty((len(rows), min(n, 16), n))   # doubled in steps as it fills
    diag = np.empty((len(rows), n))
    off = np.empty((len(rows), n))
    q = np.full((len(rows), n), n ** -0.5)
    for j in range(n):
        if j == basis.shape[1]:
            basis = np.concatenate([basis, np.empty_like(basis[:, :min(j, n - j)])], axis=1)
        basis[:, j] = q
        w = gram(q, rows)
        diag[:, j] = np.einsum("kn,kn->k", w, q)
        done = basis[:, :j + 1]
        for _ in range(2):
            w -= np.einsum("kj,kjn->kn", np.einsum("kjn,kn->kj", done, w), done)
        off[:, j] = np.sqrt(np.einsum("kn,kn->k", w, w))
        # a non-finite T or beta_j can fail eigh for the whole stack
        bad = ~(np.isfinite(diag[:, j]) & np.isfinite(off[:, j]))
        if bad.any():
            raise ConvergenceError(
                f"fiber norm Lanczos run met a non-finite product of G at step {j} "
                f"at kappa = {float(kappas[rows[np.argmax(bad)]])!r}")
        t = np.zeros((len(rows), j + 1, j + 1))
        t[:, range(j + 1), range(j + 1)] = diag[:, :j + 1]
        t[:, range(1, j + 1), range(j)] = off[:, :j]   # eigh reads the lower triangle
        theta, s = np.linalg.eigh(t)
        theta, s_last = theta[:, -1], s[:, -1, -1]
        stop = off[:, j] * np.abs(s_last) <= FIBER_RESIDUAL * theta
        norms[rows[stop]] = np.sqrt(theta[stop])
        if stop.any():
            rows, basis, diag, off, w = (a[~stop] for a in (rows, basis, diag, off, w))
            if not len(rows):
                return norms
        q = w / off[:, j, None]
    raise ConvergenceError(
        f"fiber norm Lanczos run met no stop in {n} steps at kappa = {float(kappas[rows[0]])!r}")


def _fiber_base_norms(V: PairPotential, frame: JacobiFrame, kappas: np.ndarray) -> np.ndarray:
    """|m(kappa)| for each kappa, over chunks of the batched operator."""
    chunk = max(1, FIBER_BLOCK_ELEMENTS // (len(RADIAL_EDGES) - 1) // RADIAL_ORDER ** 2)
    out = np.empty(len(kappas))
    for lo in range(0, len(kappas), chunk):
        part = kappas[lo:lo + chunk]
        gram = _FiberGram(V, frame, part)
        out[lo:lo + chunk] = _top_singular_values(gram, part, gram.n)
    return out


def fiber_norms(V: PairPotential, frame: JacobiFrame, z, p):
    """Operator norms (|K1|, |K2|, |K1 + K2|) of the fixed-p fibers.

    z and p broadcast against each other; each norm has their broadcast
    shape.  K1 and K2 share the resolvent-times-V^(1/2) kernel and differ
    only in the scalar multipliers t(p)+1 and z, so one singular value
    serves all three.  It depends on kappa = hypot(p, z) alone and is
    computed once per distinct kappa; a kappa's norm does not depend on
    the other kappas of the grid.
    """
    z, p = np.broadcast_arrays(np.asarray(z, dtype=float), np.asarray(p, dtype=float))
    if not np.all((z > 0.0) & (z <= 1.0)):
        raise ValueError("fiber audits run on z in (0, 1]")
    m1 = t_multiplier(p) + 1.0
    # math.hypot, not np.hypot: the two differ in the last bit at some points
    kappa = np.vectorize(math.hypot, otypes=[float])(p, z)
    kappas, where = np.unique(kappa.ravel(), return_inverse=True)
    base = _fiber_base_norms(V, frame, kappas)[where].reshape(kappa.shape)
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
    p, w = (a.ravel() for a in composite_nodes(edges, n_per_panel))
    bracket = 1.0 / (z + np.sqrt(p)) - 1.0 / (z + 1.0)
    vals = p ** 2 * bracket ** 2 / np.sqrt(p ** 2 + z ** 2)
    return 4.0 * math.pi * float(np.dot(w, vals))


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
