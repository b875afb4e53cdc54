"""Two-body Birman-Schwinger operator, critical couplings, and the ODE oracle.

Only the s-wave sector is discretized: the ground state and the threshold
phenomena of the nonnegative radial potential class live there.  The radial
reduction of V^(1/2) (H0 + z^2)^(-1) V^(1/2) has kernel

    k_z(r, r') = V^(1/2)(alpha r) g_z(r, r') V^(1/2)(alpha r'),
    g_z(r, r') = (exp(-z|r-r'|) - exp(-z(r+r'))) / (2 z),   g_0 = min(r, r'),

and the symmetrized Nystrom matrix of k_z keeps the discrete spectrum real.
Everything the matrix route produces is cross-checkable against a fixed-step
4th-order shooting integration of the radial equation, which never sees the
kernel.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BracketError, ConvergenceError, DegenerateInputError
from .model import JacobiFrame, PairPotential, ParticleSystem, jacobi_frame
from .quadrature import composite_nodes, half_line_map, panel_partial_integrals


# radii of the tail masses, in units of the pair range (two-body: range / alpha)
TAIL_MULTIPLES = (1.0, 2.0, 4.0, 8.0, 16.0)
# the control sweep's mass rule: MASS_PANELS Gauss-Legendre panels of MASS_ORDER
# nodes between consecutive tail radii, in t of the map r = scale t/(1 - t)
MASS_ORDER = 32
MASS_PANELS = 2


def swave_green(z: float, r: np.ndarray, rp: np.ndarray) -> np.ndarray:
    """s-wave radial kernel of (-Lap + z^2)^(-1) on L^2(dr)."""
    r = np.asarray(r, dtype=float)[:, None]
    rp = np.asarray(rp, dtype=float)[None, :]
    return _psi_phi(z, np.maximum(r, rp), np.minimum(r, rp))


def _psi_phi(z, ri, rj):
    """Separable factor psi(ri) phi(rj) of the Green kernel (rj 'below' branch).

    g_z(r, r') = phi_z(min) psi_z(max) with phi_z(t) = sinh(z t)/z and
    psi_z(t) = exp(-z t); the paired form below stays finite for every
    within-panel argument order.  It is e^(-z(ri-rj)) (1 - e^(-2 z rj)) / (2 z),
    where expm1 keeps the small-z regime free of cancellation.  z is 0, or
    holds values > 0 that broadcast against ri and rj.
    """
    ri = np.asarray(ri, dtype=float)
    rj = np.asarray(rj, dtype=float)
    if not np.any(z):
        return np.broadcast_to(rj, np.broadcast_shapes(ri.shape, rj.shape)).astype(float)
    return np.exp(-z * (ri - rj)) * (-np.expm1(-2.0 * z * rj)) / (2.0 * z)


# panel edges of bs_radial_rule on [0, 1], graded toward the origin, and the
# Gauss-Legendre order of each panel
RADIAL_EDGES = (np.arange(17) / 16) ** 1.5
RADIAL_ORDER = 8


def bs_radial_rule(V: PairPotential, alpha: float, z=0.0):
    """(nodes, weights, edges) of the graded 128-node rule over the reach of
    V^(1/2) at each entry of z (...): nodes and weights (..., 16, 8), 16
    panels of 8, on the edges (..., 17).  The dense two-body route takes
    one z and the fiber operator a batch of kappas; a row of the batch is
    the rule of its own z, to the bit.

    The Birman-Schwinger kernel carries V^(1/2)(alpha r) on both slots, so a
    finite interval with the square-root decay resolved is exact to rounding.
    At large z the Green kernel sharpens to width 1/z; for decaying profiles
    the span is then capped so panels stay narrow enough for the
    product-integrated diagonal blocks (the truncated region contributes
    at most sup_{r>span} V / z^2).
    """
    z = np.asarray(z, dtype=float)
    if V.support_radius is not None:
        span = np.full(z.shape, V.support_radius / alpha)
    else:
        reach = (8.0 if V.kind == "gaussian" else 60.0) * V.range_ / alpha
        # z = 0 leaves the reach uncapped
        cap = np.divide(30.0, z, out=np.full(z.shape, np.inf), where=z > 0.0)
        span = np.minimum(reach, np.maximum(cap, 10.0 * V.range_ / alpha))
    edges = span[..., None] * RADIAL_EDGES
    return (*composite_nodes(edges, RADIAL_ORDER), edges)


def panel_diagonal_blocks(z, nodes: np.ndarray, weights: np.ndarray,
                          width: np.ndarray) -> np.ndarray:
    """The panel-diagonal blocks (..., P, q, q) of ``green_row_operator``.

    ``nodes`` and ``weights`` (..., P, q) hold composite rules panel by
    panel and ``width`` (..., P) their panel widths; z is a scalar, or one
    value > 0 per rule (...).  A block is product-integrated through the
    semi-separable split, which removes the |r - r'| kink error entirely.
    Polynomial interpolation cannot track exp(z r) across a panel with
    z (b - a) > 4, so such a block stays plain Nystrom, which is harmless
    because the kernel has decayed across it (it sits where V has decayed).
    """
    z = np.asarray(z, dtype=float)[..., None]   # against width (..., P)
    q = nodes.shape[-1]
    ri, rj = nodes[..., :, None], nodes[..., None, :]
    below = _psi_phi(z[..., None, None], ri, rj)   # psi(r_i) phi(r_j): g for r_i >= r_j
    above = _psi_phi(z[..., None, None], rj, ri)   # phi(r_i) psi(r_j): g for r_i <= r_j
    ws = weights[..., None, :]
    tau = (0.5 * width)[..., None, None] * panel_partial_integrals(q)
    product = below * tau + above * (ws - tau)
    plain = np.where(np.tri(q, dtype=bool), below, above) * ws
    return np.where((z * width <= 4.0)[..., None, None], product, plain)


def green_row_operator(z: float, rule) -> np.ndarray:
    """Matrix B with (B f)_i ~ integral g_z(r_i, r') f(r') dr' at the nodes.

    Off-diagonal panel blocks are plain Nystrom (the kernel is smooth
    there); the blocks on the panel diagonal come from
    ``panel_diagonal_blocks``.  ``rule`` is one (nodes, weights, edges)
    triple of ``bs_radial_rule``, nodes and weights (P, q), laid out panel
    by panel along the rows and columns of B.
    """
    nodes, weights, edges = rule
    P, q = nodes.shape
    r, w = nodes.ravel(), weights.ravel()
    B = swave_green(z, r, r) * w[None, :]
    on = np.arange(P)
    # the panel-diagonal blocks, written through a (panel, node) view of B
    B.reshape(P, q, P, q)[on, :, on, :] = panel_diagonal_blocks(
        z, nodes, weights, np.diff(edges))
    return B


def bs_matrix(V: PairPotential, frame: JacobiFrame, z: float, rule) -> np.ndarray:
    """Symmetrized Nystrom matrix of the s-wave Birman-Schwinger kernel on
    one (nodes, weights, edges) rule of ``bs_radial_rule``."""
    if z < 0.0:
        raise ValueError("spectral parameter z must be >= 0")
    nodes, weights, _ = rule
    sqv = np.sqrt(V.profile(frame.alpha * nodes.ravel()))
    sw = np.sqrt(weights.ravel())
    B = green_row_operator(z, rule)
    m = (sqv * sw)[:, None] * B * (sqv / sw)[None, :]
    return 0.5 * (m + m.T)


@lru_cache(maxsize=256)
def bs_max_eigenvalue(V: PairPotential, frame: JacobiFrame, z: float) -> float:
    """Largest eigenvalue mu(z) of the discretized BS operator.

    mu is continuous and strictly decreasing in z.  Each z gets its own
    grid, which resolves the 1/z width of the kernel.  Cached by value: the
    pairs of a system share mu(0) (``critical_coupling``, its one caller at
    z = 0), and the bracket ends of ``_brentq`` the doubling's mu(1), ...
    """
    rule = bs_radial_rule(V, frame.alpha, z=z)
    return float(np.linalg.eigvalsh(bs_matrix(V, frame, z, rule))[-1])


def critical_coupling(V: PairPotential, frame: JacobiFrame) -> float:
    """lambda* = 1/mu(0), the coupling of the zero-energy resonance, or inf
    without attraction (mu(0) <= 1e-14): by Birman-Schwinger the pair is
    neither bound nor resonant exactly when lambda < lambda* (R7)."""
    mu0 = bs_max_eigenvalue(V, frame, 0.0)
    return 1.0 / mu0 if mu0 > 1e-14 else math.inf


@dataclass(frozen=True)
class MarginReport:
    """R7 subcriticality margin of a system: eps = min_pairs lambda* - lambda.

    ``lambda_stars`` holds each pair's ``critical_coupling`` (inf: no attraction).
    """

    coupling: float
    lambda_stars: dict

    @property
    def lambda_star(self) -> float:
        """The smallest pair critical coupling (inf if no pair attracts)."""
        return min(self.lambda_stars.values())

    @property
    def eps(self) -> float:
        return self.lambda_star - self.coupling

    @property
    def satisfied(self) -> bool:
        return self.eps > 0.0


def subcriticality_margin(system: ParticleSystem) -> MarginReport:
    """Margin eps > 0 certifies that no pair is bound or resonant."""
    return MarginReport(coupling=system.coupling, lambda_stars={
        pair: critical_coupling(V, jacobi_frame(system, pair))
        for pair, V in system.potentials.items()})


def twobody_binding_energy(V: PairPotential, frame: JacobiFrame, lam: float) -> float:
    """E2 = -z*^2 with lambda mu(z*) = 1; BracketError for a coupling at or
    below lambda* = ``critical_coupling`` (inf without attraction), which
    has no bound state.

    z* is Brent's root of lambda mu(z) - 1 on [0, z_hi], with z_hi the
    first doubling from 1 where lambda mu(z_hi) < 1, at ``_brentq``'s
    default stop (2e-12 absolute plus 4 eps = 8.9e-16 relative in z).  E2
    then stays within 1e-6 relative of the shooting oracle down to
    lambda*(1 + 1e-4).
    """
    if lam <= 0.0:
        raise ValueError("coupling must be positive")
    if lam <= critical_coupling(V, frame):
        raise BracketError(f"coupling {lam} is subcritical; no bound state")
    z_hi = 1.0
    for _ in range(64):
        if lam * bs_max_eigenvalue(V, frame, z_hi) < 1.0:
            break
        z_hi *= 2.0
    else:
        raise BracketError("could not bracket the binding momentum")
    # _brentq starts from both bracket ends, which the cache already holds
    z_star = _brentq(lambda z: lam * bs_max_eigenvalue(V, frame, z) - 1.0, 0.0, z_hi)
    return -z_star ** 2


def _bound_state_size(V: PairPotential, frame: JacobiFrame, k: float, radii):
    """(lambda, E2, <r^2>, (R, T(R)) at each of the increasing ``radii``) of
    the bound state at momentum kappa = k alpha / range.

    By the Birman-Schwinger principle that state has E2 = -kappa^2 at
    lambda = 1/mu(kappa), and one ``eigh`` of K(kappa) gives mu and the
    eigenvector psi, from which u = lambda G_kappa V^(1/2) phi is rebuilt on
    the mass rule.  Every R/(R + scale) is a panel edge of that rule, so T(R)
    is the mass of the panels beyond R over the norm: a sum of positive
    terms.  BracketError for k <= 0 (``sweep_two_body`` checks lambda > lambda*).
    """
    if not k > 0.0:
        raise BracketError(f"momentum {k!r} is not positive; no bound state")
    kappa = float(k * frame.alpha / V.range_)
    wrule = bs_radial_rule(V, frame.alpha, z=kappa)
    mus, vecs = np.linalg.eigh(bs_matrix(V, frame, kappa, wrule))
    lam = 1.0 / float(mus[-1])
    rn, rw = wrule[0].ravel(), wrule[1].ravel()
    phi = vecs[:, -1] / np.sqrt(rw)
    sqv = np.sqrt(V.profile(frame.alpha * rn))

    scale = max(3.0 * V.range_ / frame.alpha, 3.0 / kappa)
    cuts = np.concatenate([[0.0], radii / (radii + scale), [1.0]])
    # MASS_PANELS equal panels between consecutive cuts, the cuts kept exact
    edges = np.interp(np.arange(MASS_PANELS * (len(cuts) - 1) + 1) / MASS_PANELS,
                      np.arange(len(cuts)), cuts)
    r, w = half_line_map(*composite_nodes(edges, MASS_ORDER), scale)
    u = lam * (swave_green(kappa, r.ravel(), rn) @ (rw * sqv * phi))
    uu = u.reshape(r.shape) ** 2
    mass = np.sum(w * uu, axis=1)
    norm = float(np.sum(mass))
    beyond = np.cumsum(mass[::-1])[::-1]   # mass of panel j and all after it
    tails = tuple((float(R), float(beyond[MASS_PANELS * (j + 1)]) / norm)
                  for j, R in enumerate(radii))
    return lam, -kappa ** 2, float(np.sum(w * r ** 2 * uu)) / norm, tails


# ---------------------------------------------------------------------------
# Brent's method
# ---------------------------------------------------------------------------

def _signbit(v: float) -> bool:
    return math.copysign(1.0, v) < 0.0


def _brentq(f, a: float, b: float, xtol: float = 2e-12,
            rtol: float = 4.0 * sys.float_info.epsilon, maxiter: int = 100) -> float:
    """Root of f in [a, b] by Brent's method (Brent, Algorithms for
    Minimization without Derivatives, 1973, ch. 4).

    A line-for-line port of scipy's brentq.c, so it returns the bits
    ``scipy.optimize.brentq`` returns: the same bracket swap, inverse
    interpolation and extrapolation steps, and the stop once half the
    bracket is below delta = (xtol + rtol |x|) / 2.  ValueError if f(a)
    and f(b) have the same sign or f returns NaN; ConvergenceError after
    ``maxiter`` steps.
    """
    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.nan   # C's inf or NaN quotient, which the test below rejects
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                # bisect
                spre = scur = sbis
        else:
            # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = value(xcur)
    raise ConvergenceError(f"failed to converge after {maxiter} iterations, value is {xcur}")


# ---------------------------------------------------------------------------
# Shooting oracle (independent of the kernel route)
# ---------------------------------------------------------------------------

# steps per block of the prefix product.  A block grows u by at most about
# exp(SCAN_BLOCK kappa h); at the energies the oracle brackets that stays
# under e^4, far inside the float range the 1e200 guard leaves
SCAN_BLOCK = 256


@dataclass(frozen=True, eq=False)
class ShootingResult:
    nodes: int
    defect: float
    u: np.ndarray   # u at every grid point i * step
    du_end: float
    step: float

    @property
    def u_end(self) -> float:
        return float(self.u[-1])


def _integration_span(V: PairPotential, frame: JacobiFrame) -> float:
    """Span covering the potential; exterior behaviour is handled in closed form."""
    return 1.25 * V.effective_radius / frame.alpha + 1.0


def _rk4_step_increments(w_left, w_half, w_right, h: float):
    """Entries (a, b, c, d) of M - I for the RK4 step matrices M of u'' = w u.

    The radial equation is linear, so one RK4 step maps (u, u') through a
    fixed 2x2 matrix M; the stage increments applied to the unit vectors
    (1, 0) and (0, 1) give the columns (a, c) and (b, d) of M - I.  Keeping
    the identity apart stops the rounding of 1 + O(h^2) entries, the same
    on every step of a flat stretch of V, from adding up along the grid.
    """
    h2 = 0.5 * h

    def increment(u, du):
        k1u, k1v = du, w_left * u
        k2u, k2v = du + h2 * k1v, w_half * (u + h2 * k1u)
        k3u, k3v = du + h2 * k2v, w_half * (u + h2 * k2u)
        k4u, k4v = du + h * k3v, w_right * (u + h * k3u)
        return ((h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
                (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))

    a, c = increment(1.0, 0.0)
    b, d = increment(0.0, 1.0)
    return a, b, c, d


def _block_prefix_products(a, b, c, d):
    """Prefix products M_j ... M_1 within each row of (n_blocks, SCAN_BLOCK) arrays.

    The arrays hold M - I and are overwritten with the products minus I,
    by Hillis-Steele doubling: after the pass with shift s, entry j holds
    the product of the steps j - 2s + 1 ... j of its block.  In that form
    (I + X)(I + Y) = I + X + Y + XY.
    """
    s = 1
    while s < a.shape[1]:
        xa, xb, xc, xd = a[:, s:], b[:, s:], c[:, s:], d[:, s:]
        ya, yb, yc, yd = a[:, :-s], b[:, :-s], c[:, :-s], d[:, :-s]
        a2 = xa + ya + (xa * ya + xb * yc)
        b2 = xb + yb + (xa * yb + xb * yd)
        c2 = xc + yc + (xc * ya + xd * yc)
        d2 = xd + yd + (xc * yb + xd * yd)
        a[:, s:], b[:, s:], c[:, s:], d[:, s:] = a2, b2, c2, d2
        s *= 2


def shooting_oracle(V: PairPotential, frame: JacobiFrame, lam: float,
                    energy: float, n_steps: int = 20000) -> ShootingResult:
    """Integrate -u'' - lam V(alpha r) u = E u outward from u(0) = 0.

    Fixed-step RK4; returns the sign-change count of u and the matching
    defect u' + kappa u at the outer boundary (kappa = sqrt(-E); at E = 0
    the defect is u', the coefficient of the growing exterior solution).
    For discontinuous profiles the step is snapped to the support edge so
    every RK4 step sees a smooth right-hand side.  The trajectory is the
    prefix product of the RK4 step matrices, taken block by block with the
    state carried between blocks; ``u`` holds it at every grid point.
    """
    if lam < 0.0:
        raise ValueError("coupling must be >= 0")
    if energy > 0.0:
        raise ValueError("oracle only treats E <= 0")
    r_max = _integration_span(V, frame)
    h = r_max / n_steps
    edge = V.support_radius
    if edge is not None:
        edge_r = edge / frame.alpha
        n_inner = max(1, int(math.ceil(edge_r / h)))
        h = edge_r / n_inner
        n_steps = int(math.ceil(r_max / h))

    grid = h * np.arange(n_steps + 1)
    # one-sided samples keep each RK4 step on a smooth branch of a
    # discontinuous profile (the edge sits exactly on a step boundary)
    eps = 1e-9 * h
    w_left = -(lam * V.profile(frame.alpha * (grid[:-1] + eps)) + energy)
    w_half = -(lam * V.profile(frame.alpha * (grid[:-1] + 0.5 * h)) + energy)
    w_right = -(lam * V.profile(frame.alpha * (grid[1:] - eps)) + energy)

    n_blocks = -(-n_steps // SCAN_BLOCK)
    # zero increments pad the last block with identity steps, which leave
    # the end state and the sign sequence as they are
    pad = n_blocks * SCAN_BLOCK - n_steps
    a, b, c, d = (np.concatenate([m, np.zeros(pad)]).reshape(n_blocks, SCAN_BLOCK)
                  for m in _rk4_step_increments(w_left, w_half, w_right, h))
    _block_prefix_products(a, b, c, d)

    us = np.empty(n_blocks * SCAN_BLOCK + 1)
    signs = np.empty(us.size, dtype=np.int8)
    us[0], signs[0] = 0.0, 0
    u, du = 0.0, 1.0
    for k in range(n_blocks):
        bu = u + (a[k] * u + b[k] * du)
        bdu = du + (c[k] * u + d[k] * du)
        sl = slice(k * SCAN_BLOCK + 1, (k + 1) * SCAN_BLOCK + 1)
        us[sl] = bu
        signs[sl] = np.sign(bu)   # taken before a rescaling can flush them to 0
        u, du = float(bu[-1]), float(bdu[-1])
        mag = max(np.max(np.abs(bu)), np.max(np.abs(bdu)))
        if mag > 1e200:  # linear ODE: rescaling changes nothing observable
            us[:sl.stop] /= mag
            u /= mag
            du /= mag
    nonzero = signs[signs != 0]
    nodes = int(np.count_nonzero(nonzero[1:] != nonzero[:-1]))
    kappa = math.sqrt(-energy) if energy < 0.0 else 0.0
    scale = max(abs(u), abs(du), 1e-300)
    return ShootingResult(
        nodes=nodes,
        defect=(du + kappa * u) / scale,
        u=us[:n_steps + 1],
        du_end=du,
        step=h,
    )


def total_nodes(res: ShootingResult, energy: float) -> int:
    """Node count including zeros beyond the integration span.

    Outside the (numerically) vanished potential the solution is linear at
    E = 0 or a combination P e^(k r) + Q e^(-k r) at E < 0, so whether one
    more zero occurs is decided by the end values alone.
    """
    u, du = res.u_end, res.du_end
    if energy == 0.0:
        extra = 1 if u * du < 0.0 else 0
    else:
        kappa = math.sqrt(-energy)
        p = u + du / kappa
        q = u - du / kappa
        extra = 1 if (p * q < 0.0 and abs(q) > abs(p)) else 0
    return res.nodes + extra


def _first_root(count, f, lo, hi, xtol: float) -> float:
    """Root of f at the first state of a monotone ``count``, 0 at lo and >= 1
    at hi.  Bisection on count narrows [lo, hi] until its upper end holds one
    state; f then changes sign once in it, and Brent takes the root."""
    while count(hi) > 1:
        mid = 0.5 * (lo + hi)
        if count(mid) >= 1:
            hi = mid
        else:
            lo = mid
    return _brentq(f, lo, hi, xtol=xtol, rtol=8.9e-16)


@lru_cache(maxsize=32)
def oracle_critical_coupling(V: PairPotential, frame: JacobiFrame) -> float:
    """lambda*, where the zero-energy solution gains a node (by Sturm, a bound
    state) and its exterior slope changes sign.  The bracket ends at the first
    of 1, 2, 4, ... (64 tried) with a node, halved while hi/2 has one too."""
    # the searches and _brentq share their shots, kept as (nodes, defect)
    @lru_cache(maxsize=None)
    def shot(lam):
        res = shooting_oracle(V, frame, lam, 0.0)
        return total_nodes(res, 0.0), res.defect

    hi = 1.0
    for _ in range(64):
        if shot(hi)[0] >= 1:
            break
        hi *= 2.0
    else:
        raise BracketError("no zero-energy node up to coupling 2**63")
    while shot(hi / 2.0)[0] >= 1:
        hi /= 2.0
    return _first_root(lambda x: shot(x)[0], lambda x: shot(x)[1], hi / 2.0, hi, xtol=1e-12)


def oracle_binding_energy(V: PairPotential, frame: JacobiFrame, lam: float) -> float:
    """Ground-state energy: Brent's root of the exterior-matching defect, on
    the bracket ``_first_root`` narrows by node count to the ground state."""
    e_lo = -1.01 * lam * float(np.max(V.profile(np.linspace(0.0, V.effective_radius, 512))))
    e_hi = -1e-13

    # the node counts and _brentq share their shots, kept as (nodes, defect)
    @lru_cache(maxsize=None)
    def shot(E):
        res = shooting_oracle(V, frame, lam, E)
        return total_nodes(res, E), res.defect

    if shot(e_hi)[0] < 1:
        raise BracketError("no bound state at this coupling")
    if shot(e_lo)[0] > 0:
        raise BracketError("energy scan floor still has a node")
    # E2 shrinks toward 0 at threshold, so the stop is relative: a negligible
    # xtol leaves rtol in charge
    return _first_root(lambda E: shot(E)[0], lambda E: shot(E)[1], e_lo, e_hi, xtol=1e-300)


# ---------------------------------------------------------------------------
# Sweep support
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TwoBodyPoint:
    """One row of a two-body control sweep: the bound state at E2 = -kappa^2
    and the coupling 1/mu(kappa) that binds it."""

    coupling: float
    lambda_star: float
    E2: float
    r2: float
    eps_R7: float
    tail: tuple


def sweep_two_body(V: PairPotential, frame: JacobiFrame, momenta):
    """Control sweep k -> (lambda, E2, <r^2>, tails) for the spreading contrast.

    Each dimensionless momentum k > 0 sets kappa = k alpha / range and gives
    one point: E2 = -kappa^2 exactly and lambda = 1/mu(kappa), from one
    ``eigh`` of K(kappa) and no root search.  lambda* = ``critical_coupling``;
    DegenerateInputError once if it is inf (no attraction).  A k <= 0, or a
    k whose coupling 1/mu(kappa) is not above lambda*, raises BracketError.
    <r^2>, the norm and the tails at TAIL_MULTIPLES of range / alpha (and
    beyond the last) are sums over the panels of the mass rule.
    """
    lam_star = critical_coupling(V, frame)
    if lam_star == math.inf:
        raise DegenerateInputError("potential has no attraction: lambda* = inf")
    tail_radii = np.array(TAIL_MULTIPLES) * V.range_ / frame.alpha
    points = []
    for k in momenta:
        lam, e2, r2, tail = _bound_state_size(V, frame, k, tail_radii)
        if not lam > lam_star:
            raise BracketError(f"momentum {k!r}: coupling 1/mu(kappa) = {lam!r} is "
                               f"not above lambda* = {lam_star!r}")
        points.append(TwoBodyPoint(coupling=lam, lambda_star=lam_star, E2=e2, r2=r2,
                                   eps_R7=lam_star - lam, tail=tail))
    return points
