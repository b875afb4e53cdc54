"""Variational three-body solver over symmetrized correlated Gaussians.

Trial functions are exp(-q.(A x I3).q / 2) with 2x2 symmetric
positive-definite forms A on the Jacobi pair (x, y); every Hamiltonian and
moment matrix element is closed-form Gaussian algebra.  For identical
bosons each form is summed over its orbit under the S3 permutation action,
which acts on (x, y) by orthogonal 2x2 blocks.  Stochastic growth of the
form list gives the variational sweep machinery: energies E(lambda),
size observables, tail masses, and the spreading diagnostic that contrasts
the three-body threshold with the two-body one.

Every solve works on one regularized span of the overlap matrix
(``_span``).  Growth scores a pool of candidates from one decomposition of
the committed basis by the rank-one secular update, and the critical
coupling is one generalized eigenvalue on the span.

Tail masses are exact up to a fixed 1D quadrature: under every Gaussian pair
of |psi|^2 the hyperradius obeys rho^2 = s1 X + s2 Y with X, Y ~ chi^2_3, a
convolution integral (Imhof 1961).  Moments and tail probabilities depend only
on the basis, so they are kept as cached kernel matrices and every sweep
point costs a few quadratic forms.  Quasi-Monte Carlo survives only in the
tests, as an independent oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import minimize, nnls
from scipy.special import erfc

from .errors import BasisError, BracketError, FitError
from .model import PairPotential, ParticleSystem, jacobi_frame, separation_forms
from .quadrature import gauss_legendre
from .twobody import MarginReport, subcriticality_margin, twobody_binding_energy

TWO_PI_CUBED = (2.0 * math.pi) ** 3


# ---------------------------------------------------------------------------
# Permutation action on the Jacobi pair (equal masses)
# ---------------------------------------------------------------------------

def permutation_matrices(identical: bool) -> np.ndarray:
    """Orthogonal 2x2 blocks representing S3 on (x, y); identity first."""
    if not identical:
        return np.eye(2)[None, :, :]
    t12 = np.array([[-1.0, 0.0], [0.0, 1.0]])
    t23 = np.array([[0.5, math.sqrt(3.0) / 2.0], [math.sqrt(3.0) / 2.0, -0.5]])
    mats = [np.eye(2)]
    frontier = [np.eye(2)]
    while frontier:
        m = frontier.pop()
        for gen in (t12, t23):
            cand = gen @ m
            if not any(np.allclose(cand, have, atol=1e-12) for have in mats):
                mats.append(cand)
                frontier.append(cand)
    assert len(mats) == 6
    rest = sorted(mats[1:], key=lambda m: tuple(np.round(m.ravel(), 12)))
    return np.stack([mats[0]] + rest)


def transform_form(form, T) -> np.ndarray:
    """(a11, a12, a22) of T^t A T, broadcast over the leading axes of both."""
    form = np.asarray(form, dtype=float)
    T = np.asarray(T, dtype=float)
    a11, a12, a22 = form[..., 0], form[..., 1], form[..., 2]
    t11, t12, t21, t22 = T[..., 0, 0], T[..., 0, 1], T[..., 1, 0], T[..., 1, 1]
    # columns of A T
    u1, u2 = a11 * t11 + a12 * t21, a12 * t11 + a22 * t21
    v1, v2 = a11 * t12 + a12 * t22, a12 * t12 + a22 * t22
    return np.stack([t11 * u1 + t21 * u2, t11 * v1 + t21 * v2, t12 * v1 + t22 * v2],
                    axis=-1)


# ---------------------------------------------------------------------------
# Potential representation: nonnegative Gaussian sums
# ---------------------------------------------------------------------------

FIT_MAX_TERMS = 8
FIT_REL_TOL = 1e-3


@lru_cache(maxsize=32)
def fit_gaussian_terms(V: PairPotential):
    """Fit V by a nonnegative sum of at most 8 Gaussians on a radial grid.

    Gaussian-kind potentials pass through exactly.  Widths start from a
    greedy pick over a log-spaced ladder and are polished by Nelder-Mead
    with the amplitudes re-solved by nonnegative least squares at every
    step; the residual is relative L2(r^2 dr) and must stay below 1e-3.
    Deterministic.
    """
    if V.kind == "gaussian":
        return ((1.0, V.range_),)
    # extend past compact supports so the fit is forced to decay there
    r_hi = V.effective_radius if V.support_radius is None else 3.0 * V.support_radius
    r = np.linspace(1e-4, r_hi, 1200)
    target = V.profile(r)
    b = target * r
    b_norm = math.sqrt(float(np.sum(b ** 2)))
    if b_norm == 0.0:
        return ()

    def design_for(widths):
        return np.exp(-((r[:, None] / widths[None, :]) ** 2)) * r[:, None]

    ladder = np.geomspace(V.range_ / 12.0, 12.0 * V.range_, 48)
    full = design_for(ladder)
    col_norms = np.linalg.norm(full, axis=0)
    selected: list[int] = []
    resid_vec = b.copy()
    for _ in range(FIT_MAX_TERMS):
        scores = full.T @ resid_vec / col_norms
        k = int(np.argmax(scores))
        if k not in selected:
            selected.append(k)
        coef, _ = nnls(full[:, selected], b)
        resid_vec = b - full[:, selected] @ coef

    def residual(log_w):
        coef, rn = nnls(design_for(np.exp(log_w)), b)
        return rn / b_norm

    x0 = np.log(ladder[sorted(selected)])
    best = minimize(residual, x0, method="Nelder-Mead",
                    options=dict(maxiter=3000, xatol=1e-4, fatol=1e-14))
    widths = np.exp(best.x if best.fun < residual(x0) else x0)
    coef, rn = nnls(design_for(widths), b)
    resid = rn / b_norm
    if resid > FIT_REL_TOL:
        raise FitError(
            f"{V.kind} profile not representable by {FIT_MAX_TERMS} Gaussians: "
            f"relative L2 residual {resid:.3e} > {FIT_REL_TOL:g}"
        )
    keep = coef > 0.0
    return tuple((float(c), float(w)) for c, w in zip(coef[keep], widths[keep]))


def pair_terms(system: ParticleSystem) -> dict:
    """Gaussian terms for every pair potential of the system."""
    return {pair: fit_gaussian_terms(pot) for pair, pot in system.potentials.items()}


# ---------------------------------------------------------------------------
# Closed-form matrix elements (vectorized over form arrays)
# ---------------------------------------------------------------------------

def _pair_traces(fa, fb):
    """tr(A B C) data for form arrays fa (..., 3) against fb (..., 3)."""
    a11, a12, a22 = fa[..., 0], fa[..., 1], fa[..., 2]
    p11, p12, p22 = fb[..., 0], fb[..., 1], fb[..., 2]
    b11, b12, b22 = a11 + p11, a12 + p12, a22 + p22
    det = b11 * b22 - b12 * b12
    c11, c12, c22 = b22 / det, -b12 / det, b11 / det
    return (a11, a12, a22), (p11, p12, p22), det, (c11, c12, c22)


def element_block(fa, fb, sep_terms, with_h0sq: bool = False):
    """Overlap, kinetic, pair-potential, and moment elements.

    ``sep_terms`` maps a separation form (u, v) to its Gaussian terms; the
    returned dict carries arrays broadcast over the input form arrays.
    """
    (a11, a12, a22), (p11, p12, p22), det, (c11, c12, c22) = _pair_traces(fa, fb)
    S = TWO_PI_CUBED * det ** -1.5

    m11 = a11 * p11 + a12 * p12
    m12 = a11 * p12 + a12 * p22
    m21 = a12 * p11 + a22 * p12
    m22 = a12 * p12 + a22 * p22
    tr_aac = m11 * c11 + (m12 + m21) * c12 + m22 * c22
    kinetic = 3.0 * tr_aac * S

    pot = np.zeros_like(S)
    for (u, v), terms in sep_terms:
        sig2 = u * u * c11 + 2.0 * u * v * c12 + v * v * c22
        for strength, width in terms:
            pot = pot + S * strength * (1.0 + 2.0 * sig2 / width ** 2) ** -1.5

    out = {
        "overlap": S,
        "kinetic": kinetic,
        "potential": pot,
        "x2": 3.0 * c11 * S,
        "y2": 3.0 * c22 * S,
        "rho2": 3.0 * (c11 + c22) * S,
    }
    if with_h0sq:
        q11 = a11 * a11 + a12 * a12
        q12 = a12 * (a11 + a22)
        q22 = a22 * a22 + a12 * a12
        r11 = p11 * p11 + p12 * p12
        r12 = p12 * (p11 + p22)
        r22 = p22 * p22 + p12 * p12
        tr_mc = q11 * c11 + 2.0 * q12 * c12 + q22 * c22
        tr_nc = r11 * c11 + 2.0 * r12 * c12 + r22 * c22
        # X = M C, Y = N C (general 2x2); E[(qMq)(qNq)] needs tr(X Y)
        x11 = q11 * c11 + q12 * c12
        x12 = q11 * c12 + q12 * c22
        x21 = q12 * c11 + q22 * c12
        x22 = q12 * c12 + q22 * c22
        y11 = r11 * c11 + r12 * c12
        y12 = r11 * c12 + r12 * c22
        y21 = r12 * c11 + r22 * c12
        y22 = r12 * c12 + r22 * c22
        tr_xy = x11 * y11 + x12 * y21 + x21 * y12 + x22 * y22
        e2 = 9.0 * tr_mc * tr_nc + 6.0 * tr_xy
        tra = a11 + a22
        trb = p11 + p22
        out["h0sq"] = S * (e2 - 3.0 * trb * 3.0 * tr_mc - 3.0 * tra * 3.0 * tr_nc
                           + 9.0 * tra * trb)
    return out


# ---------------------------------------------------------------------------
# Basis and operator assembly
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CorrelatedGaussianBasis:
    """List of SPD quadratic forms plus the symmetrization convention."""

    forms: np.ndarray            # (n, 3) rows (a11, a12, a22)
    symmetrized: bool
    seed: int

    def __post_init__(self):
        forms = np.atleast_2d(np.asarray(self.forms, dtype=float))
        object.__setattr__(self, "forms", forms)
        det = forms[:, 0] * forms[:, 2] - forms[:, 1] ** 2
        if np.any(det <= 0.0) or np.any(forms[:, 0] <= 0.0):
            raise BasisError("every quadratic form must be positive-definite")

    def __len__(self):
        return self.forms.shape[0]


class _Assembler:
    """Incremental closed-form matrices for a growing basis."""

    def __init__(self, system: ParticleSystem, symmetrized: bool):
        self.system = system
        self.symmetrized = symmetrized
        self.perms = permutation_matrices(symmetrized)
        forms = separation_forms(system, (1, 2))
        terms = pair_terms(system)
        self.sep_terms = [(forms[p], terms[p]) for p in sorted(forms)]
        self.n = 0
        self.forms = np.zeros((0, 3))
        self.images = np.zeros((0, len(self.perms), 3))
        self.scale = np.zeros(0)
        self.N = np.zeros((0, 0))
        self.T = np.zeros((0, 0))
        self.V = np.zeros((0, 0))
        self._kernels = {}
        self._kernels_n = 0

    def _border(self, forms):
        """Unit-normalized elements of each row of ``forms`` against the basis.

        One vectorized ``element_block`` call each gives the one-sided
        (N, T, V) rows against every committed element, the (N, T, V)
        diagonals and the primitive norms.  Returns the images (k, p, 3),
        the rows (k, n), the diagonals (k,) and the scales d_new (k,) that
        give each form unit norm.
        """
        forms = np.atleast_2d(np.asarray(forms, dtype=float))
        images = transform_form(forms[:, None, :], self.perms)
        p = len(self.perms)
        keys = ("overlap", "kinetic", "potential")
        blocks = element_block(forms[:, None, None, :], self.images[None], self.sep_terms)
        self_blocks = element_block(forms[:, None, :], images, self.sep_terms)
        prim_norm = element_block(forms, forms, self.sep_terms)["overlap"]
        d_new = 1.0 / np.sqrt(prim_norm)
        row_scale = self.scale * d_new[:, None]
        rows = tuple(p * np.sum(blocks[key], axis=2) * row_scale for key in keys)
        diags = tuple(p * np.sum(self_blocks[key], axis=1) * d_new ** 2 for key in keys)
        return images, rows, diags, d_new

    def add(self, form):
        form = np.asarray(form, dtype=float)
        images, rows, diags, d_new = self._border(form)
        self.N, self.T, self.V = (_bordered(mat, row[0], diag[0]) for mat, row, diag
                                  in zip((self.N, self.T, self.V), rows, diags))
        self.forms = np.vstack([self.forms, form[None, :]])
        self.images = np.concatenate([self.images, images], axis=0)
        self.scale = np.append(self.scale, d_new)
        self.n += 1

    def trial_energy(self, form, coupling: float) -> float:
        """Ground energy if ``form`` were appended (no commit), by a full solve."""
        _, (row_n, row_t, row_v), (diag_n, diag_t, diag_v), _ = self._border(form)
        return _bordered_ground(self.T - coupling * self.V, self.N,
                                row_t[0] - coupling * row_v[0], row_n[0],
                                diag_t[0] - coupling * diag_v[0], diag_n[0])

    def trial_energies(self, forms, coupling: float) -> np.ndarray:
        """``trial_energy`` of every row of ``forms``, from one decomposition.

        The committed basis is decomposed once: W = P Q spans it
        N-orthonormally with W^t H W = diag(e).  A candidate with unit
        overlap row b and norm d leaves the Gram-Schmidt residual
        r^2 = d - |W^t b|^2.  In the basis (W, residual) the bordered
        Hamiltonian is an arrowhead matrix, and its lowest eigenvalue is the
        root below e_0 of its secular equation: the rank-one update of Varga
        and Suzuki (1995), O(n^2) per candidate instead of O(n^3).

        The update is exact where ``solve_ground`` would drop no direction,
        so the full solve scores the rest: a candidate with
        r^2 <= RESIDUAL_FRACTION * d, every candidate when the committed
        overlap already has a dropped direction, and a candidate whose
        bordered overlap would have one.  The bordered overlap is an
        arrowhead in the eigenbasis of N, so its extreme eigenvalues come
        from the same secular solver.
        """
        forms = np.atleast_2d(np.asarray(forms, dtype=float))
        _, (b_n, b_t, b_v), (d_n, d_t, d_v), _ = self._border(forms)
        b_h = b_t - coupling * b_v
        d_h = d_t - coupling * d_v
        if self.n == 0:
            return d_h / d_n
        H = self.T - coupling * self.V
        span = _span(self.N)
        e, Q = np.linalg.eigh(span.P.T @ H @ span.P)
        W = span.P @ Q
        a = b_n @ W
        h = b_h @ W
        r2 = d_n - np.einsum("ij,ij->i", a, a)
        independent = r2 > RESIDUAL_FRACTION * d_n
        r2 = np.where(independent, r2, 1.0)
        z = (h - e * a) / np.sqrt(r2)[:, None]
        g = (d_h - 2.0 * np.einsum("ij,ij->i", a, h) + (a * a) @ e) / r2
        energies, exact = _secular_lowest(e, z, g)
        # extreme eigenvalues of the bordered overlap, an arrowhead in the
        # eigenbasis of N; the largest is minus the lowest of its negative
        beta = b_n @ span.U
        s_min, min_ok = _secular_lowest(span.s, beta, d_n)
        neg_max, max_ok = _secular_lowest(-span.s[::-1], beta[:, ::-1], -d_n)
        kept = s_min > (1.0 + DROP_MARGIN) * DROP_TOL * -neg_max
        exact &= independent & min_ok & max_ok & kept & (span.dropped == 0)
        for i in np.flatnonzero(~exact):
            energies[i] = _bordered_ground(H, self.N, b_h[i], b_n[i], d_h[i], d_n[i])
        return energies

    def hamiltonian(self, coupling: float):
        return self.T - coupling * self.V, self.N

    def solve(self, coupling: float):
        return solve_ground(*self.hamiltonian(coupling))

    def kernel(self, key, build):
        """``build(self)``, computed once per basis size.

        Every cached matrix depends on the basis alone, and the basis only
        changes through ``add``, which raises ``n``: a size change empties
        the cache.
        """
        if self._kernels_n != self.n:
            self._kernels, self._kernels_n = {}, self.n
        if key not in self._kernels:
            self._kernels[key] = build(self)
        return self._kernels[key]

    def moment_matrix(self, key: str):
        """Unit-normalized matrix of one moment (``MOMENT_KEYS``) on the basis."""
        return self.kernel("moments", _moment_matrices)[key]

    def basis(self, seed: int) -> CorrelatedGaussianBasis:
        return CorrelatedGaussianBasis(self.forms.copy(), self.symmetrized, seed)


def _bordered(mat, row, diag):
    """``mat`` grown by one symmetric row and column."""
    n = mat.shape[0]
    out = np.empty((n + 1, n + 1))
    out[:n, :n] = mat
    out[n, :n] = out[:n, n] = row
    out[n, n] = diag
    return out


def _bordered_ground(H, N, row_h, row_n, diag_h, diag_n) -> float:
    """``solve_ground`` energy of (H, N) grown by one row; inf if degenerate."""
    try:
        return solve_ground(_bordered(H, row_h, diag_h), _bordered(N, row_n, diag_n))[0]
    except BasisError:
        return math.inf


# a candidate whose Gram-Schmidt residual r^2 is at most this fraction of its
# norm is scored by the full solve instead of the secular equation
RESIDUAL_FRACTION = 1e-6
# relative margin on DROP_TOL within which rounding in the full solve could
# decide whether a direction of a bordered overlap is dropped
DROP_MARGIN = 1e-2
SECULAR_MAX_STEPS = 50


def _secular_lowest(e, z, g):
    """Lowest eigenvalue of each arrowhead [[diag(e), z_i], [z_i^t, g_i]].

    ``e`` is ascending and shared; ``z`` and ``g`` hold one row per
    arrowhead.  The eigenvalue is e_0 - t for the root t > 0 of
    f(t) = p / t + psi(t), with p = z_0^2 and
    psi(t) = e_0 - g - t + sum_{k>0} z_k^2 / (e_k - e_0 + t) decreasing and
    convex on t > 0.  Each step keeps the pole p / t exact and replaces psi
    by its tangent, which lies below psi: the model root is a lower bound
    on t, so the iterates climb monotonically to the root and stay strictly
    off the pole at t = 0.  The first step takes psi = e_0 - g - t, the
    2 x 2 arrowhead.  Returns the eigenvalues and a mask of the rows that
    started at t > 0 and converged.
    """
    gap = e[1:] - e[0]
    p = z[:, 0] ** 2
    w = z[:, 1:] ** 2
    c = e[0] - g
    # the positive root of t^2 - c t - p, without cancellation
    t = np.maximum(c, 0.0) + 2.0 * p / np.maximum(np.abs(c) + np.sqrt(c * c + 4.0 * p),
                                                  np.finfo(float).tiny)
    start = t > 0.0
    # rows without a positive start are made inert: f(t) = 1 - t, solved at t = 1
    t, c, p = np.where(start, t, 1.0), np.where(start, c, 1.0), np.where(start, p, 0.0)
    w = np.where(start[:, None], w, 0.0)
    for _ in range(SECULAR_MAX_STEPS):
        inv = 1.0 / (gap + t[:, None])
        far = np.einsum("ij,ij->i", w, inv)
        slope = 1.0 + np.einsum("ij,ij->i", w, inv * inv)
        # the tangent model p / t + psi(t0) - slope (t - t0) = 0 is a quadratic in t
        b = c + far + (slope - 1.0) * t
        t_new = (np.maximum(b, 0.0) / slope
                 + 2.0 * p / (np.abs(b) + np.sqrt(b * b + 4.0 * slope * p)))
        # converged: a relative step at the last digits, or f(t) at its rounding floor
        f = c - t + p / t + far
        done = ((np.abs(t_new - t) <= 1e-12 * t_new)
                | (np.abs(f) <= 1e-14 * (np.abs(c) + t + p / t + far)))
        t = t_new
        if np.all(done):
            break
    return e[0] - t, start & done


# array elements per vectorized block of a kernel build; bounds its memory
BLOCK_ELEMENTS = 2 ** 16
MOMENT_KEYS = ("x2", "y2", "rho2", "h0sq")


def _from_upper(asm: _Assembler, upper, lo_i, hi_j):
    """Symmetric unit-normalized matrix from its entries at pairs i <= j."""
    n = asm.n
    scaled = upper * (asm.scale[lo_i] * asm.scale[hi_j])
    mat = np.empty((n, n))
    mat[lo_i, hi_j] = scaled
    mat[hi_j, lo_i] = scaled
    return mat


def _moment_matrices(asm: _Assembler) -> dict:
    """Every moment matrix, one-sided over images, for pairs i <= j in blocks.

    rho^2 and H0^2 are S3-invariant, so the double image sum is the group
    order times the sum of the later form against the images of the other
    (as in N).  x^2 and y^2 are not invariant, but x^2 - y^2 and 2 x.y carry
    the two-dimensional irreducible representation, whose group average
    vanishes: between symmetrized states x^2 = y^2 = rho^2 / 2 (Schur's
    lemma).  With the identity alone (p = 1) the one-sided sum is the
    double sum.
    """
    n, p = asm.images.shape[:2]
    lo_i, hi_j = np.triu_indices(n)
    upper = {key: np.empty(len(lo_i)) for key in MOMENT_KEYS}
    step = max(1, BLOCK_ELEMENTS // p)
    for lo in range(0, len(lo_i), step):
        sl = slice(lo, lo + step)
        blocks = element_block(asm.forms[hi_j[sl], None, :], asm.images[lo_i[sl]],
                               asm.sep_terms, with_h0sq=True)
        for key in MOMENT_KEYS:
            upper[key][sl] = p * np.sum(blocks[key], axis=1)
    if asm.symmetrized:
        upper["x2"] = upper["y2"] = 0.5 * upper["rho2"]
    return {key: _from_upper(asm, vals, lo_i, hi_j) for key, vals in upper.items()}


# Gauss-Legendre nodes in theta of each pair's tail integral, x = a sin^2(theta)
TAIL_NODES = 32


def _chi2_3_survival(v):
    """P(X > v) for X ~ chi^2 with three degrees of freedom."""
    return erfc(np.sqrt(0.5 * v)) + np.sqrt(2.0 * v / math.pi) * np.exp(-0.5 * v)


def _tail_kernels(asm: _Assembler, radii):
    """One tail kernel per radius, one-sided over images.

    |psi|^2 is a sum of Gaussians exp(-q.(B x I3).q / 2) with
    B = A_j + g^t A_i g.  Under each, rho^2 = s1 X + s2 Y with X, Y ~ chi^2_3
    and s1 >= s2 the eigenvalues of B^-1, so P(rho > R) is

        int_0^a f3(x) Q3((R^2 - s1 x) / s2) dx + Q3(a),   a = R^2 / s1,

    with f3 the chi^2_3 density and Q3 its survival function (Imhof 1961).
    With b = R^2 / s2 and x = a sin^2(theta) the integral becomes

        sqrt(2/pi) a^1.5 int_0^(pi/2) sin^2 cos e^(-a sin^2 / 2) Q3(b cos^2) dtheta,

    whose integrand is analytic: the substitution removes the sqrt(x)
    singularity of f3 at 0, and Q3(v) = 1 - O(v^1.5) turns into a power
    series in cos(theta) at the other end.  rho^2 is S3-invariant, so the
    double image sum is the one-sided sum times the group order; the
    kernels are symmetric, so only pairs i <= j are integrated.  The
    weights use element_block's overlap arithmetic, so at R = 0, where every
    probability is exactly 1, the kernel is the overlap matrix N.
    """
    n, p = asm.images.shape[:2]
    rule = gauss_legendre(TAIL_NODES, 0.0, 0.5 * math.pi)
    sin2 = np.sin(rule.nodes) ** 2
    cos2 = np.cos(rule.nodes) ** 2
    w = rule.weights * sin2 * np.cos(rule.nodes)
    lo_i, hi_j = np.triu_indices(n)
    outside = [np.zeros(len(lo_i)) for _ in radii]
    step = max(1, BLOCK_ELEMENTS // (p * TAIL_NODES))
    for lo in range(0, len(lo_i), step):
        sl = slice(lo, lo + step)
        # later form first, as in N
        b11, b12, b22 = np.moveaxis(asm.forms[hi_j[sl], None, :] + asm.images[lo_i[sl]],
                                    -1, 0)
        det = b11 * b22 - b12 * b12
        weight = TWO_PI_CUBED * det ** -1.5
        # eigenvalues of B, i.e. 1/s1 <= 1/s2
        eig_hi = 0.5 * (b11 + b22) + np.sqrt(0.25 * (b11 - b22) ** 2 + b12 * b12)
        eig_lo = det / eig_hi
        for R, out in zip(radii, outside):
            a = R * R * eig_lo
            b = R * R * eig_hi
            inner = np.exp(-0.5 * a[..., None] * sin2) * _chi2_3_survival(b[..., None] * cos2)
            prob = math.sqrt(2.0 / math.pi) * a ** 1.5 * (inner @ w) + _chi2_3_survival(a)
            out[sl] = p * np.sum(weight * prob, axis=1)
    return [_from_upper(asm, o, lo_i, hi_j) for o in outside]


def assembler_for(basis: CorrelatedGaussianBasis, system: ParticleSystem) -> _Assembler:
    asm = _Assembler(system, basis.symmetrized)
    for form in basis.forms:
        asm.add(form)
    return asm


# overlap eigen-directions below DROP_TOL * s_max are dropped from every solve
DROP_TOL = 1e-12

# The solve path uses numpy.linalg alone.  scipy.linalg links its own copy of
# BLAS, and when the two alternate with more than one BLAS thread, each
# library's idle threads stall the other's: a 150-form solve took 24 ms mixed
# and 7.5 ms with numpy alone on two cores.


class _Span(NamedTuple):
    """Regularized N-orthonormal span of a basis (see ``_span``)."""

    P: np.ndarray           # P^t N P = I over the kept overlap directions
    dropped: int            # directions with s <= DROP_TOL * s_max
    s: np.ndarray           # overlap eigenvalues, ascending
    U: np.ndarray           # their eigenvectors

    @property
    def cond(self) -> float:
        """cond(N) = s_max / s_min, inf when N is numerically singular."""
        return float(self.s[-1] / self.s[0]) if self.s[0] > 0.0 else math.inf


def _span(N) -> _Span:
    """Keep the overlap eigen-directions with s > DROP_TOL * s_max.

    ``solve_ground``, the pool scorer and the critical-coupling eigenproblem
    all work in this span, so the regularization is defined here alone.
    """
    s, U = np.linalg.eigh(N)
    keep = s > DROP_TOL * s[-1]
    if not np.any(keep):
        raise BasisError("overlap matrix has no usable directions")
    return _Span(U[:, keep] / np.sqrt(s[keep]), int(np.sum(~keep)), s, U)


def solve_ground(H: np.ndarray, N: np.ndarray):
    """Lowest generalized eigenpair on the regularized span of N (``_span``).

    The returned coefficients satisfy <c, N c> = 1.
    """
    H = np.asarray(H, dtype=float)
    N = np.asarray(N, dtype=float)
    if H.shape != N.shape or H.shape[0] != H.shape[1]:
        raise ValueError("H and N must be square of equal dimension")
    P = _span(N).P
    vals, vecs = np.linalg.eigh(P.T @ H @ P)
    return float(vals[0]), P @ vecs[:, 0]


# ---------------------------------------------------------------------------
# Stochastic growth
# ---------------------------------------------------------------------------

def _propose_form(rng, lo: float, hi: float, inv_len2: float) -> np.ndarray:
    e1, e2 = 10.0 ** rng.uniform(math.log10(lo), math.log10(hi), size=2) * inv_len2
    # half the pool is axis-aligned: product states (tight pair x loose
    # spectator) live exactly there and uniform angles almost never hit them
    ang = rng.uniform(0.0, math.pi) if rng.uniform() < 0.5 else 0.0
    cs, sn = math.cos(ang), math.sin(ang)
    a11 = e1 * cs * cs + e2 * sn * sn
    a22 = e1 * sn * sn + e2 * cs * cs
    a12 = (e1 - e2) * cs * sn
    return np.array([a11, a12, a22])


def grow_basis(system: ParticleSystem, budget: int, seed: int,
               asm: _Assembler | None = None) -> CorrelatedGaussianBasis:
    """Grow the form list by keeping pool winners that lower E3.

    Each pool holds 16 candidates; its winner is kept when it lowers E3 by
    more than 1e-8.  Scales are proposed log-uniformly in
    [1e-2, 1e2] x (pair range)^-2; when a whole pool brings no gain the
    window widens tenfold (to a cap) so weakly bound halo states can still
    extend the basis.  Deterministic for a given seed.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    if asm is None:
        asm = _Assembler(system, system.identical_bosons)
    inv_len2 = 1.0 / max(p.range_ for p in system.potentials.values()) ** 2
    lo, hi = 1e-2, 1e2
    lam = system.coupling
    current = math.inf if asm.n == 0 else asm.solve(lam)[0]
    stalls = 0
    marginal = 0
    while asm.n < budget:
        cands = np.array([_propose_form(rng, lo, hi, inv_len2) for _ in range(16)])
        energies = asm.trial_energies(cands, lam)
        best = int(np.argmin(energies))
        gain = current - energies[best]
        if gain > 1e-8 or asm.n == 0:
            asm.add(cands[best])
            current = min(energies[best], current)
            stalls = 0
            # once gains are marginal relative to the energy the window is
            # exhausted; widen so broader/narrower scales become reachable
            marginal = marginal + 1 if gain < 1e-4 * abs(current) else 0
            if marginal >= 3 and lo > 1e-6:
                lo, hi = lo / 10.0, hi * 10.0
                marginal = 0
        else:
            stalls += 1
            if lo > 1e-6:
                lo, hi = lo / 10.0, hi * 10.0
            elif stalls > 6:
                break  # no representable improvement left
    return asm.basis(seed)


# ---------------------------------------------------------------------------
# Records and sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRecord:
    """One coupling point of a sweep: energy, sizes, tails, diagnostics."""

    coupling: float
    E3: float
    k: float | None
    r2_x: float
    r2_y: float
    rho2: float
    tail: tuple
    eps_R7: float
    kinetic_norm: float
    bound: bool


DEFAULT_TAIL_MULTIPLES = (1.0, 2.0, 4.0, 8.0, 16.0)


def _expectations(asm: _Assembler, c: np.ndarray):
    return {key: float(c @ asm.moment_matrix(key) @ c) for key in MOMENT_KEYS}


def tail_masses(asm: _Assembler, c: np.ndarray, radii, seed=None):
    """T(R) = |chi_{rho > R} psi|^2 / |psi|^2 by the chi^2 convolution.

    The kernels come from ``_tail_kernels`` and are cached on ``asm`` per
    radius set, so each call after the first is one quadratic form per
    radius; |psi|^2 is c.N.c.  The route is deterministic: ``seed`` has no effect and is only
    accepted for callers that still pass one.
    """
    radii = tuple(float(R) for R in radii)
    outside = asm.kernel(("tails", radii), lambda a: _tail_kernels(a, radii))
    total = float(c @ asm.N @ c)
    return [(R, float(c @ K @ c) / total) for R, K in zip(radii, outside)]


def record_point(asm: _Assembler, system_coupling: float, eps_r7: float,
                 tail_radii) -> SweepRecord:
    """Solve at one coupling and assemble the full sweep record."""
    e3, c = asm.solve(system_coupling)
    if e3 >= 0.0:
        return SweepRecord(
            coupling=system_coupling, E3=e3, k=None,
            r2_x=math.nan, r2_y=math.nan, rho2=math.nan,
            tail=(), eps_R7=eps_r7, kinetic_norm=math.nan, bound=False,
        )
    mom = _expectations(asm, c)
    tails = tail_masses(asm, c, tail_radii)
    return SweepRecord(
        coupling=float(system_coupling),
        E3=float(e3),
        k=math.sqrt(-e3),
        r2_x=mom["x2"],
        r2_y=mom["y2"],
        rho2=mom["rho2"],
        tail=tuple(tails),
        eps_R7=float(eps_r7),
        kinetic_norm=math.sqrt(max(mom["h0sq"], 0.0)),
        bound=True,
    )


@dataclass(frozen=True)
class CriticalBracket:
    """Three-body critical coupling, its certified bracket and conditioning.

    lambda_cr is where the variational E3 of the final basis crosses -tol;
    direct solves certify E3(lam_lo) >= -tol > E3(lam_hi).  cond_N and
    dropped_directions describe the regularized overlap of that basis.
    """

    lambda_cr: float
    lam_lo: float
    lam_hi: float
    tol_energy: float
    lambda_star: float      # smallest pair critical coupling of the system
    cond_N: float
    dropped_directions: int


def _energy_scale(system: ParticleSystem, margin: MarginReport) -> float:
    """|E2(2 lambda*)| of the most attractive pair: the natural energy unit."""
    pair = min(margin.lambda_stars, key=margin.lambda_stars.get)
    lam_star = margin.lambda_stars[pair]
    frame = jacobi_frame(system, pair)
    e2 = twobody_binding_energy(system.potential(pair), frame, 2.0 * lam_star)
    return abs(e2)


def _crossing(asm: _Assembler, tol_e: float) -> float:
    """The coupling where the lowest E3 of the basis crosses -tol_e.

    E3(lambda) < -tol_e exactly when T - lambda V + tol_e N has a negative
    direction, i.e. when lambda > 1/mu_max for the largest mu of
    V c = mu (T + tol_e N) c: the Birman-Schwinger criterion on the
    regularized span.  inf when V has no positive direction there.
    """
    P = _span(asm.N).P
    mu = eigh(P.T @ asm.V @ P, P.T @ asm.T @ P + tol_e * np.eye(P.shape[1]),
              eigvals_only=True)[-1]
    return float(1.0 / mu) if mu > 0.0 else math.inf


REFINE_STAGES = 2
# half-width of the certified bracket around lambda_cr, in units of lambda*
BRACKET_HALF_WIDTH = 2.5e-6


def critical_coupling_3body(system: ParticleSystem, budget: int, seed: int,
                            scan=(0.3, 1.5)):
    """Locate the coupling where the variational E3 crosses -tol.

    A basis grown at the deep end of the scan gives lambda_cr from one
    generalized eigenvalue (``_crossing``); two refinement stages re-grow
    at lambda_cr (1 + 0.05 / 10^stage), so the near-threshold halo is
    representable, and solve it again.  Two direct solves then certify the
    bracket lambda_cr -/+ 2.5e-6 lambda*: BracketError if they disagree with
    the eigenvalue, if the crossing lies above the scan ("scan exhausted")
    or below it ("already bound").  lambda_cr is a variational upper bound
    on the true critical coupling.
    """
    margin = subcriticality_margin(system)
    lam_star = min(margin.lambda_stars.values())
    tol_e = 1e-6 * _energy_scale(system, margin)
    lam_lo0, lam_hi0 = scan[0] * lam_star, scan[1] * lam_star

    asm = _Assembler(system, system.identical_bosons)
    stage_budgets = np.linspace(budget / (REFINE_STAGES + 1.0), budget,
                                REFINE_STAGES + 1).astype(int)
    grow_basis(system_with_coupling(system, lam_hi0), int(stage_budgets[0]), seed, asm=asm)
    for stage in range(REFINE_STAGES + 1):
        lam_cr = _crossing(asm, tol_e)
        if lam_cr >= lam_hi0:
            raise BracketError(
                f"no three-body binding up to lambda = {lam_hi0:.6g}; scan exhausted"
            )
        # a richer basis can only push the crossing down
        if lam_cr <= lam_lo0:
            raise BracketError("already bound at the bottom of the scan range")
        if stage < REFINE_STAGES:
            # re-grow ever closer to the estimate so the halo that carries
            # the near-threshold records is representable
            near = system_with_coupling(system, lam_cr * (1.0 + 0.05 / 10.0 ** stage))
            grow_basis(near, int(stage_budgets[stage + 1]), seed + stage + 1, asm=asm)
    lam_lo = lam_cr - BRACKET_HALF_WIDTH * lam_star
    lam_hi = lam_cr + BRACKET_HALF_WIDTH * lam_star
    e_lo, e_hi = asm.solve(lam_lo)[0], asm.solve(lam_hi)[0]
    if not e_lo >= -tol_e > e_hi:
        raise BracketError(
            f"crossing at lambda = {lam_cr!r} not certified: E3 = {e_lo!r} at "
            f"{lam_lo!r} and {e_hi!r} at {lam_hi!r} against -tol = {-tol_e!r}"
        )
    span = _span(asm.N)
    return CriticalBracket(
        lambda_cr=lam_cr,
        lam_lo=lam_lo,
        lam_hi=lam_hi,
        tol_energy=tol_e,
        lambda_star=lam_star,
        cond_N=span.cond,
        dropped_directions=span.dropped,
    ), asm


def system_with_coupling(system: ParticleSystem, coupling: float) -> ParticleSystem:
    return ParticleSystem(system.masses, dict(system.potentials), coupling)


def sweep_three_body(system: ParticleSystem, couplings, asm: _Assembler,
                     lambda_star: float, tail_radii=None):
    """Fixed-basis sweep over couplings, one SweepRecord per point.

    ``lambda_star`` is the smallest pair critical coupling (as carried by
    ``CriticalBracket.lambda_star``); each record's eps_R7 is its distance
    below it.
    """
    if tail_radii is None:
        rng = max(p.range_ for p in system.potentials.values())
        tail_radii = tuple(m * rng for m in DEFAULT_TAIL_MULTIPLES)
    records = []
    for lam in couplings:
        records.append(record_point(asm, float(lam), lambda_star - float(lam),
                                    tail_radii))
    return records


# ---------------------------------------------------------------------------
# Spreading diagnostic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpreadingVerdict:
    verdict: str
    r0: float | None
    sup_tail_at_r0: float | None
    size_exponent: float
    rho2_ratio_last_decade: float


def spreading_diagnostic(points) -> SpreadingVerdict:
    """Classify a sweep as (non-)spreading-consistent from its tail masses.

    ``points`` holds one (|E|, <r^2>, tails) triple per bound sweep point,
    with tails the (R, T(R)) pairs at radii shared by all points.
    Non-spreading: some fixed radius keeps at least half the mass inside
    along the whole sweep.  Spreading: every recorded radius ends up with
    tail mass near 1.  The attached exponent is the log-log slope of
    <r^2> against 1/|E|.
    """
    points = sorted(points, key=lambda pt: -pt[0])
    if len(points) < 4:
        raise ValueError("spreading diagnostic needs at least 4 sweep points")

    tails = [tail for _, _, tail in points]
    radii = [R for R, _ in tails[0]]
    sup_by_radius = {
        R: max(tail[i][1] for tail in tails) for i, R in enumerate(radii)
    }
    xs = np.log([1.0 / e for e, _, _ in points])
    ys = np.log([size for _, size, _ in points])
    if np.ptp(xs) > 0.0:
        exponent = float(np.polyfit(xs, ys, 1)[0])
    else:
        exponent = math.nan  # constant sweep: no slope to fit
    ratio = points[-1][1] / points[0][1]

    r0 = next((R for R in radii if sup_by_radius[R] <= 0.5), None)
    if r0 is not None:
        verdict = "non-spreading-consistent"
    elif all(t >= 0.8 for _, t in tails[-1]) and all(
            tl >= tf for (_, tl), (_, tf) in zip(tails[-1], tails[0])):
        verdict = "spreading-consistent"
    else:
        verdict = "inconclusive"
    return SpreadingVerdict(
        verdict=verdict,
        r0=r0,
        sup_tail_at_r0=None if r0 is None else sup_by_radius[r0],
        size_exponent=exponent,
        rho2_ratio_last_decade=float(ratio),
    )
