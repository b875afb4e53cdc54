"""Variational three-body solver over symmetrized correlated Gaussians.

Trial functions are exp(-q.(A x I3).q / 2) with 2x2 symmetric
positive-definite forms A on the Jacobi pair (x, y); every Hamiltonian and
moment matrix element is closed-form Gaussian algebra.  For identical
bosons each form is summed over its orbit under the S3 permutation action,
which acts on (x, y) by orthogonal 2x2 blocks.  Stochastic growth of the
form list gives the variational sweep machinery: energies E(lambda),
size observables, tail masses, and the spreading diagnostic that contrasts
the three-body threshold with the two-body one.

A fixed basis is built in one fold over its pairs of forms i <= j
(``_pair_kernels``), and only growth borders the matrices one row at a time.
Every solve works on one regularized span of the overlap matrix
(``_span``), which the assembler decomposes once per basis.  Growth scores a
pool of candidates from that decomposition by the rank-one secular update,
and the critical coupling is one generalized eigenvalue on the span.

Tail masses are exact up to a fixed 1D quadrature: under every Gaussian pair
of |psi|^2, six-dimensional polar coordinates do the hyperradial integral in
closed form and leave one hyperangular integral of exponentials, whose
weight does not depend on the pair.  Moments and tail probabilities depend
only on the basis, so they are kept, beside the span, in the assembler's
``kernel`` cache, which lasts for one basis (``add`` empties it), and every
sweep point costs a few quadratic forms.  The chi^2_3 convolution (Imhof
1961) survives only in the tests (``tests/oracles.py``), as an independent
oracle.
"""

from __future__ import annotations

import math
from functools import lru_cache
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import BasisError, BracketError, ConvergenceError, DegenerateInputError, FitError
from .model import PairPotential, ParticleSystem, jacobi_frame, separation_forms
from .quadrature import composite_nodes
from .twobody import (TAIL_MULTIPLES, MarginReport, subcriticality_margin,
                      twobody_binding_energy)

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
# Potential representation: nonnegative Gaussian sums on a fixed width ladder
# ---------------------------------------------------------------------------
# Widths fixed in advance leave the amplitudes to one nonnegative least-squares
# solve: exponential-sum approximation on a geometric grid of exponents
# (Beylkin and Monzon, Appl. Comput. Harmon. Anal. 19 (2005) 17).

FIT_WIDTHS = 16
FIT_REL_TOL = 1e-3


def _nnls(A: np.ndarray, b: np.ndarray):
    """(x, ||A x - b||) minimizing ||A x - b|| over x >= 0.

    The Lawson-Hanson active-set method (Lawson and Hanson, Solving Least
    Squares Problems, 1974, ch. 23): move into the passive set the column
    with the largest dual w = A^t (b - A x), solve the least-squares problem
    on the passive columns, and step back to the feasible boundary while a
    passive coefficient would turn nonpositive.  Every step works on the
    triangular factor R of A = Q R and on Q^t b, which leave the residual
    unchanged up to the constant |b - Q Q^t b|.  Stops once no dual exceeds
    10 max(m, n) eps ||A||_F ||b||, the rounding level of w; ConvergenceError
    after 3 n passes.
    """
    m, n = A.shape
    Q, R = np.linalg.qr(A)
    c = Q.T @ b
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    tol = 10.0 * max(m, n) * np.finfo(float).eps * np.linalg.norm(R) * np.linalg.norm(b)
    for _ in range(3 * n):
        w = np.where(passive, -np.inf, R.T @ (c - R @ x))
        j = int(np.argmax(w))
        if w[j] <= tol:
            return x, float(np.linalg.norm(A @ x - b))
        passive[j] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(R[:, passive], c, rcond=None)[0]
            if np.all(z[passive] > 0.0):
                break
            # the largest step toward z that keeps every coefficient >= 0
            neg = passive & (z <= 0.0)
            k = np.flatnonzero(neg)[np.argmin(x[neg] / (x[neg] - z[neg]))]
            x += x[k] / (x[k] - z[k]) * (z - x)
            passive &= x > 0.0
            passive[k] = False
            x[~passive] = 0.0
        x = z
    raise ConvergenceError(f"nnls did not converge in {3 * n} passes")


@lru_cache(maxsize=32)
def fit_gaussian_terms(V: PairPotential):
    """Fit V by a nonnegative sum of Gaussians on a fixed ladder of widths.

    Gaussian-kind potentials pass through exactly.  Otherwise one ``_nnls`` solve
    on a 1200-point radial grid fits V(r) r over FIT_WIDTHS widths from
    range/12 to 12 range; widths with zero amplitude are dropped.  The
    residual is relative L2(r^2 dr) and must stay below FIT_REL_TOL, else
    FitError.  Deterministic.
    """
    if V.kind == "gaussian":
        return ((1.0, V.range_),)
    # extend past compact supports so the fit is forced to decay there
    r_hi = V.effective_radius if V.support_radius is None else 3.0 * V.support_radius
    r = np.linspace(1e-4, r_hi, 1200)
    b = V.profile(r) * r
    b_norm = math.sqrt(float(np.sum(b ** 2)))
    if b_norm == 0.0:
        return ()
    widths = np.geomspace(V.range_ / 12.0, 12.0 * V.range_, FIT_WIDTHS)
    coef, rn = _nnls(np.exp(-((r[:, None] / widths) ** 2)) * r[:, None], b)
    resid = rn / b_norm
    if resid > FIT_REL_TOL:
        raise FitError(
            f"{V.kind} profile not representable on the {FIT_WIDTHS}-width Gaussian "
            f"ladder: relative L2 residual {resid:.3e} > {FIT_REL_TOL:g}"
        )
    keep = coef > 0.0
    return tuple((float(c), float(w)) for c, w in zip(coef[keep], widths[keep]))


# ---------------------------------------------------------------------------
# Closed-form matrix elements (vectorized over form arrays)
# ---------------------------------------------------------------------------

def _sum_form(fa, fb):
    """B = A + P of two form arrays as (b11, b12, b22), det B, and the overlap
    S = (2 pi)^3 det(B)^-1.5 of the two Gaussians."""
    b11, b12, b22 = (fa[..., k] + fb[..., k] for k in range(3))
    det = b11 * b22 - b12 * b12
    return (b11, b12, b22), det, TWO_PI_CUBED * det ** -1.5


def element_block(fa, fb, sep_terms, moments: bool = False):
    """Overlap, kinetic and pair-potential elements, and with ``moments`` the
    MOMENT_KEYS elements, each S(B) f(B^-1) for B = A + P (``_sum_form``).

    ``sep_terms`` maps a separation form (u, v) to its Gaussian terms; the
    returned dict carries arrays broadcast over the input form arrays.
    """
    a11, a12, a22 = fa[..., 0], fa[..., 1], fa[..., 2]
    p11, p12, p22 = fb[..., 0], fb[..., 1], fb[..., 2]
    (b11, b12, b22), det, S = _sum_form(fa, fb)
    c11, c12, c22 = b22 / det, -b12 / det, b11 / det

    m11 = a11 * p11 + a12 * p12
    m12 = a11 * p12 + a12 * p22
    m21 = a12 * p11 + a22 * p12
    m22 = a12 * p12 + a22 * p22
    tr_aac = m11 * c11 + (m12 + m21) * c12 + m22 * c22
    kinetic = 3.0 * tr_aac * S

    pot = np.zeros_like(S)
    for (u, v), terms in sep_terms:
        two_sig2 = 2.0 * (u * u * c11 + 2.0 * u * v * c12 + v * v * c22)
        for strength, width in terms:
            # S strength (1 + 2 sig2 / width^2)^-1.5, in place
            term = two_sig2 / width ** 2
            term += 1.0
            term **= -1.5
            term *= S * strength
            pot += term

    out = {"overlap": S, "kinetic": kinetic, "potential": pot}
    if moments:
        out.update(x2=3.0 * c11 * S, y2=3.0 * c22 * S, rho2=3.0 * (c11 + c22) * S)
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

class _Assembler:
    """Closed-form matrices of a basis, built in one fold and grown by ``add``.

    ``forms`` holds the (n, 3) rows (a11, a12, a22) of the committed SPD
    forms; ``symmetrized`` sums each over its S3 orbit.  The constructor
    builds images, unit scales, N, T and V of ``forms`` in one fold.
    """

    def __init__(self, system: ParticleSystem, symmetrized: bool, forms=()):
        self.system = system
        self.symmetrized = symmetrized
        self.perms = permutation_matrices(symmetrized)
        seps = separation_forms(system)
        terms = {pair: fit_gaussian_terms(pot) for pair, pot in system.potentials.items()}
        self.sep_terms = [(seps[p], terms[p]) for p in sorted(seps)]
        self.forms = np.array(forms, dtype=float).reshape(-1, 3)
        self.n = len(self.forms)
        self.images = transform_form(self.forms[:, None, :], self.perms)
        self.scale = 1.0 / np.sqrt(_sum_form(self.forms, self.forms)[2])
        self.N, self.T, self.V = _pair_kernels(self, 3, 1, self._image_sums)
        self._kernels = {}

    def _image_sums(self, later, images):
        """Unscaled (N, T, V) of each later form against ``images`` (last axis),
        times the group order: the double image sum, as H is S3-invariant."""
        blocks = element_block(later, images, self.sep_terms)
        return [len(self.perms) * np.sum(blocks[key], axis=-1)
                for key in ("overlap", "kinetic", "potential")]

    def _border(self, forms):
        """Unit-normalized elements of each row of ``forms`` against the basis.

        One ``_image_sums`` call against every committed image gives the
        one-sided (N, T, V) rows; one against the row's own images gives the
        (N, T, V) diagonals.  Returns the images (k, p, 3), the rows (k, n),
        the diagonals (k,) and the scales d_new (k,) that give each form
        unit norm, one over the square root of its overlap with itself.
        """
        forms = np.atleast_2d(np.asarray(forms, dtype=float))
        images = transform_form(forms[:, None, :], self.perms)
        d_new = 1.0 / np.sqrt(_sum_form(forms, forms)[2])
        row_scale = self.scale * d_new[:, None]
        rows = tuple(s * row_scale
                     for s in self._image_sums(forms[:, None, None, :], self.images[None]))
        diags = tuple(s * d_new ** 2 for s in self._image_sums(forms[:, None, :], images))
        return images, rows, diags, d_new

    def add(self, form, scored=None):
        """Append ``form``.  ``scored`` is (bordered, i) when ``form`` is row i
        of an earlier ``_border`` result, whose rows are then reused."""
        form = np.asarray(form, dtype=float)
        (images, rows, diags, d_new), i = (self._border(form), 0) if scored is None else scored
        self.N, self.T, self.V = (_bordered(mat, row[i], diag[i]) for mat, row, diag
                                  in zip((self.N, self.T, self.V), rows, diags))
        self.forms = np.vstack([self.forms, form[None, :]])
        self.images = np.concatenate([self.images, images[i:i + 1]], axis=0)
        self.scale = np.append(self.scale, d_new[i])
        self.n += 1
        self._kernels = {}

    def _score(self, bordered, coupling: float) -> np.ndarray:
        """Ground energy of the basis grown by each form of a ``_border`` result.

        The committed basis is decomposed once: W = P Q spans it
        N-orthonormally with W^t H W = diag(e).  A candidate with unit
        overlap row b and norm d leaves the Gram-Schmidt residual
        r^2 = d - |W^t b|^2.  In the basis (W, residual) the bordered
        Hamiltonian is an arrowhead matrix, and its lowest eigenvalue is the
        root below e_0 of its secular equation: the rank-one update of Varga
        and Suzuki (1995), O(n^2) per candidate instead of O(n^3).

        The update is exact where ``solve_ground`` would drop no direction,
        so the full solve scores the rest: a candidate with
        r^2 <= RESIDUAL_FRACTION * d, and a candidate whose bordered overlap
        would have a dropped direction.  The bordered overlap is an
        arrowhead in the eigenbasis of N, so its extreme eigenvalues come
        from the same secular solve as the energies.  Bordering cannot raise
        s_min or lower s_max (Cauchy interlacing), so once the committed
        overlap has a dropped direction, so has every bordered one, and the
        whole pool takes the full solve.
        """
        _, (b_n, b_t, b_v), (d_n, d_t, d_v), _ = bordered
        b_h = b_t - coupling * b_v
        d_h = d_t - coupling * d_v
        if self.n == 0:
            return d_h / d_n
        H = self.T - coupling * self.V
        span = self.span
        if span.dropped:
            energies, exact = np.empty(len(d_n)), np.zeros(len(d_n), dtype=bool)
        else:
            e, Q = np.linalg.eigh(span.P.T @ H @ span.P)
            W = span.P @ Q
            a = b_n @ W
            h = b_h @ W
            r2 = d_n - np.einsum("ij,ij->i", a, a)
            independent = r2 > RESIDUAL_FRACTION * d_n
            r2 = np.where(independent, r2, 1.0)
            z = (h - e * a) / np.sqrt(r2)[:, None]
            g = (d_h - 2.0 * np.einsum("ij,ij->i", a, h) + (a * a) @ e) / r2
            # the energies, then the extreme eigenvalues of the bordered
            # overlap, an arrowhead in the eigenbasis of N; the largest is
            # minus the lowest of its negative
            beta = b_n @ span.U
            k = len(d_n)
            roots, ok = _secular_lowest(np.repeat([e, span.s, -span.s[::-1]], k, axis=0),
                                        np.concatenate([z, beta, beta[:, ::-1]]),
                                        np.concatenate([g, d_n, -d_n]))
            energies, s_min, neg_max = roots.reshape(3, k)
            exact, min_ok, max_ok = ok.reshape(3, k)
            kept = s_min > (1.0 + DROP_MARGIN) * DROP_TOL * -neg_max
            exact &= independent & min_ok & max_ok & kept
        for i in np.flatnonzero(~exact):
            energies[i] = _bordered_ground(H, self.N, b_h[i], b_n[i], d_h[i], d_n[i])
        return energies

    def solve(self, coupling: float):
        return solve_ground(self.T - coupling * self.V, self.span)

    def kernel(self, key, build):
        """``build(self)``, computed once per basis.

        Every cached matrix depends on the basis alone, and the basis only
        changes through ``add``, which empties the cache.
        """
        if key not in self._kernels:
            self._kernels[key] = build(self)
        return self._kernels[key]

    @property
    def span(self) -> _Span:
        """The regularized span of the overlap N (``_span``), decomposed once per basis."""
        return self.kernel("span", lambda a: _span(a.N))

    def moment_matrix(self, key: str):
        """Unit-normalized matrix of one moment (``MOMENT_KEYS``) on the basis."""
        return self.kernel("moments", _moment_matrices)[key]


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
        return solve_ground(_bordered(H, row_h, diag_h), _span(_bordered(N, row_n, diag_n)),
                            vector=False)[0]
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

    ``e`` is ascending, one row per arrowhead or one 1-D row shared by
    all; ``z`` and ``g`` hold one row per arrowhead.  The eigenvalue is
    e_0 - t for the root t > 0 of f(t) = p / t + psi(t), with p = z_0^2 and
    psi(t) = e_0 - g - t + sum_{k>0} z_k^2 / (e_k - e_0 + t) decreasing and
    convex on t > 0.  Each step keeps the pole p / t exact and replaces psi
    by its tangent, which lies below psi: the model root is a lower bound
    on t, so the iterates climb monotonically to the root and stay strictly
    off the pole at t = 0.  The first step takes psi = e_0 - g - t, the
    2 x 2 arrowhead.  Returns the eigenvalues and a mask of the rows that
    started at t > 0 and converged.
    """
    e0 = e[..., 0]
    gap = e[..., 1:] - e[..., :1]
    p = z[:, 0] ** 2
    w = z[:, 1:] ** 2
    c = e0 - g
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
    return e0 - t, start & done


# array elements per vectorized block of a kernel build; bounds its memory
BLOCK_ELEMENTS = 2 ** 16
MOMENT_KEYS = ("x2", "y2", "rho2", "h0sq")


def _pair_kernels(asm: _Assembler, count: int, width: int, block) -> np.ndarray:
    """``count`` symmetric unit-normalized kernels, built from the pairs i <= j.

    ``block(later, images)`` takes the later forms (k, 1, 3) of a block of
    pairs and the images (k, p, 3) of the earlier ones, and returns
    ``count`` rows (k,) of one-sided image sums; ``width`` is the array
    elements it spends per image, which sizes the blocks.
    """
    n, p = asm.images.shape[:2]
    lo_i, hi_j = np.triu_indices(n)
    upper = np.empty((count, len(lo_i)))
    step = max(1, BLOCK_ELEMENTS // (p * width))
    for lo in range(0, len(lo_i), step):
        sl = slice(lo, lo + step)
        upper[:, sl] = block(asm.forms[hi_j[sl], None, :], asm.images[lo_i[sl]])
    scaled = upper * (asm.scale[lo_i] * asm.scale[hi_j])
    mats = np.empty((count, n, n))
    mats[:, lo_i, hi_j] = scaled
    mats[:, hi_j, lo_i] = scaled
    return mats


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
    p = asm.images.shape[1]

    def block(later, images):
        blocks = element_block(later, images, (), moments=True)
        sums = {key: p * np.sum(blocks[key], axis=1) for key in MOMENT_KEYS}
        if asm.symmetrized:
            sums["x2"] = sums["y2"] = 0.5 * sums["rho2"]
        return [sums[key] for key in MOMENT_KEYS]

    return dict(zip(MOMENT_KEYS, _pair_kernels(asm, len(MOMENT_KEYS), 1, block)))


# Gauss-Legendre nodes in psi of each pair's hyperangular tail integral
TAIL_NODES = 32


def _tail_kernels(asm: _Assembler, radii):
    """One tail kernel per radius, one-sided over images.

    |psi|^2 is a sum of Gaussians exp(-q.(B x I3).q / 2) with
    B = A_j + g^t A_i g.  In the eigenbasis of B, eigenvalues b1 <= b2, q
    splits into u, v in R^3 and rho^2 = |u|^2 + |v|^2.  With the polar angle
    |u| = rho cos(chi), |v| = rho sin(chi) the integral over rho > R is
    closed-form, Gamma(3, x) = 2 e^-x (1 + x + x^2 / 2), and the substitution
    tan(chi) = sqrt(b1 / b2) tan(psi) turns the angular weight into
    sin^2 cos^2, which does not depend on B:

        P(rho > R) = (16/pi) int_0^(pi/2) sin^2 cos^2 e^-x (1 + x + x^2 / 2) dpsi,
        x = R^2 det B / (2 (b2 cos^2 psi + b1 sin^2 psi)).

    Every node's term falls with R, and at R = 0 the rule sums to 1 up to
    rounding, so that kernel is the overlap matrix N (the weights are
    ``_sum_form``'s overlap S).  rho^2 is S3-invariant, so the
    double image sum is the one-sided sum times the group order; the
    kernels are symmetric, so only pairs i <= j are integrated.
    """
    p = asm.images.shape[1]
    (psi,), (wt,) = composite_nodes(np.array([0.0, 0.5 * math.pi]), TAIL_NODES)
    cos2 = np.cos(psi) ** 2
    sin2 = np.sin(psi) ** 2
    w = (16.0 / math.pi) * wt * sin2 * cos2

    def block(later, images):
        (b11, b12, b22), det, weight = _sum_form(later, images)    # later form first, as in N
        # eigenvalues b1 <= b2 of B, the smaller one without cancellation
        b2 = 0.5 * (b11 + b22) + np.sqrt(0.25 * (b11 - b22) ** 2 + b12 * b12)
        b1 = det / b2
        # x at R = 1, node by node
        x_unit = (0.5 * det)[..., None] / (b2[..., None] * cos2 + b1[..., None] * sin2)
        rows = []
        for R in radii:
            x = R * R * x_unit
            prob = (np.exp(-x) * (1.0 + x * (1.0 + 0.5 * x))) @ w
            rows.append(p * np.sum(weight * prob, axis=1))
        return rows

    return _pair_kernels(asm, len(radii), TAIL_NODES, block)


def assembler_for(basis: _Assembler, system: ParticleSystem) -> _Assembler:
    """A fresh assembler of ``system`` over the forms of ``basis``, built in one fold."""
    return _Assembler(system, basis.symmetrized, basis.forms)


# overlap eigen-directions below DROP_TOL * s_max are dropped from every solve
DROP_TOL = 1e-12

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


def solve_ground(H: np.ndarray, span: _Span, vector: bool = True):
    """Lowest generalized eigenpair of H on ``span``, the regularized span of an
    overlap N (``_span``); the returned coefficients satisfy <c, N c> = 1.
    With ``vector=False`` the eigenvalue alone is found, at about half the
    cost, and the coefficients are None."""
    reduced = span.P.T @ H @ span.P
    if not vector:
        return float(np.linalg.eigvalsh(reduced)[0]), None
    vals, vecs = np.linalg.eigh(reduced)
    return float(vals[0]), span.P @ vecs[:, 0]


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
               asm: _Assembler | None = None) -> _Assembler:
    """Grow the form list by keeping pool winners that lower E3; returns the assembler.

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
        pool = asm._border(cands)
        energies = asm._score(pool, lam)
        best = int(np.argmin(energies))
        gain = current - energies[best]
        if gain > 1e-8 or asm.n == 0:
            # the winner's rows were computed to score it
            asm.add(cands[best], (pool, best))
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
    return asm


# ---------------------------------------------------------------------------
# Records and sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRecord:
    """One bound point of a sweep: E3 < 0, k = sqrt(-E3), sizes, tails, diagnostics."""

    coupling: float
    E3: float
    k: float
    r2_x: float
    r2_y: float
    rho2: float
    tail: tuple
    eps_R7: float
    kinetic_norm: float


def tail_masses(asm: _Assembler, c: np.ndarray, radii, seed=None):
    """T(R) = |chi_{rho > R} psi|^2 / |psi|^2 by the hyperangular integral.

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
    """Solve at one coupling and assemble its sweep record; BracketError,
    naming the coupling, if the basis holds no bound state there (E3 >= 0)."""
    e3, c = asm.solve(system_coupling)
    if e3 >= 0.0:
        raise BracketError(
            f"no three-body bound state at coupling {system_coupling!r}: E3 = {e3!r}")
    mom = {key: float(c @ asm.moment_matrix(key) @ c) for key in MOMENT_KEYS}
    if mom["h0sq"] < 0.0:
        raise BasisError(f"<H0^2> = {mom['h0sq']!r} < 0 at coupling {system_coupling!r}: "
                         "the H0^2 kernel is not positive")
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
        kinetic_norm=math.sqrt(mom["h0sq"]),
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
    P = asm.span.P
    # the symmetric pencil reduced by the Cholesky factor L L^t of its
    # positive-definite side: mu_max of L^-1 (P^t V P) L^-t
    L = np.linalg.cholesky(P.T @ asm.T @ P + tol_e * np.eye(P.shape[1]))
    reduced = np.linalg.solve(L, np.linalg.solve(L, P.T @ asm.V @ P).T)
    mu = np.linalg.eigvalsh(reduced)[-1]
    return float(1.0 / mu) if mu > 0.0 else math.inf


REFINE_STAGES = 2
# the lambda_cr search range, in units of lambda*
SCAN = (0.3, 1.5)
# half-width of the certified bracket around lambda_cr, in units of lambda*
BRACKET_HALF_WIDTH = 2.5e-6


def critical_coupling_3body(system: ParticleSystem, budget: int, seed: int):
    """Locate the coupling where the variational E3 crosses -tol.

    A basis grown at the deep end of the SCAN range gives lambda_cr from one
    generalized eigenvalue (``_crossing``); two refinement stages re-grow
    at lambda_cr (1 + 0.05 / 10^stage), so the near-threshold halo is
    representable, and solve it again.  Two direct solves then certify the
    bracket lambda_cr -/+ 2.5e-6 lambda*: BracketError if they disagree with
    the eigenvalue, if the crossing lies above the scan ("scan exhausted")
    or below it ("already bound"), or if lam_lo lies below the Hall-Post
    floor min over pairs of (m_i + m_j)/M lambda*_ij, under which no three
    bodies bind.  lambda_cr is a variational upper bound on the true
    critical coupling.  DegenerateInputError if no pair has attraction.
    """
    margin = subcriticality_margin(system)
    lam_star = margin.lambda_star
    if lam_star == math.inf:
        raise DegenerateInputError("no pair has attraction: every pair has lambda* = inf")
    tol_e = 1e-6 * _energy_scale(system, margin)
    lam_lo0, lam_hi0 = SCAN[0] * lam_star, SCAN[1] * lam_star

    asm = _Assembler(system, system.identical_bosons)
    stage_budgets = np.linspace(budget / (REFINE_STAGES + 1.0), budget,
                                REFINE_STAGES + 1).astype(int)
    grow_basis(replace(system, coupling=lam_hi0), int(stage_budgets[0]), seed, asm=asm)
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
            near = replace(system, coupling=lam_cr * (1.0 + 0.05 / 10.0 ** stage))
            grow_basis(near, int(stage_budgets[stage + 1]), seed + stage + 1, asm=asm)
    lam_lo = lam_cr - BRACKET_HALF_WIDTH * lam_star
    lam_hi = lam_cr + BRACKET_HALF_WIDTH * lam_star
    # H = sum over pairs of (m_i + m_j)/M (T_ij - lambda M/(m_i + m_j) V_ij),
    # each term >= 0 below the floor; a pair with lambda* = inf drops out
    floor = min((system.masses[i - 1] + system.masses[j - 1]) / sum(system.masses) * lam_ij
                for (i, j), lam_ij in margin.lambda_stars.items())
    if floor > lam_lo:
        raise BracketError(f"Hall-Post bound {floor!r} lies above lam_lo = {lam_lo!r}")
    e_lo, e_hi = asm.solve(lam_lo)[0], asm.solve(lam_hi)[0]
    if not e_lo >= -tol_e > e_hi:
        raise BracketError(
            f"crossing at lambda = {lam_cr!r} not certified: E3 = {e_lo!r} at "
            f"{lam_lo!r} and {e_hi!r} at {lam_hi!r} against -tol = {-tol_e!r}"
        )
    return CriticalBracket(
        lambda_cr=lam_cr,
        lam_lo=lam_lo,
        lam_hi=lam_hi,
        tol_energy=tol_e,
        lambda_star=lam_star,
        cond_N=asm.span.cond,
        dropped_directions=asm.span.dropped,
    ), asm


def sweep_three_body(asm: _Assembler, couplings, lambda_star: float):
    """Fixed-basis sweep of ``asm.system`` over couplings, one SweepRecord per point.

    ``lambda_star`` is the smallest pair critical coupling (as carried by
    ``CriticalBracket.lambda_star``); each record's eps_R7 is its distance
    below it.  Tails are taken at TAIL_MULTIPLES of the longest pair
    range.  BracketError (``record_point``) at the first coupling where
    the basis holds no bound state.
    """
    rng = max(p.range_ for p in asm.system.potentials.values())
    tail_radii = tuple(m * rng for m in TAIL_MULTIPLES)
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

    ``points`` holds one (|E|, <r^2>, tails) triple per sweep point,
    with tails the (R, T(R)) pairs at radii shared by all points.
    Non-spreading: some fixed radius keeps at least half the mass inside
    along the whole sweep.  Spreading: every recorded radius ends up with
    tail mass near 1.  The attached exponent is the log-log slope of
    <r^2> against 1/|E|, and the last-decade ratio is <r^2>(E_min) over
    <r^2>(10 E_min), linear in log|E| between points (NaN when the sweep
    spans less than a decade).
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
    sizes = np.array([size for _, size, _ in points])
    if np.ptp(xs) > 0.0:
        exponent = float(np.polyfit(xs, np.log(sizes), 1)[0])
    else:
        exponent = math.nan  # constant sweep: no slope to fit
    decade = math.log(10.0)
    ratio = (sizes[-1] / np.interp(xs[-1] - decade, xs, sizes)
             if np.ptp(xs) >= decade else math.nan)

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
