"""Variational three-body solver over symmetrized correlated Gaussians.

Trial functions are exp(-q.(A x I3).q / 2) with 2x2 symmetric
positive-definite forms A on the Jacobi pair (x, y); every Hamiltonian and
moment matrix element is closed-form Gaussian algebra.  For identical
bosons each form is summed over its orbit under the S3 permutation action,
which acts on (x, y) by orthogonal 2x2 blocks.  Stochastic growth of the
form list gives the variational sweep machinery: energies E(lambda),
size observables, quasi-Monte Carlo tail masses, and the spreading
diagnostic that contrasts the three-body threshold with the two-body one.
"""

from __future__ import annotations

import math
from functools import lru_cache
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import minimize, nnls
from scipy.stats import norm as norm_dist

from .errors import BasisError, BracketError, FitError
from .ims import _sobol
from .model import PairPotential, ParticleSystem, jacobi_frame, separation_forms
from .twobody import subcriticality_margin, twobody_binding_energy

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
    """(a11, a12, a22) of T^t A T."""
    a11, a12, a22 = form
    A = np.array([[a11, a12], [a12, a22]])
    B = T.T @ A @ T
    return np.array([B[0, 0], B[0, 1], B[1, 1]])


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

    def _images_of(self, form):
        return np.stack([transform_form(form, T) for T in self.perms])

    def _border(self, form):
        """Elements of ``form`` against the basis and itself, before scaling.

        Returns the images of ``form``, the one-sided (N, T, V) rows against
        every committed basis element, the (N, T, V) diagonal, and the scale
        d_new that gives the new element unit norm.  A row times
        ``self.scale * d_new`` and a diagonal times ``d_new ** 2`` are the
        new row and diagonal of the unit-normalized matrices.
        """
        form = np.asarray(form, dtype=float)
        images = self._images_of(form)
        fa = form[None, None, :]
        p = len(self.perms)
        keys = ("overlap", "kinetic", "potential")
        blocks = element_block(fa, self.images, self.sep_terms)
        rows = tuple(p * np.sum(blocks[key], axis=1) for key in keys)
        self_blocks = element_block(fa[0], images, self.sep_terms)
        diags = tuple(p * float(np.sum(self_blocks[key])) for key in keys)
        prim_norm = element_block(form[None, :], form[None, :], self.sep_terms)["overlap"][0]
        return images, rows, diags, 1.0 / math.sqrt(prim_norm)

    def add(self, form):
        form = np.asarray(form, dtype=float)
        images, (row_n, row_t, row_v), (diag_n, diag_t, diag_v), d_new = self._border(form)
        row_scale = self.scale * d_new
        self.N = _bordered(self.N, row_n * row_scale, diag_n * d_new ** 2)
        self.T = _bordered(self.T, row_t * row_scale, diag_t * d_new ** 2)
        self.V = _bordered(self.V, row_v * row_scale, diag_v * d_new ** 2)
        self.forms = np.vstack([self.forms, form[None, :]])
        self.images = np.concatenate([self.images, images[None, :, :]], axis=0)
        self.scale = np.append(self.scale, d_new)
        self.n += 1

    def trial_energy(self, form, coupling: float) -> float:
        """Ground energy if ``form`` were appended (no commit)."""
        _, (row_n, row_t, row_v), (diag_n, diag_t, diag_v), d_new = self._border(form)
        row_scale = self.scale * d_new
        N = _bordered(self.N, row_n * row_scale, diag_n * d_new ** 2)
        H = _bordered(self.T - coupling * self.V, (row_t - coupling * row_v) * row_scale,
                      (diag_t - coupling * diag_v) * d_new ** 2)
        try:
            return solve_ground(H, N)[0]
        except BasisError:
            return math.inf

    def hamiltonian(self, coupling: float):
        return self.T - coupling * self.V, self.N

    def solve(self, coupling: float):
        return solve_ground(*self.hamiltonian(coupling))

    def moment_matrix(self, key: str):
        """Full double-permutation matrix of a (not necessarily invariant) moment."""
        p = len(self.perms)
        fa = self.images[:, :, None, None, :]
        fb = self.images[None, None, :, :, :]
        blocks = element_block(fa, fb, self.sep_terms, with_h0sq=(key == "h0sq"))
        mat = np.sum(blocks[key], axis=(1, 3))
        return mat * np.outer(self.scale, self.scale)

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


def assembler_for(basis: CorrelatedGaussianBasis, system: ParticleSystem) -> _Assembler:
    asm = _Assembler(system, basis.symmetrized)
    for form in basis.forms:
        asm.add(form)
    return asm


def solve_ground(H: np.ndarray, N: np.ndarray, drop_tol: float = 1e-12):
    """Lowest generalized eigenpair after spectral regularization of N.

    Directions with overlap eigenvalue below drop_tol * max are removed;
    the returned coefficients satisfy <c, N c> = 1.
    """
    H = np.asarray(H, dtype=float)
    N = np.asarray(N, dtype=float)
    if H.shape != N.shape or H.shape[0] != H.shape[1]:
        raise ValueError("H and N must be square of equal dimension")
    s, U = np.linalg.eigh(N)
    keep = s > drop_tol * s[-1]
    if not np.any(keep):
        raise BasisError("overlap matrix has no usable directions")
    P = U[:, keep] / np.sqrt(s[keep])
    vals, vecs = eigh(P.T @ H @ P)
    c = P @ vecs[:, 0]
    return float(vals[0]), c


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
        cands = [_propose_form(rng, lo, hi, inv_len2) for _ in range(16)]
        energies = [asm.trial_energy(f, lam) for f in cands]
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
    out = {}
    for key in ("x2", "y2", "rho2", "h0sq"):
        out[key] = float(c @ asm.moment_matrix(key) @ c)
    return out


def tail_masses(asm: _Assembler, c: np.ndarray, radii, seed: int,
                n_points: int = 2 ** 20, return_rho2: bool = False,
                max_components: int = 12):
    """T(R) = |chi_{rho > R} psi|^2 by scrambled low-discrepancy sampling.

    The importance envelope is a mixture over the dominant basis Gaussians
    (every significant coefficient, broadened twofold in covariance, one
    full scrambled stream per component).  By |phi_k phi_l| <= (phi_k^2 +
    phi_l^2)/2 the mixture dominates every cross term of |psi|^2, so both
    the core and the halo tail are covered by the same deterministic
    sample.
    """
    weights = np.abs(c)
    order = np.argsort(weights)[::-1]
    sig = [int(i) for i in order if weights[i] > 1e-2 * weights[order[0]]]
    sig = sig[:max_components]
    # make sure the broadest significant direction is represented even if
    # its coefficient ranks below the cut
    lam_min = np.array([
        min(np.linalg.eigvalsh(np.array([[f[0], f[1]], [f[1], f[2]]])))
        for f in asm.forms
    ])
    wide_pool = np.flatnonzero(weights > 1e-3 * weights[order[0]])
    broad = int(wide_pool[np.argmin(lam_min[wide_pool])])
    if broad not in sig:
        sig.append(broad)

    comps = []
    for idx in sig:
        f = 0.5 * asm.forms[idx]
        comps.append(np.array([[f[0], f[1]], [f[1], f[2]]]))
    # equal per-component allocation below means the sampling density is
    # the equal-weight mixture; the importance weights must match it
    mix = [1.0 / len(comps)] * len(comps)

    per = n_points // len(comps)
    q = np.empty((per * len(comps), 6))
    for ci, B in enumerate(comps):
        u = _sobol(6, per, seed + 7919 * ci)
        eta = norm_dist.ppf(np.clip(u, 1e-15, 1.0 - 1e-15))
        L = np.linalg.cholesky(np.linalg.inv(B))
        sl = slice(ci * per, (ci + 1) * per)
        q[sl, 0:3] = L[0, 0] * eta[:, 0:3]
        q[sl, 3:6] = L[1, 0] * eta[:, 0:3] + L[1, 1] * eta[:, 3:6]
    n_points = per * len(comps)

    xx = np.einsum("ij,ij->i", q[:, :3], q[:, :3])
    xy = np.einsum("ij,ij->i", q[:, :3], q[:, 3:])
    yy = np.einsum("ij,ij->i", q[:, 3:], q[:, 3:])

    log_g = np.full(n_points, -np.inf)
    for w_mix, B in zip(mix, comps):
        det = B[0, 0] * B[1, 1] - B[0, 1] ** 2
        expo = -0.5 * (B[0, 0] * xx + 2.0 * B[0, 1] * xy + B[1, 1] * yy)
        log_comp = math.log(w_mix) + 1.5 * math.log(det) - 3.0 * math.log(2.0 * math.pi) + expo
        log_g = np.logaddexp(log_g, log_comp)

    psi = np.zeros(n_points)
    coeff = c * asm.scale
    for k in range(asm.n):
        for pi in range(asm.images.shape[1]):
            a11, a12, a22 = asm.images[k, pi]
            psi += coeff[k] * np.exp(-0.5 * (a11 * xx + 2.0 * a12 * xy + a22 * yy))

    w = psi ** 2 * np.exp(-log_g)
    total = float(np.sum(w))
    rho2 = xx + yy
    tails = []
    for R in radii:
        tails.append((float(R), float(np.sum(w[rho2 > R * R])) / total))
    if return_rho2:
        return tails, float(np.sum(w * rho2) / total)
    return tails


def record_point(asm: _Assembler, system_coupling: float, eps_r7: float,
                 tail_radii, seed: int) -> SweepRecord:
    """Solve at one coupling and assemble the full sweep record."""
    e3, c = asm.solve(system_coupling)
    if e3 >= 0.0:
        return SweepRecord(
            coupling=system_coupling, E3=e3, k=None,
            r2_x=math.nan, r2_y=math.nan, rho2=math.nan,
            tail=(), eps_R7=eps_r7, kinetic_norm=math.nan, bound=False,
        )
    mom = _expectations(asm, c)
    tails = tail_masses(asm, c, tail_radii, seed)
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
    """Bisection outcome for the three-body critical coupling."""

    lambda_cr: float
    lam_lo: float
    lam_hi: float
    tol_energy: float


def _energy_scale(system: ParticleSystem) -> float:
    """|E2(2 lambda*)| of the most attractive pair: the natural energy unit."""
    margin = subcriticality_margin(system)
    pair = min(margin.lambda_stars, key=margin.lambda_stars.get)
    lam_star = margin.lambda_stars[pair]
    frame = jacobi_frame(system, pair)
    e2 = twobody_binding_energy(system.potential(pair), frame, 2.0 * lam_star)
    return abs(e2)


REFINE_STAGES = 2


def critical_coupling_3body(system: ParticleSystem, budget: int, seed: int,
                            scan=(0.3, 1.5)):
    """Bracket the coupling where the variational E3 crosses -tol.

    A basis grown at the deep end of the scan fixes the predicate
    "E3(lambda) < -tol"; bisection then brackets the crossing to 1e-5
    lambda*, and two refinement stages re-grow near the current estimate
    so the near-threshold halo is representable.  The reported midpoint
    is a variational upper bound on the true critical coupling.
    """
    margin = subcriticality_margin(system)
    lam_star = min(margin.lambda_stars.values())
    tol_e = 1e-6 * _energy_scale(system)
    lam_lo0, lam_hi0 = scan[0] * lam_star, scan[1] * lam_star

    asm = _Assembler(system, system.identical_bosons)
    stage_budgets = np.linspace(budget / (REFINE_STAGES + 1.0), budget,
                                REFINE_STAGES + 1).astype(int)
    anchor = lam_hi0
    deep = system_with_coupling(system, anchor)
    grow_basis(deep, int(stage_budgets[0]), seed, asm=asm)
    if asm.solve(lam_hi0)[0] >= -tol_e:
        raise BracketError(
            f"no three-body binding up to lambda = {lam_hi0:.6g}; scan exhausted"
        )
    lam_lo, lam_hi = lam_lo0, lam_hi0
    if asm.solve(lam_lo)[0] < -tol_e:
        raise BracketError("already bound at the bottom of the scan range")

    for stage in range(REFINE_STAGES + 1):
        while lam_hi - lam_lo > 1e-5 * lam_star:
            mid = 0.5 * (lam_lo + lam_hi)
            if asm.solve(mid)[0] < -tol_e:
                lam_hi = mid
            else:
                lam_lo = mid
        if stage < REFINE_STAGES:
            # re-grow ever closer to the estimate so the halo that carries
            # the near-threshold records is representable
            near = system_with_coupling(system, lam_hi * (1.0 + 0.05 / 10.0 ** stage))
            grow_basis(near, int(stage_budgets[stage + 1]), seed + stage + 1, asm=asm)
            # a richer basis can only push the crossing down
            lam_lo = lam_lo0
            if asm.solve(lam_lo)[0] < -tol_e:
                raise BracketError("already bound at the bottom of the scan range")
    return CriticalBracket(
        lambda_cr=0.5 * (lam_lo + lam_hi),
        lam_lo=lam_lo,
        lam_hi=lam_hi,
        tol_energy=tol_e,
    ), asm


def system_with_coupling(system: ParticleSystem, coupling: float) -> ParticleSystem:
    return ParticleSystem(system.masses, dict(system.potentials), coupling)


def sweep_three_body(system: ParticleSystem, couplings, asm: _Assembler,
                     tail_radii=None, seed: int = 0):
    """Fixed-basis sweep over couplings, one SweepRecord per point."""
    margin = subcriticality_margin(system)
    lam_star = min(margin.lambda_stars.values())
    if tail_radii is None:
        rng = max(p.range_ for p in system.potentials.values())
        tail_radii = tuple(m * rng for m in DEFAULT_TAIL_MULTIPLES)
    records = []
    for lam in couplings:
        records.append(record_point(asm, float(lam), lam_star - float(lam),
                                    tail_radii, seed))
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
