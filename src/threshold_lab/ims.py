"""Explicit IMS partition of unity on six-dimensional Jacobi space.

Three smooth fields J_s with sum of squares 1 localize the configuration
space into regions where particle s is far from the other two.  The
construction is bump-based: on the unit sphere each region weight is a
product of quintic smoothsteps of the normalized pair distances
|r_i - r_s|/|q| above a threshold theta, extended homogeneously of degree
zero outside the unit ball and blended to equal constants inside radius
1/2.  Degree-zero homogeneity forces Sum |grad J_s|^2 ~ 1/|q|^2, the decay
the localization error needs at infinity, and the product form pins the
support cone |r_i - r_s| >= theta |q| exactly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm, qmc

from .errors import ValidationError
from .model import ParticleSystem, separation_forms

_INTERIOR = 1.0 / math.sqrt(3.0)


def _smoothstep(t):
    """C^2 quintic step: 0 below 0, 1 above 1."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_prime(t):
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 30.0 * t ** 2 * (t - 1.0) ** 2, 0.0)


@dataclass(frozen=True)
class IMSPartition:
    """Evaluatable partition fields J_s and their exact gradients."""

    system: ParticleSystem
    theta: float
    delta: float
    # regions[s] = ((pair, (u, v)), (pair, (u, v))): the two separations of
    # particle s+1 in the frame-(12) linear forms
    regions: tuple

    def evaluate(self, q, with_gradient: bool = True):
        """J values (n, 3) and gradients (n, 3, 6) at configurations q (n, 6)."""
        q = np.atleast_2d(np.asarray(q, dtype=float))
        n = q.shape[0]
        rho = np.linalg.norm(q, axis=1)
        j = np.empty((n, 3))
        grad = np.zeros((n, 3, 6)) if with_gradient else None

        inner = rho <= 0.5
        j[inner] = _INTERIOR

        out = ~inner
        if np.any(out):
            jo, go = self._evaluate_outer(q[out], rho[out], with_gradient)
            j[out] = jo
            if with_gradient:
                grad[out] = go
        return (j, grad) if with_gradient else (j, None)

    def _raw_weights(self, q, rho, with_gradient):
        """Unblended region weights w (n, 3): per region, the product of the
        smoothsteps of its two normalized separations; and their gradients."""
        n = q.shape[0]
        q_hat = q / rho[:, None] if with_gradient else None
        w = np.empty((n, 3))
        grad_w = np.zeros((n, 3, 6)) if with_gradient else None
        for s, pairs in enumerate(self.regions):
            ws = np.ones(n)
            parts = []
            for d, m in _separations(pairs, q):
                t = m / rho
                a = (t - self.theta) / self.delta
                s_val = _smoothstep(a)
                parts.append((d, m, t, a, s_val))
                ws = ws * s_val
            w[:, s] = ws
            if with_gradient:
                gs = np.zeros((n, 6))
                for idx, (d, m, t, a, s_val) in enumerate(parts):
                    sp = _smoothstep_prime(a) / self.delta
                    active = sp != 0.0
                    if not np.any(active):
                        continue
                    other = parts[1 - idx][4]
                    inv_m = np.where(m > 1e-300, 1.0 / m, 0.0)
                    d_hat = d * inv_m[:, None]
                    u_c, v_c = pairs[idx][1]
                    grad_t = np.empty((n, 6))
                    grad_t[:, :3] = u_c * d_hat / rho[:, None]
                    grad_t[:, 3:] = v_c * d_hat / rho[:, None]
                    grad_t -= (t / rho)[:, None] * q_hat
                    gs += (sp * other)[:, None] * grad_t
                grad_w[:, s, :] = gs
        return w, grad_w

    def _evaluate_outer(self, q, rho, with_gradient):
        blend_arg = (rho - 0.5) / 0.5
        B = _smoothstep(blend_arg)
        Bp = _smoothstep_prime(blend_arg) / 0.5
        w, grad_w = self._raw_weights(q, rho, with_gradient)

        w_tilde = (1.0 - B)[:, None] + B[:, None] * w
        norm_sq = np.sum(w_tilde ** 2, axis=1)
        if np.any(norm_sq <= 0.0):
            raise ValidationError("partition weights vanished simultaneously")
        D = np.sqrt(norm_sq)
        j = w_tilde / D[:, None]
        if not with_gradient:
            return j, None

        grad_wt = B[:, None, None] * grad_w
        grad_wt += (Bp[:, None] * (w - 1.0))[:, :, None] * (q / rho[:, None])[:, None, :]
        # grad J_s = grad w~_s / D - w~_s (sum_t w~_t grad w~_t) / D^3
        dd = np.einsum("ns,nsk->nk", w_tilde, grad_wt)
        grad_j = grad_wt / D[:, None, None] \
            - (w_tilde / D[:, None] ** 3)[:, :, None] * dd[:, None, :]
        return j, grad_j


def build_partition(system: ParticleSystem, delta: float = 0.05,
                    theta: float = 0.15) -> IMSPartition:
    """Construct the three-region partition and verify sphere covering."""
    if not 0.0 < delta < 0.25:
        raise ValueError("smoothing width must lie in (0, 1/4)")
    if theta <= 0.0:
        raise ValueError("threshold must be positive")
    forms = separation_forms(system, (1, 2))
    regions = []
    for s in (1, 2, 3):
        pairs = []
        for i in (1, 2, 3):
            if i == s:
                continue
            key = (min(i, s), max(i, s))
            pairs.append((key, forms[key]))
        regions.append(tuple(pairs))
    part = IMSPartition(system=system, theta=theta, delta=delta,
                        regions=tuple(regions))

    # the normalized fields hide empty coverage; inspect the raw weights
    mesh = sphere_mesh(4096, seed=20210905)
    w, _ = part._raw_weights(mesh, np.linalg.norm(mesh, axis=1), with_gradient=False)
    if np.min(np.sum(w ** 2, axis=1)) <= 0.0:
        raise ValidationError(
            f"thresholds theta={theta}, delta={delta} do not cover the sphere"
        )
    return part


def _separations(pairs, q):
    """(d, |d|) with d = u x + v y at configurations q (n, 6), for each
    (pair, (u, v)) entry of ``pairs``: the pair distances in frame (12)."""
    out = []
    for _, (u, v) in pairs:
        d = u * q[:, :3] + v * q[:, 3:]
        out.append((d, np.linalg.norm(d, axis=1)))
    return out


def _sobol(d: int, n: int, seed: int) -> np.ndarray:
    sob = qmc.Sobol(d=d, scramble=True, seed=seed)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="The balance properties")
        return sob.random(n)


def _directions(u):
    """Unit vectors in 6D from uniform samples u (n, 6), through normal deviates."""
    g = norm.ppf(np.clip(u, 1e-12, 1.0 - 1e-12))
    g /= np.linalg.norm(g, axis=1)[:, None]
    return g


def sphere_mesh(n: int, seed: int, radius: float = 1.0) -> np.ndarray:
    """Deterministic quasi-random points on the 6D sphere of given radius."""
    return radius * _directions(_sobol(6, n, seed))


def shell_mesh(n: int, seed: int, rho_min: float = 1.0, rho_max: float = 32.0) -> np.ndarray:
    """Quasi-random configurations with log-uniform radii in (rho_min, rho_max]."""
    u = _sobol(7, n, seed)
    g = _directions(u[:, :6])
    rho = rho_min * (rho_max / rho_min) ** u[:, 6]
    # keep radii strictly above rho_min so cone audits stay in |q| > 1
    rho = np.maximum(rho, rho_min * (1.0 + 1e-9))
    return g * rho[:, None]


@dataclass(frozen=True)
class ConeReport:
    measured_c: float
    per_region: tuple
    samples: int
    passed: bool


def verify_support_cone(part: IMSPartition, mesh: np.ndarray) -> ConeReport:
    """Minimum normalized separation over each region's support."""
    mesh = np.atleast_2d(np.asarray(mesh, dtype=float))
    rho = np.linalg.norm(mesh, axis=1)
    if np.any(rho <= 1.0):
        raise ValueError("support-cone mesh must satisfy |q| > 1")
    j, _ = part.evaluate(mesh, with_gradient=False)
    minima = []
    for s, pairs in enumerate(part.regions):
        on = j[:, s] > 1e-14
        if not np.any(on):
            minima.append(math.inf)
            continue
        minima.append(min(float(np.min(m / rho[on]))
                              for _, m in _separations(pairs, mesh[on])))
    measured = min(minima)
    return ConeReport(
        measured_c=measured,
        per_region=tuple(minima),
        samples=mesh.shape[0],
        passed=measured > 0.0,
    )


@dataclass(frozen=True)
class GradientDecayReport:
    radii: tuple
    max_grad_sq: tuple
    scaling_ok: bool
    fd_max_rel_diff: float


def gradient_decay_audit(part: IMSPartition, radii, seed: int = 7) -> GradientDecayReport:
    """Radius scaling of sum |grad J_s|^2 plus a finite-difference cross-check."""
    radii = [float(r) for r in radii]
    if any(r <= 1.0 for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be increasing and > 1")
    dirs = sphere_mesh(2048, seed=seed)
    maxima = []
    for r in radii:
        _, grad = part.evaluate(r * dirs)
        total = np.sum(grad ** 2, axis=(1, 2))
        maxima.append(float(np.max(total)))
    ok = True
    for (r1, m1), (r2, m2) in zip(zip(radii, maxima), zip(radii[1:], maxima[1:])):
        expected = (r1 / r2) ** 2
        if not expected / 2.0 <= m2 / m1 <= expected * 2.0:
            ok = False
    fd = gradient_fd_check(part, n_points=100, seed=seed + 1)
    return GradientDecayReport(
        radii=tuple(radii),
        max_grad_sq=tuple(maxima),
        scaling_ok=ok,
        fd_max_rel_diff=fd,
    )


# central-difference step of gradient_fd_check
FD_STEP = 1e-5


def gradient_fd_check(part: IMSPartition, n_points: int = 100, seed: int = 8) -> float:
    """Max relative deviation of central differences from the exact gradient."""
    pts = shell_mesh(n_points, seed=seed, rho_min=0.6, rho_max=12.0)
    _, grad = part.evaluate(pts)
    worst = 0.0
    for k in range(6):
        shift = np.zeros(6)
        shift[k] = FD_STEP
        jp, _ = part.evaluate(pts + shift, with_gradient=False)
        jm, _ = part.evaluate(pts - shift, with_gradient=False)
        fd = (jp - jm) / (2.0 * FD_STEP)
        diff = np.abs(fd - grad[:, :, k])
        scale = np.maximum(1.0, np.abs(grad[:, :, k]))
        worst = max(worst, float(np.max(diff / scale)))
    return worst


@dataclass(frozen=True)
class IdentityReport:
    max_partition_defect: float
    max_regroup_defect: float
    max_cone_envelope_excess: float
    passed: bool


def ims_identity_check(system: ParticleSystem, part: IMSPartition,
                       mesh: np.ndarray) -> IdentityReport:
    """Pointwise identities behind the localization formula.

    Checks sum J_s^2 = 1, the regrouping of the full interaction into the
    cluster pieces plus localization error, and the envelope decay of the
    cross terms along the support cones.
    """
    mesh = np.atleast_2d(np.asarray(mesh, dtype=float))
    j, _ = part.evaluate(mesh, with_gradient=False)
    part_defect = float(np.max(np.abs(np.sum(j ** 2, axis=1) - 1.0)))

    lam = system.coupling
    forms = separation_forms(system, (1, 2))
    pair_vals = {pair: system.potential(pair).profile(m)
                 for pair, (_, m) in zip(forms, _separations(forms.items(), mesh))}
    v_total = lam * sum(pair_vals.values())
    regrouped = np.zeros(mesh.shape[0])
    for s, pairs in enumerate(part.regions):
        # region s carries the cluster pair of the other two particles plus
        # the cross pairs it lists, which make up its localization error
        cluster = tuple(sorted({1, 2, 3} - {s + 1}))
        v_region = pair_vals[cluster] + sum(pair_vals[pair] for pair, _ in pairs)
        regrouped += j[:, s] ** 2 * (lam * v_region)
    regroup_defect = float(np.max(np.abs(regrouped - v_total)))

    rho = np.linalg.norm(mesh, axis=1)
    outside = rho > 1.0
    excess = 0.0
    if np.any(outside):
        c = part.theta
        jo = j[outside]
        rho_o = rho[outside]
        for s, pairs in enumerate(part.regions):
            on = jo[:, s] > 1e-12
            if not np.any(on):
                continue
            for pair, _ in pairs:
                pot = system.potential(pair)
                v_here = pair_vals[pair][outside][on]
                env = pot.envelope(c * rho_o[on])
                excess = max(excess, float(np.max(v_here * jo[on, s] ** 2 - env)))
    return IdentityReport(
        max_partition_defect=part_defect,
        max_regroup_defect=regroup_defect,
        max_cone_envelope_excess=excess,
        passed=part_defect <= 1e-10 and regroup_defect <= 1e-10 and excess <= 1e-12,
    )
