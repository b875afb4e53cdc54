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

Every J_s is a function of the three pair separations alone.  Each is
formed once per point, in ``PAIRS`` order, and the table ``REGIONS`` of
pair indices combines them into the region weights.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import ValidationError
from .model import PAIRS, ParticleSystem, separation_forms

_INTERIOR = 1.0 / math.sqrt(3.0)


def _smoothstep(t):
    """C^2 quintic step: 0 below 0, 1 above 1."""
    t = np.clip(t, 0.0, 1.0)
    return t ** 3 * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_prime(t):
    inside = (t > 0.0) & (t < 1.0)
    t = np.clip(t, 0.0, 1.0)
    return np.where(inside, 30.0 * t ** 2 * (t - 1.0) ** 2, 0.0)


# REGIONS[s] = the indices into PAIRS of the two pairs that hold particle
# s + 1, its first pair first: region s is where that particle is far away
REGIONS = ((0, 1), (0, 2), (1, 2))


@dataclass(frozen=True)
class IMSPartition:
    """Evaluatable partition fields J_s and their exact gradients."""

    system: ParticleSystem
    theta: float
    delta: float
    # forms[p] = (u, v): the separation of PAIRS[p] is u x + v y in frame (12)
    forms: tuple

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
        smoothsteps of its two normalized pair separations; and their gradients."""
        n = q.shape[0]
        seps = [_separation(form, q) for form in self.forms]
        t = [m / rho for _, m in seps]
        a = [(tp - self.theta) / self.delta for tp in t]
        steps = [_smoothstep(ap) for ap in a]
        w = np.empty((n, 3))
        for s, (i, k) in enumerate(REGIONS):
            w[:, s] = steps[i] * steps[k]
        if not with_gradient:
            return w, None

        q_hat = q / rho[:, None]
        slopes = []  # per pair: the smoothstep slope and grad t
        for (d, m), tp, ap, (u_c, v_c) in zip(seps, t, a, self.forms):
            inv_m = np.divide(1.0, m, out=np.zeros_like(m), where=m > 1e-300)
            d_hat = d * inv_m[:, None]
            grad_t = np.empty((n, 6))
            grad_t[:, :3] = u_c * d_hat / rho[:, None]
            grad_t[:, 3:] = v_c * d_hat / rho[:, None]
            grad_t -= (tp / rho)[:, None] * q_hat
            slopes.append((_smoothstep_prime(ap) / self.delta, grad_t))
        grad_w = np.zeros((n, 3, 6))
        for s, region in enumerate(REGIONS):
            for p, other in zip(region, region[::-1]):
                sp, grad_t = slopes[p]
                grad_w[:, s, :] += (sp * steps[other])[:, None] * grad_t
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
    part = IMSPartition(system=system, theta=theta, delta=delta,
                        forms=tuple(forms[pair] for pair in PAIRS))

    # the normalized fields hide empty coverage; inspect the raw weights
    mesh = sphere_mesh(4096, seed=20210905)
    w, _ = part._raw_weights(mesh, np.linalg.norm(mesh, axis=1), with_gradient=False)
    if np.min(np.sum(w ** 2, axis=1)) <= 0.0:
        raise ValidationError(
            f"thresholds theta={theta}, delta={delta} do not cover the sphere"
        )
    return part


def _separation(form, q):
    """(d, |d|) with d = u x + v y at configurations q (n, 6) for one form
    (u, v): a pair separation in frame (12) and its length."""
    u, v = form
    d = u * q[:, :3] + v * q[:, 3:]
    return d, np.linalg.norm(d, axis=1)


def _sobol(d: int, n: int, seed: int) -> np.ndarray:
    from scipy.stats import qmc  # costly import, needed only by the IMS meshes
    sob = qmc.Sobol(d=d, scramble=True, seed=seed)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="The balance properties")
        return sob.random(n)


def _directions(u):
    """Unit vectors in 6D from uniform samples u (n, 6), through normal deviates."""
    g = ndtri(np.clip(u, 1e-12, 1.0 - 1e-12))
    g /= np.linalg.norm(g, axis=1)[:, None]
    return g


def sphere_mesh(n: int, seed: int) -> np.ndarray:
    """Deterministic quasi-random points on the 6D unit sphere."""
    return _directions(_sobol(6, n, seed))


def shell_mesh(n: int, seed: int, rho_min: float = 1.0, rho_max: float = 32.0) -> np.ndarray:
    """Quasi-random configurations with log-uniform radii in (rho_min, rho_max]."""
    u = _sobol(7, n, seed)
    g = _directions(u[:, :6])
    rho = rho_min * (rho_max / rho_min) ** u[:, 6]
    # keep radii strictly above rho_min so mesh audits stay in |q| > 1
    rho = np.maximum(rho, rho_min * (1.0 + 1e-9))
    return g * rho[:, None]


@dataclass(frozen=True)
class MeshAudit:
    partition_defect: float
    cone_constant: float
    cone_per_region: tuple
    regroup_defect: float
    envelope_excess: float
    cone_passed: bool
    identity_passed: bool


def mesh_audit(part: IMSPartition, mesh: np.ndarray) -> MeshAudit:
    """Pointwise checks of the partition on a mesh with |q| > 1, from one
    evaluation of J and one set of pair distances.

    Measures max |sum J_s^2 - 1|; the regrouping of the full interaction
    into cluster pieces plus localization error by the region table; and,
    over the two pairs that hold particle s, the cone constant (the least
    normalized separation on the support J_s > 1e-14) and the excess of the
    cross terms V J_s^2 over the envelope F(theta |q|) on J_s > 1e-12.
    """
    mesh = np.atleast_2d(np.asarray(mesh, dtype=float))
    rho = np.linalg.norm(mesh, axis=1)
    if np.any(rho <= 1.0):
        raise ValueError("audit mesh must satisfy |q| > 1")
    j, _ = part.evaluate(mesh, with_gradient=False)
    j_sq = j ** 2
    partition_defect = float(np.max(np.abs(np.sum(j_sq, axis=1) - 1.0)))

    system = part.system
    pots = [system.potential(pair) for pair in PAIRS]
    dist = [_separation(form, mesh)[1] for form in part.forms]
    pair_vals = [pot.profile(m) for pot, m in zip(pots, dist)]
    envelopes = [pot.envelope(part.theta * rho) for pot in pots]
    v_total = system.coupling * sum(pair_vals)
    regrouped = np.zeros(mesh.shape[0])
    minima = []
    excess = 0.0
    for s in range(3):
        held = [p for p, pair in enumerate(PAIRS) if s + 1 in pair]
        # region s carries the cluster pair of the other two particles plus
        # the cross pairs its table row lists, which make up its localization error
        (cluster,) = {0, 1, 2} - set(held)
        v_region = pair_vals[cluster] + sum(pair_vals[p] for p in REGIONS[s])
        regrouped += j_sq[:, s] * (system.coupling * v_region)

        nearest = np.minimum(dist[held[0]], dist[held[1]]) / rho
        minima.append(float(np.min(nearest, where=j[:, s] > 1e-14, initial=math.inf)))
        on = j[:, s] > 1e-12
        for p in held:
            cross = pair_vals[p] * j_sq[:, s] - envelopes[p]
            excess = max(excess, float(np.max(cross, where=on, initial=-math.inf)))
    regroup_defect = float(np.max(np.abs(regrouped - v_total)))
    cone = min(minima)
    return MeshAudit(
        partition_defect=partition_defect,
        cone_constant=cone,
        cone_per_region=tuple(minima),
        regroup_defect=regroup_defect,
        envelope_excess=excess,
        cone_passed=cone >= part.theta,
        identity_passed=(partition_defect <= 1e-10 and regroup_defect <= 1e-10
                         and excess <= 1e-12),
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
