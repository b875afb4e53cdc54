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

Every J_s is a function of the three pair separations u x + v y over |q|,
each formed once per point in ``PAIRS`` order and combined by the table
``REGIONS``.  A rotation of x and y keeps J and Sum |grad J_s|^2, and on
|q| >= 1 so does a change of |q|: every audit runs on ``shape_mesh``, a
grid of the two hyperspherical shape angles (chi, phi).  ``mesh_audit``
checks blocks of ``AUDIT_BLOCK`` points, so its memory does not grow with
the mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import PAIRS, ParticleSystem, separation_forms

_INTERIOR = 1.0 / math.sqrt(3.0)

# points per block of mesh_audit: its temporaries scale with the block, not
# with the mesh, and every result is the same for any block size
AUDIT_BLOCK = 2 ** 14

# side of the (chi, phi) grid of the cover check and the gradient audit
SHAPE_GRID = 65


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

    def evaluate(self, q, with_gradient: bool = True, seps=None):
        """J values (n, 3) and gradients (n, 3, 6) at configurations q (n, 6).

        ``seps`` may pass the pair separations of q, as
        ``self._separations(q, with_gradient)`` forms them, so a caller that
        needs them too forms each only once.
        """
        q = np.atleast_2d(np.asarray(q, dtype=float))
        n = q.shape[0]
        rho = np.linalg.norm(q, axis=1)
        if seps is None:
            seps = self._separations(q, with_gradient)
        elif (len(seps) != len(self.forms)
              or any(m.shape != (n,) for _, m in seps)
              or (with_gradient and any(d is None for d, _ in seps))):
            raise ValueError("seps must be self._separations(q, with_gradient)")
        j = np.empty((n, 3))
        grad = np.zeros((n, 3, 6)) if with_gradient else None

        inner = rho <= 0.5
        j[inner] = _INTERIOR

        out = ~inner
        if np.any(out):
            outer = [(None if d is None else d[out], m[out]) for d, m in seps]
            jo, go = self._evaluate_outer(q[out], rho[out], outer, with_gradient)
            j[out] = jo
            if with_gradient:
                grad[out] = go
        return (j, grad) if with_gradient else (j, None)

    def _separations(self, q, with_vectors):
        """Per pair of PAIRS, (d, |d|) at configurations q (n, 6), where d is
        the pair separation in frame (12); d is None unless with_vectors."""
        return [_separation(form, q, with_vectors) for form in self.forms]

    def _raw_weights(self, q, rho, seps, with_gradient):
        """Unblended region weights w (n, 3): per region, the product of the
        smoothsteps of its two normalized pair separations; and their gradients."""
        n = q.shape[0]
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

    def _evaluate_outer(self, q, rho, seps, with_gradient):
        blend_arg = (rho - 0.5) / 0.5
        B = _smoothstep(blend_arg)
        Bp = _smoothstep_prime(blend_arg) / 0.5
        w, grad_w = self._raw_weights(q, rho, seps, with_gradient)

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
    mesh = shape_mesh(SHAPE_GRID)
    w, _ = part._raw_weights(mesh, np.linalg.norm(mesh, axis=1),
                             part._separations(mesh, False), with_gradient=False)
    uncovered = np.flatnonzero(np.sum(w ** 2, axis=1) <= 0.0)
    if uncovered.size:
        x1, y1, y2 = mesh[uncovered[0], [0, 3, 4]]
        raise ValidationError(
            f"thresholds theta={theta}, delta={delta} do not cover the sphere: "
            f"{uncovered.size} of {len(mesh)} grid shapes uncovered, "
            f"one at chi={math.atan2(math.hypot(y1, y2), x1):.6f}, "
            f"phi={math.atan2(y2, y1):.6f}"
        )
    return part


def _separation(form, q, with_vector):
    """(d, |d|) with d = u x + v y at configurations q (n, 6) for one form
    (u, v): a pair separation in frame (12) and its length.  d is None unless
    with_vector."""
    u, v = form
    d = u * q[:, :3] + v * q[:, 3:]
    return (d if with_vector else None), np.linalg.norm(d, axis=1)



def shape_mesh(n: int) -> np.ndarray:
    """n * n configurations on the unit sphere, chi slowest: x = cos chi e1 and
    y = sin chi (cos phi e1 + sin phi e2), chi in [0, pi/2] and phi in [0, pi]."""
    chi, phi = np.linspace(0.0, 0.5 * math.pi, n), np.linspace(0.0, math.pi, n)
    mesh = np.zeros((n, n, 6))
    mesh[:, :, 0] = np.cos(chi)[:, None]
    sin_chi = np.sin(chi)[:, None]
    np.multiply(sin_chi, np.cos(phi), out=mesh[:, :, 3])
    np.multiply(sin_chi, np.sin(phi), out=mesh[:, :, 4])
    return mesh.reshape(n * n, 6)


def audit_mesh(samples: int, rho_min: float = 1.0, rho_max: float = 32.0) -> np.ndarray:
    """shape_mesh(ceil(sqrt(samples))), point i at its own radius in
    (rho_min, rho_max), log-uniform through the golden-ratio sequence
    u_i = frac(i (sqrt 5 - 1)/2), i = 1, 2, ..."""
    mesh = shape_mesh(math.isqrt(samples - 1) + 1)
    u = np.arange(1, len(mesh) + 1) * (0.5 * (math.sqrt(5.0) - 1.0)) % 1.0
    mesh *= (rho_min * (rho_max / rho_min) ** u)[:, None]
    return mesh


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
    """Pointwise checks of the partition on a mesh with |q| > 1, block by block
    of AUDIT_BLOCK points, each from one evaluation of J and one set of pair
    distances.

    Measures max |sum J_s^2 - 1|; the regrouping of the full interaction
    into cluster pieces plus localization error by the region table; and,
    over the two pairs that hold particle s, the cone constant (the least
    normalized separation on the support J_s > 1e-14) and the excess of the
    cross terms V J_s^2 over the envelope F(theta |q|) on J_s > 1e-12.  The
    blocks combine by max and min, so no result depends on the block size.
    """
    mesh = np.atleast_2d(np.asarray(mesh, dtype=float))
    pots = [part.system.potential(pair) for pair in PAIRS]
    # one row per block; an empty mesh gives (0, 6), which np.max rejects
    stats = np.array([_audit_block(part, pots, mesh[start:start + AUDIT_BLOCK])
                      for start in range(0, mesh.shape[0], AUDIT_BLOCK)]).reshape(-1, 6)
    partition_defect, regroup_defect, excess = (float(x) for x in np.max(stats[:, :3], axis=0))
    cone_per_region = tuple(float(c) for c in np.min(stats[:, 3:], axis=0))
    cone = min(cone_per_region)
    return MeshAudit(
        partition_defect=partition_defect,
        cone_constant=cone,
        cone_per_region=cone_per_region,
        regroup_defect=regroup_defect,
        envelope_excess=excess,
        cone_passed=cone >= part.theta,
        identity_passed=(partition_defect <= 1e-10 and regroup_defect <= 1e-10
                         and excess <= 1e-12),
    )


def _audit_block(part: IMSPartition, pots, q):
    """The checks of mesh_audit on one block q: its partition and regrouping
    defects, envelope excess and the cone constant of each region.  Its
    temporaries are freed on return, before the next block is checked."""
    rho = np.linalg.norm(q, axis=1)
    if np.any(rho <= 1.0):
        raise ValueError("audit mesh must satisfy |q| > 1")
    seps = part._separations(q, False)
    j, _ = part.evaluate(q, with_gradient=False, seps=seps)
    j_sq = j ** 2
    partition_defect = np.max(np.abs(np.sum(j_sq, axis=1) - 1.0))

    system = part.system
    dist = [m for _, m in seps]
    pair_vals = [pot.profile(m) for pot, m in zip(pots, dist)]
    envelopes = [pot.envelope(part.theta * rho) for pot in pots]
    v_total = system.coupling * sum(pair_vals)
    regrouped = np.zeros(q.shape[0])
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
        minima.append(np.min(nearest, where=j[:, s] > 1e-14, initial=math.inf))
        on = j[:, s] > 1e-12
        for p in held:
            cross = pair_vals[p] * j_sq[:, s] - envelopes[p]
            excess = max(excess, float(np.max(cross, where=on, initial=-math.inf)))
    regroup_defect = np.max(np.abs(regrouped - v_total))
    return (partition_defect, regroup_defect, excess, *minima)


@dataclass(frozen=True)
class GradientDecayReport:
    radii: tuple
    max_grad_sq: tuple
    scaling_ok: bool
    fd_max_rel_diff: float


def gradient_decay_audit(part: IMSPartition, radii) -> GradientDecayReport:
    """Radius scaling of max sum |grad J_s|^2 on the shape grid, and an FD check."""
    radii = [float(r) for r in radii]
    if any(r <= 1.0 for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be increasing and > 1")
    dirs = shape_mesh(SHAPE_GRID)
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
    fd = gradient_fd_check(part, n_points=100)
    return GradientDecayReport(
        radii=tuple(radii),
        max_grad_sq=tuple(maxima),
        scaling_ok=ok,
        fd_max_rel_diff=fd,
    )


# central-difference step of gradient_fd_check: the truncation error grows as
# its square times the smoothstep's third derivative 60/delta^3, and at 1e-5
# it alone reads above the 1e-6 gate
FD_STEP = 1e-6

# the proper rotation of the unit quaternion (1, 2, 3, 4)/sqrt(30); no entry
# is zero, so it turns the grid's plane (e1, e2) off every coordinate axis
_ROTATION = np.array([[-20.0, 4.0, 22.0], [20.0, -10.0, 20.0], [10.0, 28.0, 4.0]]) / 30.0


def gradient_fd_check(part: IMSPartition, n_points: int = 100) -> float:
    """Max relative deviation of central differences from the exact gradient
    across the blend, with all six components nonzero by _ROTATION."""
    pts = audit_mesh(n_points, rho_min=0.6, rho_max=12.0)
    pts = (pts.reshape(-1, 2, 3) @ _ROTATION.T).reshape(-1, 6)
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
