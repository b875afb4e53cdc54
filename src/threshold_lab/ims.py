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
takes a sample count and checks ``audit_mesh`` in blocks of ``AUDIT_BLOCK``
points, each built just before it is checked, so neither the mesh nor the
audit's memory grows with the sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .model import PAIRS, ParticleSystem, separation_forms

# threshold theta and smoothstep width delta of the region weights, and the
# radii of gradient_decay_audit, all outside the blend shell
THETA = 0.15
DELTA = 0.05
GRADIENT_RADII = (2.0, 4.0, 8.0, 16.0)

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
        """J (n, 3) and its gradient (n, 3, 6) or None at configurations q
        (n, 6), from the pair separations ``seps`` (per PAIRS, as
        _separation gives them) when the caller has them.  The blend is 0
        on |q| <= 1/2, so J_s = 1/sqrt(3) with zero gradient there; |q| is
        floored at the least normal float, so q = 0 gives the same."""
        q = np.atleast_2d(np.asarray(q, dtype=float))
        rho = np.maximum(np.linalg.norm(q, axis=1), np.finfo(float).tiny)
        if seps is None:
            seps = [_separation(form, q, with_gradient) for form in self.forms]
        blend_arg = (rho - 0.5) / 0.5
        B = _smoothstep(blend_arg)
        w, grad_w = self._raw_weights(q, rho, seps, with_gradient)

        w_tilde = (1.0 - B)[:, None] + B[:, None] * w
        norm_sq = np.sum(w_tilde ** 2, axis=1)
        if np.any(norm_sq <= 0.0):
            raise ValidationError("partition weights vanished simultaneously")
        D = np.sqrt(norm_sq)
        j = w_tilde / D[:, None]
        if not with_gradient:
            return j, None

        Bp = _smoothstep_prime(blend_arg) / 0.5
        grad_wt = B[:, None, None] * grad_w
        grad_wt += (Bp[:, None] * (w - 1.0))[:, :, None] * (q / rho[:, None])[:, None, :]
        # grad J_s = grad w~_s / D - w~_s (sum_t w~_t grad w~_t) / D^3
        dd = np.einsum("ns,nsk->nk", w_tilde, grad_wt)
        grad_j = grad_wt / D[:, None, None] \
            - (w_tilde / D[:, None] ** 3)[:, :, None] * dd[:, None, :]
        return j, grad_j

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


def build_partition(system: ParticleSystem) -> IMSPartition:
    """The three-region partition at THETA and DELTA, after checking that the
    raw weights cover every shape of the grid: whether they do depends on
    the masses."""
    forms = separation_forms(system)
    part = IMSPartition(system=system, theta=THETA, delta=DELTA,
                        forms=tuple(forms[pair] for pair in PAIRS))

    # the normalized fields hide empty coverage; inspect the raw weights
    mesh = shape_mesh(SHAPE_GRID)
    w, _ = part._raw_weights(mesh, np.linalg.norm(mesh, axis=1),
                             [_separation(form, mesh, False) for form in part.forms],
                             with_gradient=False)
    uncovered = np.sum(w ** 2, axis=1) <= 0.0
    if np.any(uncovered):
        x1, y1, y2 = mesh[np.argmax(uncovered), [0, 3, 4]]
        # the rows chi = 0 and chi = pi/2 each hold one shape SHAPE_GRID times
        distinct = np.ones((SHAPE_GRID, SHAPE_GRID), dtype=bool)
        distinct[[0, -1], 1:] = False
        raise ValidationError(
            f"thresholds theta={THETA}, delta={DELTA} do not cover the sphere: "
            f"{np.sum(uncovered & distinct.ravel())} of {np.sum(distinct)} distinct "
            "grid shapes uncovered, "
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


def shape_mesh(n: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Points [start, stop) of n * n configurations on the unit sphere, chi
    slowest: point i has x = cos chi e1 and y = sin chi (cos phi e1 + sin phi e2)
    at chi = chi_(i // n) in [0, pi/2] and phi = phi_(i % n) in [0, pi]."""
    points = range(n * n)[start:stop]
    row, col = np.divmod(np.arange(points.start, points.stop), n)
    chi, phi = np.linspace(0.0, 0.5 * math.pi, n), np.linspace(0.0, math.pi, n)
    mesh = np.zeros((len(points), 6))
    mesh[:, 0] = np.cos(chi)[row]
    sin_chi = np.sin(chi)[row]
    np.multiply(sin_chi, np.cos(phi)[col], out=mesh[:, 3])
    np.multiply(sin_chi, np.sin(phi)[col], out=mesh[:, 4])
    return mesh


def _mesh_side(samples: int) -> int:
    """Side ceil(sqrt(samples)) of the shape grid behind audit_mesh(samples)."""
    return math.isqrt(samples - 1) + 1


def audit_mesh(samples: int, rho_min: float = 1.0, rho_max: float = 32.0,
               start: int = 0, stop: int | None = None) -> np.ndarray:
    """Points [start, stop) of shape_mesh(ceil(sqrt(samples))), point i at its
    own radius in (rho_min, rho_max), log-uniform through the golden-ratio
    sequence u_i = frac(i (sqrt 5 - 1)/2), i = 1, 2, ...  Every point depends
    on its index alone, so slices of the mesh concatenate to the whole."""
    n = _mesh_side(samples)
    points = range(n * n)[start:stop]
    mesh = shape_mesh(n, points.start, points.stop)
    u = np.arange(points.start + 1, points.stop + 1) * (0.5 * (math.sqrt(5.0) - 1.0)) % 1.0
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


def mesh_audit(part: IMSPartition, samples: int) -> MeshAudit:
    """Pointwise checks of the partition on audit_mesh(samples), block by
    block of AUDIT_BLOCK points: each block forms its three pair distances
    once and hands them to one IMSPartition.evaluate.  Each block of the mesh
    is built just before it is checked, so the mesh is never held whole.

    Measures max |sum J_s^2 - 1|; the regrouping of the full interaction
    into cluster pieces plus localization error by the region table; and,
    over the two pairs that hold particle s, the cone constant (the least
    normalized separation on the support J_s > 1e-14) and the excess of the
    cross terms V J_s^2 over the envelope F(theta |q|) on J_s > 1e-12.  The
    blocks combine by max and min, so no result depends on the block size.
    """
    pots = [part.system.potential(pair) for pair in PAIRS]
    stats = np.array([_audit_block(part, pots, audit_mesh(samples, start=start,
                                                          stop=start + AUDIT_BLOCK))
                      for start in range(0, _mesh_side(samples) ** 2, AUDIT_BLOCK)])
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
    seps = [_separation(form, q, False) for form in part.forms]
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


def gradient_decay_audit(part: IMSPartition) -> GradientDecayReport:
    """Max sum |grad J_s|^2 on the shape grid at each of GRADIENT_RADII, each
    ratio of neighbours within a factor 2 of the 1/|q|^2 law, and the FD check."""
    radii, dirs = GRADIENT_RADII, shape_mesh(SHAPE_GRID)
    maxima = []
    for r in radii:
        _, grad = part.evaluate(r * dirs)
        maxima.append(float(np.max(np.sum(grad ** 2, axis=(1, 2)))))
    ok = all((r1 / r2) ** 2 / 2.0 <= m2 / m1 <= (r1 / r2) ** 2 * 2.0
             for r1, r2, m1, m2 in zip(radii, radii[1:], maxima, maxima[1:]))
    return GradientDecayReport(radii=radii, max_grad_sq=tuple(maxima), scaling_ok=ok,
                               fd_max_rel_diff=gradient_fd_check(part))


# central-difference step of gradient_fd_check: the truncation error grows as
# its square times the smoothstep's third derivative 60/delta^3, and at 1e-5
# it alone reads above the 1e-6 gate
FD_STEP = 1e-6
FD_POINTS = 100  # size of the audit_mesh of gradient_fd_check

# the proper rotation of the unit quaternion (1, 2, 3, 4)/sqrt(30); no entry
# is zero, so it turns the grid's plane (e1, e2) off every coordinate axis
_ROTATION = np.array([[-20.0, 4.0, 22.0], [20.0, -10.0, 20.0], [10.0, 28.0, 4.0]]) / 30.0


def gradient_fd_check(part: IMSPartition) -> float:
    """Max relative deviation of central differences from the exact gradient
    on audit_mesh(FD_POINTS) across the blend, 0.6 < |q| < 12, with all six
    components nonzero by _ROTATION."""
    pts = audit_mesh(FD_POINTS, rho_min=0.6, rho_max=12.0)
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
