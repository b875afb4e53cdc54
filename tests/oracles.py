"""Deterministic oracles of the tests.

Each oracle integrates a raw integrand by its own rule and shares no formula
with the closed forms or quadratures it checks:

- ``hermite_elements`` and ``hermite_rho2``: Gauss-Hermite cubature of the
  matrix-element and <rho^2> integrands, against ``threebody.element_block``
  and the moment matrices;
- ``chi2_tail_oracle``: Imhof's chi^2_3 convolution of every tail mass
  P(rho > R), against ``threebody.tail_masses``;
- ``plancherel_fourier_mass``: the Fourier side of Plancherel's identity,
  integral |FT(V^(1/2))|^2 d^3p by momentum quadrature of
  ``sqrt_potential_fourier``, against c~ gamma^3 of
  ``faddeev_ops.bound_constants`` and ``model.potential_moment_c``;
- ``oracle_potential_volume``: adaptive quadrature of 4 pi r^2 V(alpha r)
  over the whole half-line, against c of ``faddeev_ops.bound_constants``;
- ``oracle_mean_square_radius``: <r^2> of the RK4 shooting oracle's ground
  state, against the two-body control sweep.

``zero_potential`` is the decoupled pair of the tests' three-body systems.
The test modules import this file by name (``from oracles import ...``):
pytest puts ``tests/`` on the import path of every test module in it.
"""

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc

from threshold_lab import twobody as tb
from threshold_lab.model import JacobiFrame, PairPotential
from threshold_lab.quadrature import composite_nodes


def zero_potential(range_: float = 1.0) -> PairPotential:
    """Identically zero interaction (decoupled pair), as a tabulated profile."""
    return PairPotential("tabulated", range_, table=((0.0, 0.0), (range_, 0.0)))


# nodes per axis of the probabilists' Gauss-Hermite rule of the cubature oracle
HERMITE_NODES = 80


def hermite_component(A, B):
    """The cubature rule of one Cartesian component of q = (x, y) under the
    Gaussian weight exp(-q.((A + B) x I3).q / 2), for forms (..., 3).

    With (A + B)^-1 = L L^T, the component is (x_k, y_k) = L (g_k, g_(k+3)),
    g standard normal, so every integrand below is a sum or a product of
    three equal two-dimensional integrals over (g_k, g_(k+3)).  Returns the
    node values x_k, y_k (..., nodes^2), the product weights (summing to 1)
    and the weight's total mass (2 pi)^3 det(A + B)^(-3/2).
    """
    t, wt = np.polynomial.hermite_e.hermegauss(HERMITE_NODES)
    s = np.asarray(A) + np.asarray(B)
    Bm = np.stack([s[..., :2], s[..., 1:]], axis=-2)
    L = np.linalg.cholesky(np.linalg.inv(Bm))
    l11, l21, l22 = (L[..., i, j, None] for i, j in ((0, 0), (1, 0), (1, 1)))
    g1, g2 = (a.ravel() for a in np.meshgrid(t, t, indexing="ij"))
    weights = np.outer(wt, wt).ravel() / (2.0 * math.pi)
    mass = (2.0 * math.pi) ** 3 * np.linalg.det(Bm) ** -1.5
    return l11 * g1, l21 * g1 + l22 * g2, weights, mass


def hermite_elements(A, B, sep_terms):
    """Kinetic, potential and H0^2 elements of the Gaussians A and B by
    cubature of the raw integrands, component by component:

    - kinetic = 3 E[a_x b_x + a_y b_y], with (a_x, a_y) = A (x_k, y_k);
    - each Gaussian term s exp(-|u x + v y|^2 / w^2) = s (E[exp(-d_k^2 / w^2)])^3;
    - H0^2 = E[(qa - 3 tr A)(qb - 3 tr B)] = 3 E[alpha beta] + 6 E[alpha] E[beta],
      with alpha = |a_k|^2 - tr A and beta = |b_k|^2 - tr B;

    each times the weight's mass.
    """
    x, y, w, mass = hermite_component(A, B)
    ax, ay = A[0] * x + A[1] * y, A[1] * x + A[2] * y
    bx, by = B[0] * x + B[1] * y, B[1] * x + B[2] * y
    alpha = ax ** 2 + ay ** 2 - (A[0] + A[2])
    beta = bx ** 2 + by ** 2 - (B[0] + B[2])
    potential = sum(s * (w @ np.exp(-((u * x + v * y) / width) ** 2)) ** 3
                    for (u, v), terms in sep_terms for s, width in terms)
    return {
        "kinetic": mass * 3.0 * (w @ (ax * bx + ay * by)),
        "potential": mass * potential,
        "h0sq": mass * (3.0 * (w @ (alpha * beta)) + 6.0 * (w @ alpha) * (w @ beta)),
    }


def hermite_rho2(asm, c):
    """<rho^2> of psi = sum_i c_i scale_i sum over the images of form i of
    exp(-q.(A x I3).q / 2), by cubature of psi^2 rho^2 and of psi^2, one
    Gaussian against all at a time: rho^2 = |x|^2 + |y|^2 is three equal
    components."""
    flat = asm.images.reshape(-1, 3)
    coeff = np.repeat(c * asm.scale, asm.images.shape[1])
    num = den = 0.0
    for ck, A in zip(coeff, flat):
        x, y, w, mass = hermite_component(A, flat)
        num += ck * np.sum(coeff * mass * 3.0 * ((x * x + y * y) @ w))
        den += ck * np.sum(coeff * mass)
    return num / den


def chi2_tail_oracle(asm, cs, radii, nodes=128):
    """T(R) (one row per coefficient vector in ``cs``) for |psi|^2 by Imhof's
    chi^2_3 convolution per Gaussian pair.

    |q|^2 under exp(-q.(B x I3).q/2) is s1 X + s2 Y with X, Y ~ chi^2_3 and
    s1 >= s2 the eigenvalues of B^-1, so with f3 the chi^2_3 density and Q3
    its survival function (Imhof 1961)

        P(rho > R) = int_0^a f3(x) Q3((R^2 - s1 x) / s2) dx + Q3(a),   a = R^2 / s1.

    x = a sin^2(theta) and b = R^2 / s2 give the analytic integrand
    sqrt(2/pi) a^1.5 sin^2 cos e^(-a sin^2 / 2) Q3(b cos^2) on [0, pi/2],
    summed here by one Gauss-Legendre rule of ``nodes`` nodes.  rho^2 is
    S3-invariant, so every form is paired with every image, one-sided and
    without the i <= j fold, a block of forms at a time.
    """
    def q3(v):
        return erfc(np.sqrt(0.5 * v)) + np.sqrt(2.0 * v / math.pi) * np.exp(-0.5 * v)

    (theta,), (wt,) = composite_nodes(np.array([0.0, 0.5 * math.pi]), nodes)
    sin2, cos2 = np.sin(theta) ** 2, np.cos(theta) ** 2
    w_theta = math.sqrt(2.0 / math.pi) * wt * sin2 * np.cos(theta)
    flat = asm.images.reshape(-1, 3)
    n = len(asm.forms)
    kernels = np.empty((1 + len(radii), n, len(flat)))  # the total mass, then one per radius
    for lo in range(0, n, 32):
        b11, b12, b22 = np.moveaxis(asm.forms[lo:lo + 32, None] + flat[None], -1, 0)
        det = b11 * b22 - b12 * b12
        mass = (2.0 * math.pi) ** 3 * det ** -1.5
        root = np.sqrt(0.25 * (b11 - b22) ** 2 + b12 * b12)
        inv_s2 = 0.5 * (b11 + b22) + root
        inv_s1 = det / inv_s2                           # the smaller eigenvalue of B
        kernels[0, lo:lo + 32] = mass
        for k, R in enumerate(radii, start=1):
            a, b = R * R * inv_s1, R * R * inv_s2
            inner = np.exp(-0.5 * a[..., None] * sin2) * q3(b[..., None] * cos2)
            kernels[k, lo:lo + 32] = mass * (a ** 1.5 * (inner @ w_theta) + q3(a))
    coeff = np.asarray(cs) * asm.scale
    masses = np.einsum("ci,kij,cj->ck", coeff, kernels,
                       np.repeat(coeff, asm.images.shape[1], axis=-1))
    return masses[:, 1:] / masses[:, :1]


def sqrt_potential_fourier(V: PairPotential, p: float) -> float:
    """Radial 3D Fourier transform of V^(1/2) at momentum magnitude p.

    Symmetric convention (2 pi)^(-3/2) on both transforms:
    F(p) = sqrt(2/pi) * (1/p) * int_0^inf sqrt(V(r)) sin(p r) r dr.
    """
    if p < 0.0:
        raise ValueError("momentum magnitude must be >= 0")
    r_max = V.effective_radius
    # panel count follows the sine oscillation, rounded up to a power of two
    need = max(8, int(math.ceil(p * r_max / math.pi)) + 4)
    panels = min(1 << (need - 1).bit_length(), 2048)
    r, w = (a.ravel() for a in composite_nodes(np.linspace(0.0, r_max, panels + 1), 8))

    amp = np.sqrt(V.profile(r)) * r
    if p == 0.0:
        f = float(np.dot(w, amp * r))
    else:
        f = float(np.dot(w, amp * np.sin(p * r))) / p
    return math.sqrt(2.0 / math.pi) * f


def plancherel_fourier_mass(V: PairPotential) -> float:
    """integral |FT of V^(1/2)|^2 d^3p, by momentum quadrature plus tail model.

    For compactly supported profiles the transform tail oscillates like
    cos^2(p r_edge)/p^2; its mean is added in closed form so the truncation
    bias stays below 1e-6 relative.  Smooth decaying profiles need no tail.
    """
    compact = V.support_radius is not None
    if compact:
        r_edge = V.support_radius
        p_max = 900.0 / r_edge
        n_panels = int(math.ceil(p_max * r_edge / (math.pi / 2.0)))
    else:
        p_max = (16.0 if V.kind == "gaussian" else 60.0) / V.range_
        n_panels = 64

    total = 0.0
    for ps, w in zip(*composite_nodes(np.linspace(0.0, p_max, n_panels + 1), 10)):
        vals = np.array([sqrt_potential_fourier(V, p) for p in ps])
        total += float(np.dot(w, 4.0 * math.pi * vals ** 2 * ps ** 2))
    if compact:
        # integrand ~ 8 * V(edge) * r_edge^2 * cos^2(p r_edge) / p^2 at large p
        v_edge = float(V.profile(np.array([r_edge * (1.0 - 1e-9)]))[0])
        total += 4.0 * v_edge * r_edge ** 2 / p_max
    return total


def oracle_potential_volume(V: PairPotential, alpha: float) -> float:
    """integral V(alpha x) d^3x by scipy's adaptive quad in r, up to the
    support edge of a compact profile (where V jumps) and to infinity
    otherwise."""
    edge = math.inf if V.support_radius is None else V.support_radius / alpha
    return quad(lambda r: 4.0 * math.pi * r * r * float(V.profile(alpha * r)), 0.0, edge,
                epsabs=0.0, epsrel=1e-13, limit=200)[0]


def oracle_mean_square_radius(V: PairPotential, frame: JacobiFrame, lam: float) -> float:
    """<r^2> of the oracle ground state, exterior tail added in closed form."""
    energy = tb.oracle_binding_energy(V, frame, lam)
    kappa = math.sqrt(-energy)
    res = tb.shooting_oracle(V, frame, lam, energy, n_steps=40000)
    us = res.u
    grid = res.step * np.arange(len(us))
    uu = us ** 2
    norm = float(np.trapezoid(uu, grid))
    mom = float(np.trapezoid(grid ** 2 * uu, grid))
    u_end = us[-1]
    rm = grid[-1]
    norm += u_end ** 2 / (2.0 * kappa)
    mom += u_end ** 2 * (rm ** 2 / (2.0 * kappa) + rm / (2.0 * kappa ** 2)
                         + 1.0 / (4.0 * kappa ** 3))
    return mom / norm
