"""Reference computations the benchmark checks threshold_lab against.

Nothing here calls into threshold_lab: the tail oracle takes a basis and its
coefficients as plain arrays, and the shooting oracle writes out the unit Gaussian
pair profile itself rather than taking it from the package's potential model.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erfc


# ---------------------------------------------------------------------------
# Tail masses of a symmetrized correlated-Gaussian state (chi^2 convolution)
# ---------------------------------------------------------------------------

def s3_blocks() -> np.ndarray:
    """The six orthogonal 2x2 blocks by which S3 acts on equal-mass (x, y)."""
    c, s = -0.5, math.sqrt(3.0) / 2.0
    rotations = [np.eye(2), np.array([[c, -s], [s, c]]), np.array([[c, s], [-s, c]])]
    flip = np.diag([-1.0, 1.0])
    return np.stack(rotations + [flip @ r for r in rotations])


QUAD_NODES = 196     # Gauss-Legendre nodes of each pair's 1D integral
CHUNK = 4096         # pair integrals evaluated at once, to bound memory


def _chi2_3_survival(v):
    """P(X > v) for X ~ chi^2 with three degrees of freedom."""
    v = np.maximum(v, 0.0)
    return erfc(np.sqrt(v / 2.0)) + np.sqrt(2.0 * v / math.pi) * np.exp(-v / 2.0)


class TailOracle:
    """T(R) = P(rho > R) under |psi|^2 by a 1D convolution per Gaussian pair.

    psi = sum_k w_k sum_g exp(-q.(g^t A_k g x I3).q / 2), so |psi|^2 is a sum
    of Gaussians exp(-q.(B x I3).q / 2) with B = A_k + g^t A_l g.  Under each
    one rho^2 = s1 X + s2 Y with X, Y ~ chi^2_3 and s1, s2 the eigenvalues of
    B^-1, whose survival function is a 1D integral (Imhof's construction),
    done here by Gauss-Legendre quadrature.  rho^2 is S3-invariant, so the
    sum over image pairs is taken one-sided (forms x images) times six.  The
    pair integrals depend only on the basis, so they are computed once and
    every coefficient vector then costs two quadratic forms per radius.
    """

    def __init__(self, forms, scale, radii):
        forms = np.asarray(forms, dtype=float)
        n = len(forms)
        A = np.empty((n, 2, 2))
        A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1] = (
            forms[:, 0], forms[:, 1], forms[:, 1], forms[:, 2])
        g = s3_blocks()
        images = np.einsum("gji,ljk,gkm->lgim", g, A, g)        # g^t A_l g
        B = A[:, None, None] + images[None]                      # (n, n, 6, 2, 2)
        b11, b12, b22 = B[..., 0, 0], B[..., 0, 1], B[..., 1, 1]
        det = b11 * b22 - b12 * b12
        mass = (len(g) * (2.0 * math.pi) ** 3 * det ** -1.5
                * np.outer(scale, scale)[:, :, None])
        half_tr = 0.5 * (b11 + b22)
        root = np.sqrt(0.25 * (b11 - b22) ** 2 + b12 * b12)
        s1 = (1.0 / (half_tr - root)).ravel()   # larger variance
        s2 = (1.0 / (half_tr + root)).ravel()
        t, w = leggauss(QUAD_NODES)
        t, w = 0.5 * (t + 1.0), 0.5 * w
        self.radii = tuple(float(R) for R in radii)
        self.total = mass.sum(axis=2)
        self.outside = []
        for R in self.radii:
            prob = np.empty(s1.size)
            for lo in range(0, s1.size, CHUNK):
                sl = slice(lo, lo + CHUNK)
                # P(s1 X + s2 Y > R^2) = int_0^{R^2/s1} f3(x) Q3((R^2 - s1 x)/s2) dx
                #                        + Q3(R^2/s1)
                cap = R * R / s1[sl]
                x = t[None, :] * cap[:, None]
                pdf = np.sqrt(x / (2.0 * math.pi)) * np.exp(-x / 2.0)
                inner = _chi2_3_survival((R * R - s1[sl, None] * x) / s2[sl, None])
                prob[sl] = (cap * np.sum(w * pdf * inner, axis=1)
                            + _chi2_3_survival(cap))
            self.outside.append((mass * prob.reshape(mass.shape)).sum(axis=2))

    def total_mass(self, c) -> float:
        """<psi, psi>, which equals c.N.c for the program's overlap matrix N."""
        return float(c @ self.total @ c)

    def tails(self, c):
        total = self.total_mass(c)
        return [(R, float(c @ K @ c) / total) for R, K in zip(self.radii, self.outside)]


# ---------------------------------------------------------------------------
# Two-body ground energies by RK4 shooting, vectorized over energies
# ---------------------------------------------------------------------------

R_MAX = 10.0         # the unit Gaussian is below e^-100 beyond this radius
N_STEPS = 4000
GRID_POINTS = 48
PASSES = 5


def shooting_ground_energies(couplings) -> np.ndarray:
    """Ground energy of -u'' - lam exp(-r^2) u = E u for every coupling.

    This is the unit Gaussian pair with unit masses, so the potential's
    argument alpha |x| has alpha = 1.  Fixed-step RK4 from u(0) = 0,
    u'(0) = 1 to R_MAX, beyond which V is taken as zero; there
    u = P e^(kr) + Q e^(-kr) with k = sqrt(-E), so the sign of
    u' + k u = 2k P e^(kr) tells whether E lies below the ground state
    (P > 0) or above it (P < 0, up to the next level).  Each pass evaluates
    that sign on a grid in log|E| for all couplings at once and keeps the
    bracketing cell; five passes of 48 points resolve log|E| to about 2e-7.
    Assumes one bound state below zero, which holds for couplings under
    about 4 lambda*.
    """
    lam = np.asarray(couplings, dtype=float)[:, None]
    h = R_MAX / N_STEPS
    grid = h * np.arange(N_STEPS + 1)
    mid = grid[:-1] + 0.5 * h
    v_node = np.exp(-grid * grid)
    v_mid = np.exp(-mid * mid)
    lo = np.full(lam.shape[0], math.log(1e-16))
    hi = np.log(1.01 * lam[:, 0])                 # E > -lam max V
    rows = np.arange(lam.shape[0])
    for _ in range(PASSES):
        t = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, GRID_POINTS)
        E = -np.exp(t)
        u = np.zeros_like(E)
        du = np.ones_like(E)
        for i in range(N_STEPS):
            w0 = -(lam * v_node[i] + E)
            wh = -(lam * v_mid[i] + E)
            w1 = -(lam * v_node[i + 1] + E)
            k1u, k1v = du, w0 * u
            k2u, k2v = du + 0.5 * h * k1v, wh * (u + 0.5 * h * k1u)
            k3u, k3v = du + 0.5 * h * k2v, wh * (u + 0.5 * h * k2u)
            k4u, k4v = du + h * k3v, w1 * (u + h * k3u)
            u = u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            du = du + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        below = du + np.sqrt(-E) * u > 0.0     # t grows with depth
        first = np.argmax(below, axis=1)
        if not np.all(below[rows, first] & (first > 0)):
            raise ValueError("ground state not bracketed by the energy grid")
        lo, hi = t[rows, first - 1], t[rows, first]
    return -np.exp(0.5 * (lo + hi))
