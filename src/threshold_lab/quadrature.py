"""Deterministic 1D quadrature rules used by every kernel-discretization module.

Two rule families cover all integrals in the lab: affinely mapped
Gauss-Legendre rules on finite intervals or panels, and their push-forward
to [0, inf) through the rational substitution r = scale * t / (1 - t).
Only the reference rule on [-1, 1] is cached, once per order; every rule is
an array map of it, so equal parameters give bit-identical node sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights for a fixed integration domain.

    ``spec`` records how the rule was built; the composite spec tells the
    kernel assembly where the panel edges are.
    """

    nodes: np.ndarray
    weights: np.ndarray
    spec: tuple

    def integrate(self, f) -> float:
        """Plain weighted sum of ``f`` over the nodes."""
        return float(np.dot(self.weights, f(self.nodes)))


@lru_cache(maxsize=None)
def _reference_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights of order ``n`` on [-1, 1]."""
    if n < 1:
        raise ValueError("node count must be >= 1")
    t, w = leggauss(n)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """Gauss-Legendre rule with ``n`` points mapped to [a, b]."""
    if not a < b:
        raise ValueError(f"empty interval [{a}, {b}]")
    t, w = _reference_rule(n)
    half = 0.5 * (b - a)
    return QuadratureRule(
        nodes=a + half * (t + 1.0),
        weights=half * w,
        spec=("gauss_legendre", n, float(a), float(b)),
    )


def half_line_map(t: np.ndarray, w: np.ndarray, scale: float):
    """Nodes and weights on [0, 1) pushed to [0, inf) by r = scale*t/(1-t),
    the Jacobian folded into the weights; arrays of any matching shape."""
    return scale * t / (1.0 - t), w * scale / (1.0 - t) ** 2


def semi_infinite_grid(n: int, scale: float = 1.0) -> QuadratureRule:
    """Gauss-Legendre rule of order ``n`` on [0, 1) under ``half_line_map``."""
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    base = gauss_legendre(n, 0.0, 1.0)
    return QuadratureRule(*half_line_map(base.nodes, base.weights, scale),
                          spec=("semi_infinite", n, float(scale)))


@lru_cache(maxsize=16)
def panel_partial_integrals(q: int) -> np.ndarray:
    """tau[i, j] = integral of the j-th Lagrange basis from -1 to node i.

    Computed through the Legendre expansion of the basis polynomials on the
    q-point Gauss-Legendre reference panel; used for product integration of
    semi-separable kernels across the panel containing the kink.
    """
    t, w = _reference_rule(q)
    vander = np.polynomial.legendre.legvander(t, q - 1)  # P_m(t_k)
    coeff = ((2.0 * np.arange(q) + 1.0) / 2.0)[:, None] * (w[None, :] * vander.T)
    anti = np.zeros((q, q))  # anti[i, m] = int_{-1}^{t_i} P_m
    anti[:, 0] = t + 1.0
    for m in range(1, q):
        e_hi = np.zeros(m + 2)
        e_hi[m + 1] = 1.0
        e_lo = np.zeros(m)
        e_lo[m - 1] = 1.0
        anti[:, m] = (np.polynomial.legendre.legval(t, e_hi)
                      - np.polynomial.legendre.legval(t, e_lo)) / (2.0 * m + 1.0)
    return anti @ coeff


def composite_gauss_legendre(edges, n_per_panel: int) -> QuadratureRule:
    """Panel-wise Gauss-Legendre rule over consecutive ``edges``.

    Used where integrands carry kinks or oscillations at known locations
    (square-well edges, the sqrt(p) transition of the channel multiplier).
    Nodes and weights are laid out panel by panel, ``n_per_panel`` each.
    """
    edges = np.array(edges, dtype=float)
    if edges.ndim != 1 or len(edges) < 2 or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be strictly increasing with at least two entries")
    nodes, weights = composite_nodes(edges, n_per_panel)
    return QuadratureRule(
        nodes=nodes.ravel(),
        weights=weights.ravel(),
        spec=("composite", edges, n_per_panel),
    )


def composite_nodes(edges: np.ndarray, n_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (..., P, n_per_panel) of the panel-wise rule over each
    row of ``edges`` (..., P + 1), unchecked; one row gives the arrays of
    ``composite_gauss_legendre``, many rules are built in one broadcast.
    """
    half = 0.5 * np.diff(edges)
    t, w = _reference_rule(n_per_panel)
    return edges[..., :-1, None] + half[..., None] * (t + 1.0), half[..., None] * w
