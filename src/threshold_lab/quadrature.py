"""Deterministic Gauss-Legendre panel rules, the one quadrature format of the lab.

Every integral is a Gauss-Legendre sum on panels: ``composite_nodes`` maps
the reference rule of one order onto each panel of a row of edges and
returns nodes and weights as (..., panels, order) arrays, ready to ravel
or to reduce panel by panel; ``half_line_map`` pushes a rule on [0, 1)
forward to [0, inf) through r = scale * t / (1 - t).  Only the reference
rule on [-1, 1] is cached, once per order, so equal edges give
bit-identical node sets.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@lru_cache(maxsize=None)
def _reference_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights of order ``n`` on [-1, 1]."""
    if n < 1:
        raise ValueError("node count must be >= 1")
    t, w = leggauss(n)
    t.flags.writeable = w.flags.writeable = False
    return t, w


def half_line_map(t: np.ndarray, w: np.ndarray, scale: float):
    """Nodes and weights on [0, 1) pushed to [0, inf) by r = scale*t/(1-t),
    the Jacobian folded into the weights; arrays of any matching shape."""
    return scale * t / (1.0 - t), w * scale / (1.0 - t) ** 2


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


def composite_nodes(edges: np.ndarray, n_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights (..., P, n_per_panel) of the Gauss-Legendre rule of
    order ``n_per_panel`` on each panel of every row of the increasing
    ``edges`` (..., P + 1), an array; the edges are not checked.

    Two edges give one panel; many rules are built in one broadcast, and a
    rule's nodes and weights are the same bits whichever batch holds it.
    """
    half = 0.5 * np.diff(edges)
    t, w = _reference_rule(n_per_panel)
    return edges[..., :-1, None] + half[..., None] * (t + 1.0), half[..., None] * w
