import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from threshold_lab import cli, quadrature
from threshold_lab.quadrature import composite_nodes, half_line_map

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def panel_rule(n, a, b):
    """Nodes and weights of the n-point rule on the one panel [a, b]."""
    (x,), (w,) = composite_nodes(np.array([a, b]), n)
    return x, w


def half_line_rule(n, scale):
    """The n-point rule on [0, 1) pushed to [0, inf) with ``scale``."""
    return half_line_map(*panel_rule(n, 0.0, 1.0), scale)


def test_two_point_rule_is_textbook():
    x, w = panel_rule(2, -1.0, 1.0)
    assert np.allclose(x, [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], atol=1e-15)
    assert np.allclose(w, [1.0, 1.0], atol=1e-15)


def test_cubic_exact_with_two_points():
    x, w = panel_rule(2, 0.0, 1.0)
    assert np.dot(w, x ** 3) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("degree", [3, 7, 15, 31])
def test_polynomial_exactness_to_2n_minus_1(degree):
    n = (degree + 1) // 2
    x, w = panel_rule(n, -1.0, 2.0)
    coeffs = np.arange(1.0, degree + 2.0)
    exact = np.polynomial.polynomial.polyval(
        2.0, np.concatenate([[0.0], coeffs / np.arange(1.0, degree + 2.0)])
    ) - np.polynomial.polynomial.polyval(
        -1.0, np.concatenate([[0.0], coeffs / np.arange(1.0, degree + 2.0)])
    )
    assert np.dot(w, np.polynomial.polynomial.polyval(x, coeffs)) == pytest.approx(
        exact, rel=1e-12)


def test_weights_positive_nodes_increasing():
    for x, w in (panel_rule(64, 0.0, 5.0), half_line_rule(64, 2.0)):
        assert np.all(w > 0)
        assert np.all(np.diff(x) > 0)
        assert x[0] > 0


def test_exponential_decay_on_mapped_grid():
    r, w = half_line_rule(64, 1.0)
    assert np.dot(w, np.exp(-r)) == pytest.approx(1.0, abs=1e-10)
    assert np.dot(w, np.exp(-2.0 * r)) == pytest.approx(0.5, abs=1e-10)


def test_gaussian_second_moment():
    r, w = half_line_rule(64, 1.0)
    assert np.dot(w, r ** 2 * np.exp(-(r ** 2))) == pytest.approx(
        math.sqrt(math.pi) / 4.0, abs=1e-8
    )


def test_self_convergence_passes_for_smooth_integrand():
    r, w = half_line_rule(64, 1.0)
    coarse = np.dot(w, np.exp(-r))
    r, w = half_line_rule(128, 1.0)
    fine = np.dot(w, np.exp(-r))
    assert fine == pytest.approx(coarse, rel=1e-9)
    assert fine == pytest.approx(1.0, abs=1e-11)


def counted_leggauss(monkeypatch):
    """Orders of every leggauss call from a cold quadrature module."""
    orders = []

    def counted(n):
        orders.append(n)
        return leggauss(n)

    for obj in vars(quadrature).values():
        if callable(getattr(obj, "cache_clear", None)):
            obj.cache_clear()
    monkeypatch.setattr(quadrature, "leggauss", counted)
    return orders


def test_reference_rule_computed_once_per_order(monkeypatch):
    orders = counted_leggauss(monkeypatch)
    for a, b in ((0.0, 1.0), (-2.0, 3.5), (1e-3, 0.2)):
        panel_rule(16, a, b)
    for scale in (0.5, 1.0, 7.0):
        half_line_rule(16, scale)
    composite_nodes(np.array([0.0, 0.4, 1.1, 2.0]), 16)
    composite_nodes(np.array([[0.0, 0.5], [0.5, 2.0]]), 8)
    assert sorted(orders) == [8, 16]


@pytest.mark.parametrize("config,solved", [
    ("experiment = absorb\nmasses = 1 1 1\nkind = gaussian\nrange = 1.0\n"
     "budget = 40\nsweep_points = 4\nseed = 7\n", [8, 32]),
    ((CONFIGS / "ops_audit_gaussian.cfg").read_text(), [8, 12]),
], ids=["absorb-budget-40", "ops_audit-shipped"])
def test_absorb_run_solves_each_order_once(monkeypatch, tmp_path, config, solved):
    # every rule of a run maps the cached reference rule of its order: the
    # absorb run needs the BS radial panels and the tail-mass rule; the
    # ops_audit run adds I(z) (12), and takes c, c' and c~ on the order-8
    # panels
    orders = counted_leggauss(monkeypatch)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert sorted(orders) == solved


def test_reference_rule_is_read_only():
    t, w = quadrature._reference_rule(8)
    with pytest.raises(ValueError):
        t[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_composite_is_panelwise_mapped_rule():
    # each panel, and each row of a batch of edges, is the one-panel rule
    # of its own edges to the bit
    edges = np.array([0.0, 0.4, 1.1, 2.0])
    x, w = composite_nodes(edges, 16)
    assert x.shape == w.shape == (3, 16)
    for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        xk, wk = panel_rule(16, a, b)
        assert np.array_equal(x[k], xk)
        assert np.array_equal(w[k], wk)
    xb, wb = composite_nodes(np.array([edges, 1.5 * edges]), 16)
    for k, row in enumerate((edges, 1.5 * edges)):
        xk, wk = composite_nodes(row, 16)
        assert np.array_equal(xb[k], xk)
        assert np.array_equal(wb[k], wk)


def test_composite_matches_single_panel():
    x, w = composite_nodes(np.array([0.0, 0.4, 1.1, 2.0]), 16)
    xr, wr = panel_rule(48, 0.0, 2.0)
    assert np.sum(w * np.sin(3.0 * x)) == pytest.approx(
        np.dot(wr, np.sin(3.0 * xr)), abs=1e-13)


def test_panel_partial_integrals_cumulative_exactness():
    # tau[i, j] integrates the Lagrange basis from -1 to node i, so applying
    # it to polynomial samples must reproduce the exact antiderivative
    for q in (4, 8, 12):
        tau = quadrature.panel_partial_integrals(q)
        t, w = leggauss(q)
        for degree in range(q):
            vals = t ** degree
            exact = (t ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
            assert np.allclose(tau @ vals, exact, atol=1e-13)
        # the constant function integrates to t_i + 1 from the panel edge
        assert np.allclose(tau @ np.ones(q), t + 1.0, atol=1e-13)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        composite_nodes(np.array([0.0, 1.0]), 0)
