import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from threshold_lab import cli, quadrature
from threshold_lab.quadrature import (
    composite_gauss_legendre,
    gauss_legendre,
    semi_infinite_grid,
)


def test_two_point_rule_is_textbook():
    rule = gauss_legendre(2, -1.0, 1.0)
    assert np.allclose(rule.nodes, [-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)], atol=1e-15)
    assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-15)


def test_cubic_exact_with_two_points():
    rule = gauss_legendre(2, 0.0, 1.0)
    assert rule.integrate(lambda x: x ** 3) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("degree", [3, 7, 15, 31])
def test_polynomial_exactness_to_2n_minus_1(degree):
    n = (degree + 1) // 2
    rule = gauss_legendre(n, -1.0, 2.0)
    coeffs = np.arange(1.0, degree + 2.0)

    def poly(x):
        return np.polynomial.polynomial.polyval(x, coeffs)

    exact = np.polynomial.polynomial.polyval(
        2.0, np.concatenate([[0.0], coeffs / np.arange(1.0, degree + 2.0)])
    ) - np.polynomial.polynomial.polyval(
        -1.0, np.concatenate([[0.0], coeffs / np.arange(1.0, degree + 2.0)])
    )
    assert rule.integrate(poly) == pytest.approx(exact, rel=1e-12)


def test_weights_positive_nodes_increasing():
    for rule in (gauss_legendre(64, 0.0, 5.0), semi_infinite_grid(64, 2.0)):
        assert np.all(rule.weights > 0)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] > 0


def test_exponential_decay_on_mapped_grid():
    rule = semi_infinite_grid(64, 1.0)
    assert rule.integrate(lambda r: np.exp(-r)) == pytest.approx(1.0, abs=1e-10)
    assert rule.integrate(lambda r: np.exp(-2.0 * r)) == pytest.approx(0.5, abs=1e-10)


def test_gaussian_second_moment():
    rule = semi_infinite_grid(64, 1.0)
    assert rule.integrate(lambda r: r ** 2 * np.exp(-(r ** 2))) == pytest.approx(
        math.sqrt(math.pi) / 4.0, abs=1e-8
    )


def test_self_convergence_passes_for_smooth_integrand():
    coarse = semi_infinite_grid(64, 1.0).integrate(lambda r: np.exp(-r))
    fine = semi_infinite_grid(128, 1.0).integrate(lambda r: np.exp(-r))
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
        gauss_legendre(16, a, b)
    for scale in (0.5, 1.0, 7.0):
        semi_infinite_grid(16, scale)
    composite_gauss_legendre([0.0, 0.4, 1.1, 2.0], 16)
    composite_gauss_legendre([0.0, 0.5], 8)
    assert sorted(orders) == [8, 16]


def test_absorb_run_solves_each_order_once(monkeypatch, tmp_path):
    orders = counted_leggauss(monkeypatch)
    cfg = tmp_path / "absorb.cfg"
    cfg.write_text("experiment = absorb\nmasses = 1 1 1\nkind = gaussian\nrange = 1.0\n"
                   "budget = 40\nsweep_points = 4\nseed = 7\n")
    assert cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]) == 0
    # the BS radial panels and the tail-mass rules; no order above 32
    assert sorted(orders) == [8, 32]


def test_reference_rule_is_read_only():
    t, w = quadrature._reference_rule(8)
    with pytest.raises(ValueError):
        t[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0


def test_composite_is_panelwise_mapped_rule():
    edges = [0.0, 0.4, 1.1, 2.0]
    comp = composite_gauss_legendre(edges, 16)
    for k, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        panel = gauss_legendre(16, a, b)
        assert np.array_equal(comp.nodes[16 * k:16 * (k + 1)], panel.nodes)
        assert np.array_equal(comp.weights[16 * k:16 * (k + 1)], panel.weights)


def test_composite_matches_single_panel():
    f = lambda x: np.sin(3.0 * x)
    comp = composite_gauss_legendre([0.0, 0.4, 1.1, 2.0], 16)
    ref = gauss_legendre(48, 0.0, 2.0)
    assert comp.integrate(f) == pytest.approx(ref.integrate(f), abs=1e-13)


def test_panel_partial_integrals_cumulative_exactness():
    # tau[i, j] integrates the Lagrange basis from -1 to node i, so applying
    # it to polynomial samples must reproduce the exact antiderivative
    from threshold_lab.quadrature import panel_partial_integrals

    for q in (4, 8, 12):
        tau = panel_partial_integrals(q)
        t, w = leggauss(q)
        for degree in range(q):
            vals = t ** degree
            exact = (t ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
            assert np.allclose(tau @ vals, exact, atol=1e-13)
        # the constant function integrates to t_i + 1 from the panel edge
        assert np.allclose(tau @ np.ones(q), t + 1.0, atol=1e-13)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        gauss_legendre(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gauss_legendre(4, 1.0, 1.0)
    with pytest.raises(ValueError):
        semi_infinite_grid(8, -1.0)
    with pytest.raises(ValueError):
        composite_gauss_legendre([0.0], 8)
