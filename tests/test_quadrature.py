import math

import numpy as np
import pytest

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
        assert rule.nodes[0] > rule.domain[0]


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


def test_rules_are_cached():
    assert gauss_legendre(16, 0.0, 1.0) is gauss_legendre(16, 0.0, 1.0)
    assert semi_infinite_grid(16, 3.0) is semi_infinite_grid(16, 3.0)


def test_composite_matches_single_panel():
    f = lambda x: np.sin(3.0 * x)
    comp = composite_gauss_legendre([0.0, 0.4, 1.1, 2.0], 16)
    ref = gauss_legendre(48, 0.0, 2.0)
    assert comp.integrate(f) == pytest.approx(ref.integrate(f), abs=1e-13)


def test_panel_partial_integrals_cumulative_exactness():
    # tau[i, j] integrates the Lagrange basis from -1 to node i, so applying
    # it to polynomial samples must reproduce the exact antiderivative
    from threshold_lab.quadrature import panel_partial_integrals
    from numpy.polynomial.legendre import leggauss

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
