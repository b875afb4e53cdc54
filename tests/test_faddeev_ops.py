import math

import numpy as np
import pytest

from threshold_lab.model import PairPotential, jacobi_frame, uniform_system
from threshold_lab import faddeev_ops as fo
from threshold_lab import twobody as tb

FRAME = jacobi_frame(uniform_system("gaussian", 1.0, 1.0), (1, 2))
GAUSS = PairPotential("gaussian", 1.0)


class TestMultiplier:
    def test_t_values(self):
        assert fo.t_multiplier(0.25) == pytest.approx(-0.5, abs=1e-15)
        assert fo.t_multiplier(1.0) == pytest.approx(0.0, abs=1e-15)
        assert fo.t_multiplier(4.0) == 0.0

    def test_t_continuous_at_one(self):
        assert fo.t_multiplier(1.0 - 1e-12) == pytest.approx(fo.t_multiplier(1.0 + 1e-12), abs=1e-9)

    @pytest.mark.parametrize("z", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0, 2.5])
    def test_multiplier_identity(self, z, p):
        # the K1 + K2 fiber multiplier t(p) + 1 + z is z + sqrt(p) inside the
        # unit ball and 1 + z outside it
        expected = z + math.sqrt(p) if p <= 1.0 else 1.0 + z
        assert fo.t_multiplier(p) + 1.0 + z == pytest.approx(expected, abs=1e-15)


@pytest.fixture(scope="module")
def constants():
    return fo.bound_constants(GAUSS, FRAME)


@pytest.fixture(scope="module")
def lam_star():
    return tb.critical_coupling(GAUSS, FRAME)


@pytest.fixture(scope="module")
def audit():
    return fo.lemma6_uniformity_audit(
        GAUSS, FRAME,
        z_grid=np.geomspace(1.0, 1e-4, 8),
        p_grid=np.geomspace(1e-3, 10.0, 8),
    )


class TestBoundConstants:
    def test_c_prime_is_2pi(self, constants):
        assert constants.c_prime == pytest.approx(2.0 * math.pi, abs=1e-8)

    def test_c_dprime_is_one(self, constants):
        assert constants.c_dprime == pytest.approx(1.0, abs=1e-8)

    def test_plancherel_ties_c_tilde_to_volume(self, constants):
        # c~ gamma^3 = integral V d^3x for the unscaled profile
        assert constants.c_tilde * FRAME.gamma ** 3 == pytest.approx(
            math.pi ** 1.5, rel=1e-6
        )

    def test_c_is_scaled_volume(self, constants):
        assert constants.c == pytest.approx(math.pi ** 1.5 / FRAME.alpha ** 3, rel=1e-10)


class TestFiberNorms:
    def test_bounds_hold_on_sample_grid(self):
        bc = fo.bound_constants(GAUSS, FRAME)
        for z in np.geomspace(1.0, 1e-3, 5):
            for p in np.geomspace(1e-3, 10.0, 7):
                n1, n2, ns = fo.fiber_norms(GAUSS, FRAME, z, p)
                assert n1 <= bc.k1_bound
                assert n2 <= bc.k2_bound * math.sqrt(z)
                assert ns <= bc.k1_bound + bc.k2_bound

    def test_norm_vanishes_at_large_p(self):
        far = fo.fiber_norms(GAUSS, FRAME, 1.0, 40.0)[2]
        near = fo.fiber_norms(GAUSS, FRAME, 1.0, 0.1)[2]
        assert far < 2e-3
        assert far < 0.05 * near

    def test_norm_scales_as_sqrt_of_strength(self):
        r = np.linspace(0.0, 8.0, 400)
        base = np.exp(-(r ** 2))
        v1 = PairPotential("tabulated", 1.0, table=tuple(zip(r.tolist(), base.tolist())))
        v2 = PairPotential("tabulated", 1.0, table=tuple(zip(r.tolist(), (2.0 * base).tolist())))
        n1 = fo.fiber_norms(v1, FRAME, 0.5, 0.5)[2]
        n2 = fo.fiber_norms(v2, FRAME, 0.5, 0.5)[2]
        assert n2 / n1 == pytest.approx(math.sqrt(2.0), rel=1e-10)

    @pytest.mark.parametrize("kappa", [1e-3, 0.1, 1.0, 10.0])
    def test_base_norm_equals_largest_singular_value(self, kappa):
        # the fiber matrix rebuilt here, its norm by a full SVD
        rule = tb.bs_radial_rule(GAUSS, FRAME.alpha, z=kappa)
        sqv = np.sqrt(GAUSS.profile(FRAME.alpha * rule.nodes))
        sw = np.sqrt(rule.weights)
        m = sw[:, None] * (tb.green_row_operator(kappa, rule) * sqv[None, :]) / sw[None, :]
        assert fo._fiber_base_norm(GAUSS, FRAME, kappa) == pytest.approx(
            np.linalg.norm(m, 2), rel=1e-14)

    def test_z_domain_guard(self):
        with pytest.raises(ValueError):
            fo.fiber_norms(GAUSS, FRAME, 0.0, 1.0)
        with pytest.raises(ValueError):
            fo.fiber_norms(GAUSS, FRAME, 1.5, 1.0)


class TestHSNorm:
    @pytest.mark.parametrize("z", [1.0, 0.5, 0.1, 0.01])
    def test_below_certificate(self, z):
        bc = fo.bound_constants(GAUSS, FRAME)
        assert fo.k2_hs_norm_squared_from_constants(bc, z) <= bc.hs_bound

    def test_majorization_pointwise_and_integral(self):
        # bracket^2 / sqrt(p^2 + z^2) <= 1/p^2 on the unit ball, whose
        # majorant integrates to 4 pi; I(z) must stay below it
        p = np.geomspace(1e-8, 1.0, 512)
        for z in (1.0, 0.1, 1e-3):
            bracket = 1.0 / (z + np.sqrt(p)) - 1.0 / (z + 1.0)
            assert np.max(p ** 2 * bracket ** 2 / np.sqrt(p ** 2 + z ** 2)) <= 1.0
        assert fo.k2_hs_integral(0.01) <= 4.0 * math.pi

    def test_linear_in_c_tilde(self):
        bc = fo.bound_constants(GAUSS, FRAME)
        doubled = fo.BoundConstants(bc.c, bc.c_prime, bc.c_dprime, 2.0 * bc.c_tilde)
        v1 = fo.k2_hs_norm_squared_from_constants(bc, 0.2)
        v2 = fo.k2_hs_norm_squared_from_constants(doubled, 0.2)
        assert v2 == pytest.approx(2.0 * v1, rel=1e-14)

    def test_integral_self_convergence(self):
        for z in (0.5, 1e-4):
            coarse = fo.k2_hs_integral(z, 12)
            fine = fo.k2_hs_integral(z, 24)
            assert fine == pytest.approx(coarse, rel=1e-10)


class TestContraction:
    def test_at_09_critical_k0(self, lam_star):
        rep = fo.channel_contraction_norm(GAUSS, FRAME, 0.9 * lam_star, 0.0)
        assert not rep.violated
        assert rep.lambda_mu == pytest.approx(0.9, abs=1e-9)
        assert rep.neumann_bound == pytest.approx(10.0, rel=1e-8)

    def test_decreasing_in_k(self, lam_star):
        ks = [0.0, 0.2, 0.5, 1.0, 2.0]
        vals = [fo.channel_contraction_norm(GAUSS, FRAME, 0.9 * lam_star, k).lambda_mu
                for k in ks]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v < 0.9 + 1e-9 for v in vals)

    def test_boundary_is_violation(self, lam_star):
        rep = fo.channel_contraction_norm(GAUSS, FRAME, lam_star, 0.0)
        assert rep.violated
        assert rep.neumann_bound is None


class TestUniformityAudit:
    def test_bounded_flag(self, audit):
        assert audit.bounded
        assert audit.sup_norm <= audit.analytic_bound
        assert all(s.k1_within_bound and s.k2_within_bound for s in audit.samples)

    def test_continuity_proxy_decreases_under_refinement(self, audit):
        finer = fo.lemma6_uniformity_audit(
            GAUSS, FRAME,
            z_grid=np.geomspace(1.0, 1e-4, 16),
            p_grid=np.geomspace(1e-3, 10.0, 8),
        )
        assert finer.continuity_proxy < audit.continuity_proxy

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            fo.lemma6_uniformity_audit(GAUSS, FRAME, z_grid=[], p_grid=[1.0])
