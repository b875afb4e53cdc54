import functools
import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import jn_zeros

from threshold_lab.errors import BracketError, ConvergenceError, DegenerateInputError
from threshold_lab.model import PairPotential, jacobi_frame, uniform_system
from threshold_lab import threebody as t3
from threshold_lab import twobody as tb

from oracles import oracle_mean_square_radius, zero_potential

FRAME = jacobi_frame(uniform_system("gaussian", 1.0, 1.0), (1, 2))
WELL = PairPotential("square_well", 1.0)
EXPO = PairPotential("exponential", 1.0)
GAUSS = PairPotential("gaussian", 1.0)

SW_LAMBDA_STAR = math.pi ** 2 / 4.0
EX_LAMBDA_STAR = jn_zeros(0, 1)[0] ** 2 / 4.0
# pinned by the shooting oracle before the matrix build; the in-suite oracle
# run below re-derives it
GAUSS_LAMBDA_STAR_ORACLE = 2.684004650924105


class TestBSMaxEigenvalue:
    def test_square_well_zero_energy(self):
        assert tb.bs_max_eigenvalue(WELL, FRAME, 0.0) == pytest.approx(
            4.0 / math.pi ** 2, rel=1e-8
        )

    def test_exponential_zero_energy(self):
        assert tb.bs_max_eigenvalue(EXPO, FRAME, 0.0) == pytest.approx(
            4.0 / jn_zeros(0, 1)[0] ** 2, rel=1e-8
        )

    def test_kernel_dies_at_large_z(self):
        assert tb.bs_max_eigenvalue(GAUSS, FRAME, 40.0) < 5e-3

    @pytest.mark.parametrize("V", [WELL, EXPO, GAUSS], ids=["well", "expo", "gauss"])
    def test_strict_monotonicity_20_point_grid(self, V):
        zs = np.linspace(0.0, 5.0, 20)
        mus = [tb.bs_max_eigenvalue(V, FRAME, z) for z in zs]
        assert all(a > b for a, b in zip(mus, mus[1:]))

    def test_matrix_symmetric(self):
        rule = tb.bs_radial_rule(GAUSS, FRAME.alpha, z=0.7)
        m = tb.bs_matrix(GAUSS, FRAME, 0.7, rule)
        assert np.max(np.abs(m - m.T)) <= 1e-12 * np.max(np.abs(m))

    def test_operator_wrapper(self):
        # bs_max_eigenvalue wraps the BS matrix on the default 128-node rule
        rule = tb.bs_radial_rule(GAUSS, FRAME.alpha, z=0.3)
        assert rule[0].shape == rule[1].shape == (16, 8)
        assert rule[2].shape == (17,)
        eigs = np.linalg.eigvalsh(tb.bs_matrix(GAUSS, FRAME, 0.3, rule))
        assert np.all(np.isreal(eigs))
        assert eigs[-1] == pytest.approx(
            tb.bs_max_eigenvalue(GAUSS, FRAME, 0.3), rel=1e-14
        )


class TestCriticalCoupling:
    def test_square_well(self):
        assert tb.critical_coupling(WELL, FRAME) == pytest.approx(SW_LAMBDA_STAR, rel=1e-4)

    def test_exponential(self):
        assert tb.critical_coupling(EXPO, FRAME) == pytest.approx(EX_LAMBDA_STAR, rel=1e-4)

    def test_gaussian_matches_pinned_oracle_value(self):
        assert tb.critical_coupling(GAUSS, FRAME) == pytest.approx(
            GAUSS_LAMBDA_STAR_ORACLE, rel=1e-4
        )

    def test_zero_potential_degenerate(self):
        # no attraction: lambda* = inf, returned rather than raised
        assert tb.critical_coupling(zero_potential(), FRAME) == math.inf

    @pytest.mark.parametrize(
        "V,exact",
        [(WELL, SW_LAMBDA_STAR), (EXPO, EX_LAMBDA_STAR)],
        ids=["well", "expo"],
    )
    def test_oracle_equivalence(self, V, exact):
        cc = tb.critical_coupling(V, FRAME)
        oracle = tb.oracle_critical_coupling(V, FRAME)
        assert abs(cc - oracle) / exact <= 1e-4
        assert oracle == pytest.approx(exact, rel=1e-9)


class TestSubcriticalityMargin:
    def test_strictly_subcritical(self):
        lam_star = tb.critical_coupling(GAUSS, FRAME)
        system = uniform_system("gaussian", 1.0, 0.8 * lam_star)
        rep = tb.subcriticality_margin(system)
        assert rep.satisfied
        assert rep.eps == pytest.approx(0.2 * lam_star, rel=1e-6)

    def test_boundary_violated(self):
        lam_star = tb.critical_coupling(GAUSS, FRAME)
        rep = tb.subcriticality_margin(uniform_system("gaussian", 1.0, lam_star))
        assert not rep.satisfied
        assert abs(rep.eps) <= 1e-9 * lam_star

    def test_mixed_potentials_min_governs(self):
        # exponential pairs are the weakest binders here (largest lambda*),
        # so the margin must follow the smallest lambda*
        pots = {
            (1, 2): GAUSS,
            (1, 3): EXPO,
            (2, 3): GAUSS,
        }
        from threshold_lab.model import ParticleSystem

        system = ParticleSystem((1.0, 1.0, 1.0), pots, 1.0)
        rep = tb.subcriticality_margin(system)
        assert rep.eps == pytest.approx(min(rep.lambda_stars.values()) - 1.0, rel=1e-12)

    def test_decoupled_pairs_have_infinite_lambda_star(self):
        # criterion 9's system: only pair 12 attracts
        from threshold_lab.model import ParticleSystem

        pots = {(1, 2): GAUSS, (1, 3): zero_potential(), (2, 3): zero_potential()}
        rep = tb.subcriticality_margin(ParticleSystem((1.0, 1.0, 1.0), pots, 1.0))
        assert rep.lambda_stars[(1, 3)] == rep.lambda_stars[(2, 3)] == math.inf
        assert rep.lambda_stars[(1, 2)] == tb.critical_coupling(GAUSS, FRAME) < math.inf
        assert rep.lambda_star == rep.lambda_stars[(1, 2)]

    @pytest.mark.parametrize("masses, kinds, solves", [
        ((1.0, 1.0, 1.0), ("gaussian",) * 3, 1),
        ((1.0, 1.0, 1.0), ("gaussian", "exponential", "gaussian"), 2),
        ((1.0, 1.0, 4.0), ("gaussian",) * 3, 2),   # pairs 13 and 23 share alpha
    ], ids=["identical", "two-potentials", "two-alphas"])
    def test_one_solve_per_distinct_potential_and_alpha(self, masses, kinds, solves):
        from threshold_lab.model import PAIRS, ParticleSystem

        pots = {pair: PairPotential(kind, 1.0) for pair, kind in zip(PAIRS, kinds)}
        system = ParticleSystem(masses, pots, 1.0)
        # each pair asks for mu(0); the cache solves once per (potential, frame)
        tb.bs_max_eigenvalue.cache_clear()
        rep = tb.subcriticality_margin(system)
        assert tb.bs_max_eigenvalue.cache_info().misses == solves
        for pair in PAIRS:
            assert rep.lambda_stars[pair] == tb.critical_coupling(
                pots[pair], jacobi_frame(system, pair))


class TestBindingEnergy:
    def test_subcritical_raises(self):
        lam_star = tb.critical_coupling(GAUSS, FRAME)
        for lam in (0.9 * lam_star, lam_star):
            with pytest.raises(BracketError, match=f"coupling {lam!r} is subcritical"):
                tb.twobody_binding_energy(GAUSS, FRAME, lam)

    def test_no_attraction_raises(self):
        # lambda* = inf: every coupling is subcritical
        with pytest.raises(BracketError, match="coupling 1000.0 is subcritical"):
            tb.twobody_binding_energy(zero_potential(), FRAME, 1000.0)

    @pytest.mark.parametrize("V", [WELL, GAUSS], ids=["well", "gauss"])
    def test_matches_oracle_at_1p2_critical(self, V):
        lam = 1.2 * tb.critical_coupling(V, FRAME)
        e_bs = tb.twobody_binding_energy(V, FRAME, lam)
        e_oracle = tb.oracle_binding_energy(V, FRAME, lam)
        assert e_bs == pytest.approx(e_oracle, rel=1e-4)

    @pytest.mark.parametrize("V", [EXPO, GAUSS], ids=["expo", "gauss"])
    def test_matches_oracle_near_threshold(self, V):
        # lambda*(1 + 1e-4): E2 is tiny, so the root must be accurate
        # relative to z*, not to an absolute width
        lam = tb.critical_coupling(V, FRAME) * (1.0 + 1e-4)
        e_bs = tb.twobody_binding_energy(V, FRAME, lam)
        e_oracle = tb.oracle_binding_energy(V, FRAME, lam)
        assert e_bs == pytest.approx(e_oracle, rel=1e-6)

    @pytest.mark.parametrize("V", [WELL, EXPO, GAUSS], ids=["well", "expo", "gauss"])
    def test_few_eigen_solves_per_state(self, V):
        # couplings lambda*(1 + g), g from 1e-1 down to 1e-4, each state
        # from a cold cache
        lam_star = tb.critical_coupling(V, FRAME)
        for g in np.geomspace(1e-1, 1e-4, 8):
            tb.bs_max_eigenvalue.cache_clear()
            assert tb.twobody_binding_energy(V, FRAME, lam_star * (1.0 + g)) < 0.0
            assert tb.bs_max_eigenvalue.cache_info().misses <= 9

    def test_energy_vanishes_monotonically_toward_threshold(self):
        lam_star = tb.critical_coupling(GAUSS, FRAME)
        es = [
            tb.twobody_binding_energy(GAUSS, FRAME, lam_star * (1.0 + f))
            for f in (0.3, 0.1, 0.03, 0.01)
        ]
        assert all(e < 0 for e in es)
        assert all(abs(a) > abs(b) for a, b in zip(es, es[1:]))


def oracle_tails(V, lam, radii):
    """T(R) of the shooting-oracle ground state: the trapezoid rule on the
    oracle's grid, plus the exterior u_end^2 exp(-2 kappa (R - r_end)) / (2 kappa)
    in closed form."""
    energy = tb.oracle_binding_energy(V, FRAME, lam)
    kappa = math.sqrt(-energy)
    res = tb.shooting_oracle(V, FRAME, lam, energy, n_steps=40000)
    grid = res.step * np.arange(len(res.u))
    uu = res.u ** 2
    r_end = grid[-1]

    def exterior(R):
        return res.u_end ** 2 * math.exp(-2.0 * kappa * (R - r_end)) / (2.0 * kappa)

    def beyond(R):
        if R >= r_end:
            return exterior(R)
        r = np.concatenate([[R], grid[np.searchsorted(grid, R):]])
        return float(np.trapezoid(np.interp(r, grid, uu), r)) + exterior(r_end)

    return [beyond(R) / beyond(0.0) for R in radii]


def kappa(V, k):
    """The binding momentum of the sweep's dimensionless momentum k."""
    return k * FRAME.alpha / V.range_


class TestSize:
    # the momenta reach at least the binding momenta of the couplings
    # lambda*(1 + g) these checks cover, e.g. 8.93e-5 for the Gaussian at 1e-4

    def test_deep_well_matches_oracle(self):
        (point,) = tb.sweep_two_body(WELL, FRAME, [2.6])
        r2 = point.r2
        r2_oracle = oracle_mean_square_radius(WELL, FRAME, point.coupling)
        assert r2 == pytest.approx(r2_oracle, rel=1e-3)
        assert 0.1 < r2 < 10.0  # comparable to the well radius squared

    @pytest.mark.parametrize("V, k, rel", [(GAUSS, 8.9e-5, 1e-8), (WELL, 1e-3, 1e-7)])
    def test_near_threshold_matches_oracle(self, V, k, rel):
        (point,) = tb.sweep_two_body(V, FRAME, [k])
        r2_oracle = oracle_mean_square_radius(V, FRAME, point.coupling)
        assert point.r2 == pytest.approx(r2_oracle, rel=rel)

    @pytest.mark.parametrize("V", [GAUSS, EXPO, WELL])
    def test_tails_match_oracle(self, V):
        # the exponential stops at k = 0.04: at k = 0.1 its T(2) sits 1.2e-5
        # below the oracle, an error of the package's 128-node rule, which
        # moves when that rule is refined while the oracle holds still
        momenta = {"gaussian": [9e-2, 9e-3, 8.9e-4], "exponential": [4e-2, 4e-3, 3.8e-4],
                   "square_well": [1.2e-1, 1.2e-2, 1.2e-3]}[V.kind]
        for point in tb.sweep_two_body(V, FRAME, momenta):
            radii = [R for R, _ in point.tail]
            expected = oracle_tails(V, point.coupling, radii)
            assert [t for _, t in point.tail] == pytest.approx(expected, abs=1e-5)

    def test_size_divergence_exponent(self):
        points = tb.sweep_two_body(GAUSS, FRAME, np.geomspace(1e-1, 8.9e-5, 7))
        verdict = t3.spreading_diagnostic([(abs(p.E2), p.r2, p.tail) for p in points])
        assert verdict.size_exponent == pytest.approx(1.0, abs=0.2)

    def test_profile_scaling(self):
        # r -> s r in the profile scales <r^2> by s^2 at fixed k, where
        # lambda/lambda* is the same for both
        s = 1.7
        wide = PairPotential("gaussian", s)
        (narrow,) = tb.sweep_two_body(GAUSS, FRAME, [1.3])
        (wide_point,) = tb.sweep_two_body(wide, FRAME, [1.3])
        r2_narrow, r2_wide = narrow.r2, wide_point.r2
        assert r2_wide / r2_narrow == pytest.approx(s ** 2, rel=1e-4)
        assert wide_point.coupling / wide_point.lambda_star == pytest.approx(
            narrow.coupling / narrow.lambda_star, rel=1e-4)


def scalar_rk4(V, lam, energy, n_steps=20000):
    """Step-by-step RK4 recurrence of the radial equation, with the grid,
    one-sided samples and node rule of ``shooting_oracle``: the reference
    its product form must reproduce.  Returns (nodes, u_end, du_end)."""
    r_max = tb._integration_span(V, FRAME)
    h = r_max / n_steps
    if V.support_radius is not None:
        edge_r = V.support_radius / FRAME.alpha
        h = edge_r / max(1, math.ceil(edge_r / h))
        n_steps = math.ceil(r_max / h)
    grid = h * np.arange(n_steps + 1)
    eps = 1e-9 * h
    w_left = -(lam * V.profile(FRAME.alpha * (grid[:-1] + eps)) + energy)
    w_half = -(lam * V.profile(FRAME.alpha * (grid[:-1] + 0.5 * h)) + energy)
    w_right = -(lam * V.profile(FRAME.alpha * (grid[1:] - eps)) + energy)
    u, du = 0.0, 1.0
    nodes = 0
    prev = 0.0
    h2 = 0.5 * h
    for w0, wh, w1 in zip(w_left.tolist(), w_half.tolist(), w_right.tolist()):
        k1u, k1v = du, w0 * u
        k2u, k2v = du + h2 * k1v, wh * (u + h2 * k1u)
        k3u, k3v = du + h2 * k2v, wh * (u + h2 * k2u)
        k4u, k4v = du + h * k3v, w1 * (u + h * k3u)
        u, du = (u + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u),
                 du + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v))
        if prev != 0.0 and u != 0.0 and (prev < 0.0) != (u < 0.0):
            nodes += 1
        if u != 0.0:
            prev = u
    return nodes, u, du


class TestShootingOracle:
    @pytest.mark.parametrize("V,factor,energy,nodes", [
        (WELL, 0.9, 0.0, 0),
        (WELL, 12.0, 0.0, 2),
        (WELL, 12.0, -10.0, 1),
        (EXPO, 1.5, 0.0, 1),
        (EXPO, 1.5, -0.05, 0),
        (GAUSS, 1.0, 0.0, 0),
        (GAUSS, 1.5, -0.3, 0),
    ], ids=["well-E0", "well-12x-E0", "well-12x-bound", "expo-E0", "expo-bound",
            "gauss-E0", "gauss-bound"])
    def test_product_form_matches_scalar_recurrence(self, V, factor, energy, nodes):
        lam = factor * tb.critical_coupling(V, FRAME)
        res = tb.shooting_oracle(V, FRAME, lam, energy)
        ref_nodes, u_end, du_end = scalar_rk4(V, lam, energy)
        assert res.nodes == ref_nodes == nodes
        # relative to the state (u, u'): u' alone vanishes at threshold
        scale = max(abs(u_end), abs(du_end))
        assert abs(res.u_end - u_end) <= 1e-12 * scale
        assert abs(res.du_end - du_end) <= 1e-12 * scale

    def test_rescaling_guard_keeps_growth_finite(self):
        # kappa = 316 over the Gaussian span grows u by far more than 1e200
        res = tb.shooting_oracle(GAUSS, FRAME, 0.0, -1e5)
        assert res.nodes == 0
        assert np.all(np.isfinite(res.u))
        assert abs(res.defect - 2.0) <= 1e-12

    def test_deep_square_well_ground_state(self, monkeypatch):
        # two bound states at 12 lambda*: the node bisection narrows to one,
        # then one Brent root lands on the closed form k cot(k) = -kappa,
        # k^2 = lam - kappa^2, of the unit well (alpha = 1)
        lam = 12.0 * SW_LAMBDA_STAR
        runs = []
        shoot = tb.shooting_oracle

        def counted(*args, **kwargs):
            runs.append(args)
            return shoot(*args, **kwargs)

        monkeypatch.setattr(tb, "shooting_oracle", counted)
        energy = tb.oracle_binding_energy(WELL, FRAME, lam)
        kappa = brentq(lambda q: math.sqrt(lam - q * q) / math.tan(math.sqrt(lam - q * q)) + q,
                       math.sqrt(lam - math.pi ** 2) + 1e-9, math.sqrt(lam - math.pi ** 2 / 4.0))
        assert energy == pytest.approx(-kappa ** 2, rel=1e-12)
        assert len(runs) <= 35

    def test_binding_energy_below_threshold_raises(self):
        with pytest.raises(BracketError, match="no bound state at this coupling"):
            tb.oracle_binding_energy(WELL, FRAME, 0.9 * SW_LAMBDA_STAR)

    def test_critical_coupling_without_attraction_raises(self):
        # no coupling up to 2**63 gives the zero potential a node
        with pytest.raises(BracketError, match="2\\*\\*63"):
            tb.oracle_critical_coupling(zero_potential(), FRAME)

    def test_critical_coupling_shooting_runs(self, monkeypatch):
        # couplings 1, 2 and 4 bracket the unit well's lambda* = 2.47, and
        # Brent takes the rest; nothing is shot below coupling 1
        tb.oracle_critical_coupling.cache_clear()
        runs = []
        shoot = tb.shooting_oracle

        def counted(*args, **kwargs):
            runs.append(args)
            return shoot(*args, **kwargs)

        monkeypatch.setattr(tb, "shooting_oracle", counted)
        assert tb.oracle_critical_coupling(WELL, FRAME) == pytest.approx(SW_LAMBDA_STAR,
                                                                         rel=1e-9)
        assert len(runs) <= 11
        assert min(args[2] for args in runs) == 1.0

    def test_square_well_below_threshold_no_node(self):
        res = tb.shooting_oracle(WELL, FRAME, math.pi ** 2 / 4.0 - 1e-6, 0.0)
        assert tb.total_nodes(res, 0.0) == 0

    def test_square_well_above_threshold_one_node(self):
        res = tb.shooting_oracle(WELL, FRAME, math.pi ** 2 / 4.0 + 1e-3, 0.0)
        assert tb.total_nodes(res, 0.0) == 1

    def test_free_equation_stays_positive(self):
        res = tb.shooting_oracle(GAUSS, FRAME, 0.0, 0.0)
        assert res.nodes == 0
        assert res.u_end > 0.0

    def test_bound_state_count_parity(self):
        # between the first and second criticality exactly one BS eigenvalue
        # of lambda*K(0) exceeds 1 and the zero-energy solution has one node
        lam_star = tb.critical_coupling(GAUSS, FRAME)
        lam = 1.5 * lam_star
        rule = tb.bs_radial_rule(GAUSS, FRAME.alpha)
        eigs = np.linalg.eigvalsh(tb.bs_matrix(GAUSS, FRAME, 0.0, rule))
        assert int(np.sum(lam * eigs > 1.0)) == 1
        res = tb.shooting_oracle(GAUSS, FRAME, lam, 0.0)
        assert tb.total_nodes(res, 0.0) == 1


def looped_green_row_operator(z, rule):
    """The panel-by-panel build of green_row_operator, kept as its reference."""
    nodes, weights, edges = rule
    q = nodes.shape[1]
    r, w = nodes.ravel(), weights.ravel()
    B = tb.swave_green(z, r, r) * w[None, :]
    tau_ref = tb.panel_partial_integrals(q)
    for k in range(len(edges) - 1):
        a, b = edges[k], edges[k + 1]
        if z * (b - a) > 4.0:
            continue
        sl = slice(k * q, (k + 1) * q)
        rs = r[sl]
        tau = 0.5 * (b - a) * tau_ref
        ri = rs[:, None] * np.ones((1, q))
        rj = np.ones((q, 1)) * rs[None, :]
        below = tb._psi_phi(z, ri, rj)
        above = tb._psi_phi(z, rj, ri)
        B[sl, sl] = below * tau + above * (w[sl][None, :] - tau)
    return B


class TestGreenRowOperator:
    # (potential, z, product-integrated panels of the 16): z = 0, every panel
    # product-integrated, some panels plain, every panel plain
    @pytest.mark.parametrize("V,z,near", [
        (GAUSS, 0.0, 16), (GAUSS, 2.0, 16), (GAUSS, 10.0, 5), (GAUSS, 40.0, 0),
        (WELL, 0.0, 16), (WELL, 2.0, 16), (WELL, 200.0, 1), (WELL, 1000.0, 0),
    ], ids=["gauss-0", "gauss-all", "gauss-some", "gauss-none",
            "well-0", "well-all", "well-some", "well-none"])
    def test_matches_panel_loop_exactly(self, V, z, near):
        rule = tb.bs_radial_rule(V, FRAME.alpha, z=z)
        assert int(np.sum(z * np.diff(rule[2]) <= 4.0)) == near
        assert np.array_equal(tb.green_row_operator(z, rule),
                              looped_green_row_operator(z, rule))


class TestTabulatedAndAsymmetric:
    def test_tabulated_profile_matches_its_source(self):
        # a densely sampled gaussian table must reproduce the gaussian
        # critical coupling up to interpolation error
        r = np.linspace(0.0, 8.0, 801)
        tab = PairPotential(
            "tabulated", 1.0, table=tuple(zip(r.tolist(), np.exp(-r * r).tolist()))
        )
        cc_tab = tb.critical_coupling(tab, FRAME)
        cc_gauss = tb.critical_coupling(GAUSS, FRAME)
        assert cc_tab == pytest.approx(cc_gauss, rel=1e-4)

    def test_tabulated_oracle_equivalence(self):
        r = np.linspace(0.0, 8.0, 801)
        tab = PairPotential(
            "tabulated", 1.0, table=tuple(zip(r.tolist(), np.exp(-r * r).tolist()))
        )
        cc = tb.critical_coupling(tab, FRAME)
        oracle = tb.oracle_critical_coupling(tab, FRAME)
        assert abs(cc - oracle) / oracle <= 1e-4

    def test_unequal_masses_both_routes_agree(self):
        system = uniform_system("gaussian", 1.0, 1.0, masses=(1.0, 2.5, 4.0))
        for pair in [(1, 2), (2, 3)]:
            frame = jacobi_frame(system, pair)
            cc = tb.critical_coupling(system.potential(pair), frame)
            oracle = tb.oracle_critical_coupling(system.potential(pair), frame)
            assert abs(cc - oracle) / oracle <= 1e-4
            lam = 1.3 * cc
            e_bs = tb.twobody_binding_energy(system.potential(pair), frame, lam)
            e_oracle = tb.oracle_binding_energy(system.potential(pair), frame, lam)
            assert e_bs == pytest.approx(e_oracle, rel=1e-4)


class TestSweep:
    def test_rows_and_margin_fields(self):
        lam_star = tb.critical_coupling(GAUSS, FRAME)
        points = tb.sweep_two_body(GAUSS, FRAME, [0.05, 0.017])
        assert [p.E2 for p in points] == [-kappa(GAUSS, k) ** 2 for k in (0.05, 0.017)]
        for p in points:
            assert p.lambda_star == lam_star
            assert p.E2 < 0
            assert p.eps_R7 == lam_star - p.coupling
            assert p.eps_R7 < 0  # control sweep sits above the two-body critical point
            taus = [t for _, t in p.tail]
            assert all(b <= a + 1e-12 for a, b in zip(taus, taus[1:]))

    def test_point_matches_standalone_observables(self):
        # each row binds E2 = -kappa^2 at lambda = 1/mu(kappa); the standalone
        # binding energy at that coupling, Brent's root of lambda mu(z) = 1,
        # lands on kappa within its stop
        momenta = np.geomspace(1e-1, 1e-4, 8)
        for V in (GAUSS, EXPO, WELL):
            lam_star = tb.critical_coupling(V, FRAME)
            for k, point in zip(momenta, tb.sweep_two_body(V, FRAME, momenta)):
                kap = kappa(V, k)
                assert point.E2 == -kap ** 2
                assert point.coupling > lam_star
                assert abs(point.coupling * tb.bs_max_eigenvalue(V, FRAME, kap) - 1.0) <= 1e-14
                root = math.sqrt(-tb.twobody_binding_energy(V, FRAME, point.coupling))
                assert abs(root - kap) <= 2e-12 + 8.9e-16 * kap

    def test_subcritical_sweep_rejected(self):
        # a momentum k <= 0 (or NaN) has no bound state
        for k in (0.0, -0.5, math.nan):
            with pytest.raises(BracketError, match=f"momentum {k!r} is not positive"):
                tb.sweep_two_body(GAUSS, FRAME, [0.1, k])

    def test_mu_not_below_mu0_rejected(self, monkeypatch):
        # a kernel whose mu(kappa) stays above mu(0) would give a coupling at
        # or below lambda*; the sweep refuses it instead of clipping
        build = tb.bs_matrix
        monkeypatch.setattr(tb, "bs_matrix", lambda V, frame, z, rule:
                            (1.0 + (z > 0.0)) * build(V, frame, z, rule))
        with pytest.raises(BracketError, match=r"momentum 0.1: coupling 1/mu\(kappa\) = "
                           r".* is not above lambda\* = "):
            tb.sweep_two_body(GAUSS, FRAME, [0.1])

    def test_no_attraction_rejected(self):
        # lambda* of a zero potential is infinite; there is nothing to sweep
        with pytest.raises(DegenerateInputError, match="no attraction"):
            tb.sweep_two_body(zero_potential(), FRAME, [0.1])


# the three stops the package uses: the defaults (E2 from lambda mu(z) = 1),
# the oracle's threshold coupling and the oracle's binding energy
BRENT_SETTINGS = [{}, {"xtol": 1e-12, "rtol": 8.9e-16}, {"xtol": 1e-300, "rtol": 8.9e-16}]


class TestBrent:
    """``_brentq`` is a port of scipy's brentq.c: the same float, bit for bit."""

    def test_control_sweep_roots(self):
        # lambda mu(z) - 1 at couplings lambda*(1 + g), g from 1e-1 down to
        # 1e-4, a Brent test set only, and at the energy scale 2 lambda*, on
        # the bracket twobody_binding_energy uses
        lam_star = tb.critical_coupling(GAUSS, FRAME)
        mu = functools.cache(lambda z: tb.bs_max_eigenvalue(GAUSS, FRAME, z))
        for g in [*np.geomspace(1e-1, 1e-4, 8), 1.0]:
            lam = float(lam_star * (1.0 + g))
            z_hi = 1.0
            while lam * mu(z_hi) >= 1.0:
                z_hi *= 2.0
            for kw in BRENT_SETTINGS:
                f = lambda z: lam * mu(z) - 1.0
                assert tb._brentq(f, 0.0, z_hi, **kw) == brentq(f, 0.0, z_hi, **kw)

    def test_oracle_zero_energy_slope(self):
        @functools.cache
        def slope(lam):
            res = tb.shooting_oracle(GAUSS, FRAME, lam, 0.0)
            return res.du_end / max(abs(res.u_end), abs(res.du_end), 1e-300)

        for kw in BRENT_SETTINGS:
            assert tb._brentq(slope, 2.0, 4.0, **kw) == brentq(slope, 2.0, 4.0, **kw)
        assert tb.oracle_critical_coupling(GAUSS, FRAME) == brentq(
            slope, 2.0, 4.0, xtol=1e-12, rtol=8.9e-16)

    @pytest.mark.parametrize("kw", BRENT_SETTINGS, ids=["default", "oracle_coupling",
                                                         "oracle_energy"])
    def test_root_at_an_end(self, kw):
        # f exactly 0 at a bracket end returns that end before any step
        for a, b, f in ((0.0, 1.0, lambda x: x), (-1.0, 2.0, lambda x: x - 2.0),
                        (0.5, 3.0, lambda x: math.log(2.0 * x))):
            root = tb._brentq(f, a, b, **kw)
            assert root == brentq(f, a, b, **kw) and root in (a, b)

    def test_first_root_moves_both_ends(self):
        # three states at 0.3, 0.45 and 0.8 in [0, 1]: the count bisects to
        # [0.25, 0.375], which holds one, and Brent finds the first root in it
        # (Brent on all of [0, 1] lands on another)
        roots = (0.3, 0.45, 0.8)
        seen = []

        def count(x):
            return sum(x > r for r in roots)

        def f(x):
            seen.append(x)
            return (x - roots[0]) * (x - roots[1]) * (x - roots[2])

        root = tb._first_root(count, f, 0.0, 1.0, xtol=1e-12)
        assert min(seen) == 0.25 and max(seen) == 0.375
        assert root == brentq(f, 0.25, 0.375, xtol=1e-12, rtol=8.9e-16)
        assert root == pytest.approx(0.3, abs=1e-12)
        assert brentq(f, 0.0, 1.0) != pytest.approx(0.3)

    @pytest.mark.parametrize("kw", BRENT_SETTINGS, ids=["default", "oracle_coupling",
                                                         "oracle_energy"])
    def test_smooth_monotone_family(self, kw):
        rng = np.random.default_rng(22)
        for _ in range(300):
            a, b = np.sort(rng.uniform(-5.0, 5.0, 2))
            c = rng.uniform(a, b)
            s, t, p = rng.uniform(0.1, 10.0), rng.uniform(0.0, 1.0), rng.uniform(1.0, 3.0)
            for f in (lambda x: math.expm1(s * (x - c)) + t * math.atan(x - c),
                      lambda x: s * math.copysign(abs(x - c) ** p, x - c) + t * (x - c),
                      lambda x: math.tanh(s * (x - c)) - 1e-3 * t):
                root = brentq(f, a, b, **kw)
                assert tb._brentq(f, a, b, **kw) == root

    def test_returns_python_float(self):
        # rows are written through repr, so a numpy scalar would change the output
        assert type(tb._brentq(lambda x: x * x - 2.0, np.float64(0.0), 2.0)) is float
        assert type(tb.twobody_binding_energy(GAUSS, FRAME, 3.0)) is float

    def test_errors(self):
        with pytest.raises(ValueError, match="different signs"):
            tb._brentq(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(ValueError, match="NaN"):
            tb._brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)
        # a slow root: x^9 near 0 takes bisection-like steps, too many for 5
        with pytest.raises(ConvergenceError, match="5 iterations"):
            tb._brentq(lambda x: x ** 9, -1.0, 0.7, maxiter=5)
        with pytest.raises(RuntimeError):
            brentq(lambda x: x ** 9, -1.0, 0.7, maxiter=5)
