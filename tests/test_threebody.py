import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import nnls
from scipy.special import jn_zeros

from threshold_lab.errors import BasisError, BracketError, FitError
from threshold_lab.model import PairPotential, ParticleSystem, jacobi_frame, uniform_system
from threshold_lab import threebody as t3
from threshold_lab import twobody as tb

from oracles import chi2_tail_oracle, hermite_elements, hermite_rho2, zero_potential

DATA = Path(__file__).resolve().parent / "data"
GAUSS = PairPotential("gaussian", 1.0)
FRAME = jacobi_frame(uniform_system("gaussian", 1.0, 1.0), (1, 2))


@pytest.fixture(scope="module")
def lam_star():
    return tb.critical_coupling(GAUSS, FRAME)


def random_spd_form(rng, lo=-0.7, hi=0.7):
    e1, e2 = 10.0 ** rng.uniform(lo, hi, 2)
    ang = rng.uniform(0.0, math.pi)
    cs, sn = math.cos(ang), math.sin(ang)
    return np.array([
        e1 * cs * cs + e2 * sn * sn,
        (e1 - e2) * cs * sn,
        e1 * sn * sn + e2 * cs * cs,
    ])


class TestPermutations:
    def test_six_orthogonal_matrices(self):
        perms = t3.permutation_matrices(True)
        assert perms.shape == (6, 2, 2)
        for T in perms:
            assert np.allclose(T @ T.T, np.eye(2), atol=1e-14)

    def test_group_closure(self):
        perms = t3.permutation_matrices(True)
        for a in perms:
            for b in perms:
                prod = a @ b
                assert any(np.allclose(prod, c, atol=1e-12) for c in perms)

    def test_elements_invariant_under_coherent_rotation(self):
        sys3 = uniform_system("gaussian", 1.0, 2.0)
        asm = t3._Assembler(sys3, symmetrized=False)
        rng = np.random.default_rng(0)
        A, B = random_spd_form(rng), random_spd_form(rng)
        base = t3.element_block(A, B, asm.sep_terms)
        for T in t3.permutation_matrices(True)[1:]:
            rot = t3.element_block(
                t3.transform_form(A, T), t3.transform_form(B, T), asm.sep_terms
            )
            for key in ("overlap", "kinetic", "potential"):
                assert rot[key] == pytest.approx(base[key], rel=1e-11)


class TestMatrixElements:
    def test_identity_form_overlap_is_pi_cubed(self):
        sys3 = uniform_system("gaussian", 1.0, 2.0)
        asm = t3._Assembler(sys3, symmetrized=False)
        eye = np.array([1.0, 0.0, 1.0])
        block = t3.element_block(eye, eye, asm.sep_terms)
        assert block["overlap"] == pytest.approx(math.pi ** 3, rel=1e-14)
        assert block["overlap"] > 0.0

    def test_zero_potential_reduces_to_kinetic(self):
        pots = {p: zero_potential() for p in ((1, 2), (1, 3), (2, 3))}
        free = ParticleSystem((1.0, 1.0, 1.0), pots, 1.0)
        asm = t3._Assembler(free, symmetrized=False)
        for form in ([1.0, 0.1, 0.8], [0.5, -0.2, 1.5]):
            asm.add(form)
        H, N = asm.T - free.coupling * asm.V, asm.N
        assert np.allclose(H, asm.T, atol=0.0)
        assert np.max(np.abs(asm.V)) == 0.0

    def test_elements_match_cubature_oracle(self):
        # three seeded random pairs against Gauss-Hermite cubature of the
        # kinetic, potential, and H0^2 integrands
        sys3 = uniform_system("gaussian", 1.0, 2.0)
        asm = t3._Assembler(sys3, symmetrized=False)
        rng = np.random.default_rng(42)
        for _ in range(3):
            A, B = random_spd_form(rng), random_spd_form(rng)
            closed = t3.element_block(A, B, asm.sep_terms, with_h0sq=True)
            for key, oracle in hermite_elements(A, B, asm.sep_terms).items():
                assert closed[key] == pytest.approx(oracle, rel=1e-12), key


class TestAsymmetricElements:
    def test_elements_vs_cubature_for_unequal_masses(self):
        # the separation forms carry the mass dependence; one cross-check of
        # the closed forms in an asymmetric frame guards them end to end
        sys_asym = uniform_system("gaussian", 1.0, 2.0, masses=(1.0, 2.0, 3.5))
        asm = t3._Assembler(sys_asym, symmetrized=False)
        rng = np.random.default_rng(77)
        A, B = random_spd_form(rng), random_spd_form(rng)
        closed = t3.element_block(A, B, asm.sep_terms, with_h0sq=True)
        for key, oracle in hermite_elements(A, B, asm.sep_terms).items():
            assert closed[key] == pytest.approx(oracle, rel=1e-12), key


class TestSolveGround:
    def test_scalar_case(self):
        e, c = t3.solve_ground(np.array([[3.0]]), t3._span(np.array([[1.5]])))
        assert e == pytest.approx(2.0, rel=1e-14)
        assert c[0] ** 2 * 1.5 == pytest.approx(1.0, rel=1e-12)

    def test_adding_element_never_raises_energy(self, lam_star):
        sys3 = uniform_system("gaussian", 1.0, 0.95 * lam_star)
        asm = t3._Assembler(sys3, True)
        rng = np.random.default_rng(5)
        asm.add(random_spd_form(rng))
        energies = []
        for _ in range(6):
            asm.add(random_spd_form(rng))
            energies.append(asm.solve(sys3.coupling)[0])
        assert all(b <= a + 1e-10 for a, b in zip(energies, energies[1:]))

    def test_duplicate_element_absorbed_by_regularization(self, lam_star):
        sys3 = uniform_system("gaussian", 1.0, 0.95 * lam_star)
        asm = t3._Assembler(sys3, True)
        rng = np.random.default_rng(6)
        forms = [random_spd_form(rng) for _ in range(4)]
        for f in forms:
            asm.add(f)
        e_base = asm.solve(sys3.coupling)[0]
        asm.add(forms[1])
        e_dup = asm.solve(sys3.coupling)[0]
        assert e_dup == pytest.approx(e_base, abs=1e-10)

    def test_normalization(self, lam_star):
        sys3 = uniform_system("gaussian", 1.0, 0.95 * lam_star)
        basis = t3.grow_basis(sys3, 12, seed=2)
        asm = t3.assembler_for(basis, sys3)
        e, c = asm.solve(sys3.coupling)
        assert c @ asm.N @ c == pytest.approx(1.0, abs=1e-10)

    def test_trial_energy_matches_solve_after_add(self, lam_star):
        # trial_energy and add share the bordering of a new form; the trial
        # energy of every form of a grown basis must be the energy that
        # solve() reports once that form is committed
        sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
        basis = t3.grow_basis(sys3, 20, seed=3)
        asm = t3._Assembler(sys3, True)
        for form in basis.forms:
            trial = trial_energy(asm, form, sys3.coupling)
            asm.add(form)
            assert trial == pytest.approx(asm.solve(sys3.coupling)[0], abs=1e-12)
        assert np.array_equal(asm.forms, basis.forms)

    def test_winner_committed_from_its_pool(self, lam_star, monkeypatch):
        # grow_basis borders each pool of 16 once and commits the winner from
        # the rows that scored it; they are the rows add() would compute
        sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
        sizes = []
        border = t3._Assembler._border

        def counted(self, forms):
            sizes.append(len(np.atleast_2d(forms)))
            return border(self, forms)

        monkeypatch.setattr(t3._Assembler, "_border", counted)
        basis = t3.grow_basis(sys3, 20, seed=3)
        assert set(sizes) == {16}
        monkeypatch.undo()
        asm = t3._Assembler(sys3, True)
        for form in basis.forms:
            asm.add(form)
        for key in ("forms", "images", "scale", "N", "T", "V"):
            assert np.array_equal(getattr(asm, key), getattr(basis, key)), key

    def test_degenerate_basis_error(self):
        with pytest.raises(BasisError):
            t3._span(np.array([[0.0]]))


class TestSecularRoot:
    def test_matches_dense_eigenvalues(self):
        rng = np.random.default_rng(8)
        e = np.sort(rng.uniform(-2.0, 5.0, 12))
        z = rng.normal(size=(40, 12)) * 10.0 ** rng.uniform(-6.0, 1.0, (40, 1))
        g = rng.uniform(-3.0, 6.0, 40)
        roots, ok = t3._secular_lowest(e, z, g)
        assert np.all(ok)
        for zi, gi, root in zip(z, g, roots):
            arrow = np.diag(np.append(e, gi))
            arrow[-1, :-1] = arrow[:-1, -1] = zi
            assert root == pytest.approx(np.linalg.eigvalsh(arrow)[0], abs=1e-12)

    def test_one_e_per_row_matches_separate_solves(self):
        # the pool scorer stacks the energy and overlap arrowheads, each row
        # with its own poles e, into one solve
        rng = np.random.default_rng(9)
        es = [np.sort(rng.uniform(-2.0, 5.0, 12)) for _ in range(3)]
        zs = [rng.normal(size=(20, 12)) * 10.0 ** rng.uniform(-6.0, 1.0, (20, 1))
              for _ in range(3)]
        gs = [rng.uniform(-3.0, 6.0, 20) for _ in range(3)]
        roots, ok = t3._secular_lowest(
            np.concatenate([np.broadcast_to(e, (20, 12)) for e in es]),
            np.concatenate(zs), np.concatenate(gs))
        separate = [t3._secular_lowest(e, z, g) for e, z, g in zip(es, zs, gs)]
        assert np.all(ok) and all(np.all(part_ok) for _, part_ok in separate)
        np.testing.assert_allclose(roots, np.concatenate([r for r, _ in separate]),
                                   rtol=0.0, atol=1e-12)

    def test_uncoupled_lowest_pole_is_flagged_or_solved(self):
        e = np.array([0.0, 1.0, 2.0])
        z = np.array([[0.0, 0.5, 0.5], [0.0, 0.5, 0.5]])
        g = np.array([-1.0, 3.0])
        roots, ok = t3._secular_lowest(e, z, g)
        # g below e_0: a root exists below the pole; g above: the lowest
        # eigenvalue is e_0 itself, which the secular root cannot give
        assert ok.tolist() == [True, False]
        arrow = np.diag([0.0, 1.0, 2.0, -1.0])
        arrow[-1, 1:3] = arrow[1:3, -1] = 0.5
        assert roots[0] == pytest.approx(np.linalg.eigvalsh(arrow)[0], abs=1e-14)


def trial_energy(asm, form, coupling: float) -> float:
    """Ground energy if ``form`` were appended to ``asm`` (no commit), by a full solve."""
    _, (row_n, row_t, row_v), (diag_n, diag_t, diag_v), _ = asm._border(form)
    return t3._bordered_ground(asm.T - coupling * asm.V, asm.N,
                               row_t[0] - coupling * row_v[0], row_n[0],
                               diag_t[0] - coupling * diag_v[0], diag_n[0])


def full_solves_counted(monkeypatch):
    """Count the full bordered solves that the pool scorer falls back to."""
    calls = []
    original = t3._bordered_ground

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(t3, "_bordered_ground", counted)
    return calls


SCALE_WINDOWS = (1e-2, 1e-4, 1e-6)     # lo of the proposal window [lo, 1/lo]


class TestTrialEnergies:
    @pytest.mark.parametrize("budget", [100, 150])
    def test_match_full_solve_in_every_window(self, grown, budget, monkeypatch):
        br, asm = grown[budget]
        lam = br.lambda_cr * 1.005          # the last growth stage's coupling
        rng = np.random.default_rng(budget)
        fallbacks = full_solves_counted(monkeypatch)
        worst, scored, updated = 0.0, 0, 0
        for lo in SCALE_WINDOWS:
            for _ in range(4):
                cands = np.array([t3._propose_form(rng, lo, 1.0 / lo, 1.0)
                                  for _ in range(16)])
                before = len(fallbacks)
                fast = asm._score(asm._border(cands), lam)
                scored += len(cands)
                updated += len(cands) - (len(fallbacks) - before)
                full = [trial_energy(asm, f, lam) for f in cands]
                worst = max(worst, float(np.max(np.abs(fast - full))))
        assert worst <= 1e-11
        if budget == 100:
            # the overlap is far from the drop cutoff: most candidates take
            # the update, so the comparison above tests it
            assert updated > scored // 2

    def test_duplicate_form_takes_full_solve(self, grown, monkeypatch):
        br, asm = grown[100]
        lam = br.lambda_cr * 1.005
        form = asm.forms[17]
        fallbacks = full_solves_counted(monkeypatch)
        (fast,) = asm._score(asm._border(form), lam)
        assert len(fallbacks) == 1
        assert fast == trial_energy(asm, form, lam)

    def test_dropped_direction_takes_full_solve(self, lam_star, monkeypatch):
        # a committed duplicate leaves the overlap a dropped direction: the
        # update would keep the committed span, solve_ground re-regularizes,
        # and no secular solve is made for the pool; each full solve is a
        # solve_ground call that finds the eigenvalue alone
        sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
        asm = t3.assembler_for(t3.grow_basis(sys3, 20, seed=3), sys3)
        asm.add(asm.forms[5])
        rng = np.random.default_rng(21)
        cands = np.array([t3._propose_form(rng, 1e-2, 1e2, 1.0) for _ in range(16)])
        fallbacks = full_solves_counted(monkeypatch)
        secular, solves = [], []
        solve, ground = t3._secular_lowest, t3.solve_ground
        monkeypatch.setattr(t3, "_secular_lowest",
                            lambda *args: secular.append(args) or solve(*args))
        monkeypatch.setattr(t3, "solve_ground",
                            lambda H, span, **kw: solves.append(kw) or ground(H, span, **kw))
        fast = asm._score(asm._border(cands), sys3.coupling)
        assert len(fallbacks) == len(cands)
        assert secular == []
        assert solves == [{"vector": False}] * len(cands)
        assert fast.tolist() == [trial_energy(asm, f, sys3.coupling) for f in cands]

    def test_two_element_block_calls_per_pool(self, lam_star, monkeypatch):
        # a pool's rows come from one element_block call against the
        # committed images, its diagonals and norms from one against its own
        sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
        blocks, pools = [], []
        block, border = t3.element_block, t3._Assembler._border
        monkeypatch.setattr(t3, "element_block",
                            lambda *args, **kw: blocks.append(args) or block(*args, **kw))
        monkeypatch.setattr(t3._Assembler, "_border",
                            lambda self, forms: pools.append(forms) or border(self, forms))
        t3.grow_basis(sys3, 20, seed=3)
        assert len(blocks) == 2 * len(pools)

    def test_empty_basis_scores_the_form_alone(self, lam_star):
        sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
        asm = t3._Assembler(sys3, True)
        form = np.array([1.0, 0.2, 0.7])
        (fast,) = asm._score(asm._border(form), sys3.coupling)
        assert fast == pytest.approx(trial_energy(asm, form, sys3.coupling), rel=1e-12)


class TestBasis:
    def test_growth_monotone_in_budget(self, lam_star):
        sys3 = uniform_system("gaussian", 1.0, 0.95 * lam_star)
        e_small = t3.assembler_for(t3.grow_basis(sys3, 10, seed=4), sys3).solve(
            sys3.coupling
        )[0]
        e_big = t3.assembler_for(t3.grow_basis(sys3, 25, seed=4), sys3).solve(
            sys3.coupling
        )[0]
        assert e_big <= e_small + 1e-12

    def test_growth_deterministic(self, lam_star):
        sys3 = uniform_system("gaussian", 1.0, 0.95 * lam_star)
        b1 = t3.grow_basis(sys3, 8, seed=9)
        b2 = t3.grow_basis(sys3, 8, seed=9)
        assert np.array_equal(b1.forms, b2.forms)


class TestDecoupledPair:
    def test_matches_twobody_binding(self, lam_star):
        # deep pair, third particle decoupled: the variational energy must
        # land on the two-body value through an entirely different route
        lam = 5.0 * lam_star
        e2 = tb.twobody_binding_energy(GAUSS, FRAME, lam)
        pots = {(1, 2): GAUSS, (1, 3): zero_potential(), (2, 3): zero_potential()}
        sys_dec = ParticleSystem((1.0, 1.0, 1.0), pots, lam)
        basis = t3.grow_basis(sys_dec, 80, seed=3)
        e3 = t3.assembler_for(basis, sys_dec).solve(lam)[0]
        assert e3 >= e2 - 1e-12  # variational upper bound
        assert e3 == pytest.approx(e2, rel=1e-3)


def ground_record(system, budget, seed):
    """Grow a basis at the system coupling and record its ground state."""
    asm = t3.assembler_for(t3.grow_basis(system, budget, seed), system)
    lam_star = min(tb.subcriticality_margin(system).lambda_stars.values())
    (rec,) = t3.sweep_three_body(asm, [system.coupling], lam_star)
    return rec


class TestGroundEnergy:
    def test_tiny_coupling_unbound(self):
        sys3 = uniform_system("gaussian", 1.0, 1e-6)
        with pytest.raises(BracketError, match="no three-body bound state at coupling 1e-06"):
            ground_record(sys3, budget=6, seed=1)

    def test_borromean_point(self, lam_star):
        # bound three bosons with strictly subcritical pairs
        sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
        rec = ground_record(sys3, budget=40, seed=3)
        assert rec.E3 < 0.0
        assert rec.eps_R7 > 0.0
        assert rec.k == pytest.approx(math.sqrt(-rec.E3))
        taus = [t for _, t in rec.tail]
        assert all(b <= a + 1e-12 for a, b in zip(taus, taus[1:]))
        assert rec.kinetic_norm > 0.0

    def test_tail_starts_at_unity(self, lam_star):
        sys3 = uniform_system("gaussian", 1.0, 0.95 * lam_star)
        basis = t3.grow_basis(sys3, 25, seed=3)
        asm = t3.assembler_for(basis, sys3)
        _, c = asm.solve(sys3.coupling)
        tails = t3.tail_masses(asm, c, (0.0, 1.0, 3.0))
        assert tails[0][1] == pytest.approx(1.0, abs=1e-14)
        assert tails[2][1] < tails[1][1] <= 1.0


class TestTailOracle:
    def test_small_basis_tails_match_chi2_convolution(self, lam_star):
        # a small basis far below threshold, at the bound of the sweep's
        # check in TestTailKernels
        sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
        basis = t3.grow_basis(sys3, 8, seed=3)
        asm = t3.assembler_for(basis, sys3)
        _, c = asm.solve(sys3.coupling)
        radii = (2.0, 6.0, 12.0)
        tails = dict(t3.tail_masses(asm, c, radii))
        for R, oracle in zip(radii, chi2_tail_oracle(asm, [c], radii)[0]):
            assert tails[R] == pytest.approx(oracle, abs=1e-11)

    def test_rho2_closed_form_matches_cubature(self, lam_star):
        sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
        basis = t3.grow_basis(sys3, 20, seed=3)
        asm = t3.assembler_for(basis, sys3)
        _, c = asm.solve(sys3.coupling)
        closed = float(c @ asm.moment_matrix("rho2") @ c)
        assert closed == pytest.approx(hermite_rho2(asm, c), rel=1e-12)


@pytest.fixture(scope="module")
def bracket(lam_star):
    sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
    return t3.critical_coupling_3body(sys3, budget=60, seed=7)


@pytest.fixture(scope="module")
def grown(lam_star):
    """(bracket, assembler) of the flagship system at budgets 100 and 150."""
    sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
    return {budget: t3.critical_coupling_3body(sys3, budget=budget, seed=7)
            for budget in (100, 150)}


class TestCriticalCoupling3Body:
    def test_borromean_window(self, bracket, lam_star):
        br, _ = bracket
        assert br.lambda_star == pytest.approx(lam_star, rel=1e-14)
        assert br.lambda_cr < lam_star
        assert br.lam_hi - br.lam_lo <= 1e-4 * lam_star
        assert br.lam_lo < br.lambda_cr < br.lam_hi

    def test_zeroed_pair_raises_threshold(self, bracket, lam_star):
        br_full, _ = bracket
        pots = {(1, 2): GAUSS, (1, 3): GAUSS, (2, 3): zero_potential()}
        sys_two_bond = ParticleSystem((1.0, 1.0, 1.0), pots, 0.9 * lam_star)
        br_cut, _ = t3.critical_coupling_3body(sys_two_bond, budget=60, seed=7)
        assert br_cut.lambda_cr > br_full.lambda_cr

    def test_budget_can_only_lower_estimate(self, bracket, lam_star):
        br_60, _ = bracket
        sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
        br_30, _ = t3.critical_coupling_3body(sys3, budget=30, seed=7)
        assert br_60.lambda_cr <= br_30.lambda_cr + 2e-4 * lam_star

    @pytest.mark.parametrize("budget", [60, 150])
    def test_energy_at_crossing_is_minus_tol(self, bracket, grown, budget):
        br, asm = bracket if budget == 60 else grown[budget]
        e3 = asm.solve(br.lambda_cr)[0]
        assert abs(e3 + br.tol_energy) <= 1e-3 * br.tol_energy
        assert br.lam_hi - br.lam_lo == pytest.approx(5e-6 * br.lambda_star, rel=1e-9)

    def test_reports_conditioning_of_final_basis(self, grown):
        br, asm = grown[150]
        s = np.linalg.eigvalsh(asm.N)
        assert br.cond_N == pytest.approx(s[-1] / s[0], rel=1e-6)
        assert br.dropped_directions == int(np.sum(s <= t3.DROP_TOL * s[-1]))

    def test_sweep_reuses_the_bracket_span(self, bracket, monkeypatch):
        # the bracket decomposed the overlap of its final basis; a sweep on
        # that basis solves every coupling on the cached span
        br, asm = bracket
        decomposed = []
        span = t3._span
        monkeypatch.setattr(t3, "_span", lambda N: decomposed.append(N) or span(N))
        lams = br.lambda_cr + np.geomspace(3e-2, 2e-5, 4) * br.lambda_star
        t3.sweep_three_body(asm, lams, br.lambda_star)
        assert decomposed == []

    def test_fallback_heavy_growth_matches_reference(self):
        # the exponential trio commits a dropped direction at budget 75, so
        # most of its pools take the full solve.  The forms are the seed's
        # draws, so they match byte for byte as long as the BLAS kernels
        # pick the same winners (they did at 1 and 2 OpenBLAS threads); the
        # bracket and cond_N allow the last bits that another kernel path
        # can move, at the tolerances of the shipped pins
        ref = json.loads((DATA / "critical_exponential_75.json").read_text())
        expo = PairPotential(ref["kind"], 1.0)
        lam_star = tb.critical_coupling(expo, jacobi_frame(
            uniform_system(ref["kind"], 1.0, 1.0), (1, 2)))
        sys3 = uniform_system(ref["kind"], 1.0, 0.9 * lam_star)
        br, asm = t3.critical_coupling_3body(sys3, budget=ref["budget"], seed=ref["seed"])
        assert asm.forms.tobytes() == np.array(ref["forms"]).tobytes()
        for key in ("lambda_cr", "lam_lo", "lam_hi"):
            assert getattr(br, key) == pytest.approx(ref[key], rel=1e-12), key
        assert br.cond_N == pytest.approx(ref["cond_N"], rel=1e-5)
        assert br.dropped_directions == ref["dropped_directions"] == 1

    def test_hall_post_floor(self, grown, lam_star, monkeypatch):
        # no three bodies bind below min over pairs of (m_i + m_j)/M lambda*_ij,
        # 2/3 lambda* here: the flagship's bracket lies above that floor
        floor = 2.0 / 3.0 * lam_star
        br, _ = grown[150]
        assert floor < br.lam_lo
        # forms shrunk by 0.9 deepen every pair well in the three-body matrices
        # only; the bracket they certify falls below the floor, which refuses it
        forms = t3.separation_forms
        monkeypatch.setattr(t3, "separation_forms", lambda system: {
            pair: (0.9 * u, 0.9 * v) for pair, (u, v) in forms(system).items()})
        sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
        with pytest.raises(BracketError, match=f"Hall-Post bound {floor!r} lies above lam_lo"):
            t3.critical_coupling_3body(sys3, budget=30, seed=7)

    def test_corrupted_crossing_raises(self, lam_star, monkeypatch):
        crossing = t3._crossing
        monkeypatch.setattr(t3, "_crossing", lambda asm, tol: crossing(asm, tol) * 1.001)
        sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
        with pytest.raises(BracketError, match="not certified"):
            t3.critical_coupling_3body(sys3, budget=30, seed=7)

    def test_drop_tol_moves_neither_lambda_cr_nor_verdict(self, grown, lam_star,
                                                          monkeypatch):
        def verdict(br, asm):
            lams = br.lambda_cr + np.geomspace(3e-2, 2e-5, 10) * lam_star
            records = t3.sweep_three_body(asm, lams, br.lambda_star)
            return t3.spreading_diagnostic(
                [(abs(r.E3), r.rho2, r.tail) for r in records]).verdict

        br, asm = grown[100]
        tight = verdict(br, asm)
        monkeypatch.setattr(t3, "DROP_TOL", 1e-10)
        sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
        br_loose, asm_loose = t3.critical_coupling_3body(sys3, budget=100, seed=7)
        assert abs(br_loose.lambda_cr - br.lambda_cr) <= 1e-4 * lam_star
        assert verdict(br_loose, asm_loose) == tight == "non-spreading-consistent"


def ladder_crossing(system, tol_energy):
    """lambda_cr on a 24 x 24 product-Gaussian ladder (Hiyama, Kino, Kamimura).

    Forms (1/a^2, 0, 1/b^2) with pair widths a and spectator widths b in
    geometric progression; the symmetrized assembler supplies the other two
    channels.  Like the grown basis, its crossing is a variational upper
    bound; wider ladders move it by less than 1e-7 relative.
    """
    asm = t3._Assembler(system, system.identical_bosons)
    for a in np.geomspace(0.05, 100.0, 24):
        for b in np.geomspace(0.1, 3000.0, 24):
            asm.add((1.0 / a ** 2, 0.0, 1.0 / b ** 2))
    return t3._crossing(asm, tol_energy)


class TestLadderOracle:
    def test_flagship_lambda_cr_sits_just_above_ladder(self, grown):
        br, asm = grown[150]
        lam_ladder = ladder_crossing(asm.system, br.tol_energy)
        assert 0.0 <= (br.lambda_cr - lam_ladder) / br.lambda_star <= 2e-4


class TestVariationalPrinciple:
    def test_energy_never_rises_along_flagship_basis(self, grown):
        # the budget-150 basis rebuilt prefix by prefix at one fixed coupling
        br, asm = grown[150]
        lam = br.lambda_cr * (1.0 + 2e-5)
        prefix = t3._Assembler(asm.system, asm.symmetrized)
        energies = []
        for form in asm.forms:
            prefix.add(form)
            energies.append(prefix.solve(lam)[0])
        assert all(b <= a for a, b in zip(energies, energies[1:]))


SWEEP_OFFSETS = (3e-2, 1e-3, 2e-5)     # (lambda - lambda_cr) / lambda*


class TestTailKernels:
    def test_total_mass_kernel_is_overlap(self, bracket):
        # the R = 0 rule sums to 1 up to rounding: the one-sided image sum and
        # the i <= j fold must rebuild N entry by entry
        _, asm = bracket
        (k0,) = t3._tail_kernels(asm, (0.0,))
        assert np.all(np.abs(k0 - asm.N) <= 1e-12 * np.abs(asm.N))

    def test_doubling_nodes_moves_no_tail(self, bracket, lam_star, monkeypatch):
        br, asm = bracket
        assert asm.n >= 60
        radii = t3.TAIL_MULTIPLES
        cs = [asm.solve(br.lambda_cr + off * lam_star)[1] for off in SWEEP_OFFSETS]
        base = [t3.tail_masses(asm, c, radii) for c in cs]
        monkeypatch.setattr(t3, "TAIL_NODES", 2 * t3.TAIL_NODES)
        fine_asm = t3.assembler_for(asm, asm.system)
        fine = [t3.tail_masses(fine_asm, c, radii) for c in cs]
        worst = max(abs(a - b) for x, y in zip(base, fine) for (_, a), (_, b) in zip(x, y))
        assert worst <= 1e-10

    def test_tails_match_chi2_convolution(self, bracket, lam_star):
        # the hyperangular kernels against Imhof's convolution, an
        # independent route to every P(rho > R)
        br, asm = bracket
        radii = t3.TAIL_MULTIPLES
        cs = [asm.solve(br.lambda_cr + off * lam_star)[1] for off in SWEEP_OFFSETS]
        tails = [[T for _, T in t3.tail_masses(asm, c, radii)] for c in cs]
        assert np.max(np.abs(np.array(tails) - chi2_tail_oracle(asm, cs, radii))) <= 1e-11

    def test_tails_fall_and_obey_markov_along_sweep(self, bracket, lam_star):
        br, asm = bracket
        lams = [br.lambda_cr + off * lam_star for off in SWEEP_OFFSETS]
        records = t3.sweep_three_body(asm, lams, br.lambda_star)
        for rec in records:
            taus = [T for _, T in rec.tail]
            assert all(b <= a for a, b in zip(taus, taus[1:]))
            assert all(T <= rec.rho2 / R ** 2 for R, T in rec.tail)

    def test_add_makes_cached_kernels_stale(self, lam_star):
        sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
        basis = t3.grow_basis(sys3, 12, seed=5)
        asm = t3._Assembler(sys3, True)
        for form in basis.forms[:-1]:
            asm.add(form)
        radii = (1.0, 4.0)
        t3.tail_masses(asm, asm.solve(sys3.coupling)[1], radii)
        asm.moment_matrix("rho2")
        asm.add(basis.forms[-1])
        _, c = asm.solve(sys3.coupling)
        fresh = t3.assembler_for(basis, sys3)
        assert t3.tail_masses(asm, c, radii) == t3.tail_masses(fresh, c, radii)
        assert np.array_equal(asm.moment_matrix("rho2"), fresh.moment_matrix("rho2"))
        assert asm.span.P.tobytes() == t3._span(asm.N).P.tobytes()


def double_sum_moments(asm):
    """Moment matrices by the full image-by-image double sum, pair by pair."""
    n = asm.n
    mats = {key: np.zeros((n, n)) for key in t3.MOMENT_KEYS}
    for i in range(n):
        for j in range(n):
            blocks = t3.element_block(asm.images[i][:, None, :], asm.images[j][None, :, :],
                                      asm.sep_terms, with_h0sq=True)
            for key in t3.MOMENT_KEYS:
                mats[key][i, j] = np.sum(blocks[key]) * asm.scale[i] * asm.scale[j]
    return mats


class TestMomentMatrices:
    @pytest.mark.parametrize("symmetrized", [True, False])
    def test_one_sided_sum_matches_double_sum(self, lam_star, symmetrized):
        sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
        basis = t3.grow_basis(sys3, 10, seed=4)
        asm = t3._Assembler(sys3, symmetrized)
        for form in basis.forms:
            asm.add(form)
        ref = double_sum_moments(asm)
        for key in t3.MOMENT_KEYS:
            got = asm.moment_matrix(key)
            assert np.max(np.abs(got - ref[key])) <= 1e-12 * np.max(np.abs(ref[key])), key
        if symmetrized:
            assert np.array_equal(asm.moment_matrix("x2"), asm.moment_matrix("y2"))


class TestSpreadingDiagnostic:
    def test_duplicated_record_is_non_spreading(self):
        point = (1e-3, 5.0, ((1.0, 0.4), (8.0, 0.05)))
        verdict = t3.spreading_diagnostic([point] * 4)
        assert verdict.verdict == "non-spreading-consistent"

    def test_escaping_tails_are_spreading(self):
        points = []
        for i, e in enumerate((1e-1, 1e-2, 1e-3, 1e-4)):
            t_val = [0.7, 0.9, 0.97, 0.99][i]
            points.append((e, 1.0 / e, ((1.0, t_val), (8.0, t_val))))
        verdict = t3.spreading_diagnostic(points)
        assert verdict.verdict == "spreading-consistent"
        assert verdict.size_exponent == pytest.approx(1.0, abs=1e-9)

    def test_last_decade_ratio_interpolates_in_log_energy(self):
        # <r^2> = 2 + log10(1/|E|) is linear in log|E|, so the interpolated
        # <r^2>(10 E_min) = <r^2>(1e-2) = 4 between the points at 10^-1.3
        # and 10^-2.2 is exact, against <r^2>(E_min) = 5
        tail = ((1.0, 0.4),)
        points = [(10.0 ** -k, 2.0 + k, tail) for k in (0.5, 1.3, 2.2, 3.0)]
        verdict = t3.spreading_diagnostic(points)
        assert verdict.rho2_ratio_last_decade == pytest.approx(1.25, rel=1e-12)

    def test_last_decade_ratio_needs_a_decade(self):
        tail = ((1.0, 0.4),)
        points = [(e, 1.0 / e, tail) for e in (1e-3, 5e-4, 3e-4, 2e-4)]
        assert math.isnan(t3.spreading_diagnostic(points).rho2_ratio_last_decade)

    def test_insufficient_records(self):
        point = (1e-3, 5.0, ((1.0, 0.4),))
        with pytest.raises(ValueError):
            t3.spreading_diagnostic([point] * 3)


class TestElementProperties:
    def test_overlap_cauchy_schwarz_and_positivity(self):
        sys3 = uniform_system("gaussian", 1.0, 2.0)
        asm = t3._Assembler(sys3, symmetrized=False)
        rng = np.random.default_rng(123)
        forms = [random_spd_form(rng, lo=-1.5, hi=1.5) for _ in range(20)]
        for A in forms:
            blocks = t3.element_block(A, A, asm.sep_terms, with_h0sq=True)
            assert blocks["overlap"] > 0.0
            assert blocks["kinetic"] > 0.0   # <grad phi, grad phi>
            assert blocks["h0sq"] > 0.0      # |H0 phi|^2
        for A, B in zip(forms[::2], forms[1::2]):
            s_ab = t3.element_block(A, B, asm.sep_terms)["overlap"]
            s_aa = t3.element_block(A, A, asm.sep_terms)["overlap"]
            s_bb = t3.element_block(B, B, asm.sep_terms)["overlap"]
            assert s_ab ** 2 <= s_aa * s_bb * (1.0 + 1e-12)


class TestCheckpoint:
    def test_warm_restart_continues_growth(self, lam_star):
        sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
        asm = t3.assembler_for(t3.grow_basis(sys3, 8, seed=12), sys3)
        e_before = asm.solve(sys3.coupling)[0]
        grown = t3.grow_basis(sys3, 16, seed=13, asm=asm)
        assert grown is asm and asm.n == 16
        assert asm.solve(sys3.coupling)[0] <= e_before + 1e-12


class TestBracketErrors:
    def test_no_binding_in_scan_range(self, lam_star, monkeypatch):
        sys3 = uniform_system("gaussian", 1.0, 0.9 * lam_star)
        monkeypatch.setattr(t3, "SCAN", (0.2, 0.4))
        with pytest.raises(BracketError):
            t3.critical_coupling_3body(sys3, budget=16, seed=1)


class TestFit:
    def test_gaussian_bypasses(self):
        assert t3.fit_gaussian_terms(PairPotential("gaussian", 2.5)) == ((1.0, 2.5),)

    def test_exponential_within_tolerance(self):
        terms = t3.fit_gaussian_terms(PairPotential("exponential", 1.0))
        assert 1 <= len(terms) <= t3.FIT_WIDTHS
        assert all(s >= 0.0 for s, _ in terms)
        r = np.linspace(1e-4, 40.0, 3000)
        fit = sum(s * np.exp(-((r / b) ** 2)) for s, b in terms)
        rel = math.sqrt(
            float(np.sum((r * (fit - np.exp(-r))) ** 2) / np.sum((r * np.exp(-r)) ** 2))
        )
        assert rel <= 1e-3

    @staticmethod
    def fit_problems(monkeypatch, V):
        """The (A, b) of every _nnls solve fit_gaussian_terms(V) makes."""
        calls = []
        nnls = t3._nnls

        def counted(*args, **kwargs):
            calls.append(args)
            return nnls(*args, **kwargs)

        monkeypatch.setattr(t3, "_nnls", counted)
        t3.fit_gaussian_terms.cache_clear()
        t3.fit_gaussian_terms(V)
        t3.fit_gaussian_terms.cache_clear()
        return calls

    def test_one_nnls_solve(self, monkeypatch):
        assert len(self.fit_problems(monkeypatch, PairPotential("exponential", 1.0))) == 1
        assert not hasattr(t3, "minimize")

    @staticmethod
    def nnls_against_scipy(A, b):
        """_nnls(A, b) after checking it against scipy.optimize.nnls."""
        x, rn = t3._nnls(A, b)
        ref, ref_rn = nnls(A, b)
        assert np.array_equal(x > 0.0, ref > 0.0)
        assert np.all(x >= 0.0)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert rn == pytest.approx(ref_rn, rel=1e-12)
        return x

    def test_nnls_matches_scipy_on_exponential_fit(self, monkeypatch):
        ((A, b),) = self.fit_problems(monkeypatch, PairPotential("exponential", 1.0))
        # the fit uses part of the ladder, so the active set does real work
        assert 0 < np.count_nonzero(self.nnls_against_scipy(A, b)) < t3.FIT_WIDTHS

    def test_nnls_matches_scipy_on_random_problem(self):
        # Gaussian A and b: the constraint holds about half the coefficients at 0
        rng = np.random.default_rng(2022)
        A = rng.normal(size=(60, 12))
        b = rng.normal(size=60)
        assert 0 < np.count_nonzero(self.nnls_against_scipy(A, b)) < 12

    def test_fitted_profile_keeps_lambda_star(self):
        # lambda* of the fitted exponential, tabulated and solved as a pair
        # potential, against the exact j01^2/4 (range 1, equal masses)
        terms = t3.fit_gaussian_terms(PairPotential("exponential", 1.0))
        r = np.linspace(0.0, 60.0, 24001)
        v = sum(s * np.exp(-((r / b) ** 2)) for s, b in terms)
        fitted = PairPotential("tabulated", 1.0, table=tuple(zip(r.tolist(), v.tolist())))
        frame = jacobi_frame(uniform_system("exponential", 1.0, 1.0), (1, 2))
        exact = jn_zeros(0, 1)[0] ** 2 / 4.0
        assert tb.critical_coupling(fitted, frame) == pytest.approx(exact, rel=1e-5)

    def test_square_well_rejected(self):
        with pytest.raises(FitError, match="residual"):
            t3.fit_gaussian_terms(PairPotential("square_well", 1.0))
