import math
import tracemalloc

import numpy as np
import pytest

from threshold_lab.errors import ConvergenceError
from threshold_lab.model import PairPotential, jacobi_frame, uniform_system
from threshold_lab import faddeev_ops as fo
from threshold_lab import twobody as tb

FRAME = jacobi_frame(uniform_system("gaussian", 1.0, 1.0), (1, 2))
GAUSS = PairPotential("gaussian", 1.0)
_R = np.linspace(0.0, 3.0, 61)
POTENTIALS = {
    "gaussian": GAUSS,
    "exponential": PairPotential("exponential", 1.0),
    "square_well": PairPotential("square_well", 1.0),
    "tabulated": PairPotential("tabulated", 1.0,
                               table=tuple(zip(_R.tolist(), ((1.0 - _R / 3.0) ** 2).tolist()))),
}
KAPPAS = [1e-3, 0.1, 0.5, 1.0, 3.75, 10.0, 10.05]


class TestMultiplier:
    def test_t_values(self):
        assert fo.t_multiplier(0.25) == pytest.approx(-0.5, abs=1e-15)
        assert fo.t_multiplier(1.0) == pytest.approx(0.0, abs=1e-15)
        assert fo.t_multiplier(4.0) == 0.0

    def test_t_continuous_at_one(self):
        assert fo.t_multiplier(1.0 - 1e-12) == pytest.approx(fo.t_multiplier(1.0 + 1e-12), abs=1e-9)

    def test_t_on_arrays_matches_scalar_rule(self):
        p = np.concatenate([[0.0, 1.0, np.nextafter(1.0, 2.0)], np.linspace(1e-6, 10.0, 2001)])
        scalar = [math.sqrt(x) - 1.0 if x <= 1.0 else 0.0 for x in p]
        assert fo.t_multiplier(p).tobytes() == np.array(scalar).tobytes()
        for bad in (-1e-300, [0.5, -1.0]):
            with pytest.raises(ValueError, match=">= 0"):
                fo.t_multiplier(bad)

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


def test_bound_constants_integrate_v_once(monkeypatch):
    # c = c1 / alpha^3 and c~ = c1 / gamma^3 share one quadrature of V
    calls = []
    moment = fo.potential_moment_c
    monkeypatch.setattr(fo, "potential_moment_c", lambda V: calls.append(V) or moment(V))
    bc = fo.bound_constants(GAUSS, FRAME)
    assert calls == [GAUSS]
    c1 = moment(GAUSS)
    assert (bc.c, bc.c_tilde) == (c1 / FRAME.alpha ** 3, c1 / FRAME.gamma ** 3)


@pytest.fixture(scope="module")
def lam_star():
    return tb.critical_coupling(GAUSS, FRAME)


def _fiber_matrix(V, frame, kappa):
    """The fiber matrix m(kappa), formed from green_row_operator."""
    rule = tb.bs_radial_rule(V, frame.alpha, z=kappa)
    sqv = np.sqrt(V.profile(frame.alpha * rule[0].ravel()))
    sw = np.sqrt(rule[1].ravel())
    return sw[:, None] * (tb.green_row_operator(kappa, rule) * sqv[None, :]) / sw[None, :]


def _svd_norm(V, frame, kappa):
    """|m(kappa)| by a full SVD of the fiber matrix rebuilt here."""
    return np.linalg.svd(_fiber_matrix(V, frame, kappa), compute_uv=False)[0]


def _base_norm(V, frame, kappa):
    """|m(kappa)| from one single-point fiber_norms call, and the kappa it
    solved: |K2| = z |m| at z = kappa, p = 0, and |K1| = |m| beyond p = 1."""
    if kappa <= 1.0:
        return fo.fiber_norms(V, frame, kappa, 0.0)[1] / kappa, kappa
    p = math.sqrt(kappa ** 2 - 1.0)
    return fo.fiber_norms(V, frame, 1.0, p)[0], math.hypot(p, 1.0)


def _explicit_gram(mats):
    """The batched m^T m callable of explicit matrices m (K, n, n)."""
    return lambda x, rows: np.einsum("kij,kj->ki", mats[rows].transpose(0, 2, 1),
                                     np.einsum("kij,kj->ki", mats[rows], x))


# the largest running Lanczos tridiagonal on the shipped 20 x 32 and the
# benchmark's 30 x 48 grids: 11 x 11 (Gaussian) and 12 x 12 (exponential)
MAX_RITZ_ORDER = 12


@pytest.fixture
def small_eigh_only(monkeypatch):
    """Fail svd, eigvalsh and any eigh of a matrix beyond MAX_RITZ_ORDER;
    return the list of every eigh input shape."""
    shapes = []
    eigh = np.linalg.eigh

    def small_eigh(a, *args, **kwargs):
        shapes.append(np.shape(a))
        n = np.shape(a)[-1]
        if n > MAX_RITZ_ORDER:
            raise AssertionError(f"eigh of a {n} x {n} matrix reached")
        return eigh(a, *args, **kwargs)

    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} reached")
        return call

    monkeypatch.setattr(np.linalg, "eigh", small_eigh)
    for name in ("eigvalsh", "svd"):
        monkeypatch.setattr(np.linalg, name, forbidden(name))
    return shapes


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

    @pytest.mark.parametrize("kappa", KAPPAS)
    def test_base_norm_equals_largest_singular_value(self, kappa):
        # the kappas reach the exponential's span cap (kappa > 0.5) and the
        # plain Nystrom panels of z * width > 4
        for name, V in POTENTIALS.items():
            norm, solved = _base_norm(V, FRAME, kappa)
            assert norm == pytest.approx(_svd_norm(V, FRAME, solved), rel=1e-14), name

    @pytest.mark.parametrize("kind, range_, masses, kappa", [
        ("square_well", 5.0, (1.0, 1.0, 1.0), 10.05),
        ("square_well", 1.0, (20.0, 20.0, 1.0), 10.05),
        ("tabulated", 1.0, (1e4, 1e4, 1.0), 2.0),
    ], ids=["wide-well", "heavy-pair", "tabulated-heavy-pair"])
    def test_base_norm_on_wide_spans(self, kind, range_, masses, kappa):
        # a wide span range / alpha at large kappa closes the gap of m^T m
        # (lambda2 / lambda1 = 0.95 and 0.98 for the two square wells), where
        # a power iteration needs hundreds of steps; Lanczos needs a few dozen
        table = POTENTIALS["tabulated"].table if kind == "tabulated" else None
        system = uniform_system(kind, range_, 1.0, masses=masses, table=table)
        V, frame = system.potential((1, 2)), jacobi_frame(system, (1, 2))
        norm, solved = _base_norm(V, frame, kappa)
        assert norm == pytest.approx(_svd_norm(V, frame, solved), rel=1e-14)

    def test_near_degenerate_top_resolved(self):
        # sigma2 / sigma1 = 1 - 1e-9 above an evenly spread spectrum: a power
        # iteration would need about 1e10 steps, Lanczos ends within n
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((128, 128)))
        sigma = np.r_[1.0, 1.0 - 1e-9, np.linspace(1.0 - 1e-6, 0.0, 127)[1:]]
        m = q @ np.diag(sigma) @ q.T
        (norm,) = fo._top_singular_values(_explicit_gram(m[None]), np.array([0.25]), 128)
        assert norm == pytest.approx(1.0, rel=1e-14)

    def test_unresolved_matrix_names_kappa(self):
        m = np.eye(16)
        m[3, 5] = np.nan
        with pytest.raises(ConvergenceError, match=r"kappa = 0\.5$"):
            fo._top_singular_values(_explicit_gram(m[None]), np.array([0.5]), 16)

    def test_non_finite_batch_member_names_its_kappa(self):
        # the non-finite member is named at the step of its first non-finite
        # product of G, while the finite members still run beside it
        mats = np.random.default_rng(3).random((3, 16, 16))
        mats[1, 3, 5] = np.nan
        with pytest.raises(ConvergenceError, match=r"kappa = 0\.5$"):
            fo._top_singular_values(_explicit_gram(mats), np.array([0.25, 0.5, 0.75]), 16)

    def test_kappa_is_math_hypot(self, monkeypatch):
        # np.hypot differs from math.hypot in the last bit at some points of
        # the benchmark's 30 x 48 grid; each distinct kappa is solved once
        z = np.geomspace(1.0, 1e-4, 30)[:, None]
        p = np.geomspace(1e-3, 10.0, 48)[None, :]
        exact = {math.hypot(pj, zi) for zi in z[:, 0] for pj in p[0]}
        seen = []

        class Recorded:
            """The identity on R^2, recording the kappas it is built for."""
            n = 2

            def __init__(self, V, frame, kappas):
                seen.extend(kappas.tolist())

            def __call__(self, x, rows):
                return x

        monkeypatch.setattr(fo, "_FiberGram", Recorded)
        fo.fiber_norms(GAUSS, FRAME, z, p)
        assert len(seen) == len(exact)
        assert set(seen) == exact

    @pytest.mark.parametrize("name", list(POTENTIALS))
    def test_batched_gram_matches_explicit_matrix(self, name):
        # one batch of every kappa: for the two profiles of unbounded
        # support it holds plain Nystrom panels (kappa * width > 4), and for
        # the exponential kappas of different spans (the cap 30 / kappa)
        V, kappas = POTENTIALS[name], np.array(KAPPAS)
        rule = tb.bs_radial_rule(V, FRAME.alpha, kappas)
        # the dense route's rule of each kappa is its row of the batched rule
        for k, kappa in enumerate(kappas):
            for batched, alone in zip(rule, tb.bs_radial_rule(V, FRAME.alpha, kappa)):
                assert np.array_equal(batched[k], alone), kappa
        edges = rule[2]
        if V.support_radius is None:
            assert np.any(kappas[:, None] * np.diff(edges) > 4.0)
        if name == "exponential":
            assert len(set(edges[:, -1])) > 2
        gram = fo._FiberGram(V, FRAME, kappas)
        x = np.random.default_rng(1).standard_normal((len(kappas), gram.n))
        got = gram(x, np.arange(len(kappas)))
        for k, kappa in enumerate(kappas):
            m = _fiber_matrix(V, FRAME, kappa)
            want = m.T @ (m @ x[k])
            assert np.max(np.abs(got[k] - want)) <= 1e-14 * np.max(np.abs(want)), kappa
        # the rows left in the batch see the same operator, to the bit
        rows = np.array([1, 4, 5])
        assert np.array_equal(gram(x[rows], rows), got[rows])

    @pytest.mark.parametrize("name", list(POTENTIALS))
    def test_norm_independent_of_batch(self, name, monkeypatch):
        V, kappas = POTENTIALS[name], np.array(KAPPAS)
        batched = fo._fiber_base_norms(V, FRAME, kappas)
        alone = [fo._fiber_base_norms(V, FRAME, kappas[k:k + 1])[0] for k in range(len(kappas))]
        assert batched.tolist() == alone
        # chunks of three kappas per operator
        monkeypatch.setattr(fo, "FIBER_BLOCK_ELEMENTS", 3 * 16 * 8 * 8)
        assert fo._fiber_base_norms(V, FRAME, kappas).tolist() == alone

    def test_memory_bounded_on_benchmark_grid(self):
        z = np.geomspace(1.0, 1e-4, 30)[:, None]
        p = np.geomspace(1e-3, 10.0, 48)[None, :]
        tracemalloc.start()
        try:
            fo.fiber_norms(GAUSS, FRAME, z, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6

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

    def test_one_fiber_norms_call_and_no_full_decomposition(self, audit, monkeypatch,
                                                            small_eigh_only):
        calls = []
        batched = fo.fiber_norms

        def counted(*args):
            calls.append(args)
            return batched(*args)

        monkeypatch.setattr(fo, "fiber_norms", counted)
        # the fixture has already built the cached quadrature reference rules,
        # whose nodes come from an eigen-solve
        again = fo.lemma6_uniformity_audit(
            GAUSS, FRAME,
            z_grid=np.geomspace(1.0, 1e-4, 8),
            p_grid=np.geomspace(1e-3, 10.0, 8),
        )
        assert len(calls) == 1
        assert again == audit
        assert small_eigh_only   # the Ritz pairs came through the guarded eigh

    @pytest.mark.parametrize("solver", ["eigh", "svd"])
    def test_guard_catches_a_decomposed_fiber_matrix(self, monkeypatch, small_eigh_only,
                                                     solver):
        # the mutation the guard exists for: |m(kappa)| from a full
        # decomposition of the 128 x 128 fiber matrix
        def decomposed(V, frame, kappas):
            out = []
            for kappa in kappas:
                m = _fiber_matrix(V, frame, kappa)
                if solver == "svd":
                    out.append(np.linalg.svd(m, compute_uv=False)[0])
                else:
                    out.append(math.sqrt(np.linalg.eigh(m.T @ m)[0][-1]))
            return np.array(out)

        monkeypatch.setattr(fo, "_fiber_base_norms", decomposed)
        with pytest.raises(AssertionError, match=r"svd reached|eigh of a 128 x 128 matrix"):
            fo.lemma6_uniformity_audit(
                GAUSS, FRAME,
                z_grid=np.geomspace(1.0, 1e-4, 8),
                p_grid=np.geomspace(1e-3, 10.0, 8),
            )

    def test_single_point_matches_audit_sample(self, audit):
        # a norm depends on its own kappa, not on the grid or the stack
        for s in audit.samples:
            n1, n2, ns = fo.fiber_norms(GAUSS, FRAME, s.z, s.p)
            assert (float(n1), float(n2), float(ns)) == (s.norm_k1, s.norm_k2, s.norm_sum)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            fo.lemma6_uniformity_audit(GAUSS, FRAME, z_grid=[], p_grid=[1.0])

    def test_empty_p_grid_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            fo.lemma6_uniformity_audit(GAUSS, FRAME, z_grid=[0.5], p_grid=[])

    def test_z_range_checked_before_constants(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("bound constants computed for a rejected grid")

        monkeypatch.setattr(fo, "bound_constants", forbidden)
        with pytest.raises(ValueError, match=r"z in \(0, 1\]"):
            fo.lemma6_uniformity_audit(GAUSS, FRAME, z_grid=[1.5], p_grid=[1.0])
