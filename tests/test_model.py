import math

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from threshold_lab.errors import ValidationError
from threshold_lab.faddeev_ops import bound_constants
from threshold_lab.model import (
    PairPotential,
    jacobi_frame,
    potential_moment_c,
    separation_forms,
    uniform_system,
)

from oracles import (
    oracle_potential_volume,
    plancherel_fourier_mass,
    sqrt_potential_fourier,
    zero_potential,
)

GAUSS = PairPotential("gaussian", 1.0)
EXPO = PairPotential("exponential", 1.0)
WELL = PairPotential("square_well", 1.0)


def frame_of_alpha(alpha):
    """The pair-(1, 2) frame of the masses (m, m, 1), m = 1/alpha^2, whose
    alpha is the given one to rounding."""
    m = 1.0 / alpha ** 2
    return jacobi_frame(uniform_system("gaussian", 1.0, 1.0, masses=(m, m, 1.0)), (1, 2))


class TestJacobiFrame:
    def test_unit_masses_pair_12(self):
        sys = uniform_system("gaussian", 1.0, 1.0)
        fr = jacobi_frame(sys, (1, 2))
        assert fr.mu == pytest.approx(0.5)
        assert fr.M == pytest.approx(2.0 / 3.0)
        assert fr.alpha == pytest.approx(1.0)
        assert fr.gamma == pytest.approx(math.sqrt(3.0) / 2.0)

    def test_heavy_third_particle_limit(self):
        sys = uniform_system("gaussian", 1.0, 1.0, masses=(1.0, 1.0, 1e6))
        fr = jacobi_frame(sys, (1, 2))
        assert fr.M == pytest.approx(2.0, rel=1e-5)
        assert fr.gamma == pytest.approx(0.5, rel=1e-5)

    def test_equal_mass_two(self):
        sys = uniform_system("gaussian", 1.0, 1.0, masses=(2.0, 2.0, 2.0))
        fr = jacobi_frame(sys, (2, 3))
        assert fr.mu == pytest.approx(1.0)
        assert fr.alpha == pytest.approx(1.0 / math.sqrt(2.0))

    def test_permutation_consistency(self):
        # relabeling particles and the ordered pair coherently preserves the frame
        masses = (1.0, 2.5, 4.0)
        sys = uniform_system("gaussian", 1.0, 1.0, masses=masses)
        perms = [(1, 2, 3), (2, 3, 1), (3, 1, 2), (2, 1, 3), (1, 3, 2), (3, 2, 1)]
        for perm in perms:
            pm = {old: new for old, new in zip((1, 2, 3), perm)}
            new_masses = [0.0] * 3
            for old in (1, 2, 3):
                new_masses[pm[old] - 1] = masses[old - 1]
            relabeled = uniform_system("gaussian", 1.0, 1.0, masses=tuple(new_masses))
            for pair in [(1, 2), (2, 3), (1, 3), (2, 1)]:
                a = jacobi_frame(sys, pair)
                b = jacobi_frame(relabeled, (pm[pair[0]], pm[pair[1]]))
                assert b.mu == pytest.approx(a.mu, rel=1e-14)
                assert b.M == pytest.approx(a.M, rel=1e-14)
                assert b.alpha == pytest.approx(a.alpha, rel=1e-14)
                assert b.gamma == pytest.approx(a.gamma, rel=1e-14)

    def test_bad_pair_rejected(self):
        sys = uniform_system("gaussian", 1.0, 1.0)
        with pytest.raises(ValueError):
            jacobi_frame(sys, (1, 1))


class TestMoments:
    def test_square_well_volume(self):
        assert potential_moment_c(WELL) == pytest.approx(4.0 * math.pi / 3.0, rel=1e-12)

    def test_gaussian_volume(self):
        assert potential_moment_c(GAUSS) == pytest.approx(math.pi ** 1.5, rel=1e-12)

    def test_alpha_scaling_law(self):
        # the scaling law lives in bound_constants: c(alpha) = c1 / alpha^3
        frame = frame_of_alpha(2.0)
        assert frame.alpha == 2.0
        c1 = potential_moment_c(GAUSS)
        assert bound_constants(GAUSS, frame).c == pytest.approx(c1 / 8.0, rel=1e-12)

    @pytest.mark.parametrize("V", [GAUSS, EXPO, WELL])
    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.7])
    def test_alpha_invariance_of_scaled_moment(self, V, alpha):
        # c of a frame against a quadrature of V(alpha x) itself
        frame = frame_of_alpha(alpha)
        assert bound_constants(V, frame).c == pytest.approx(
            oracle_potential_volume(V, frame.alpha), rel=1e-10)


class TestFourier:
    def test_gaussian_zero_momentum(self):
        # V^(1/2) = exp(-r^2/2); symmetric convention gives exactly 1 at p = 0
        assert sqrt_potential_fourier(GAUSS, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_large_momentum_vanishes(self):
        assert abs(sqrt_potential_fourier(GAUSS, 40.0)) < 1e-10
        assert abs(sqrt_potential_fourier(EXPO, 300.0)) < 1e-4

    @pytest.mark.parametrize("V", [GAUSS, EXPO, WELL])
    def test_plancherel_identity(self, V):
        lhs = plancherel_fourier_mass(V)
        rhs = potential_moment_c(V)
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_plancherel_identity_tabulated(self):
        r = np.linspace(0.0, 3.0, 31)
        tab = PairPotential(
            "tabulated", 1.0, table=tuple((float(x), float(np.exp(-x * x))) for x in r)
        )
        assert plancherel_fourier_mass(tab) == pytest.approx(
            potential_moment_c(tab), rel=1e-6
        )

    def test_square_well_transform_matches_closed_form(self):
        # F(p) = sqrt(2/pi) [sin(pR) - pR cos(pR)] / p^3 for the unit well
        for p in (0.7, 2.3, 9.0):
            exact = math.sqrt(2.0 / math.pi) * (math.sin(p) - p * math.cos(p)) / p ** 3
            assert sqrt_potential_fourier(WELL, p) == pytest.approx(exact, abs=1e-10)


class TestR6Validation:
    def test_negative_tabulated_fails_nonnegativity(self):
        # the table is the only input that can break V >= 0, and the
        # interpolant stays within its samples, so the samples are checked
        r = np.linspace(0.0, 3.0, 61)
        with pytest.raises(ValidationError, match=r"nonnegativity: V\(0\.7\) = -0\.00341"):
            PairPotential(
                "tabulated", 1.0, table=tuple((float(x), float(np.exp(-x) - 0.5)) for x in r)
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_table_value_rejected(self, value):
        with pytest.raises(ValidationError, match="not a finite value"):
            PairPotential("tabulated", 1.0, table=((0.0, 1.0), (1.0, value), (2.0, 0.0)))

    @pytest.mark.parametrize("V", [GAUSS, EXPO, WELL])
    def test_builtin_envelope_is_the_profile(self, V):
        r = np.linspace(0.0, 3.0 * V.effective_radius, 4001)
        assert np.array_equal(V.envelope(r), V.profile(r))

    def test_table_envelope_is_the_later_maximum(self):
        # a dip at r = 1 and a bump at r = 2: F keeps the bump's height 0.6
        # across the dip, and is 0 beyond the table
        bump = PairPotential("tabulated", 1.0, table=((0, 1), (1, 0.1), (2, 0.6), (3, 0)))
        r = np.array([0.0, 0.2, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5])
        v = bump.profile(r)
        expected = np.maximum(v, [1.0, 0.6, 0.6, 0.6, 0.6, 0.0, 0.0, 0.0])
        assert np.array_equal(bump.envelope(r), expected)
        assert bump.envelope(0.5) == 0.6


class TestSystem:
    def test_invalid_masses_and_coupling(self):
        with pytest.raises(ValueError):
            uniform_system("gaussian", 1.0, 1.0, masses=(1.0, -1.0, 1.0))
        with pytest.raises(ValueError):
            uniform_system("gaussian", 1.0, 0.0)

    def test_identical_boson_detection(self):
        assert uniform_system("gaussian", 1.0, 2.0).identical_bosons
        mixed = uniform_system("gaussian", 1.0, 2.0, masses=(1.0, 1.0, 2.0))
        assert not mixed.identical_bosons

    def test_separation_forms_reproduce_distances(self):
        rng = np.random.default_rng(3)
        masses = (1.0, 2.0, 3.5)
        sys = uniform_system("gaussian", 1.0, 1.0, masses=masses)
        forms = separation_forms(sys)
        fr = jacobi_frame(sys, (1, 2))
        for _ in range(20):
            r1, r2, r3 = rng.normal(size=(3, 3))
            x = math.sqrt(2.0 * fr.mu) * (r2 - r1)
            cm12 = (masses[0] * r1 + masses[1] * r2) / (masses[0] + masses[1])
            y = math.sqrt(2.0 * fr.M) * (r3 - cm12)
            expected = {(1, 2): r2 - r1, (1, 3): r3 - r1, (2, 3): r3 - r2}
            for pair, (u, v) in forms.items():
                assert np.allclose(u * x + v * y, expected[pair], atol=1e-12)

    def test_flat_keys_apply_to_all_pairs(self):
        from threshold_lab.cli import load_config

        text = ("experiment = two_critical\nmasses = 1 1 1\nlambda = 2.0\n"
                "kind = gaussian\nrange = 1.25\n")
        sys = load_config(text).system
        assert all(p.kind == "gaussian" and p.range_ == 1.25 for p in sys.potentials.values())

    def test_zero_potential_is_identically_zero(self):
        z = zero_potential()
        assert np.all(z.profile(np.linspace(0.0, 5.0, 50)) == 0.0)


class TestRandomTabulatedProfiles:
    def test_r6_and_scaling_hold_for_random_nonnegative_tables(self):
        # R6 by construction: V >= 0 between the samples (to rounding), and
        # the envelope dominates V and is non-increasing
        rng = np.random.default_rng(17)
        for _ in range(10):
            r = np.linspace(0.0, rng.uniform(2.0, 6.0), 60)
            vals = rng.uniform(0.0, 1.0, size=r.size) * np.exp(-r)
            pot = PairPotential("tabulated", 1.0, table=tuple(zip(r.tolist(), vals.tolist())))
            dense = np.linspace(0.0, 1.1 * r[-1], 20001)
            v, env = pot.profile(dense), pot.envelope(dense)
            assert np.min(v) >= -1e-15
            assert np.all(env >= v)
            assert np.all(np.diff(env) <= 0.0)
            c1 = potential_moment_c(pot)
            frame = frame_of_alpha(rng.uniform(0.5, 2.0))
            bc = bound_constants(pot, frame)
            assert bc.c * frame.alpha ** 3 == pytest.approx(c1, rel=1e-10)
            assert bc.c_tilde * frame.gamma ** 3 == pytest.approx(c1, rel=1e-10)

    def test_profile_is_scipy_pchip_bit_for_bit(self):
        # model._pchip keeps the slopes, coefficients and summation order of
        # scipy's PchipInterpolator, the reference here, so a table's profile
        # is the same float at the knots, between them and beyond both ends
        rng = np.random.default_rng(26)
        for k in range(400):
            n = 2 + k % 59
            r = np.cumsum(rng.uniform(0.01, 1.0, n))
            if k % 2:
                r -= r[0]                       # half the tables start at r = 0
            vals = rng.uniform(0.0, 1.0, n)     # slopes that change sign
            if k % 3 == 0:
                vals = np.exp(-r)               # slopes of one sign
            # a run of zeros, signed as a config may write them (0 or -0)
            start = rng.integers(n)
            run = slice(start, start + rng.integers(1, 5))
            vals[run] = rng.choice([0.0, -0.0], size=vals[run].size)
            pot = PairPotential("tabulated", 1.0, table=tuple(zip(r.tolist(), vals.tolist())))
            x = np.concatenate([r, (r[1:] + r[:-1]) / 2, rng.uniform(r[0], r[-1], 50),
                                rng.uniform(0.0, r[0], 5), r[-1] + rng.uniform(0.0, 1.0, 5)])
            inside = PchipInterpolator(r, vals, extrapolate=False)(np.clip(x, r[0], r[-1]))
            expected = np.where(x > r[-1], 0.0, inside)
            assert pot.profile(x).tobytes() == expected.tobytes(), (k, n)
