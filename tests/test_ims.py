import math

import numpy as np
import pytest

from threshold_lab.errors import ValidationError
from threshold_lab.model import PairPotential, ParticleSystem, uniform_system
from threshold_lab import ims

SYSTEM = uniform_system("gaussian", 1.0, 2.0)


@pytest.fixture(scope="module")
def partition():
    return ims.build_partition(SYSTEM)


@pytest.fixture(scope="module")
def mesh():
    return ims.shell_mesh(100000, seed=11, rho_min=1.0, rho_max=32.0)


@pytest.fixture(scope="module")
def audit(partition, mesh):
    return ims.mesh_audit(partition, mesh)


class TestConstruction:
    def test_partition_of_unity(self, partition, mesh):
        j, _ = partition.evaluate(mesh, with_gradient=False)
        assert np.max(np.abs(np.sum(j ** 2, axis=1) - 1.0)) <= 1e-10

    def test_collinear_far_third_particle(self, partition):
        # particle 3 far from the 1-2 cluster at |q| = 5: region 3 saturates
        r1 = np.zeros(3)
        r2 = np.array([0.4, 0.0, 0.0])
        r3 = np.array([6.0, 0.0, 0.0])
        x = math.sqrt(1.0) * (r2 - r1)
        y = math.sqrt(4.0 / 3.0) * (r3 - 0.5 * (r1 + r2))
        q = np.concatenate([x, y])
        q *= 5.0 / np.linalg.norm(q)
        j, _ = partition.evaluate(q[None, :], with_gradient=False)
        assert j[0, 2] == pytest.approx(1.0, abs=1e-12)
        assert abs(j[0, 0]) <= 1e-12 and abs(j[0, 1]) <= 1e-12

    def test_comparable_distances_mix_regions(self, partition):
        # equilateral-type configuration: everything strictly between 0 and 1
        q = 3.0 * ims.sphere_mesh(64, seed=5)
        j, _ = partition.evaluate(q, with_gradient=False)
        assert np.all(np.sum(j ** 2, axis=1) == pytest.approx(1.0, abs=1e-12))

    def test_interior_constants(self, partition):
        q = 0.3 * ims.sphere_mesh(32, seed=3)
        j, g = partition.evaluate(q)
        assert np.allclose(j, 1.0 / math.sqrt(3.0), atol=1e-14)
        assert np.max(np.abs(g)) == 0.0

    def test_delta_domain(self):
        with pytest.raises(ValueError):
            ims.build_partition(SYSTEM, delta=0.3)
        with pytest.raises(ValueError):
            ims.build_partition(SYSTEM, delta=0.0)

    def test_non_covering_thresholds_rejected(self):
        with pytest.raises(ValidationError):
            ims.build_partition(SYSTEM, theta=0.9, delta=0.05)

    def test_degree_zero_homogeneity_on_rays(self, partition):
        # J_s(lambda q) = J_s(q) for lambda >= 1 on unit-sphere rays
        base = ims.sphere_mesh(256, seed=9)
        j_ref, _ = partition.evaluate(base, with_gradient=False)
        for lam in (1.0, 2.5, 17.0):
            j_lam, _ = partition.evaluate(lam * base, with_gradient=False)
            assert np.max(np.abs(j_lam - j_ref)) <= 1e-12

    def test_deterministic(self, partition):
        again = ims.build_partition(SYSTEM)
        q = ims.shell_mesh(128, seed=77)
        j1, _ = partition.evaluate(q, with_gradient=False)
        j2, _ = again.evaluate(q, with_gradient=False)
        assert np.array_equal(j1, j2)


class TestSupportCone:
    def test_measured_constant_positive(self, partition, audit):
        # on |q| > 1 the blend is 1, so J_s > 0 forces t > theta exactly
        assert audit.cone_passed
        assert audit.cone_constant >= partition.theta
        assert audit.cone_constant == min(audit.cone_per_region)

    def test_delta_to_zero_approaches_theta(self, mesh):
        sub = mesh[:30000]
        cs = []
        for delta in (0.05, 0.02, 0.005):
            p = ims.build_partition(SYSTEM, delta=delta)
            cs.append(ims.mesh_audit(p, sub).cone_constant)
        assert all(abs(c - 0.15) < 0.02 for c in cs)

    def test_interior_mesh_rejected(self, partition):
        with pytest.raises(ValueError):
            ims.mesh_audit(partition, 0.8 * ims.sphere_mesh(16, seed=1))


class TestGradients:
    def test_radius_scaling(self, partition):
        rep = ims.gradient_decay_audit(partition, [2.0, 4.0, 8.0, 16.0])
        assert rep.scaling_ok
        r2, r4 = rep.max_grad_sq[0], rep.max_grad_sq[1]
        assert r2 / r4 == pytest.approx(4.0, rel=0.5)
        assert rep.max_grad_sq[-1] < rep.max_grad_sq[0]

    def test_finite_difference_agreement(self, partition):
        assert ims.gradient_fd_check(partition, n_points=100) <= 1e-6

    def test_bad_radii_rejected(self, partition):
        with pytest.raises(ValueError):
            ims.gradient_decay_audit(partition, [0.5, 2.0])
        with pytest.raises(ValueError):
            ims.gradient_decay_audit(partition, [4.0, 2.0])


class _NoEnvelope(PairPotential):
    """A Gaussian pair whose claimed envelope is zero: V is not below it."""

    def envelope(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))


class TestIdentity:
    def test_pointwise_identities(self, audit):
        assert audit.identity_passed
        assert audit.partition_defect <= 1e-10
        assert audit.regroup_defect <= 1e-10
        assert audit.envelope_excess <= 1e-12

    def test_one_partition_evaluation(self, partition, monkeypatch):
        calls = []
        evaluate = ims.IMSPartition.evaluate

        def counted(self, *args, **kwargs):
            calls.append(args)
            return evaluate(self, *args, **kwargs)

        monkeypatch.setattr(ims.IMSPartition, "evaluate", counted)
        ims.mesh_audit(partition, ims.shell_mesh(512, seed=3))
        assert len(calls) == 1

    def test_mislabelled_region_fails(self, partition, mesh, monkeypatch):
        # region 1 (particle 1 far) must list the pairs (1, 2) and (1, 3);
        # swapping it with region 2 makes it list (1, 2) and (2, 3): the
        # weights still cover the sphere, but the regrouping breaks and J_1
        # then lives where particles 1 and 3 come close
        assert ims.REGIONS[:2] == ((0, 1), (0, 2)) and ims.PAIRS[2] == (2, 3)
        monkeypatch.setattr(ims, "REGIONS", ((0, 2), (0, 1), (1, 2)))
        rep = ims.mesh_audit(partition, mesh[:20000])
        assert not rep.identity_passed
        assert rep.regroup_defect > 1e-3
        assert not rep.cone_passed
        assert rep.cone_per_region[0] < partition.theta
        assert rep.cone_constant < partition.theta

    def test_one_separation_per_pair_per_point_set(self, partition, mesh, monkeypatch):
        rows = []
        separation = ims._separation

        def counted(form, q):
            rows.append(q.shape[0])
            return separation(form, q)

        monkeypatch.setattr(ims, "_separation", counted)
        sub = mesh[:5000]
        partition._raw_weights(sub, np.linalg.norm(sub, axis=1), with_gradient=True)
        assert rows == [5000] * 3
        rows.clear()
        ims.mesh_audit(partition, sub)
        assert sum(rows) <= 6 * 5000

    def test_envelope_below_potential_fails(self, mesh):
        gauss = PairPotential("gaussian", 1.0)
        pots = {(1, 2): gauss, (1, 3): _NoEnvelope("gaussian", 1.0), (2, 3): gauss}
        part = ims.build_partition(ParticleSystem((1.0, 1.0, 1.0), pots, 2.0))
        rep = ims.mesh_audit(part, mesh[:20000])
        assert rep.partition_defect <= 1e-10 and rep.regroup_defect <= 1e-10
        assert not rep.identity_passed
        assert rep.envelope_excess > 1e-3


class TestAsymmetricMasses:
    def test_audits_hold_for_mass_ratio_ten(self):
        system = uniform_system("gaussian", 1.0, 2.0, masses=(1.0, 3.0, 10.0))
        part = ims.build_partition(system)
        rep = ims.mesh_audit(part, ims.shell_mesh(30000, seed=21))
        assert rep.partition_defect <= 1e-10
        assert rep.cone_passed and rep.cone_constant >= part.theta - 1e-9
        assert ims.gradient_fd_check(part, n_points=60) <= 1e-6
        assert rep.identity_passed
