import math

import numpy as np
import pytest

from threshold_lab.errors import ValidationError
from threshold_lab.model import uniform_system
from threshold_lab import ims

SYSTEM = uniform_system("gaussian", 1.0, 2.0)


@pytest.fixture(scope="module")
def partition():
    return ims.build_partition(SYSTEM)


@pytest.fixture(scope="module")
def mesh():
    return ims.shell_mesh(100000, seed=11, rho_min=1.0, rho_max=32.0)


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
        q = ims.sphere_mesh(64, seed=5, radius=3.0)
        j, _ = partition.evaluate(q, with_gradient=False)
        assert np.all(np.sum(j ** 2, axis=1) == pytest.approx(1.0, abs=1e-12))

    def test_interior_constants(self, partition):
        q = ims.sphere_mesh(32, seed=3, radius=0.3)
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
        base = ims.sphere_mesh(256, seed=9, radius=1.0)
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
    def test_measured_constant_positive(self, partition, mesh):
        rep = ims.verify_support_cone(partition, mesh)
        assert rep.passed
        assert rep.measured_c >= partition.theta - 1e-9

    def test_delta_to_zero_approaches_theta(self, mesh):
        sub = mesh[:30000]
        cs = []
        for delta in (0.05, 0.02, 0.005):
            p = ims.build_partition(SYSTEM, delta=delta)
            cs.append(ims.verify_support_cone(p, sub).measured_c)
        assert all(abs(c - 0.15) < 0.02 for c in cs)

    def test_interior_mesh_rejected(self, partition):
        with pytest.raises(ValueError):
            ims.verify_support_cone(partition, ims.sphere_mesh(16, seed=1, radius=0.8))


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


class TestIdentity:
    def test_pointwise_identities(self, partition, mesh):
        rep = ims.ims_identity_check(SYSTEM, partition, mesh[:20000])
        assert rep.passed
        assert rep.max_partition_defect <= 1e-10
        assert rep.max_regroup_defect <= 1e-10
        assert rep.max_cone_envelope_excess <= 1e-12

    def test_mislabelled_region_fails(self, partition, mesh):
        # region 1 (particle 1 far) must list the pairs (1, 2) and (1, 3);
        # labelling its second separation as (2, 3) breaks the regrouping
        regions = list(partition.regions)
        (p12, f12), (_, f13) = regions[0]
        regions[0] = ((p12, f12), ((2, 3), f13))
        bad = ims.IMSPartition(partition.system, partition.theta, partition.delta,
                               tuple(regions))
        rep = ims.ims_identity_check(SYSTEM, bad, mesh[:20000])
        assert not rep.passed
        assert rep.max_regroup_defect > 1e-3


class TestAsymmetricMasses:
    def test_audits_hold_for_mass_ratio_ten(self):
        system = uniform_system("gaussian", 1.0, 2.0, masses=(1.0, 3.0, 10.0))
        part = ims.build_partition(system)
        mesh = ims.shell_mesh(30000, seed=21)
        j, _ = part.evaluate(mesh, with_gradient=False)
        assert np.max(np.abs(np.sum(j ** 2, axis=1) - 1.0)) <= 1e-10
        cone = ims.verify_support_cone(part, mesh)
        assert cone.passed and cone.measured_c >= part.theta - 1e-9
        assert ims.gradient_fd_check(part, n_points=60) <= 1e-6
        rep = ims.ims_identity_check(system, part, mesh[:8000])
        assert rep.passed
