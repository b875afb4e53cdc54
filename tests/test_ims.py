import dataclasses
import math
import re
import tracemalloc

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
    return ims.audit_mesh(100000)


def random_rotation(rng):
    """A proper rotation of R^3 from the QR factors of a Gaussian matrix."""
    r, upper = np.linalg.qr(rng.standard_normal((3, 3)))
    r *= np.sign(np.diag(upper))
    return r if np.linalg.det(r) > 0.0 else -r


def rotated(q, r):
    """Configurations q (n, 6) with r applied to both x and y."""
    return (q.reshape(-1, 2, 3) @ r.T).reshape(-1, 6)


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
        q = 3.0 * ims.shape_mesh(8)
        j, _ = partition.evaluate(q, with_gradient=False)
        assert np.all(np.sum(j ** 2, axis=1) == pytest.approx(1.0, abs=1e-12))

    def test_interior_constants(self, partition):
        q = 0.3 * rotated(ims.shape_mesh(6), ims._ROTATION)
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

    def test_cover_failure_names_shapes(self):
        # two heavy particles and a light one: theta = 0.15 leaves shapes
        # where no particle is far from the other two
        heavy = uniform_system("gaussian", 1.0, 2.0, masses=(20.0, 20.0, 1.0))
        with pytest.raises(ValidationError,
                           match="240 of 4225 grid shapes uncovered") as caught:
            ims.build_partition(heavy)
        # every raw weight vanishes at the named shape
        found = re.search(r"one at chi=(\S+), phi=(\S+)$", str(caught.value))
        chi, phi = float(found[1]), float(found[2])
        q = np.array([[math.cos(chi), 0.0, 0.0, math.sin(chi) * math.cos(phi),
                       math.sin(chi) * math.sin(phi), 0.0]])
        part = dataclasses.replace(ims.build_partition(heavy, theta=0.05), theta=0.15)
        w, _ = part._raw_weights(q, np.ones(1), part._separations(q, False), False)
        assert not np.any(w)

    def test_degree_zero_homogeneity_on_rays(self, partition):
        # J_s(lambda q) = J_s(q) for lambda >= 1 on unit-sphere rays
        base = np.random.default_rng(9).standard_normal((256, 6))
        base /= np.linalg.norm(base, axis=1)[:, None]
        j_ref, _ = partition.evaluate(base, with_gradient=False)
        for lam in (1.0, 2.5, 17.0):
            j_lam, _ = partition.evaluate(lam * base, with_gradient=False)
            assert np.max(np.abs(j_lam - j_ref)) <= 1e-12

    def test_deterministic(self, partition):
        again = ims.build_partition(SYSTEM)
        q = np.random.default_rng(77).uniform(-4.0, 4.0, (128, 6))
        j1, _ = partition.evaluate(q, with_gradient=False)
        j2, _ = again.evaluate(q, with_gradient=False)
        assert np.array_equal(j1, j2)


class TestShapeSpace:
    """J and |q|^2 Sum |grad J_s|^2 depend on the two shape angles alone, so
    the shape grid audits every configuration with |q| >= 1."""

    @pytest.mark.parametrize("masses", [(1.0, 1.0, 1.0), (1.0, 1.0, 4.0),
                                        (1.0, 3.0, 10.0)])
    def test_rotation_and_scale_keep_fields(self, masses):
        part = ims.build_partition(uniform_system("gaussian", 1.0, 2.0, masses=masses))
        grid = ims.shape_mesh(ims.SHAPE_GRID)
        moved = 7.3 * rotated(grid, random_rotation(np.random.default_rng(3)))
        j, grad = part.evaluate(grid)
        j_moved, grad_moved = part.evaluate(moved)
        assert np.max(np.abs(j_moved - j)) <= 1e-13
        g_sq = np.sum(grad ** 2, axis=(1, 2))
        g_sq_moved = 7.3 ** 2 * np.sum(grad_moved ** 2, axis=(1, 2))
        assert np.max(np.abs(g_sq_moved - g_sq)) <= 1e-12 * np.max(g_sq)

    def test_meshes(self):
        grid = ims.shape_mesh(5)
        assert grid.shape == (25, 6)
        assert np.max(np.abs(np.linalg.norm(grid, axis=1) - 1.0)) <= 1e-15
        assert not np.any(grid[:, [1, 2, 5]])  # x on e1, y in the (e1, e2) plane
        for samples, side in ((1, 1), (99, 10), (100, 10), (101, 11)):
            mesh = ims.audit_mesh(samples)
            rho = np.linalg.norm(mesh, axis=1)
            assert len(mesh) == side ** 2
            assert np.all((rho > 1.0) & (rho < 32.0))
        assert ims.audit_mesh(100).tobytes() == ims.audit_mesh(100).tobytes()


class TestSupportCone:
    def test_measured_constant_positive(self, partition, audit):
        # on |q| > 1 the blend is 1, so J_s > 0 forces t > theta exactly
        assert audit.cone_passed
        assert audit.cone_constant >= partition.theta
        assert audit.cone_constant == min(audit.cone_per_region)

    def test_delta_to_zero_approaches_theta(self):
        sub = ims.audit_mesh(30000)
        cs = []
        for delta in (0.05, 0.02, 0.005):
            p = ims.build_partition(SYSTEM, delta=delta)
            cs.append(ims.mesh_audit(p, sub).cone_constant)
        assert all(abs(c - 0.15) < 0.02 for c in cs)

    def test_interior_mesh_rejected(self, partition):
        with pytest.raises(ValueError):
            ims.mesh_audit(partition, 0.8 * ims.shape_mesh(4))


class TestGradients:
    def test_radius_scaling(self, partition):
        rep = ims.gradient_decay_audit(partition, [2.0, 4.0, 8.0, 16.0])
        assert rep.scaling_ok
        r2, r4 = rep.max_grad_sq[0], rep.max_grad_sq[1]
        # the grid maxima scale exactly: J is homogeneous of degree zero
        assert r2 / r4 == pytest.approx(4.0, rel=1e-12)
        assert rep.max_grad_sq[-1] < rep.max_grad_sq[0]

    def test_finite_difference_agreement(self, partition):
        assert ims.gradient_fd_check(partition, n_points=100) <= 1e-6

    def test_finite_difference_agreement_on_fine_grid(self, partition):
        # at the step 1e-5 the central differences' truncation error, which
        # scales as the step squared, reads above 1e-6 here
        assert ims.gradient_fd_check(partition, n_points=4096) <= 1e-6

    def test_finite_difference_detects_wrong_slope(self, partition, monkeypatch):
        slope = ims._smoothstep_prime
        monkeypatch.setattr(ims, "_smoothstep_prime", lambda t: 1.01 * slope(t))
        assert ims.gradient_fd_check(partition, n_points=100) > 1e-3

    def test_bad_radii_rejected(self, partition):
        with pytest.raises(ValueError):
            ims.gradient_decay_audit(partition, [0.5, 2.0])
        with pytest.raises(ValueError):
            ims.gradient_decay_audit(partition, [4.0, 2.0])


class _NoEnvelope(PairPotential):
    """A Gaussian pair whose claimed envelope is zero: V is not below it."""

    def envelope(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))


def _zero_envelope_partition():
    gauss = PairPotential("gaussian", 1.0)
    pots = {(1, 2): gauss, (1, 3): _NoEnvelope("gaussian", 1.0), (2, 3): gauss}
    return ims.build_partition(ParticleSystem((1.0, 1.0, 1.0), pots, 2.0))


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
        ims.mesh_audit(partition, ims.audit_mesh(512))
        assert len(calls) == 1
        calls.clear()
        mesh = ims.audit_mesh(5 * ims.AUDIT_BLOCK // 2)
        ims.mesh_audit(partition, mesh)
        assert len(calls) == math.ceil(len(mesh) / ims.AUDIT_BLOCK) == 3

    def test_mislabelled_region_fails(self, partition, monkeypatch):
        # region 1 (particle 1 far) must list the pairs (1, 2) and (1, 3);
        # swapping it with region 2 makes it list (1, 2) and (2, 3): the
        # weights still cover the sphere, but the regrouping breaks and J_1
        # then lives where particles 1 and 3 come close
        assert ims.REGIONS[:2] == ((0, 1), (0, 2)) and ims.PAIRS[2] == (2, 3)
        monkeypatch.setattr(ims, "REGIONS", ((0, 2), (0, 1), (1, 2)))
        rep = ims.mesh_audit(partition, ims.audit_mesh(20000))
        assert not rep.identity_passed
        assert rep.regroup_defect > 1e-3
        assert not rep.cone_passed
        assert rep.cone_per_region[0] < partition.theta
        assert rep.cone_constant < partition.theta

    def test_one_separation_per_pair_per_point_set(self, partition, mesh, monkeypatch):
        rows = []
        separation = ims._separation

        def counted(form, q, with_vector):
            rows.append((q.shape[0], with_vector))
            return separation(form, q, with_vector)

        monkeypatch.setattr(ims, "_separation", counted)
        sub = mesh[:5000]
        partition.evaluate(sub)
        assert rows == [(5000, True)] * 3
        rows.clear()
        # the audit's three distances feed its evaluation; no vector d is kept
        ims.mesh_audit(partition, sub)
        assert rows == [(5000, False)] * 3

    def test_passed_separations_checked(self, partition, mesh):
        sub = mesh[:500]
        j, _ = partition.evaluate(sub, with_gradient=False)
        shared, _ = partition.evaluate(sub, with_gradient=False,
                                       seps=partition._separations(sub, False))
        assert shared.tobytes() == j.tobytes()
        # the gradient needs the vectors d, which with_vectors=False drops
        with pytest.raises(ValueError):
            partition.evaluate(sub, seps=partition._separations(sub, False))
        with pytest.raises(ValueError):
            partition.evaluate(sub, with_gradient=False,
                               seps=partition._separations(mesh[:400], False))

    def test_envelope_below_potential_fails(self):
        rep = ims.mesh_audit(_zero_envelope_partition(), ims.audit_mesh(20000))
        assert rep.partition_defect <= 1e-10 and rep.regroup_defect <= 1e-10
        assert not rep.identity_passed
        assert rep.envelope_excess > 1e-3


class TestBlocks:
    """The audit runs in blocks of AUDIT_BLOCK points; no result depends on
    the block size, and memory does not grow with the mesh."""

    N = 4500  # 68 * 68 points: four blocks of 1000 and a partial fifth

    @pytest.fixture()
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(ims, "AUDIT_BLOCK", 1000)

    def test_audit_independent_of_block_size(self, partition, monkeypatch):
        mesh = ims.audit_mesh(self.N)
        full = ims.mesh_audit(partition, mesh)  # one block at the default size
        monkeypatch.setattr(ims, "AUDIT_BLOCK", 1000)
        small = ims.mesh_audit(partition, mesh)
        for field in dataclasses.fields(ims.MeshAudit):
            assert getattr(small, field.name) == getattr(full, field.name), field.name

    def test_broken_partitions_fail_in_small_blocks(self, partition, small_blocks,
                                                    monkeypatch):
        mesh = ims.audit_mesh(self.N)
        rep = ims.mesh_audit(_zero_envelope_partition(), mesh)
        assert not rep.identity_passed and rep.envelope_excess > 1e-3
        monkeypatch.setattr(ims, "REGIONS", ((0, 2), (0, 1), (1, 2)))
        rep = ims.mesh_audit(partition, mesh)
        assert not rep.identity_passed and rep.regroup_defect > 1e-3
        assert not rep.cone_passed and rep.cone_per_region[0] < partition.theta

    def test_interior_point_in_last_block_rejected(self, partition, small_blocks):
        mesh = ims.audit_mesh(self.N)
        mesh[4321] *= 0.9 / np.linalg.norm(mesh[4321])
        with pytest.raises(ValueError):
            ims.mesh_audit(partition, mesh)

    def test_audit_memory_flat_in_mesh_size(self, partition):
        ims.mesh_audit(partition, ims.audit_mesh(64))  # settle lazy setup
        peaks = []
        for blocks in (1, 8):
            mesh = ims.audit_mesh(blocks * ims.AUDIT_BLOCK)
            tracemalloc.start()
            try:
                ims.mesh_audit(partition, mesh)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]

    def test_shape_mesh_memory_bounded_by_output(self):
        ims.shape_mesh(8)  # settle lazy setup
        tracemalloc.start()
        try:
            mesh = ims.shape_mesh(400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - mesh.nbytes < mesh.nbytes


class TestAsymmetricMasses:
    def test_audits_hold_for_mass_ratio_ten(self):
        system = uniform_system("gaussian", 1.0, 2.0, masses=(1.0, 3.0, 10.0))
        part = ims.build_partition(system)
        rep = ims.mesh_audit(part, ims.audit_mesh(30000))
        assert rep.partition_defect <= 1e-10
        assert rep.cone_passed and rep.cone_constant >= part.theta - 1e-9
        assert ims.gradient_fd_check(part, n_points=60) <= 1e-6
        assert rep.identity_passed
