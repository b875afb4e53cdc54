"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS/FAIL
line per criterion.  The heavy absorption pipeline (budget 150) runs once
in a module fixture and serves criteria 5 and 7.  Every test here carries
the ``acceptance`` marker, so ``pytest -m "not acceptance"`` runs the rest
of the suite alone.
"""

import math
import time

import numpy as np
import pytest
from scipy.special import jn_zeros

from threshold_lab.cli import main as cli_main
from threshold_lab.model import (
    PairPotential,
    ParticleSystem,
    jacobi_frame,
    potential_moment_c,
    uniform_system,
    zero_potential,
)
from threshold_lab import faddeev_ops as fo
from threshold_lab import ims
from threshold_lab import threebody as t3
from threshold_lab import twobody as tb

pytestmark = pytest.mark.acceptance

FRAME = jacobi_frame(uniform_system("gaussian", 1.0, 1.0), (1, 2))
GAUSS = PairPotential("gaussian", 1.0)


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"{status} criterion {number}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def absorb_run():
    """Bracket + sweep of the flagship three-boson system at budget 150."""
    t_start = time.monotonic()
    system = uniform_system("gaussian", 1.0, 0.9 * tb.critical_coupling(GAUSS, FRAME))
    bracket, asm = t3.critical_coupling_3body(system, budget=150, seed=7)
    lam_star = min(tb.subcriticality_margin(system).lambda_stars.values())
    offsets = np.geomspace(3e-2, 2e-5, 10)
    records = t3.sweep_three_body(asm, bracket.lambda_cr + offsets * lam_star, lam_star)
    elapsed = time.monotonic() - t_start
    return {
        "bracket": bracket,
        "records": records,
        "lam_star": lam_star,
        "elapsed": elapsed,
    }


def test_criterion_1_two_body_analytic_oracles():
    well = PairPotential("square_well", 1.0)
    expo = PairPotential("exponential", 1.0)
    t0 = time.monotonic()
    lam_well = tb.critical_coupling(well, FRAME)
    t_well = time.monotonic() - t0
    t0 = time.monotonic()
    lam_expo = tb.critical_coupling(expo, FRAME)
    t_expo = time.monotonic() - t0
    exact_well = math.pi ** 2 / 4.0
    exact_expo = jn_zeros(0, 1)[0] ** 2 / 4.0
    err_well = abs(lam_well - exact_well) / exact_well
    err_expo = abs(lam_expo - exact_expo) / exact_expo
    report(
        1, "two-body critical couplings reproduce the analytic values",
        err_well <= 1e-4 and err_expo <= 1e-4 and t_well < 5.0 and t_expo < 5.0,
        f"well err {err_well:.2e} ({t_well:.2f}s), expo err {err_expo:.2e} ({t_expo:.2f}s)",
    )


def test_criterion_2_bs_monotonicity():
    table = tuple(
        (float(r), float(math.exp(-r * r))) for r in np.linspace(0.0, 8.0, 161)
    )
    potentials = [
        PairPotential("gaussian", 1.0),
        PairPotential("exponential", 1.0),
        PairPotential("square_well", 1.0),
        PairPotential("tabulated", 1.0, table=table),
    ]
    zs = np.linspace(0.0, 5.0, 20)
    violations = 0
    for V in potentials:
        mus = [tb.bs_max_eigenvalue(V, FRAME, z) for z in zs]
        violations += sum(1 for a, b in zip(mus, mus[1:]) if not a > b)
    report(
        2, "mu(z) strictly decreasing on the 20-point grid for every built-in",
        violations == 0, f"{violations} violations",
    )


def test_criterion_3_fiber_norm_bounds():
    t0 = time.monotonic()
    constants = fo.bound_constants(GAUSS, FRAME)
    ok = True
    worst1 = worst2 = 0.0
    for z in np.geomspace(1.0, 1e-4, 20):
        for p in np.geomspace(1e-3, 10.0, 32):
            n1, n2, _ = fo.fiber_norms(GAUSS, FRAME, z, p)
            worst1 = max(worst1, n1 / constants.k1_bound)
            worst2 = max(worst2, n2 / constants.k2_bound)
            ok = ok and n1 <= constants.k1_bound and n2 <= constants.k2_bound
    elapsed = time.monotonic() - t0
    report(
        3, "fiber norms obey |K1| <= sqrt(c c' c'') and |K2| <= sqrt(c c') on the 20x32 grid",
        ok and elapsed < 60.0,
        f"max ratios {worst1:.3f}/{worst2:.3f}, {elapsed:.1f}s",
    )


def test_criterion_4_hs_certificate_and_constants():
    constants = fo.bound_constants(GAUSS, FRAME)
    hs_ok = all(
        fo.k2_hs_norm_squared_from_constants(constants, z) <= constants.hs_bound
        for z in (1.0, 0.5, 0.1, 0.01, 1e-3, 1e-4)
    )
    c_prime_ok = abs(constants.c_prime - 2.0 * math.pi) <= 1e-8
    c_dprime_ok = abs(constants.c_dprime - 1.0) <= 1e-8
    plancherel = constants.c_tilde * FRAME.gamma ** 3
    volume = potential_moment_c(GAUSS, 1.0)
    plancherel_ok = abs(plancherel - volume) / volume <= 1e-6
    report(
        4, "HS norm below the certificate; c' = 2pi, c'' = 1, Plancherel ties c~",
        hs_ok and c_prime_ok and c_dprime_ok and plancherel_ok,
        f"c' err {abs(constants.c_prime - 2 * math.pi):.1e}, "
        f"Plancherel rel {abs(plancherel - volume) / volume:.1e}",
    )


def test_criterion_5_contraction_certificate(absorb_run):
    lam_star = tb.critical_coupling(GAUSS, FRAME)
    lam = 0.9 * lam_star
    ks = sorted(r.k for r in absorb_run["records"])
    reports = [fo.channel_contraction_norm(GAUSS, FRAME, lam, k) for k in ks]
    bounded = all(r.lambda_mu <= 0.9 + 1e-6 for r in reports)
    contractive = all(not r.violated for r in reports)
    neumann = [r.neumann_bound for r in reports]
    finite = all(math.isfinite(b) for b in neumann)
    decreasing = all(a >= b for a, b in zip(neumann, neumann[1:]))
    report(
        5, "lambda mu(k_n) <= 0.9 + 1e-6 with finite decreasing Neumann bounds",
        bounded and contractive and finite and decreasing,
        f"max lambda mu = {max(r.lambda_mu for r in reports):.6f}",
    )


def test_criterion_6_ims_audits():
    system = uniform_system("gaussian", 1.0, 2.0)
    part = ims.build_partition(system)
    mesh = ims.audit_mesh(100000)
    audit = ims.mesh_audit(part, mesh)
    decay = ims.gradient_decay_audit(part, [2.0, 4.0, 8.0, 16.0])
    ratio_2_16 = decay.max_grad_sq[0] / decay.max_grad_sq[-1]
    scaling_ok = (16.0 / 2.0) ** 2 / 2.0 <= ratio_2_16 <= (16.0 / 2.0) ** 2 * 2.0
    report(
        6, "IMS partition: unity, support cone, 1/r^2 gradient decay, exact gradients",
        audit.partition_defect <= 1e-10 and audit.cone_passed and scaling_ok
        and decay.fd_max_rel_diff <= 1e-6,
        f"defect {audit.partition_defect:.1e}, C = {audit.cone_constant:.3f}, "
        f"fd {decay.fd_max_rel_diff:.1e}",
    )


def test_criterion_7_absorption_experiment(absorb_run):
    bracket = absorb_run["bracket"]
    records = absorb_run["records"]
    lam_star = absorb_run["lam_star"]

    window_ok = bracket.lambda_cr < lam_star
    width_ok = (bracket.lam_hi - bracket.lam_lo) <= 1e-4 * lam_star
    eps_ok = all(r.eps_R7 > 0.0 for r in records)

    energies = sorted(abs(r.E3) for r in records)
    decades = math.log10(energies[-1] / energies[0])
    xs = np.log([abs(r.E3) for r in records])
    ys = np.array([r.rho2 for r in records])
    e_min = min(abs(r.E3) for r in records)
    rho2_min = records[-1].rho2
    rho2_100x = float(np.interp(np.log(100.0 * e_min), xs[::-1], ys[::-1]))
    ratio_ok = rho2_min <= 2.0 * rho2_100x

    verdict = t3.spreading_diagnostic([(abs(r.E3), r.rho2, r.tail) for r in records])
    tails_ok = verdict.verdict == "non-spreading-consistent"

    kin = [r.kinetic_norm for r in records]
    kin_ok = max(kin) <= 2.0 * float(np.median(kin))
    runtime_ok = absorb_run["elapsed"] <= 1800.0

    report(
        7, "eigenvalue absorption: Borromean window, bounded size, bounded kinetic norm",
        window_ok and width_ok and eps_ok and decades >= 2.0 and ratio_ok
        and tails_ok and kin_ok and runtime_ok,
        f"lambda_cr/lambda* = {bracket.lambda_cr / lam_star:.4f}, "
        f"decades {decades:.2f}, rho2 ratio {rho2_min / rho2_100x:.3f}, "
        f"sup T(R0) = {verdict.sup_tail_at_r0:.3f}, "
        f"kin ratio {max(kin) / float(np.median(kin)):.2f}, "
        f"{absorb_run['elapsed']:.0f}s",
    )


def test_criterion_8_two_body_contrast():
    points = tb.sweep_two_body(GAUSS, FRAME, np.geomspace(1e-1, 1e-4, 8))
    verdict = t3.spreading_diagnostic([(abs(p.E2), p.r2, p.tail) for p in points])
    exponent = verdict.size_exponent
    report(
        8, "two-body control: size exponent 1 +/- 0.2 and spreading verdict",
        abs(exponent - 1.0) <= 0.2 and verdict.verdict == "spreading-consistent",
        f"exponent {exponent:.3f}, verdict {verdict.verdict}",
    )


def test_criterion_9_decoupled_cross_module():
    lam = 5.0 * tb.critical_coupling(GAUSS, FRAME)
    e2 = tb.twobody_binding_energy(GAUSS, FRAME, lam)
    pots = {(1, 2): GAUSS, (1, 3): zero_potential(), (2, 3): zero_potential()}
    system = ParticleSystem((1.0, 1.0, 1.0), pots, lam)
    basis = t3.grow_basis(system, 80, seed=3)
    e3 = t3.assembler_for(basis, system).solve(lam)[0]
    rel = abs(e3 - e2) / abs(e2)
    report(
        9, "decoupled third particle: variational energy matches the two-body value",
        rel <= 1e-3, f"rel diff {rel:.2e}",
    )


def test_criterion_10_determinism(tmp_path):
    cfg_path = tmp_path / "absorb.cfg"
    cfg_path.write_text(
        "experiment = absorb\nmasses = 1 1 1\nkind = gaussian\nrange = 1.0\n"
        "budget = 40\nsweep_points = 6\nseed = 7\n"
    )
    outputs = []
    for run in ("first", "second"):
        out = tmp_path / run
        code = cli_main(["--config", str(cfg_path), "--out", str(out), "--quiet"])
        assert code == 0
        outputs.append({
            name: (out / name).read_bytes()
            for name in ("absorb_control.csv", "absorb_three.csv", "absorb_plot.dat")
        })
    identical = outputs[0] == outputs[1]
    report(
        10, "absorb reruns with identical config+seed are byte-identical",
        identical,
    )
