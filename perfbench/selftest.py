"""Self-test of the benchmark: every checker fails on a corrupted output.

    python3 perfbench/selftest.py

Each checker first passes on a valid output, then must fail once one value
of it is corrupted.  The oracles are checked against the package on small
cases: the chi^2 tail oracle gives T(0) = 1 and total mass c.N.c, and the
vectorized shooting oracle matches the package's own shooting oracle.
Takes about ten seconds.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from oracles import TailOracle, shooting_ground_energies  # noqa: E402

from threshold_lab import threebody as t3  # noqa: E402
from threshold_lab import twobody as tb  # noqa: E402
from threshold_lab.model import PairPotential, jacobi_frame, uniform_system  # noqa: E402

GAUSS = PairPotential("gaussian", 1.0)
FRAME = jacobi_frame(uniform_system("gaussian", 1.0, 1.0), (1, 2))


def require(condition, message):
    if not condition:
        raise AssertionError(message)


def passes(entries, label):
    bad = [e for e in entries if not e[1]]
    require(entries and not bad, f"{label}: valid output rejected: {bad}")


def fails(entries, label):
    require(any(not ok for _, ok, _ in entries), f"{label}: corrupted output accepted")
    print(f"ok  {label} fails when corrupted")


def only(entries, prefix):
    return [e for e in entries if e[0].startswith(prefix)]


def corrupt(value, edit):
    value = copy.deepcopy(value)
    edit(value)
    return value


def tail_oracle(lam_star):
    system = uniform_system("gaussian", 1.0, 0.9 * lam_star)
    asm = t3.assembler_for(t3.grow_basis(system, 8, seed=3), system)
    _, c = asm.solve(system.coupling)
    radii = (0.0, 2.0, 6.0, 12.0)
    oracle = TailOracle(asm.forms, asm.scale, radii)
    require(abs(oracle.total_mass(c) - float(c @ asm.N @ c)) <= 1e-12, "oracle mass")
    require(abs(dict(oracle.tails(c))[0.0] - 1.0) <= 1e-14, "oracle T(0)")
    print("ok  chi2 oracle: T(0) = 1 and total mass = c.N.c")
    program = t3.tail_masses(asm, c, radii[1:], seed=3)
    rows = [{"lambda": system.coupling, "tail": program}]
    ref = [(oracle.total_mass(c), oracle.tails(c))]
    passes(checks.tails_against_oracle(rows, ref), "tail masses at n = 8")
    fails(checks.tails_against_oracle(
        corrupt(rows, lambda r: r[0].update(tail=[(R, T + 0.01) for R, T in r[0]["tail"]])),
        ref), "tail column shifted by 0.01")
    fails(only(checks.tails_against_oracle(
        corrupt(rows, lambda r: r[0].update(tail=[(R, T + 0.03) for R, T in r[0]["tail"]])),
        ref), "tail_near_chi2"), "tail column shifted by 0.03 (coarse check)")


def energies(lam_star):
    lams = [1.01 * lam_star, 1.1 * lam_star]
    require(FRAME.alpha == 1.0, f"unit masses give alpha = 1, not {FRAME.alpha!r}")
    ref = shooting_ground_energies(lams)
    package_oracle = tb.oracle_binding_energy(GAUSS, FRAME, lams[0])
    require(abs(ref[0] - package_oracle) <= 1e-5 * abs(ref[0]),
            f"shooting oracles disagree: {ref[0]!r} vs {package_oracle!r}")
    program = [tb.twobody_binding_energy(GAUSS, FRAME, lam) for lam in lams]
    passes(checks.two_body_energies("E2", lams, program, ref), "E2")
    print("ok  shooting oracle matches the package's oracle_binding_energy")
    fails(checks.two_body_energies("E2", lams, [program[0] * (1 + 1e-3), program[1]], ref),
          "E2 off by 1e-3")
    passes(checks.two_body_spreading("c", 1.0, "spreading-consistent"), "spreading")
    fails(checks.two_body_spreading("c", 1.3, "spreading-consistent"), "size exponent 1.3")
    fails(checks.two_body_spreading("c", 1.0, "inconclusive"), "two-body verdict")


def sweep():
    rows = [{"lambda": 2.2 - 0.02 * i, "E3": -1e-2 / 10 ** i, "rho2": 20.0,
             "tail": [(1.0, 0.99), (8.0, 0.3)]} for i in range(4)]
    summary = {"verdict": "non-spreading-consistent", "sup_tail_at_r0": 0.35,
               "bracket": [2.1337, 2.1338], "lambda_cr": 2.13375, "lambda_star": 2.684}
    passes(checks.three_body_sweep(rows, summary), "sweep")
    fails(checks.three_body_sweep(corrupt(rows, lambda r: r[2].update(E3=1e-6)), summary),
          "E3 > 0")
    fails(checks.three_body_sweep(corrupt(rows, lambda r: r[1].update(E3=-1.0)), summary),
          "E3 not rising toward lambda_cr")
    fails(checks.three_body_sweep(corrupt(rows, lambda r: r[0].update(rho2=1.0)), summary),
          "T(R) above <rho^2>/R^2")
    fails(checks.three_body_sweep(rows, corrupt(summary, lambda s: s.update(
        verdict="inconclusive"))), "three-body verdict")
    fails(checks.three_body_sweep(rows, corrupt(summary, lambda s: s.update(
        sup_tail_at_r0=0.51))), "sup T(R0) > 1/2")
    fails(checks.three_body_sweep(rows, corrupt(summary, lambda s: s.update(
        lambda_cr=2.2))), "lambda_cr outside its bracket")


def audits():
    exact = math.pi ** 2 / 4.0
    payload = {"pairs": {"12": {"lambda_star": exact}, "13": {"lambda_star": exact}}}
    passes(checks.two_critical("w", payload, exact), "two_critical")
    fails(checks.two_critical("w", corrupt(payload, lambda p: p["pairs"]["13"].update(
        lambda_star=exact * (1 + 1e-3))), exact), "lambda* off by 1e-3")

    c = math.pi ** 1.5
    ops = {"constants": {"c": c, "c_prime": 2 * math.pi, "c_dprime": 1.0, "c_tilde": 1.0},
           "hs_certificates": [{"z": 0.1, "hs_norm_sq": 1e-4}]}
    bound = math.sqrt(2 * math.pi * c)
    fibers = [(0.5, 0.1, 0.5 * bound, 0.2 * bound), (1e-4, 1.0, 0.99 * bound, 1e-4)]
    passes(checks.ops_audit(ops, fibers, c), "ops_audit")
    fails(checks.ops_audit(ops, fibers + [(1e-3, 0.01, 1.01 * bound, 0.1)], c),
          "fiber norm above its bound")
    fails(checks.ops_audit(corrupt(ops, lambda p: p["constants"].update(c=1.001 * c)),
                           fibers, c), "c off its closed form")
    fails(checks.ops_audit(corrupt(ops, lambda p: p["constants"].update(c_prime=6.3)),
                           fibers, c), "c' != 2 pi")
    fails(checks.ops_audit(corrupt(ops, lambda p: p["constants"].update(c_dprime=1.001)),
                           fibers, c), "c'' != 1")
    fails(checks.ops_audit(corrupt(ops, lambda p: p["hs_certificates"][0].update(
        hs_norm_sq=1.0)), fibers, c), "HS norm above its certificate")

    ims = {"theta": 0.15, "partition_defect": 1e-15, "cone_passed": True,
           "measured_cone_constant": 0.16}
    passes(checks.ims_audit(ims), "ims_audit")
    fails(checks.ims_audit(corrupt(ims, lambda p: p.update(partition_defect=1e-9))),
          "partition defect 1e-9")
    fails(checks.ims_audit(corrupt(ims, lambda p: p.update(measured_cone_constant=0.1))),
          "support cone below theta")


def scan():
    star = {"gaussian": 2.684, "exponential": 1.4458}
    scans = [{"kind": "gaussian", "budget": b, "lambda_cr": v, "lam_lo": v - 1e-5,
              "lam_hi": v + 1e-5, "lambda_star": 2.684}
             for b, v in ((50, 2.1340), (75, 2.1336), (100, 2.1333))]
    scans.append({"kind": "exponential", "budget": 75, "lambda_cr": 1.166,
                  "lam_lo": 1.16599, "lam_hi": 1.16601, "lambda_star": 1.4458})
    passes(checks.lambda_cr_scan(scans, star), "lambda_cr_scan")
    fails(checks.lambda_cr_scan(scans, dict(star, gaussian=2.684 * (1 + 1e-3))),
          "lambda* off its oracle by 1e-3")
    fails(checks.lambda_cr_scan(corrupt(scans, lambda s: s[1].update(lambda_cr=2.2)), star),
          "lambda_cr outside its bracket")
    fails(checks.lambda_cr_scan(corrupt(scans, lambda s: s[3].update(lam_hi=1.2)), star),
          "bracket wider than 1e-4 lambda*")
    fails(only(checks.lambda_cr_scan(corrupt(scans, lambda s: s[2].update(
        lambda_cr=2.1345, lam_lo=2.13449, lam_hi=2.13451)), star), "lambda_cr.budget_order"),
          "lambda_cr rising 3.4e-4 lambda* with budget")


def main() -> int:
    lam_star = tb.critical_coupling(GAUSS, FRAME)
    tail_oracle(lam_star)
    energies(lam_star)
    sweep()
    audits()
    scan()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
