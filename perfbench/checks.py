"""Checks of threshold_lab outputs against references or required properties.

Every checker takes plain parsed outputs and reference values and returns a
list of (name, ok, detail) entries, one per checked output; the benchmark
counts each entry as one operation.  The self-test feeds each checker a
corrupted output to show that it can fail.
"""

from __future__ import annotations

import math

TAIL_ABS_TOL = 1e-3          # tests/test_threebody.py::test_qmc_matches_chi2_convolution
# a bound the biased tails meet today (worst 0.011 on absorb_flagship), so
# that a tail-mass change that loses accuracy fails a check not exempt as known
TAIL_COARSE_TOL = 0.02
BUDGET_ORDER_TOL = 2e-4      # tests/test_threebody.py::test_budget_can_only_lower_estimate
MASS_ABS_TOL = 1e-12         # oracle total mass against c.N.c = 1
ENERGY_REL_TOL = 1e-4
LAMBDA_STAR_REL_TOL = 1e-4
CONSTANT_REL_TOL = 1e-8
PARTITION_TOL = 1e-10

# checks that fail today because of the tail-mass fault named in CHANGES.md
KNOWN_FAULT_PREFIX = "tail_vs_chi2"


def _entry(name, ok, detail=""):
    return (name, bool(ok), detail)


def two_body_energies(label, couplings, energies, oracle_energies):
    """Each E2 against the shooting oracle, to ENERGY_REL_TOL relative."""
    out = []
    for lam, e2, ref in zip(couplings, energies, oracle_energies):
        rel = abs(e2 - ref) / abs(ref)
        out.append(_entry(f"{label}.E2@{lam:.9g}", rel <= ENERGY_REL_TOL,
                          f"E2 {e2!r} oracle {ref!r} rel {rel:.2e}"))
    if len(energies) != len(oracle_energies):
        out.append(_entry(f"{label}.E2_count", False,
                          f"{len(energies)} energies, {len(oracle_energies)} references"))
    return out


def two_body_spreading(label, size_exponent, verdict):
    """The two-body control spreads: <r^2> ~ 1/|E| and the spreading verdict."""
    ok = abs(size_exponent - 1.0) <= 0.2 and verdict == "spreading-consistent"
    return [_entry(f"{label}.spreading", ok,
                   f"exponent {size_exponent!r}, verdict {verdict!r}")]


def three_body_sweep(rows, summary):
    """Absorption sweep: binding, monotone E3, Markov bound, verdict, window.

    ``rows`` carry lambda, E3, rho2 and tail = [(R, T)]; ``summary`` is the
    three_body block of absorb.json.
    """
    out = []
    for r in rows:
        out.append(_entry(f"absorb.E3_negative@{r['lambda']:.9g}", r["E3"] < 0.0,
                          f"E3 {r['E3']!r}"))
    by_coupling = sorted(rows, key=lambda r: -r["lambda"])
    e3 = [r["E3"] for r in by_coupling]
    out.append(_entry("absorb.E3_rises_toward_lambda_cr",
                      all(b > a for a, b in zip(e3, e3[1:])),
                      f"E3 by falling lambda {e3}"))
    for r in rows:
        excess = max(T - r["rho2"] / (R * R) for R, T in r["tail"])
        out.append(_entry(f"absorb.markov@{r['lambda']:.9g}", excess <= 1e-12,
                          f"max T(R) - <rho^2>/R^2 = {excess:.3e}"))
    sup = summary["sup_tail_at_r0"]
    out.append(_entry("absorb.non_spreading",
                      summary["verdict"] == "non-spreading-consistent"
                      and sup is not None and sup <= 0.5,
                      f"verdict {summary['verdict']!r}, sup T(R0) {sup!r}"))
    lo, hi = summary["bracket"]
    out.append(_entry("absorb.borromean_window",
                      lo < summary["lambda_cr"] < hi < summary["lambda_star"],
                      f"{lo!r} < {summary['lambda_cr']!r} < {hi!r} < "
                      f"{summary['lambda_star']!r}"))
    return out


def tails_against_oracle(rows, oracle_rows):
    """Program tail masses against the chi^2 oracle, three entries per sweep point.

    ``oracle_rows`` holds, per point, (total mass, [(R, T)]) from TailOracle.
    The tails are checked twice: to TAIL_ABS_TOL, which fails today (the known
    fault), and to TAIL_COARSE_TOL, which must pass.
    """
    out = []
    for r, (total, ref) in zip(rows, oracle_rows):
        worst = max(abs(T - dict(ref)[R]) for R, T in r["tail"])
        out.append(_entry(f"{KNOWN_FAULT_PREFIX}@{r['lambda']:.9g}", worst <= TAIL_ABS_TOL,
                          f"max |T_program - T_chi2| = {worst:.4f}; program "
                          f"{[round(T, 4) for _, T in r['tail']]} chi2 "
                          f"{[round(T, 4) for _, T in ref]}"))
        out.append(_entry(f"tail_near_chi2@{r['lambda']:.9g}", worst <= TAIL_COARSE_TOL,
                          f"max |T_program - T_chi2| = {worst:.4f} > {TAIL_COARSE_TOL}"))
        out.append(_entry(f"tail_oracle_mass@{r['lambda']:.9g}",
                          abs(total - 1.0) <= MASS_ABS_TOL,
                          f"oracle mass - c.N.c = {total - 1.0:.2e}"))
    if len(rows) != len(oracle_rows):
        out.append(_entry("tail_oracle_count", False,
                          f"{len(rows)} sweep rows, {len(oracle_rows)} tail calls"))
    return out


def two_critical(label, payload, exact):
    """lambda* of every pair against the analytic threshold."""
    worst = max(abs(p["lambda_star"] - exact) / exact for p in payload["pairs"].values())
    return [_entry(f"{label}.lambda_star", worst <= LAMBDA_STAR_REL_TOL,
                   f"max rel error {worst:.2e} against {exact!r}")]


def ops_audit(payload, fibers, c_exact):
    """Certificate constants, every fiber norm and the HS certificates.

    ``fibers`` holds (z, p, |K1|, |K2|) for every audited fiber; the bounds
    sqrt(c c' c'') and sqrt(c c') use c in closed form, c' = 2 pi, c'' = 1.
    """
    const = payload["constants"]
    out = [
        _entry("ops.c", abs(const["c"] - c_exact) <= CONSTANT_REL_TOL * c_exact,
               f"c {const['c']!r} closed form {c_exact!r}"),
        _entry("ops.c_prime", abs(const["c_prime"] - 2.0 * math.pi) <= CONSTANT_REL_TOL,
               f"c' {const['c_prime']!r}"),
        _entry("ops.c_dprime", abs(const["c_dprime"] - 1.0) <= CONSTANT_REL_TOL,
               f"c'' {const['c_dprime']!r}"),
    ]
    c_prime, c_dprime = 2.0 * math.pi, 1.0
    k1_bound = math.sqrt(c_exact * c_prime * c_dprime)
    k2_bound = math.sqrt(c_exact * c_prime)
    for z, p, n1, n2 in fibers:
        out.append(_entry(f"ops.fiber@z={z:.3g},p={p:.3g}",
                          n1 <= k1_bound and n2 <= k2_bound,
                          f"|K1| {n1!r} <= {k1_bound!r}, |K2| {n2!r} <= {k2_bound!r}"))
    hs_bound = const["c"] * const["c_prime"] * const["c_tilde"] / (2.0 ** 5 * math.pi ** 4)
    for h in payload["hs_certificates"]:
        out.append(_entry(f"ops.hs@z={h['z']:g}", h["hs_norm_sq"] <= hs_bound,
                          f"|K2|_HS^2 {h['hs_norm_sq']!r} <= {hs_bound!r}"))
    return out


def ims_audit(payload):
    """Partition of unity and the support cone |r_i - r_s| >= theta |q|."""
    theta = payload["theta"]
    return [
        _entry("ims.partition_defect", payload["partition_defect"] <= PARTITION_TOL,
               f"max |sum J^2 - 1| = {payload['partition_defect']!r}"),
        _entry("ims.support_cone",
               payload["cone_passed"] and payload["measured_cone_constant"] >= theta,
               f"measured C {payload['measured_cone_constant']!r}, theta {theta!r}"),
    ]


def lambda_cr_scan(scans, oracle_lambda_star):
    """Brackets of the three-body critical coupling, and their budget order.

    ``scans`` holds kind, budget, lambda_cr, lam_lo, lam_hi and lambda_star
    per scan; ``oracle_lambda_star`` maps kind to the shooting-oracle value.
    A larger budget of the same kind may raise lambda_cr by at most
    BUDGET_ORDER_TOL lambda*.
    """
    out = []
    for s in scans:
        tag = f"{s['kind']}@{s['budget']}"
        ref = oracle_lambda_star[s["kind"]]
        rel = abs(s["lambda_star"] - ref) / ref
        out.append(_entry(f"lambda_cr.lambda_star.{tag}", rel <= LAMBDA_STAR_REL_TOL,
                          f"lambda* {s['lambda_star']!r} oracle {ref!r} rel {rel:.2e}"))
        out.append(_entry(f"lambda_cr.order.{tag}",
                          s["lam_lo"] < s["lambda_cr"] < s["lam_hi"] < s["lambda_star"],
                          f"{s['lam_lo']!r} < {s['lambda_cr']!r} < {s['lam_hi']!r} < "
                          f"{s['lambda_star']!r}"))
        width = s["lam_hi"] - s["lam_lo"]
        out.append(_entry(f"lambda_cr.width.{tag}", width <= 1e-4 * s["lambda_star"],
                          f"width {width:.3e}, lambda* {s['lambda_star']!r}"))
    for kind in sorted({s["kind"] for s in scans}):
        ladder = sorted((s for s in scans if s["kind"] == kind), key=lambda s: s["budget"])
        for small, large in zip(ladder, ladder[1:]):
            rise = (large["lambda_cr"] - small["lambda_cr"]) / large["lambda_star"]
            out.append(_entry(f"lambda_cr.budget_order.{kind}@{large['budget']}",
                              rise <= BUDGET_ORDER_TOL,
                              f"lambda_cr {small['lambda_cr']!r} at {small['budget']}, "
                              f"{large['lambda_cr']!r} at {large['budget']}: "
                              f"rise {rise:.2e} lambda*"))
    return out
