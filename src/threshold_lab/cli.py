"""Command-line experiment driver with machine-readable outputs.

Experiments are described by a line-oriented ``key = value`` config file;
every run is deterministic given the config and seed, and every output
file embeds the config hash and the seed.  Exit codes: 0 success,
1 numerical failure, 2 config failure (an unknown key, a bad value or an
R6 violation), 3 hypothesis violation (a sweep crossing the two-body
critical coupling).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import faddeev_ops as fo
from . import ims
from . import threebody as t3
from . import twobody as tb
from .errors import (AccuracyError, ConfigError, HypothesisError, ThresholdLabError,
                     ValidationError)
from .model import (
    PAIRS,
    ParticleSystem,
    jacobi_frame,
    parse_keyvalues,
    potential_from_keyvalues,
    validate_r6,
)

EXPERIMENTS = ("two_critical", "two_sweep", "ops_audit", "ims_audit",
               "three_sweep", "absorb")

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3

# integer options and their least values: the spreading diagnostic needs 4
# sweep points, a grid or a sample set 1
INT_OPTIONS = {"sweep_points": 4, "control_points": 4, "z_points": 1, "p_points": 1,
               "samples": 1}
# positive options: the sweep offsets above lambda_cr, in units of lambda*
POSITIVE_OPTIONS = ("offsets_max", "offsets_min")


@dataclass
class ExperimentConfig:
    experiment: str
    system: ParticleSystem
    seed: int
    budget: int
    out_dir: Path
    quiet: bool
    config_hash: str
    lambda_factor: float | None
    options: dict = field(default_factory=dict)   # parsed option values


def _canonical_text(kv: dict) -> str:
    return "\n".join(f"{k} = {v}" for k, v in sorted(kv.items())) + "\n"


def load_config(text: str, seed_override=None, out_override=None,
                quiet=False) -> ExperimentConfig:
    try:
        kv = parse_keyvalues(text)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc
    if "experiment" not in kv:
        raise ConfigError("missing required key", key="experiment")
    experiment = kv["experiment"]
    if experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {EXPERIMENTS}",
            key="experiment",
        )
    if seed_override is not None:
        kv["seed"] = str(seed_override)
    if out_override is not None:
        kv["out"] = str(out_override)

    def take_float(key, default=None):
        if key not in kv:
            if default is None:
                raise ConfigError("missing required key", key=key)
            return default
        try:
            return float(kv[key])
        except ValueError as exc:
            raise ConfigError(f"key {key!r} is not a number: {kv[key]!r}", key=key) from exc

    def take_int(key, default, least=None):
        if key not in kv:
            return default
        try:
            value = int(kv[key])
        except ValueError as exc:
            raise ConfigError(f"key {key!r} is not an integer: {kv[key]!r}", key=key) from exc
        if least is not None and value < least:
            raise ConfigError(f"key {key!r} must be at least {least}: {kv[key]!r}", key=key)
        return value

    masses_text = kv.get("masses", "1 1 1")
    try:
        masses = tuple(float(m) for m in masses_text.split())
    except ValueError as exc:
        raise ConfigError(f"masses must be three numbers: {masses_text!r}",
                          key="masses") from exc
    if len(masses) != 3:
        raise ConfigError("masses must list exactly three values", key="masses")

    lambda_factor = None
    if "lambda_factor" in kv:
        lambda_factor = take_float("lambda_factor")
        coupling = 1.0  # replaced after the critical coupling is known
    else:
        coupling = take_float("lambda", 1.0)

    potentials = {}
    try:
        for pair in PAIRS:
            prefix = f"potential.{pair[0]}{pair[1]}."
            # pairs without their own keys share the flat kind/range/table keys
            potentials[pair] = potential_from_keyvalues(
                kv, prefix if prefix + "kind" in kv else "")
    except KeyError as exc:
        raise ConfigError(f"missing potential key {exc.args[0]!r}",
                          key=str(exc.args[0])) from exc
    except (ValueError, ValidationError) as exc:
        raise ConfigError(f"invalid potential specification: {exc}") from exc

    try:
        system = ParticleSystem(masses, potentials, coupling)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    seed = take_int("seed", 0)
    budget = take_int("budget", 150)
    out_dir = Path(kv.get("out", "out"))
    known = {"experiment", "masses", "lambda", "lambda_factor", "seed", "budget",
             "out", "kind", "range", "table"}
    options = {}
    for k in kv:
        if k in known or k.startswith("potential."):
            continue
        if k in INT_OPTIONS:
            options[k] = take_int(k, None, INT_OPTIONS[k])
        elif k in POSITIVE_OPTIONS:
            options[k] = take_float(k)
            if not options[k] > 0.0:
                raise ConfigError(f"key {k!r} must be positive: {kv[k]!r}", key=k)
        else:
            raise ConfigError(f"unknown configuration key {k!r}", key=k)
    # the paper's standing assumption R6: V >= 0, V in L1 and L2, V <= F
    for pot in dict.fromkeys(potentials.values()):
        report = validate_r6(pot)
        if not report.passed:
            raise ConfigError(f"{pot.kind} potential violates R6: "
                              + "; ".join(report.failures))
    semantic = {k: v for k, v in kv.items() if k != "out"}
    cfg_hash = hashlib.sha256(_canonical_text(semantic).encode()).hexdigest()[:16]
    return ExperimentConfig(
        experiment=experiment,
        system=system,
        seed=seed,
        budget=budget,
        out_dir=out_dir,
        quiet=quiet,
        config_hash=cfg_hash,
        lambda_factor=lambda_factor,
        options=options,
    )


# ---------------------------------------------------------------------------
# Writers (deterministic byte output)
# ---------------------------------------------------------------------------

def _stamp(cfg: ExperimentConfig) -> str:
    return f"# config_hash={cfg.config_hash} seed={cfg.seed}\n"


def write_csv(cfg: ExperimentConfig, name: str, header, rows) -> Path:
    path = cfg.out_dir / name
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    path.write_text(_stamp(cfg) + buf.getvalue())
    return path


def write_json(cfg: ExperimentConfig, name: str, payload: dict) -> Path:
    path = cfg.out_dir / name
    body = dict(payload)
    body["config_hash"] = cfg.config_hash
    body["seed"] = cfg.seed
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n")
    return path


def write_plot_data(cfg: ExperimentConfig, name: str, columns, rows) -> Path:
    path = cfg.out_dir / name
    lines = [_stamp(cfg).rstrip("\n"), "# " + " ".join(columns)]
    for row in rows:
        lines.append(" ".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _say(cfg: ExperimentConfig, message: str):
    if not cfg.quiet:
        print(message)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _pair_frames(system: ParticleSystem):
    return {pair: jacobi_frame(system, pair) for pair in PAIRS}


def _resolve_coupling(cfg: ExperimentConfig):
    """The system with lambda_factor applied relative to the smallest pair
    critical coupling, and its R7 margin, which holds every pair's lambda*."""
    margin = tb.subcriticality_margin(cfg.system)
    if cfg.lambda_factor is None:
        return cfg.system, margin
    lam = cfg.lambda_factor * min(margin.lambda_stars.values())
    return t3.system_with_coupling(cfg.system, lam), replace(margin, coupling=lam)


def run_two_critical(cfg: ExperimentConfig) -> int:
    system, margin = _resolve_coupling(cfg)
    pairs = {}
    for pair, frame in _pair_frames(system).items():
        lam_star = margin.lambda_stars[pair]
        entry = {"mu0": 1.0 / lam_star, "lambda_star": None,
                 "lambda_star_oracle": None, "oracle_rel_diff": None}
        if lam_star < math.inf:   # a pair with no attraction has no threshold
            oracle = tb.oracle_critical_coupling(system.potential(pair), frame)
            entry.update(lambda_star=lam_star, lambda_star_oracle=oracle,
                         oracle_rel_diff=abs(lam_star - oracle) / oracle)
        pairs[f"{pair[0]}{pair[1]}"] = entry
    payload = {
        "experiment": "two_critical",
        "coupling": system.coupling,
        "pairs": pairs,
        "eps_R7": margin.eps,
        "R7_satisfied": margin.satisfied,
    }
    write_json(cfg, "two_critical.json", payload)
    _say(cfg, "lambda* per pair: " + ", ".join(
        f"{k} {v['lambda_star']:.6f}" if v["lambda_star"] is not None else f"{k} none"
        for k, v in pairs.items()))
    _say(cfg, f"R7 margin eps = {margin.eps:.6g} "
              f"({'satisfied' if margin.satisfied else 'violated'})")
    return EXIT_OK


def _two_body_control(cfg: ExperimentConfig, name: str, n_points: int):
    """Pair (1, 2) at lambda*(1 + g), g from 1e-1 down to 1e-4, written to ``name``."""
    pair = (1, 2)
    points = tb.sweep_two_body(cfg.system.potential(pair), jacobi_frame(cfg.system, pair),
                               np.geomspace(1e-1, 1e-4, n_points))
    write_csv(cfg, name, ["lambda", "mu0", "lambda_star", "E2", "r2", "epsilon_R7"],
              [[p.coupling, 1.0 / p.lambda_star, p.lambda_star, p.E2, p.r2, p.eps_R7]
               for p in points])
    verdict = t3.spreading_diagnostic([(abs(p.E2), p.r2, p.tail) for p in points])
    return verdict, points[0].lambda_star


def run_two_sweep(cfg: ExperimentConfig) -> int:
    verdict, lam_star = _two_body_control(cfg, "two_sweep.csv",
                                          cfg.options.get("sweep_points", 9))
    write_json(cfg, "two_sweep.json", {
        "experiment": "two_sweep",
        "lambda_star": lam_star,
        "size_exponent": verdict.size_exponent,
        "verdict": verdict.verdict,
    })
    _say(cfg, f"two-body sweep: exponent {verdict.size_exponent:.3f}, "
              f"verdict {verdict.verdict}")
    return EXIT_OK


def run_ops_audit(cfg: ExperimentConfig) -> int:
    system, margin = _resolve_coupling(cfg)
    pair = (1, 2)
    V = system.potential(pair)
    frame = jacobi_frame(system, pair)
    z_points = cfg.options.get("z_points", 20)
    p_points = cfg.options.get("p_points", 32)
    audit = fo.lemma6_uniformity_audit(
        V, frame,
        z_grid=np.geomspace(1.0, 1e-4, z_points),
        p_grid=np.geomspace(1e-3, 10.0, p_points),
    )
    constants = audit.constants
    hs = []
    for z in (1.0, 0.5, 0.1, 0.01, 1e-3, 1e-4):
        value = fo.k2_hs_norm_squared_from_constants(constants, z)
        hs.append({"z": z, "hs_norm_sq": value,
                   "bound": constants.hs_bound,
                   "within_bound": bool(value <= constants.hs_bound)})
    contraction = []
    for k in (0.0, 0.25, 0.5, 1.0, 2.0):
        rep = fo.channel_contraction_norm(V, frame, system.coupling, k)
        contraction.append({
            "k": k, "lambda_mu": rep.lambda_mu,
            "neumann_bound": rep.neumann_bound, "violated": rep.violated,
        })
    payload = {
        "experiment": "ops_audit",
        "coupling": system.coupling,
        "lambda_star": margin.lambda_stars[pair],
        "constants": {
            "c": constants.c, "c_prime": constants.c_prime,
            "c_dprime": constants.c_dprime, "c_tilde": constants.c_tilde,
        },
        "fiber_audit": {
            "sup_norm": audit.sup_norm,
            "analytic_bound": audit.analytic_bound,
            "bounded": audit.bounded,
            "continuity_proxy": audit.continuity_proxy,
            "all_k1_within": all(s.k1_within_bound for s in audit.samples),
            "all_k2_within": all(s.k2_within_bound for s in audit.samples),
        },
        "hs_certificates": hs,
        "contraction": contraction,
    }
    write_json(cfg, "ops_audit.json", payload)
    ok = audit.bounded and all(h["within_bound"] for h in hs)
    _say(cfg, f"ops audit: fiber bound {'ok' if audit.bounded else 'FAILED'}, "
              f"HS certificates {'ok' if ok else 'FAILED'}")
    return EXIT_OK


def run_ims_audit(cfg: ExperimentConfig) -> int:
    system, _ = _resolve_coupling(cfg)
    theta, delta = 0.15, 0.05
    samples = cfg.options.get("samples", 100000)
    part = ims.build_partition(system, delta=delta, theta=theta)
    mesh = ims.shell_mesh(samples, seed=cfg.seed + 101)
    j, _ = part.evaluate(mesh, with_gradient=False)
    partition_defect = float(np.max(np.abs(np.sum(j ** 2, axis=1) - 1.0)))
    cone = ims.verify_support_cone(part, mesh)
    radii = [2.0, 4.0, 8.0, 16.0]
    decay = ims.gradient_decay_audit(part, radii, seed=cfg.seed + 7)
    identity = ims.ims_identity_check(system, part, mesh[: min(samples, 20000)])
    payload = {
        "experiment": "ims_audit",
        "theta": theta,
        "delta": delta,
        "samples": samples,
        "partition_defect": partition_defect,
        "measured_cone_constant": cone.measured_c,
        "cone_passed": cone.passed,
        "gradient_radii": list(decay.radii),
        "gradient_maxima": list(decay.max_grad_sq),
        "gradient_scaling_ok": decay.scaling_ok,
        "gradient_fd_max_rel_diff": decay.fd_max_rel_diff,
        "identity_passed": identity.passed,
        "regroup_defect": identity.max_regroup_defect,
        "cone_envelope_excess": identity.max_cone_envelope_excess,
    }
    write_json(cfg, "ims_audit.json", payload)
    write_csv(cfg, "ims_gradient.csv", ["radius", "max_grad_sq"],
              list(zip(decay.radii, decay.max_grad_sq)))
    ok = (partition_defect <= 1e-10 and cone.passed and decay.scaling_ok
          and decay.fd_max_rel_diff <= 1e-6 and identity.passed)
    _say(cfg, f"ims audit: {'all pass' if ok else 'FAILURES PRESENT'} "
              f"(C = {cone.measured_c:.4f})")
    return EXIT_OK


def _three_body_sweep(cfg: ExperimentConfig, name: str):
    """Bracket lambda_cr, sweep the bound records just above it, write them to ``name``.

    Returns the bracket, the records, their spreading verdict and the
    summary fields that every three-body JSON carries.  HypothesisError if a
    sweep coupling reaches lambda* (R7).
    """
    system = cfg.system
    bracket, asm = t3.critical_coupling_3body(system, cfg.budget, cfg.seed)
    lam_star = bracket.lambda_star
    offsets = np.geomspace(cfg.options.get("offsets_max", 3e-2),
                           cfg.options.get("offsets_min", 2e-5),
                           cfg.options.get("sweep_points", 10))
    lams = bracket.lambda_cr + offsets * lam_star
    for lam in lams:
        if lam >= lam_star:
            raise HypothesisError(
                f"sweep coupling lambda = {float(lam)!r} reaches the two-body "
                f"critical coupling lambda* = {lam_star!r} (R7)")
    records = [r for r in t3.sweep_three_body(system, lams, asm, lam_star)
               if r.bound]
    if len(records) < 4:
        raise AccuracyError(
            "three-body sweep produced fewer than 4 bound points; "
            "widen the offsets or raise the budget"
        )
    write_csv(cfg, name,
              ["lambda", "E3", "k", "r2_x", "r2_y", "rho2", "eps_R7", "kinetic_norm"]
              + [f"T_{R:g}" for R, _ in records[0].tail],
              [[r.coupling, r.E3, r.k, r.r2_x, r.r2_y, r.rho2, r.eps_R7, r.kinetic_norm]
               + [t for _, t in r.tail] for r in records])
    verdict = t3.spreading_diagnostic([(abs(r.E3), r.rho2, r.tail) for r in records])
    summary = {
        "lambda_cr": bracket.lambda_cr,
        "bracket": [bracket.lam_lo, bracket.lam_hi],
        "cond_N": bracket.cond_N,
        "dropped_directions": bracket.dropped_directions,
        "lambda_star": lam_star,
        "verdict": verdict.verdict,
        "size_exponent": verdict.size_exponent,
    }
    return bracket, records, verdict, summary


def run_three_sweep(cfg: ExperimentConfig) -> int:
    bracket, _, verdict, summary = _three_body_sweep(cfg, "three_sweep.csv")
    write_json(cfg, "three_sweep.json", {"experiment": "three_sweep", **summary})
    _say(cfg, f"three-body sweep: lambda_cr = {bracket.lambda_cr:.6f}, "
              f"verdict {verdict.verdict}")
    return EXIT_OK


def run_absorb(cfg: ExperimentConfig) -> int:
    control_verdict, lam_star = _two_body_control(
        cfg, "absorb_control.csv", cfg.options.get("control_points", 8))
    bracket, records, verdict, summary = _three_body_sweep(cfg, "absorb_three.csv")
    lam_star3 = bracket.lambda_star
    kin = [r.kinetic_norm for r in records]
    kin_ratio = max(kin) / float(np.median(kin))
    r0 = verdict.r0 if verdict.r0 is not None else records[0].tail[-1][0]
    r0_index = [R for R, _ in records[0].tail].index(r0)
    plot_rows = [[abs(r.E3), r.rho2, r.tail[r0_index][1]] for r in records]
    write_plot_data(cfg, "absorb_plot.dat", ["absE", "rho2", f"T_{r0:g}"], plot_rows)

    payload = {
        "experiment": "absorb",
        "two_body": {
            "lambda_star": lam_star,
            "size_exponent": control_verdict.size_exponent,
            "verdict": control_verdict.verdict,
        },
        "three_body": {
            **summary,
            "bracket_width_rel": (bracket.lam_hi - bracket.lam_lo) / lam_star3,
            "window_nonempty": bool(bracket.lambda_cr < lam_star3),
            "r0": verdict.r0,
            "sup_tail_at_r0": verdict.sup_tail_at_r0,
            "rho2_ratio_last_decade": verdict.rho2_ratio_last_decade,
            "kinetic_max_over_median": kin_ratio,
            "min_eps_R7": min(r.eps_R7 for r in records),
        },
    }
    write_json(cfg, "absorb.json", payload)
    _say(cfg, f"absorb: lambda_cr/lambda* = {bracket.lambda_cr / lam_star3:.4f}, "
              f"three-body {verdict.verdict}, two-body {control_verdict.verdict} "
              f"(exponent {control_verdict.size_exponent:.2f})")
    return EXIT_OK


RUNNERS = {
    "two_critical": run_two_critical,
    "two_sweep": run_two_sweep,
    "ops_audit": run_ops_audit,
    "ims_audit": run_ims_audit,
    "three_sweep": run_three_sweep,
    "absorb": run_absorb,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="threshold-lab",
        description="Experiment driver for the three-body threshold laboratory",
    )
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config(text, seed_override=args.seed, out_override=args.out,
                          quiet=args.quiet)
    except ConfigError as exc:
        key = f" (key: {exc.key})" if exc.key else ""
        print(f"config error: {exc}{key}", file=sys.stderr)
        return EXIT_CONFIG

    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return RUNNERS[cfg.experiment](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HypothesisError as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ThresholdLabError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical error: {exc!r}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
