"""Command-line experiment driver with machine-readable outputs.

Experiments are described by a line-oriented ``key = value`` config file;
every run is deterministic given the config and seed, and every output
file embeds the config hash and the seed.  Exit codes: 0 success,
1 numerical failure, 2 config failure (a key the experiment does not
read, a bad value or an R6 violation), 3 hypothesis violation (a sweep
crossing the two-body critical coupling).
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
from .errors import (ConfigError, DegenerateInputError, HypothesisError, ThresholdLabError,
                     ValidationError)
from .model import PAIRS, POTENTIAL_KINDS, PairPotential, ParticleSystem, jacobi_frame

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2
EXIT_HYPOTHESIS = 3

# The options each experiment reads, as name -> (default, least value).  An
# option takes the type of its least value: an integer must be at least it,
# a float must lie above it.  The spreading diagnostic needs 4 sweep points,
# a grid or a sample set 1; critical_coupling_3body splits the basis budget
# over REFINE_STAGES + 1 growth stages, each of at least one form.
_THREE_BODY = {"budget": (150, t3.REFINE_STAGES + 1), "sweep_points": (10, 4)}
OPTIONS = {
    "two_critical": {},
    "two_sweep": {"sweep_points": (9, 4)},
    "ops_audit": {"z_points": (20, 1), "p_points": (32, 1)},
    "ims_audit": {"samples": (100000, 1)},
    "three_sweep": _THREE_BODY,
    "absorb": _THREE_BODY,
}
# the fixed sweep protocol: absorb's two-body control points, and the
# three-body sweep offsets above lambda_cr, largest first, in units of lambda*
CONTROL_POINTS = 8
SWEEP_OFFSETS = (3e-2, 2e-5)
EXPERIMENTS = tuple(OPTIONS)
# keys every experiment accepts: the system, the seed and the output directory
_POTENTIAL_KEYS = ("kind", "range", "table")
COMMON_KEYS = {"experiment", "masses", "lambda", "lambda_factor", "seed", "out",
               *_POTENTIAL_KEYS,
               *(f"potential.{i}{j}.{k}" for i, j in PAIRS for k in _POTENTIAL_KEYS)}


@dataclass
class ExperimentConfig:
    experiment: str
    system: ParticleSystem
    seed: int
    budget: int | None              # the three-body experiments only
    out_dir: Path
    quiet: bool
    config_hash: str
    lambda_factor: float | None
    options: dict = field(default_factory=dict)   # the row's options but budget


def parse_keyvalues(text: str) -> dict:
    """Parse the lab's line-oriented ``key = value`` format."""
    out = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in out:
            raise ConfigError(f"line {ln}: key {key!r} is set twice", key=key)
        out[key] = value
    return out


def _number(text: str, key: str, least=None):
    """``text`` as a finite number: an integer at least ``least`` when that is
    an integer, else a float above ``least`` (any float when it is None)."""
    kind = int if isinstance(least, int) else float
    try:
        value = kind(text)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"key {key!r} is not {what}: {text!r}", key=key) from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r} must be finite: {text!r}", key=key)
    if least is not None and (value < least if kind is int else value <= least):
        bound = "at least" if kind is int else "above"
        raise ConfigError(f"key {key!r} must be {bound} {least}: {text!r}", key=key)
    return value


def _take(kv: dict, key: str, default, least):
    return _number(kv[key], key, least) if key in kv else default


def potential_from_keyvalues(kv: dict, prefix: str = "") -> PairPotential:
    """Pair potential from the ``kind``/``range``/``table`` values of a config;
    a table beside a kind that is not tabulated is refused by PairPotential."""
    kind = kv[prefix + "kind"]
    if kind not in POTENTIAL_KINDS:
        raise ConfigError(f"unknown potential kind {kind!r}; choose from {POTENTIAL_KINDS}",
                          key=prefix + "kind")
    range_ = _number(kv[prefix + "range"], prefix + "range", 0.0)
    key = prefix + "table"
    table = None
    if kind == "tabulated" or key in kv:
        table = tuple((_number(r, key), _number(v, key))
                      for r, _, v in (item.partition(":") for item in kv[key].split()))
    return PairPotential(kind, range_, table=table)


def load_config(text: str, seed_override=None, out_override=None,
                quiet=False) -> ExperimentConfig:
    """The experiment a config text describes, with every option of its row
    filled in; ConfigError names the key at fault."""
    kv = parse_keyvalues(text)
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
    row = OPTIONS[experiment]
    for key in kv:
        if key not in COMMON_KEYS and key not in row:
            raise ConfigError(f"unknown configuration key {key!r} for experiment "
                              f"{experiment!r}", key=key)

    masses = tuple(_number(m, "masses", 0.0) for m in kv.get("masses", "1 1 1").split())
    if len(masses) != 3:
        raise ConfigError("masses must list exactly three values", key="masses")
    lambda_factor = _take(kv, "lambda_factor", None, 0.0)
    coupling = _take(kv, "lambda", 1.0, 0.0)
    if lambda_factor is not None and "lambda" in kv:
        raise ConfigError("set lambda or lambda_factor, not both", key="lambda_factor")
    seed = _take(kv, "seed", 0, 0)
    options = {key: _take(kv, key, default, least)
               for key, (default, least) in row.items()}

    potentials = {}
    try:
        for pair in PAIRS:
            prefix = f"potential.{pair[0]}{pair[1]}."
            # pairs without their own keys share the flat kind/range/table keys
            if not any(prefix + k in kv for k in _POTENTIAL_KEYS):
                prefix = ""
            potentials[pair] = potential_from_keyvalues(kv, prefix)
    except KeyError as exc:
        raise ConfigError(f"missing potential key {exc.args[0]!r}",
                          key=str(exc.args[0])) from exc
    except ValueError as exc:
        # potential_from_keyvalues checks kind and range: PairPotential refuses a table
        raise ConfigError(f"invalid potential table: {exc}", key=prefix + "table") from exc
    except ValidationError as exc:
        # the paper's standing assumption R6 fails only through a table value
        raise ConfigError(f"tabulated potential violates R6: {exc}",
                          key=prefix + "table") from exc

    try:
        system = ParticleSystem(masses, potentials, coupling)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    semantic = {k: v for k, v in kv.items() if k != "out"}
    canonical = "\n".join(f"{k} = {v}" for k, v in sorted(semantic.items())) + "\n"
    cfg_hash = hashlib.sha256(canonical.encode()).hexdigest()[:16]
    return ExperimentConfig(
        experiment=experiment,
        system=system,
        seed=seed,
        budget=options.pop("budget", None),
        out_dir=Path(kv.get("out", "out")),
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
    writer.writerows(rows)
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
        lines.append(" ".join(map(str, row)))
    path.write_text("\n".join(lines) + "\n")
    return path


def _say(cfg: ExperimentConfig, message: str):
    if not cfg.quiet:
        print(message)


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _resolve_coupling(cfg: ExperimentConfig):
    """The system with lambda_factor applied relative to the smallest pair
    critical coupling, and its R7 margin, which holds every pair's lambda*.
    DegenerateInputError if lambda_factor is set and no pair has attraction."""
    margin = tb.subcriticality_margin(cfg.system)
    if cfg.lambda_factor is None:
        return cfg.system, margin
    if margin.lambda_star == math.inf:
        raise DegenerateInputError(
            "lambda_factor needs a pair with attraction; every pair has lambda* = inf")
    lam = cfg.lambda_factor * margin.lambda_star
    return replace(cfg.system, coupling=lam), replace(margin, coupling=lam)


def run_two_critical(cfg: ExperimentConfig) -> int:
    system, margin = _resolve_coupling(cfg)
    pairs = {}
    for pair in PAIRS:
        lam_star = margin.lambda_stars[pair]
        entry = {"mu0": 1.0 / lam_star, "lambda_star": None,
                 "lambda_star_oracle": None, "oracle_rel_diff": None}
        # a pair with no attraction has no threshold to shoot for
        if lam_star < math.inf:
            oracle = tb.oracle_critical_coupling(system.potential(pair),
                                                 jacobi_frame(system, pair))
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
    """Pair (1, 2) bound at E2 = -kappa^2, kappa from 1e-1 down to 1e-4 of
    alpha / range, each at its coupling 1/mu(kappa), written to ``name``."""
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
                                          cfg.options["sweep_points"])
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
    lam_star = margin.lambda_stars[pair]
    audit = fo.lemma6_uniformity_audit(
        V, frame,
        z_grid=np.geomspace(1.0, 1e-4, cfg.options["z_points"]),
        p_grid=np.geomspace(1e-3, 10.0, cfg.options["p_points"]),
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
        # a pair with no attraction has no threshold: null, as in two_critical
        "lambda_star": lam_star if lam_star < math.inf else None,
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
    # the pair lambda* are solved only to scale lambda_factor
    system = cfg.system if cfg.lambda_factor is None else _resolve_coupling(cfg)[0]
    samples = cfg.options["samples"]
    part = ims.build_partition(system)
    audit = ims.mesh_audit(part, samples)
    decay = ims.gradient_decay_audit(part)
    payload = {
        "experiment": "ims_audit",
        "theta": part.theta,
        "delta": part.delta,
        "samples": samples,
        "partition_defect": audit.partition_defect,
        "measured_cone_constant": audit.cone_constant,
        "cone_passed": audit.cone_passed,
        "gradient_radii": list(decay.radii),
        "gradient_maxima": list(decay.max_grad_sq),
        "gradient_scaling_ok": decay.scaling_ok,
        "gradient_fd_max_rel_diff": decay.fd_max_rel_diff,
        "identity_passed": audit.identity_passed,
        "regroup_defect": audit.regroup_defect,
        "cone_envelope_excess": audit.envelope_excess,
    }
    write_json(cfg, "ims_audit.json", payload)
    write_csv(cfg, "ims_gradient.csv", ["radius", "max_grad_sq"],
              list(zip(decay.radii, decay.max_grad_sq)))
    ok = (audit.cone_passed and audit.identity_passed and decay.scaling_ok
          and decay.fd_max_rel_diff <= 1e-6)
    _say(cfg, f"ims audit: {'all pass' if ok else 'FAILURES PRESENT'} "
              f"(C = {audit.cone_constant:.4f})")
    return EXIT_OK


def _three_body_sweep(cfg: ExperimentConfig, name: str):
    """Bracket lambda_cr, sweep the couplings just above it, write the records to ``name``.

    Returns the bracket, the records, their spreading verdict and the
    summary fields that every three-body JSON carries.  HypothesisError if a
    sweep coupling reaches lambda* (R7); BracketError if one has no bound
    state.
    """
    bracket, asm = t3.critical_coupling_3body(cfg.system, cfg.budget, cfg.seed)
    lam_star = bracket.lambda_star
    offsets = np.geomspace(*SWEEP_OFFSETS, cfg.options["sweep_points"])
    lams = bracket.lambda_cr + offsets * lam_star
    for lam in lams:
        if lam >= lam_star:
            raise HypothesisError(
                f"sweep coupling lambda = {float(lam)!r} reaches the two-body "
                f"critical coupling lambda* = {lam_star!r} (R7)")
    records = t3.sweep_three_body(asm, lams, lam_star)
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
    control_verdict, lam_star = _two_body_control(cfg, "absorb_control.csv",
                                                  CONTROL_POINTS)
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
    except (OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = load_config(text, seed_override=args.seed, out_override=args.out,
                          quiet=args.quiet)
    except ConfigError as exc:
        key = f" (key: {exc.key})" if exc.key else ""
        print(f"config error: {exc}{key}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: {exc} (key: out)", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return RUNNERS[cfg.experiment](cfg)
    except HypothesisError as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (ThresholdLabError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"numerical error: {exc!r}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
