"""The three benchmark workloads: inputs, one round of work, and its checks.

A workload builds its inputs once (``__init__``, timed as set-up), then runs
whole rounds (``run``) that each call the package's public entry points and
write into a fresh output directory, and checks a round's outputs
(``check``).  The reasons for each workload are in README.md.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from contextlib import contextmanager
from pathlib import Path

import threshold_lab
from threshold_lab import cli
from threshold_lab import faddeev_ops
from threshold_lab import threebody
from threshold_lab import twobody

import checks
from oracles import TailOracle, shooting_ground_energies

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def with_keys(text: str, **values) -> str:
    """Config text with ``key = value`` lines replaced or appended."""
    for key, value in values.items():
        line = f"{key} = {value}"
        text, hits = re.subn(rf"(?m)^{re.escape(key)}\s*=.*$", line, text)
        if not hits:
            text = text.rstrip("\n") + "\n" + line + "\n"
    return text


def cache_resetters():
    """Callables that empty the package's in-process caches.

    Collected before tracing wraps the cached functions.  Every round starts
    from empty caches, as a fresh ``threshold-lab`` process does.
    """
    out = []
    for name, mod in list(sys.modules.items()):
        if name == "threshold_lab" or name.startswith("threshold_lab."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    out.append(obj.cache_clear)
    rules = getattr(sys.modules.get("threshold_lab.quadrature"), "_CACHE", None)
    if isinstance(rules, dict):
        out.append(rules.clear)
    return out


@contextmanager
def recording(module, attr):
    """Record (args, result) of every call of ``module.attr`` in the block."""
    fn = getattr(module, attr)
    calls = []

    def record(*args, **kwargs):
        result = fn(*args, **kwargs)
        calls.append((args, result))
        return result

    setattr(module, attr, record)
    try:
        yield calls
    finally:
        setattr(module, attr, fn)


def read_csv(path: Path):
    lines = path.read_text().splitlines()[1:]          # drop the hash stamp
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(lines)]


def read_json(path: Path):
    return json.loads(path.read_text())


def cli_run(config: Path, out: Path, *extra) -> int:
    return cli.main(["--config", str(config), "--out", str(out), "--quiet", *extra])


class Workload:
    name = ""

    def __init__(self, seed: int, tmp: Path):
        self.tmp = tmp
        self._refs = {}

    def _ref(self, key, compute):
        """Reference values are computed once per run and reused by every round."""
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def _config(self, name: str, text: str) -> Path:
        cli.load_config(text)                          # parse as the CLI will
        path = self.tmp / name
        path.write_text(text)
        return path

    def _energies(self, couplings):
        """Shooting-oracle E2 of the unit Gaussian pair at each coupling."""
        return self._ref(("E2", tuple(couplings)),
                         lambda: shooting_ground_energies(couplings))


class AbsorbFlagship(Workload):
    """The absorb experiment, fixed to the shipped seed 7."""

    name = "absorb_flagship"
    budget = 40
    sweep_points = 4

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        text = (CONFIGS / "absorb_gaussian.cfg").read_text()
        self.config = self._config("absorb.cfg", with_keys(
            text, budget=self.budget, sweep_points=self.sweep_points))

    def run(self, out: Path):
        with recording(threebody, "tail_masses") as calls:
            rc = cli_run(self.config, out)
        states = [(args[0].forms.copy(), args[0].scale.copy(), args[1].copy())
                  for args, _ in calls]
        return {"rc": [rc], "states": states}

    def check(self, out: Path, result):
        payload = read_json(out / "absorb.json")
        control = read_csv(out / "absorb_control.csv")
        couplings = [r["lambda"] for r in control]
        found = checks.two_body_energies(
            "absorb.control", couplings, [r["E2"] for r in control],
            self._energies(couplings))
        found += checks.two_body_spreading(
            "absorb.control", payload["two_body"]["size_exponent"],
            payload["two_body"]["verdict"])
        rows = []
        for r in read_csv(out / "absorb_three.csv"):
            tail = [(float(k[2:]), v) for k, v in r.items() if k.startswith("T_")]
            rows.append({"lambda": r["lambda"], "E3": r["E3"], "rho2": r["rho2"],
                         "tail": tail})
        found += checks.three_body_sweep(rows, payload["three_body"])
        radii = [R for R, _ in rows[0]["tail"]]
        oracle_rows = []
        for forms, scale, c in result["states"]:
            oracle = self._ref(("tails", forms.tobytes(), scale.tobytes()),
                               lambda: TailOracle(forms, scale, radii))
            oracle_rows.append((oracle.total_mass(c), oracle.tails(c)))
        found += checks.tails_against_oracle(rows, oracle_rows)
        return found


class LambdaCrScan(Workload):
    """critical_coupling_3body at several budgets, grown from the shipped seed 7.

    The growth seed is fixed, as in tests/test_threebody.py, because the
    budget-order check holds for some growth seeds and not for others.
    """

    name = "lambda_cr_scan"
    scans = (("gaussian", 50), ("gaussian", 75), ("gaussian", 100), ("exponential", 75))
    growth_seed = 7

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.configs = []
        for kind, budget in self.scans:
            text = (f"experiment = three_sweep\nmasses = 1 1 1\nkind = {kind}\n"
                    f"range = 1.0\nlambda_factor = 0.9\nbudget = {budget}\n"
                    f"seed = {self.growth_seed}\n")
            self.configs.append((kind, cli.load_config(text)))

    def run(self, out: Path):
        for kind, cfg in self.configs:
            cfg.out_dir = out
            margin = twobody.subcriticality_margin(cfg.system)
            bracket, _ = threshold_lab.critical_coupling_3body(
                cfg.system, cfg.budget, cfg.seed)
            cli.write_json(cfg, f"lambda_cr_{kind}_{cfg.budget}.json", {
                "kind": kind,
                "budget": cfg.budget,
                "lambda_cr": bracket.lambda_cr,
                "lam_lo": bracket.lam_lo,
                "lam_hi": bracket.lam_hi,
                "lambda_star": min(margin.lambda_stars.values()),
            })
        return {"rc": [0]}

    def check(self, out: Path, result):
        scans = [read_json(out / f"lambda_cr_{kind}_{cfg.budget}.json")
                 for kind, cfg in self.configs]
        oracle = {kind: self._ref(("lambda*", kind), lambda cfg=cfg: (
                      twobody.oracle_critical_coupling(
                          cfg.system.potential((1, 2)),
                          threshold_lab.jacobi_frame(cfg.system, (1, 2)))))
                  for kind, cfg in self.configs}
        return checks.lambda_cr_scan(scans, oracle)


class OperatorAudits(Workload):
    """The two-body and operator audits of the CLI, on enlarged inputs."""

    name = "operator_audits"
    experiments = (
        ("two_critical_square_well", {}),
        ("two_critical_exponential", {}),
        ("two_sweep_gaussian", {"sweep_points": 17}),
        ("ops_audit_gaussian", {"z_points": 30, "p_points": 48}),
        ("ims_audit_gaussian", {"samples": 300000}),
    )

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.configs = []
        for name, keys in self.experiments:
            text = with_keys((CONFIGS / f"{name}.cfg").read_text(), seed=seed, **keys)
            self.configs.append((name, self._config(f"{name}.cfg", text)))

    def run(self, out: Path):
        rcs = []
        with recording(faddeev_ops, "lemma6_uniformity_audit") as audits:
            for name, config in self.configs:
                rcs.append(cli_run(config, out / name))
        fibers = [(s.z, s.p, s.norm_k1, s.norm_k2)
                  for _, audit in audits for s in audit.samples]
        return {"rc": rcs, "fibers": fibers}

    def check(self, out: Path, result):
        found = checks.two_critical(
            "two_critical.square_well",
            read_json(out / "two_critical_square_well" / "two_critical.json"),
            math.pi ** 2 / 4.0)
        j01 = 2.404825557695773          # first zero of J0
        found += checks.two_critical(
            "two_critical.exponential",
            read_json(out / "two_critical_exponential" / "two_critical.json"),
            j01 ** 2 / 4.0)
        sweep = read_csv(out / "two_sweep_gaussian" / "two_sweep.csv")
        couplings = [r["lambda"] for r in sweep]
        found += checks.two_body_energies(
            "two_sweep", couplings, [r["E2"] for r in sweep],
            self._energies(couplings))
        summary = read_json(out / "two_sweep_gaussian" / "two_sweep.json")
        found += checks.two_body_spreading("two_sweep", summary["size_exponent"],
                                           summary["verdict"])
        found += checks.ops_audit(read_json(out / "ops_audit_gaussian" / "ops_audit.json"),
                                  # unit masses and range: alpha = 1, c = pi^(3/2)
                                  result["fibers"], math.pi ** 1.5)
        found += checks.ims_audit(read_json(out / "ims_audit_gaussian" / "ims_audit.json"))
        return found


WORKLOADS = {w.name: w for w in (AbsorbFlagship, LambdaCrScan, OperatorAudits)}
