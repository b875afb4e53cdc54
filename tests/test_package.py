import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import threshold_lab

ROOT = Path(__file__).resolve().parent.parent


def test_every_export_resolves():
    missing = [name for name in threshold_lab.__all__ if not hasattr(threshold_lab, name)]
    assert missing == []


def test_benchmark_selftest_passes():
    # the benchmark calls package APIs directly; its self-test fails when a
    # change to the package breaks one of them
    run = subprocess.run([sys.executable, "-B", "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]


@pytest.mark.parametrize("workload", ["absorb_flagship", "lambda_cr_scan", "operator_audits"])
def test_benchmark_workload_traced_round_is_correct(workload):
    # one traced round of each workload runs its own checks and the
    # tracer's hooks on package methods against the checkout's src/
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    run = subprocess.run([sys.executable, "-B", "perfbench/worker.py", "--workload", workload,
                          "--seed", "7", "--trace", "1"], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
    report = json.loads(run.stdout.strip().splitlines()[-1])
    assert report["failed"] == 0, report["failures"]
    assert report["correct"]


def test_cli_import_leaves_out_costly_scipy_modules(tmp_path):
    # the package imports no scipy module: root finding and nnls are
    # in-package, the fiber audit takes its Ritz values from numpy's eigh and
    # the tail kernels need only exp.  The absorb, exponential three_sweep and
    # ops_audit runs on built-in profiles catch any scipy import sneaking back
    configs = []
    for kind, experiment in (("gaussian", "absorb"), ("exponential", "three_sweep")):
        cfg = tmp_path / f"{experiment}.cfg"
        cfg.write_text(f"experiment = {experiment}\nmasses = 1 1 1\nkind = {kind}\n"
                       "range = 1.0\nbudget = 20\nsweep_points = 4\nseed = 7\n")
        configs.append(str(cfg))
    cfg = tmp_path / "ops_audit.cfg"
    cfg.write_text("experiment = ops_audit\nmasses = 1 1 1\nkind = gaussian\nrange = 1.0\n"
                   "lambda_factor = 0.9\nz_points = 4\np_points = 6\n")
    configs.append(str(cfg))
    code = f"""
import sys, threshold_lab.cli as cli
def scipy_modules():
    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')
print(scipy_modules())
codes = [cli.main(['--config', cfg, '--out', cfg[:-4], '--quiet']) for cfg in {configs!r}]
print(codes, scipy_modules())
"""
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.splitlines() == ["[]", "[0, 0, 0] []"]
    assert (tmp_path / "absorb" / "absorb.json").exists()
    assert (tmp_path / "three_sweep" / "three_sweep.json").exists()
    assert (tmp_path / "ops_audit" / "ops_audit.json").exists()


def test_ims_audit_runs_without_scipy_stats(tmp_path):
    # the IMS audits run on a deterministic shape grid, with no quasi-random
    # draw, and like every other run load no scipy module
    cfg = tmp_path / "ims.cfg"
    cfg.write_text("experiment = ims_audit\nmasses = 1 1 1\nkind = gaussian\n"
                   "range = 1.0\nlambda = 2.0\nsamples = 500\n")
    code = ("import sys, threshold_lab.cli as cli; "
            f"code = cli.main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}, "
            "'--quiet']); "
            "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "0 []"
    assert (tmp_path / "out" / "ims_audit.json").exists()


def test_runs_without_scipy(tmp_path):
    # tables go through the in-package monotone cubic.  With scipy made
    # unimportable, runs on tables (a Gaussian one for the two-body and audit
    # experiments, an exponential one, which the fit ladder represents, for
    # three_sweep) exit 0
    gauss = " ".join(f"{r!r}:{math.exp(-r * r)!r}" for r in (k / 10 for k in range(41)))
    expo = " ".join(f"{r!r}:{math.exp(-r)!r}" for r in (k / 8 for k in range(161)))
    three = "budget = 20\nsweep_points = 4\nseed = 7\n"
    ops = "lambda_factor = 0.9\nz_points = 4\np_points = 6\n"
    ims = "lambda = 2.0\nsamples = 500\n"
    runs = {  # name: (experiment, table, options)
        "tab_two_critical": ("two_critical", gauss, ""),
        "tab_ops_audit": ("ops_audit", gauss, ops),
        "tab_ims_audit": ("ims_audit", gauss, ims),
        "tab_three_sweep": ("three_sweep", expo, three),
    }
    configs = []
    for name, (experiment, table, options) in runs.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"experiment = {experiment}\nmasses = 1 1 1\nkind = tabulated\n"
                       f"range = 1.0\ntable = {table}\n" + options)
        configs.append(str(cfg))
    code = ("import sys; sys.modules['scipy'] = None; import threshold_lab.cli as cli; "
            "print([cli.main(['--config', cfg, '--out', cfg[:-4], '--quiet']) "
            f"for cfg in {configs!r}])")
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == str([0] * len(runs))
    for name, (experiment, *_) in runs.items():
        assert (tmp_path / name / f"{experiment}.json").exists(), name
