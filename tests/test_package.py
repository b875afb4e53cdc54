import subprocess
import sys
from pathlib import Path

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


def test_cli_import_leaves_out_costly_scipy_modules():
    # scipy.interpolate (tabulated profiles) is imported where it is used, not
    # with the package; nothing in the package uses scipy.stats
    code = ("import sys, threshold_lab.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.interpolate') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "[]"


def test_ims_audit_runs_without_scipy_stats(tmp_path):
    # the IMS audits run on a deterministic shape grid, with no quasi-random draw
    cfg = tmp_path / "ims.cfg"
    cfg.write_text("experiment = ims_audit\nmasses = 1 1 1\nkind = gaussian\n"
                   "range = 1.0\nlambda = 2.0\nsamples = 500\n")
    code = ("import sys, threshold_lab.cli as cli; "
            f"code = cli.main(['--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}, "
            "'--quiet']); "
            "print(code, 'scipy.stats' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "0 False"
    assert (tmp_path / "out" / "ims_audit.json").exists()
