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
    # scipy.stats (Sobol meshes) and scipy.interpolate (tabulated profiles)
    # are imported where they are used, not with the package
    code = ("import sys, threshold_lab.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.interpolate') if m in sys.modules))")
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "[]"
