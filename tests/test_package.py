import importlib
import inspect
import json
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import threshold_lab
from threshold_lab import cli

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


def test_cli_import_loads_only_numpy_and_the_standard_library():
    # a fresh interpreter's import of the CLI adds numpy, the package and
    # standard-library modules, nothing else: a run pays no import later
    code = ("import sys; before = set(sys.modules); import threshold_lab.cli; "
            "added = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(added - set(sys.stdlib_module_names)))")
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr[-2000:]
    assert run.stdout.strip() == "['numpy', 'threshold_lab']"


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


# functions of the package that no CLI run reaches, each kept for a caller
# outside it
UNREACHED = {
    "threebody.assembler_for": "perfbench/selftest.py rebuilds a grown basis with it",
    "model.uniform_system": "perfbench/selftest.py and the tests build systems with it",
    "twobody.oracle_binding_energy": "shooting oracle of the tests and the benchmark",
}


def package_functions():
    """{name: code} of every module-level function, method and property
    defined in the package's sources, lru_caches unwrapped."""
    found = {}
    for info in pkgutil.iter_modules(threshold_lab.__path__):
        module = importlib.import_module(f"threshold_lab.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).items() if inspect.isclass(obj) else [("", obj)]
            for member, attr in members:
                parts = ([attr.fget, attr.fset, attr.fdel] if isinstance(attr, property)
                         else [getattr(attr, "__func__", attr)])
                for func in parts:
                    code = getattr(inspect.unwrap(func), "__code__", None) if func else None
                    # dataclass and NamedTuple methods are generated elsewhere
                    if code is not None and code.co_filename == module.__file__:
                        found[f"{info.name}.{name}" + (f".{member}" if member else "")] = code
    return found


def test_cli_runs_reach_every_function(tmp_path):
    # the shipped configs, a tabulated two_sweep (the monotone cubic), an
    # exponential three_sweep (the Gaussian fit's nnls) and a config with an
    # unknown key; a function that none of them reaches is dead code unless
    # UNREACHED names its caller
    table = " ".join(f"{r!r}:{math.exp(-r * r)!r}" for r in (k / 10 for k in range(41)))
    extra = {
        "tab_two_sweep": f"experiment = two_sweep\nmasses = 1 1 1\nkind = tabulated\n"
                         f"range = 1.0\ntable = {table}\nsweep_points = 4\n",
        "exp_three_sweep": "experiment = three_sweep\nmasses = 1 1 1\nkind = exponential\n"
                           "range = 1.0\nbudget = 12\nsweep_points = 4\nseed = 7\n",
        "unknown_key": "experiment = two_critical\nmasses = 1 1 1\nkind = gaussian\n"
                       "range = 1.0\nbogus = 1\n",
    }
    configs = sorted((ROOT / "configs").glob("*.cfg"))
    for name, text in extra.items():
        configs.append(tmp_path / f"{name}.cfg")
        configs[-1].write_text(text)
    functions = package_functions()
    # a warm cache answers without a call
    for name, module in list(sys.modules.items()):
        if name.startswith("threshold_lab."):
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [cli.main(["--config", str(cfg), "--out", str(tmp_path / cfg.stem), "--quiet"])
                 for cfg in configs]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * (len(configs) - 1) + [cli.EXIT_CONFIG]
    unreached = {name for name, code in functions.items() if code not in reached}
    assert sorted(unreached) == sorted(UNREACHED)
