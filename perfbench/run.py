"""Benchmark of threshold-lab: end-to-end metrics, or per-layer ones when traced.

    python3 perfbench/run.py --workload absorb_flagship --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 10 --trace 1

Each workload runs in a fresh worker process (worker.py) with the BLAS
thread count capped at the number of usable cores; workloads never run side
by side.  Untraced runs report wall_s, setup_s and peak_rss_mb; traced runs
report the per-layer metrics.  The last line of standard output is one JSON
object; with ``--workload all`` every workload prints one such line.
Results and span traces are also written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("absorb_flagship", "lambda_cr_scan", "operator_audits")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def worker(args, deadline: float):
    """Run worker.py with the given arguments and return its standard output."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return proc.stdout


def setup_seconds(workload: str, seed: int, deadline: float) -> float:
    """Median time for a fresh interpreter to import the package and build inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        worker(["--workload", workload, "--seed", str(seed), "--setup-only"], deadline)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float, trace: int, deadline: float):
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    if trace:
        args += ["--spans-out", str(out_dir / f"{stem}-spans.json")]
    report = json.loads(worker(args, deadline).strip().splitlines()[-1])
    if trace:
        metrics = {k: {"value": v, "unit": unit_of(k)}
                   for k, v in report["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": report["wall_s"], "unit": "s"},
            "setup_s": {"value": setup_seconds(workload, seed, deadline), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    result = {"correct": report["correct"], "attempted": report["attempted"],
              "failed": report["failed"], "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(json.dumps(
        dict(result, workload=workload, seed=seed, rounds=report["rounds"],
             failures=report["failures"]), indent=2) + "\n")
    for line in report["failures"]:
        print(f"FAILED {workload}: {line}", file=sys.stderr)
    summary = ", ".join(f"{k} {m['value']:.6g} {m['unit']}" for k, m in metrics.items())
    print(f"{workload}: {summary}; attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}, "
          f"rounds {len(report['rounds'])}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "threshold_lab" / "__init__.py").is_file():
        print(f"no threshold_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + TIME_LIMIT_S * len(names)
    results = []
    try:
        for name in names:
            results.append(measure(name, args.seed, args.seconds, args.trace, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
