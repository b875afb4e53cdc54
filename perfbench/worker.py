"""One workload in one fresh process: set-up, timed rounds, checks.

Started by run.py with the checkout's src/ on PYTHONPATH.  The last line of
standard output is a JSON object with the round times, the peak resident
set, the check counts and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from tracing import Tracer, layer_metrics
from checks import KNOWN_FAULT_PREFIX


def run_rounds(workload, seconds: float, tracer, tmp: Path):
    """Whole rounds until ``seconds`` have passed (at least one)."""
    resetters = workloads.cache_resetters()
    if tracer is not None:
        tracer.install()
    rounds = []
    begin = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - begin < seconds:
            out = tmp / f"round-{len(rounds)}"
            out.mkdir()
            for reset in resetters:
                reset()
            start = time.perf_counter()
            result = workload.run(out)
            wall = time.perf_counter() - start
            spans = tracer.take() if tracer is not None else None
            rounds.append((out, result, wall, spans))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return rounds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    tmp = workloads.ROOT / ".perfbench" / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, tmp)
        if args.setup_only:
            return 0
        tracer = Tracer() if args.trace else None
        rounds = run_rounds(workload, args.seconds, tracer, tmp)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        attempted = failed = 0
        correct = True
        failures = []
        for out, result, _, _ in rounds:
            correct = correct and all(rc == 0 for rc in result["rc"])
            for name, ok, detail in workload.check(out, result):
                attempted += 1
                if not ok:
                    failed += 1
                    correct = correct and name.startswith(KNOWN_FAULT_PREFIX)
                    failures.append(f"{name}: {detail}")
        report = {
            "rounds": [wall for _, _, wall, _ in rounds],
            "wall_s": statistics.median(wall for _, _, wall, _ in rounds),
            "peak_rss_mb": peak_rss_mb,
            "attempted": attempted,
            "failed": failed,
            "correct": correct,
            "failures": failures,
        }
        if tracer is not None:
            per_round = []
            for out, _, wall, spans in rounds:
                size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
                per_round.append(layer_metrics(spans, wall, size))
            report["layers"] = {k: statistics.median(m[k] for m in per_round)
                                for k in per_round[0]}
            if args.spans_out:
                Path(args.spans_out).write_text(json.dumps(
                    [[list(s) for s in spans] for _, _, _, spans in rounds]))
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
