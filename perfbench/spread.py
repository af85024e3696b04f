"""Run the benchmark once per seed and report each metric's run-to-run spread.

    python3 perfbench/spread.py --seeds 1-10 [--workload dp-markov ...]
                                [--trace 0] [--out FILE]

Runs are sequential, one workload process at a time, each for the
run_seconds of BENCHMARK.json.  For every workload
and metric it prints the median of the per-run values, their quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median, the share
of the median a later commit is compared against.  --out writes the runs
and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

RUN = Path(__file__).resolve().with_name("run.py")
sys.path.insert(0, str(RUN.parent))
from run import ROOT, WORKLOADS  # noqa: E402


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {}
    status = 0
    for workload in args.workload:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, timeout=900)
            if proc.returncode:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name in runs[0]["metrics"] if runs else ():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
                else (values[0],) * 3
            med = statistics.median(values)
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med,
                             "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
            spread = metrics[name]["spread"]
            shown = f"spread {spread:.3f}" if spread is not None else ""
            print(f"  {name:40} {med:14.6g} {metrics[name]['unit']:6} {shown}")
        summary[workload] = {"runs": runs, "metrics": metrics}
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": seconds, "trace": args.trace, "cpus": os.cpu_count(),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "workloads": summary}, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
