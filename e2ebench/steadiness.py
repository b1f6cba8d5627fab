#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver takes it.

``steadiness.py [--runs 10] [--first-seed 0] [workload ...]`` runs each
workload once per seed (``run.py --trace 0``), then prints for every
end-to-end metric the median over the runs and the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of that median, beside the metric's bound.  The benchmark is
steady enough when every spread except ``setup_s`` is below a third of
its bound.  Exit 1 if a spread exceeds its bound or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]

from e2ebench.metrics import END_TO_END, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    names = args.workloads or [name for name, _, _ in WORKLOADS]
    status = 0
    for name in names:
        values: dict[str, list[float]] = {metric: [] for metric, *_ in END_TO_END}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(seed), "--trace", "0"]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode:
                print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}")
                status = 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            for metric in values:
                values[metric].append(result["metrics"][metric]["value"])
        for metric, unit, _, bound in END_TO_END:
            runs = values[metric]
            if len(runs) < 2:
                continue
            q1, _, q3 = statistics.quantiles(runs, n=4)
            median = statistics.median(runs)
            spread = (q3 - q1) / median
            flag = ""
            if metric != "setup_s" and spread > bound:
                flag, status = "  OVER BOUND", 1
            elif metric != "setup_s" and spread > bound / 3:
                flag = "  over bound/3"
            print(f"{name:<20} {metric:<14} median {median:>12.6g} {unit:<4} "
                  f"spread {spread:7.2%} (bound {bound:.0%}, n={len(runs)}){flag}",
                  flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
