#!/usr/bin/env python3
"""Compare two e2ebench result sets: ``compare.py A.json B.json``.

A and B are ``results.json`` files written by ``run.py`` (A is the base:
the parent commit, or the first of two runs of one commit).  One row per
(end-to-end metric, workload) prints both medians, the ratio B/A, the
bound and a verdict:

* ``ok`` — B is no worse than A by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — the passes of a side spread wider than the bound
  (quartile distance; min to max under four passes) and the two sides'
  ranges overlap, so the medians decide nothing.

Exact counts, ``failed`` and the ``simstat`` digest must be identical;
a difference is ``regressed``.  ``--layers`` adds the per-layer rows
(no bound, so no verdict beyond the exact ones).  Exit 1 on any
``regressed`` row.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != Path(__file__).resolve().parent]

from e2ebench.metrics import END_TO_END, EXACT, PER_LAYER  # noqa: E402

__all__ = ["compare", "verdict"]


def _range(side: dict) -> tuple[float, float]:
    """The middle of a side's passes: quartiles when it kept four or more
    values (one slow pass is then no spread), else min and max."""
    values = side.get("values", ())
    if len(values) >= 4:
        low, _, high = statistics.quantiles(values, n=4)
        return low, high
    return side["min"], side["max"]


def verdict(base: dict, change: dict, better: str, bound: float) -> tuple[str, float]:
    """``(status, worsening)`` for one metric's ``{median, min, max, values}`` pair.

    ``worsening`` is the fraction of the base median by which the change
    is worse (negative when it is better).
    """
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (change["median"] - base["median"]) / base["median"]
    (base_low, base_high), (low, high) = _range(base), _range(change)
    spread = max((base_high - base_low) / base["median"], (high - low) / change["median"])
    overlap = base_low <= high and low <= base_high
    all_better = high < base_low if better == "lower" else low > base_high
    if worsening > bound:
        return ("unresolved" if spread > bound and overlap else "regressed"), worsening
    if spread > bound and not all_better:
        return "unresolved", worsening
    return "ok", worsening


def compare(base: dict, change: dict, layers: bool = False) -> tuple[list[str], int]:
    """Report lines and the number of ``regressed`` rows."""
    lines = [
        f"{'workload':<20} {'metric':<34} {'A':>13} {'B':>13} {'B/A':>7} "
        f"{'bound':>6}  verdict"
    ]
    regressed = 0

    def row(workload, metric, a, b, bound, status):
        nonlocal regressed
        regressed += status == "regressed"
        ratio = f"{b / a:7.3f}" if a else "    n/a"
        lines.append(
            f"{workload:<20} {metric:<34} {a:>13.6g} {b:>13.6g} {ratio} "
            f"{bound:>6}  {status}"
        )

    for workload, sides in base["workloads"].items():
        other = change["workloads"].get(workload)
        if other is None:
            lines.append(f"{workload:<20} missing from B")
            regressed += 1
            continue
        a, b = sides["untraced"], other["untraced"]
        for name, _, better, bound in END_TO_END:
            status, _ = verdict(a["end_to_end"][name], b["end_to_end"][name], better, bound)
            row(workload, name, a["end_to_end"][name]["median"],
                b["end_to_end"][name]["median"], f"{bound:g}", status)
        for side, label in ((a, "A"), (b, "B")):
            if side["failed"]:
                lines.append(f"{workload:<20} {label} failed {side['failed']} ops")
                regressed += 1
        if a["digest"] != b["digest"]:
            lines.append(
                f"{workload:<20} simstat digest differs: {a['digest'][:16]} vs "
                f"{b['digest'][:16]}  regressed"
            )
            regressed += 1
        ta, tb = sides.get("traced"), other.get("traced")
        if not (ta and tb):
            continue
        for name, _, _ in PER_LAYER:
            va, vb = ta["per_layer"][name], tb["per_layer"][name]
            if name in EXACT:
                if va != vb:
                    row(workload, name, va, vb, "exact", "regressed")
                elif layers:
                    row(workload, name, va, vb, "exact", "ok")
            elif layers:
                row(workload, name, va, vb, "-", "-")
    return lines, regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="results.json of the base (A)")
    parser.add_argument("change", help="results.json of the change (B)")
    parser.add_argument("--layers", action="store_true", help="also print per-layer rows")
    args = parser.parse_args(argv)
    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.change) as handle:
        change = json.load(handle)
    lines, regressed = compare(base, change, layers=args.layers)
    print("\n".join(lines))
    print(f"# {regressed} regressed row(s); ratios are B/A with A as the base")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
