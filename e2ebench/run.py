#!/usr/bin/env python3
"""e2ebench: end-to-end numbers and outside-in per-layer attribution.

One run of one workload (what the benchmark driver invokes)::

    python3 e2ebench/run.py --workload ec2_repair_storm --seed 0 --seconds 20 --trace 0

prints every metric by name with its unit, checks the outputs, and ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics from untraced passes;
``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics.  Without ``--workload`` it runs all four workloads,
untraced then traced, and writes ``e2ebench/out/results.json`` (the
input of ``compare.py``).

A run is a sequence of fresh interpreters, each of which sets up and
makes exactly one pass of the workload, one at a time, until
``--seconds`` of measuring is spent: host time on a shared box differs
from process to process by a few percent, which passes repeated inside
one interpreter would never average out.  Closed loop, one client, one
thread; never a worker pool or a result cache.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

#: ``run_seconds`` of BENCHMARK.json: how long one run measures.
RUN_SECONDS = 20
#: Interpreters (= passes) per run: at least, and at most.
MIN_PASSES, MAX_PASSES = 3, 12
GOLDEN_SEEDS = (0, 1)

_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def _prepare_environment() -> None:
    """Pin native pools to one thread and refuse pools or caches."""
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    if os.environ.get("REPRO_CACHE_DIR"):
        sys.exit(
            "e2ebench: REPRO_CACHE_DIR is set; a cache hit would time a "
            "pickle load. Unset it."
        )
    if os.environ.get("REPRO_JOBS", "1") != "1":
        sys.exit(
            "e2ebench: REPRO_JOBS asks for worker processes; the harness is "
            "one process, one thread. Unset it."
        )
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"e2ebench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    # Import e2ebench as a package from the repo root, never from its own
    # directory: e2ebench/trace.py must not shadow the stdlib ``trace``.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


# -- the worker: one interpreter, one pass ----------------------------------


def _calibrate() -> dict[str, float]:
    """XOR and memcpy roofline of this box: fixed work, best of 5.

    Recorded by every pass so a slow or shared box is visible beside
    the numbers it produced.
    """
    import numpy as np

    size = 16 << 20
    a = np.full(size, 0x5A, dtype=np.uint8)
    b = np.full(size, 0xA5, dtype=np.uint8)
    out = np.empty_like(a)
    best = {"xor": float("inf"), "memcpy": float("inf")}
    for _ in range(5):
        start = time.perf_counter()
        np.bitwise_xor(a, b, out=out)
        best["xor"] = min(best["xor"], time.perf_counter() - start)
        start = time.perf_counter()
        np.copyto(out, a)
        best["memcpy"] = min(best["memcpy"], time.perf_counter() - start)
    return {
        "galois.xor_roofline_mb_per_s": size / 1e6 / best["xor"],
        "galois.memcpy_roofline_mb_per_s": size / 1e6 / best["memcpy"],
    }


def _worker(args: argparse.Namespace) -> int:
    """Set up, make one pass, print its record as one JSON line."""
    import numpy

    from e2ebench import workloads
    from e2ebench.metrics import layer_metrics

    make_inputs, run_pass = workloads.WORKLOADS[args.workload]
    tracer = patches = None
    if args.trace:
        from e2ebench.trace import Tracer, install

        tracer = Tracer()
    inputs = make_inputs(args.seed, args.scale)
    calibration = _calibrate()
    gc.collect()
    # Everything above is the set-up: interpreter start, imports, inputs
    # from the seed, calibration.  The parent stamped the spawn time.
    setup_s = time.time() - args.spawned_at

    timer = workloads.Timer(tracer)
    if tracer is not None:
        patches = install(tracer)
    try:
        result = run_pass(inputs, timer)
    finally:
        if patches is not None:
            patches.restore()
    data = inputs.get("data")
    record = {
        "traced": bool(args.trace),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "calls": timer.calls,
        "attempted": result.attempted,
        "failed": result.failed,
        "work": result.work,
        "problems": result.problems,
        "digest": workloads.simstat_digest(result.simstat),
        "counts": result.counts,
        "calibration": calibration,
        "block_mb": data.shape[0] * data.shape[2] / 1e6 if data is not None else 0.0,
        "paper_reference": workloads.PAPER_REFERENCE,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        table = tracer.table()
        record["layers"] = layer_metrics(table, patches.samples, result.counts)
        root = table.root_s()
        record["self_share"] = {
            name: secs / root for name, secs in table.layer_self_s().items()
        }
        if args.trace_file:
            table.dump_chrome(args.trace_file)
    print(json.dumps(record))
    return 0


# -- the run: spawn workers, fold their passes -------------------------------


def _spawn(args: argparse.Namespace, traced: bool, trace_file: str | None = None) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", str(args.scale), "--trace", str(int(traced)),
        "--spawned-at", repr(time.time()),
    ]
    if trace_file:
        command += ["--trace-file", trace_file]
    # str-hash randomisation alone moves a cluster pass by +-7 % from one
    # interpreter to the next (set/dict layouts of node ids); pin it.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env)
    if done.returncode:
        sys.exit(f"e2ebench: a pass of {args.workload} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run_passes(args: argparse.Namespace) -> list[dict]:
    """Closed loop: one interpreter per pass until ``--seconds`` is spent.

    A further pass starts only while it is expected to end nearer the
    target than stopping now would.  Traced runs alternate traced and
    untraced interpreters, so both kinds are equally cold.
    """
    passes: list[dict] = []
    spent = 0.0
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        passes.append(_spawn(args, traced, args.trace_file if traced else None))
        spent += sum(seconds for _, _, seconds in passes[-1]["calls"])
        count = len(passes)
        if count >= MAX_PASSES:
            return passes
        if count >= args.min_passes and spent + 0.5 * spent / count >= args.seconds:
            return passes


def _seconds(passes: list[dict], group: str = "wall") -> float:
    """Seconds of one pass's calls in ``group``: each call's median across
    the passes, summed (see ``workloads.Timer``)."""
    calls = [p["calls"] for p in passes]
    if any([c[:2] for c in other] != [c[:2] for c in calls[0]] for other in calls[1:]):
        raise RuntimeError("passes of one workload made different timed calls")
    return sum(
        statistics.median(other[i][2] for other in calls)
        for i, (_, groups, _) in enumerate(calls[0])
        if group in groups
    )


def _group_total(one_pass: dict, group: str = "wall") -> float:
    return sum(seconds for _, groups, seconds in one_pass["calls"] if group in groups)


def _call_samples(passes: list[dict], group: str) -> list[float]:
    return [s for p in passes for _, groups, s in p["calls"] if group in groups]


def _percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile, linearly interpolated (numpy's default)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _check(passes: list[dict], golden_digest: str | None):
    """Fold the passes' checks: ops, failures, digest, exact counts."""
    from e2ebench.metrics import EXACT

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [message for p in passes for message in p["problems"]]
    digests = sorted({p["digest"] for p in passes})
    if len(digests) != 1:
        problems.append(f"simstat digest differs between passes: {digests}")
    if golden_digest is not None and digests != [golden_digest]:
        problems.append(f"simstat digest {digests[0]} != golden {golden_digest}")
    first = passes[0]["counts"]
    for other in passes[1:]:
        for name in sorted(EXACT & first.keys()):
            if other["counts"].get(name) != first[name]:
                problems.append(
                    f"exact count {name} differs between passes (traced or not): "
                    f"{first[name]} vs {other['counts'].get(name)}"
                )
    if problems:
        # A wrong simulated result or a failed check fails every op.
        failed = attempted = max(attempted, 1)
    return attempted, failed, digests[0], sorted(set(problems))


def _report_end_to_end(args, untraced, traced, calibration, detail) -> dict:
    """Print and return the end-to-end metrics of an untraced run."""
    from e2ebench.metrics import END_TO_END

    wall = _seconds(untraced)
    work = untraced[0]["work"]
    setups = [p["setup_s"] for p in untraced]
    peaks = [p["peak_rss_mb"] for p in untraced]
    # name -> (reported value, the per-pass values it was taken from)
    estimates = {
        "setup_s": (statistics.median(setups), setups),
        "wall_s": (wall, [_group_total(p) for p in untraced]),
        "rs_wall_s": (_seconds(untraced, "rs"),
                      [_group_total(p, "rs") for p in untraced]),
        "xorbas_wall_s": (_seconds(untraced, "xorbas"),
                          [_group_total(p, "xorbas") for p in untraced]),
        "peak_rss_mb": (statistics.median(peaks), peaks),
        "work_per_s": (work / wall, [p["work"] / _group_total(p) for p in untraced]),
    }
    units = {name: unit for name, unit, _, _ in END_TO_END}
    metrics = {
        name: {"value": estimates[name][0], "unit": units[name]}
        for name, _, _, _ in END_TO_END
    }
    detail["end_to_end"] = {
        name: {"median": value, "min": min(runs), "max": max(runs),
               "n": len(runs), "values": runs}
        for name, (value, runs) in estimates.items()
    }
    for name, _, better, bound in END_TO_END:
        value, runs = estimates[name]
        print(
            f"{name:<16} {value:>14.6g} {units[name]:<4} "
            f"(min {min(runs):.6g}, max {max(runs):.6g}, n={len(runs)}; "
            f"{better} is better, bound {bound:g})"
        )
    print(f"# work_per_s counts {detail['work_unit']}")
    return metrics


def _report_layers(args, untraced, traced, calibration, detail) -> dict:
    """Print and return the per-layer metrics of a traced run."""
    from e2ebench.metrics import PER_LAYER, untraced_layer_metrics

    sample_groups = ("encode", "light_repair", "heavy_repair", "reconstruct_warm")
    samples = {g: _call_samples(untraced, g) for g in sample_groups}
    layers = untraced_layer_metrics(
        seconds={g: _seconds(untraced, g) for g in ("wall", "encode_cold")},
        call_medians={g: statistics.median(v) for g, v in samples.items() if v},
        counts=untraced[0]["counts"],
        block_mb=untraced[0]["block_mb"],
        calibration=calibration,
    )
    layers.update(traced[0]["counts"])
    for name in traced[0]["layers"]:
        layers[name] = statistics.median(p["layers"][name] for p in traced)
    layers["trace.overhead_frac"] = _seconds(traced) / _seconds(untraced) - 1.0
    metrics = {
        name: {"value": float(layers.get(name, 0.0)), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
    share = traced[0]["self_share"]
    detail["per_layer"] = {name: m["value"] for name, m in metrics.items()}
    detail["self_share"] = share
    detail["percentiles"] = {
        "light_repair_ms_p95": 1e3 * _percentile(samples["light_repair"], 95),
        "heavy_repair_ms_p60": 1e3 * _percentile(samples["heavy_repair"], 60),
        "light_repair_samples": len(samples["light_repair"]),
        "heavy_repair_samples": len(samples["heavy_repair"]),
    }
    for name, unit, _ in PER_LAYER:
        print(f"{name:<36} {metrics[name]['value']:>16.6g} {unit}")
    if samples["light_repair"]:
        pct = detail["percentiles"]
        print(
            f"# light repair p95 {pct['light_repair_ms_p95']:.3f} ms over "
            f"{pct['light_repair_samples']} calls; heavy repair p60 "
            f"{pct['heavy_repair_ms_p60']:.3f} ms over "
            f"{pct['heavy_repair_samples']} calls"
        )
    if "simstat.rs_blocks_read_per_lost" in traced[0]["counts"]:
        print(
            "# paper (indicative; off paper scale): blocks read per lost block "
            + ", ".join(f"{k} {v}" for k, v in traced[0]["paper_reference"].items())
        )
    print("# self-time share of the traced wall, by span name:")
    for name, fraction in list(share.items())[:12]:
        print(f"#   {name:<32} {fraction:7.2%}")
    if args.trace_file:
        print(f"# wrote Chrome trace to {args.trace_file}")
    return metrics


def _run(args: argparse.Namespace) -> tuple[int, dict]:
    """One run of one workload; returns (exit status, detail)."""
    from e2ebench.metrics import WORKLOADS

    work_unit = {name: unit for name, _, unit in WORKLOADS}[args.workload]
    print(
        f"# e2ebench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} scale={args.scale:g}"
    )
    passes = _run_passes(args)
    calibration = {
        name: statistics.median(p["calibration"][name] for p in passes)
        for name in passes[0]["calibration"]
    }
    print(f"# nproc={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={passes[0]['numpy']} threads=1; "
          + "; ".join(f"{k} = {v:.0f} MB/s" for k, v in calibration.items()))

    golden_digest = None
    if args.scale == 1.0 and not args.update_golden and GOLDEN.exists():
        golden = json.loads(GOLDEN.read_text())
        golden_digest = golden.get(args.workload, {}).get(str(args.seed))
    attempted, failed, digest, problems = _check(passes, golden_digest)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    detail: dict = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "digest": digest,
        "digest_checked": golden_digest is not None,
        "attempted": attempted, "failed": failed, "problems": problems,
        "work_unit": work_unit, "calibration": calibration,
        "untraced_passes": len(untraced), "traced_passes": len(traced),
    }

    report = _report_layers if args.trace else _report_end_to_end
    metrics = report(args, untraced, traced, calibration, detail)

    for message in problems:
        print(f"FAILED: {message}", file=sys.stderr)
    print(
        f"# passes: {len(untraced)} untraced, {len(traced)} traced; ops attempted "
        f"{attempted}, failed {failed}; simstat digest {digest[:16]} "
        f"({'checked' if golden_digest else 'not checked'})"
    )
    OUT.mkdir(exist_ok=True)
    detail_path = OUT / f"{args.workload}.seed{args.seed}.trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return (0 if failed == 0 else 1), detail


# -- all workloads, and the golden -------------------------------------------


def _update_golden(args: argparse.Namespace, names: list[str]) -> int:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    status = 0
    args.seconds, args.min_passes, args.trace = 0.0, 1, 0
    for name in names:
        for seed in GOLDEN_SEEDS:
            args.workload, args.seed = name, seed
            code, detail = _run(args)
            status |= code
            if code == 0:
                golden.setdefault(name, {})[str(seed)] = detail["digest"]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"# wrote {GOLDEN}")
    return status


def _suite(args: argparse.Namespace, names: list[str]) -> int:
    """All workloads, untraced then traced, into one results file."""
    results: dict = {"seed": args.seed, "seconds": args.seconds, "scale": args.scale,
                     "workloads": {}}
    status = 0
    trace_file, min_passes = args.trace_file, args.min_passes
    for name in names:
        entry = results["workloads"][name] = {}
        for trace in (0, 1):
            args.workload, args.trace = name, trace
            args.trace_file = f"{trace_file}.{name}" if trace_file else None
            args.min_passes = max(min_passes, 2) if trace else min_passes
            code, entry["traced" if trace else "untraced"] = _run(args)
            status |= code
    OUT.mkdir(exist_ok=True)
    path = Path(args.out) if args.out else OUT / "results.json"
    path.write_text(json.dumps(results, indent=1, sort_keys=True))
    print(f"# wrote {path}; exit status {status}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; default: all four")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS),
                        help="seconds of measuring per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: record spans and report per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the frozen sizes (smoke tests only)")
    parser.add_argument("--min-passes", type=int, default=MIN_PASSES,
                        help="interpreters per run at least (smoke tests only)")
    parser.add_argument("--trace-file", help="also dump Chrome trace-event JSON")
    parser.add_argument("--out", help="suite results path (default out/results.json)")
    parser.add_argument("--update-golden", action="store_true",
                        help="regenerate golden.json (benchmark issues only)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _prepare_environment()
    from e2ebench.metrics import WORKLOADS

    names = [name for name, _, _ in WORKLOADS]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    if args.worker:
        return _worker(args)
    if args.update_golden:
        if args.scale != 1.0:
            parser.error("golden digests are defined at --scale 1 only")
        return _update_golden(args, [args.workload] if args.workload else names)
    if args.workload is None:
        return _suite(args, names)
    if args.trace:
        args.min_passes = max(args.min_passes, 2)  # one traced, one not
    return _run(args)[0]


if __name__ == "__main__":
    sys.exit(main())
