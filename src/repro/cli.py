"""Command-line interface: ``python -m repro <command>``.

Gives quick terminal access to the reproduction's main entry points:
certify the Xorbas code, regenerate Table 1 or the Figure 1 trace, and
run scaled-down versions of the paper's cluster experiments.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def _number(convert, rule: str, accept):
    """An argparse type: ``convert`` the text, then require ``accept``
    (every comparison with nan is False, so nan is rejected too)."""

    def parse(text: str):
        value = convert(text)
        if not accept(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse's "invalid int value"
    return parse


_positive_int = _number(int, "a positive integer", lambda v: v > 0)
_positive_float = _number(float, "a positive number", lambda v: v > 0)
_nonnegative_int = _number(int, "a non-negative integer", lambda v: v >= 0)
_nonnegative_float = _number(float, "a non-negative number", lambda v: v >= 0)
_amplitude = _number(float, "in [0, 1)", lambda v: 0 <= v < 1)
_block_target = _number(float, "at least 1", lambda v: v >= 1)
_trial_count = _number(int, "at least 2", lambda v: v >= 2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'XORing Elephants: Novel Erasure Codes for "
            "Big Data' (VLDB 2013)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "certify",
        help="exhaustively certify the (10,6,5) LRC's distance and locality",
    ).set_defaults(handler=_cmd_certify)

    sub.add_parser(
        "table1", help="regenerate Table 1 (reliability comparison)"
    ).set_defaults(handler=_cmd_table1)

    fig1 = sub.add_parser("fig1", help="generate the Figure 1 failure trace")
    fig1.add_argument("--days", type=_positive_int, default=31)
    fig1.add_argument("--seed", type=_nonnegative_int, default=21)
    fig1.set_defaults(handler=_cmd_fig1)

    ec2 = sub.add_parser("ec2", help="run a (scaled) EC2 failure experiment")
    ec2.add_argument("--files", type=_positive_int, default=20)
    ec2.add_argument(
        "--blocks",
        type=_block_target,
        default=None,
        help=(
            "target total data blocks (overrides --files).  Scale --nodes "
            "with it or repairs cannot quiesce in the simulated budget: "
            "--blocks 1e5 needs about --nodes 400, not the default 50"
        ),
    )
    ec2.add_argument("--nodes", type=_positive_int, default=50)
    ec2.add_argument("--seed", type=_nonnegative_int, default=0)
    ec2.add_argument(
        "--jobs",
        type=_positive_int,
        default=None,
        help=(
            "worker processes for the scheme runs (default: $REPRO_JOBS, "
            "else the CPU count)"
        ),
    )
    ec2.add_argument(
        "--cache-dir",
        default=None,
        help="reuse/store results in this on-disk cache directory",
    )
    ec2.add_argument(
        "--payload-bytes",
        type=_positive_int,
        default=None,  # resolved to DEFAULT_PAYLOAD_BYTES at dispatch
        help=(
            "verification payload bytes per block (the batched codec "
            "engine makes KB-scale full-byte verification feasible)"
        ),
    )
    ec2.add_argument(
        "--checkpoint-dir",
        default=None,
        help=(
            "snapshot each scheme run at failure-epoch boundaries into "
            "this directory (crash-safe: tmp file + fsync + atomic "
            "rename, checksummed)"
        ),
    )
    ec2.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume each run from its newest valid checkpoint in "
            "--checkpoint-dir (corrupted snapshots are detected and "
            "skipped); replays the remaining epochs bit-identically"
        ),
    )
    ec2.add_argument(
        "--profile",
        action="store_true",
        help=(
            "run under cProfile and print the top cumulative-time "
            "functions (forces --jobs 1 and skips the cache so the "
            "simulation itself is what gets measured)"
        ),
    )
    ec2.set_defaults(handler=_cmd_ec2, usage_error=ec2.error)

    chaos = sub.add_parser(
        "chaos",
        help=(
            "seeded kill/corrupt chaos sweep over the checkpoint-resume "
            "plane, asserting bit-identical recovery per trial"
        ),
    )
    chaos.add_argument("--trials", type=_positive_int, default=3)
    chaos.add_argument("--seed", type=_nonnegative_int, default=0)
    chaos.add_argument("--files", type=_positive_int, default=3)
    chaos.add_argument("--nodes", type=_positive_int, default=20)
    chaos.add_argument(
        "--full-pattern",
        action="store_true",
        help="use the full 8-event EC2 failure pattern (default: 1/2)",
    )
    chaos.add_argument(
        "--out",
        default="results/chaos_report.json",
        help="where to write the JSON chaos report",
    )
    chaos.set_defaults(handler=_cmd_chaos, usage_error=chaos.error)

    codec = sub.add_parser(
        "codec",
        help="exercise the batched codec engine and print cache statistics",
    )
    codec.add_argument("--stripes", type=_positive_int, default=512)
    codec.add_argument("--payload-bytes", type=_positive_int, default=1024)
    codec.add_argument("--seed", type=_nonnegative_int, default=0)
    codec.set_defaults(handler=_cmd_codec)

    montecarlo = sub.add_parser(
        "montecarlo",
        help="batched Gillespie validation of the analytic MTTDL solver",
    )
    montecarlo.add_argument("--trials", type=_trial_count, default=10_000)
    montecarlo.add_argument(
        "--repair-scale",
        type=_positive_float,
        default=1e-6,
        help="repair-rate compression making absorption simulable",
    )
    montecarlo.add_argument("--seed", type=_nonnegative_int, default=0)
    montecarlo.set_defaults(handler=_cmd_montecarlo, usage_error=montecarlo.error)

    facebook = sub.add_parser("facebook", help="run the Table 3 experiment")
    facebook.add_argument("--files", type=_positive_int, default=200)
    facebook.add_argument(
        "--blocks",
        type=_block_target,
        default=None,
        help="target total data blocks (overrides --files)",
    )
    facebook.add_argument("--seed", type=_nonnegative_int, default=0)
    facebook.set_defaults(handler=_cmd_facebook)

    workload = sub.add_parser(
        "workload", help="run the Figure 7 / Table 2 workload experiment"
    )
    workload.add_argument("--seed", type=_nonnegative_int, default=0)
    workload.set_defaults(handler=_cmd_workload)

    sub.add_parser(
        "baselines",
        help="compare code families (replication/RS/Pyramid/LRC/SRC)",
    ).set_defaults(handler=_cmd_baselines)

    geo = sub.add_parser(
        "geo", help="geo-distributed WAN repair comparison (Section 1.1)"
    )
    geo.add_argument("--stripes", type=_positive_float, default=1e6)
    geo.set_defaults(handler=_cmd_geo)

    archival = sub.add_parser(
        "archival", help="archival stripe-size sweep (Section 7)"
    )
    archival.add_argument(
        "--stripes", type=_positive_int, nargs="+", default=[10, 20, 50, 100]
    )
    archival.add_argument("--samples", type=_positive_int, default=150)
    archival.add_argument("--seed", type=_nonnegative_int, default=0)
    archival.set_defaults(handler=_cmd_archival)

    degraded = sub.add_parser(
        "degraded", help="degraded-read availability experiment (Section 4)"
    )
    degraded.add_argument("--hours", type=_positive_float, default=6.0)
    degraded.add_argument("--seed", type=_nonnegative_int, default=3)
    degraded.add_argument(
        "--reads",
        type=_positive_float,
        default=None,
        help=(
            "target total client reads over the horizon (sets the read "
            "rate; 1e6+ is practical)"
        ),
    )
    degraded.add_argument(
        "--zipf",
        type=_nonnegative_float,
        default=0.0,
        help="Zipf exponent for hot/cold stripe popularity (0 = uniform)",
    )
    degraded.add_argument(
        "--diurnal",
        type=_amplitude,
        default=0.0,
        help="diurnal read-rate modulation amplitude in [0, 1)",
    )
    degraded.add_argument(
        "--racks",
        type=_nonnegative_int,
        default=0,
        help="number of racks with a correlated rack-outage process (0 = off)",
    )
    degraded.set_defaults(handler=_cmd_degraded, usage_error=degraded.error)

    tradeoff = sub.add_parser(
        "tradeoff", help="locality/storage/repair frontier (Sections 1.1-2)"
    )
    tradeoff.add_argument(
        "--certify",
        action="store_true",
        help="exhaustively certify each point's distance (slow)",
    )
    tradeoff.set_defaults(handler=_cmd_tradeoff)

    export = sub.add_parser(
        "export", help="export the analytical artefacts as CSV"
    )
    export.add_argument("--out", default="results/csv")
    export.add_argument("--seed", type=_nonnegative_int, default=0)
    export.set_defaults(handler=_cmd_export)

    sub.add_parser(
        "claims", help="check the paper's quantitative claims against the code"
    ).set_defaults(handler=_cmd_claims)

    lint = sub.add_parser(
        "lint", help="run reprolint, the repo's AST invariant analyzer"
    )
    from .analysis.cli import add_lint_arguments, run_lint

    add_lint_arguments(lint)
    lint.set_defaults(handler=run_lint)
    return parser


def _cmd_certify(args: argparse.Namespace) -> int:
    from .codes import certify_distance, certify_locality, xorbas_lrc

    code = xorbas_lrc()
    print(f"Certifying {code.name}: n={code.n}, k={code.k} ...")
    certify_distance(code, 5)
    print("  minimum distance d = 5 certified over all erasure patterns")
    certify_locality(code, 5)
    print("  locality r = 5 certified for all 16 blocks")
    print("  all light repair plans XOR-only:", all(
        plan.is_xor_only() for i in range(code.n) for plan in code.repair_plans(i)
    ))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .experiments import render_table1

    print(render_table1())
    return 0


def _cmd_fig1(args: argparse.Namespace) -> int:
    from .experiments import render_fig1
    from .experiments.traces import generate_fig1_trace

    print(render_fig1(generate_fig1_trace(days=args.days, seed=args.seed)))
    return 0


def _require_survivors(args: argparse.Namespace, name: str, pattern) -> None:
    """Reject ``--nodes`` the failure schedule would kill off entirely."""
    kills = sum(pattern)
    if args.nodes <= kills:
        args.usage_error(
            f"argument --nodes: {name} {tuple(pattern)} kills {kills} nodes "
            f"in total, so --nodes must exceed {kills} (got {args.nodes})"
        )


def _cmd_ec2(args: argparse.Namespace) -> int:
    from .cluster import EC2_FAILURE_PATTERN
    from .experiments import ResultCache, format_table, run_ec2_experiment_parallel
    from .experiments.ec2 import DEFAULT_PAYLOAD_BYTES, ec2_files_for_blocks
    from .experiments.parallel import default_jobs

    _require_survivors(args, "EC2_FAILURE_PATTERN", EC2_FAILURE_PATTERN)
    if args.resume and not args.checkpoint_dir:
        args.usage_error("--resume requires --checkpoint-dir")
    try:
        jobs = args.jobs or default_jobs()
    except ValueError as exc:
        args.usage_error(str(exc))
    files, cache_dir = args.files, args.cache_dir
    payload_bytes = args.payload_bytes
    if payload_bytes is None:
        payload_bytes = DEFAULT_PAYLOAD_BYTES
    if args.blocks is not None:
        files = ec2_files_for_blocks(args.blocks)
        print(f"--blocks {args.blocks:g}: running {files} one-stripe files")
    if args.checkpoint_dir:
        verb = "resuming from" if args.resume else "checkpointing to"
        print(f"{verb} {args.checkpoint_dir} at each failure-epoch boundary")
    if args.profile:
        # Workers would take the interesting frames with them, and a
        # cache hit measures pickle loading: profile one process, fresh.
        jobs, cache_dir = 1, None
    cache = ResultCache(cache_dir) if cache_dir else None
    print(
        f"Running EC2 experiment: {files} files, {args.nodes} slaves, "
        f"{payload_bytes}-byte verification payloads ..."
    )

    def execute():
        return run_ec2_experiment_parallel(
            num_files=files,
            num_nodes=args.nodes,
            seed=args.seed,
            jobs=jobs,
            cache=cache,
            payload_bytes=payload_bytes,
            checkpoint_dir=args.checkpoint_dir,
            resume=args.resume,
        )

    if args.profile:
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        result = profiler.runcall(execute)
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.strip_dirs().sort_stats("cumulative").print_stats(25)
        print(stream.getvalue())
    else:
        result = execute()
    if cache is not None:
        print(f"cache: {cache.hits} hit(s), {cache.misses} miss(es) in {cache.root}")
    rows = []
    for run in result.runs():
        for event in run.events:
            rows.append(
                (
                    run.scheme,
                    event.label,
                    f"{event.hdfs_bytes_read / 1e9:.1f}",
                    f"{event.network_out_bytes / 1e9:.1f}",
                    f"{event.repair_duration / 60:.1f}",
                )
            )
    print(
        format_table(
            ["scheme", "event", "read GB", "net GB", "duration min"],
            rows,
            title="Per-failure-event metrics (Figure 4)",
        )
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    import tempfile
    from pathlib import Path

    from .cluster import EC2_FAILURE_PATTERN
    from .recovery.equivalence import run_chaos_sweep

    pattern = EC2_FAILURE_PATTERN if args.full_pattern else (1, 2)
    _require_survivors(args, "the failure pattern", pattern)
    print(
        f"Chaos sweep: {args.trials} trial(s), {args.files} files, "
        f"{args.nodes} slaves, pattern {pattern}, base seed {args.seed} ..."
    )
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        report = run_chaos_sweep(
            scratch,
            trials=args.trials,
            base_seed=args.seed,
            num_files=args.files,
            num_nodes=args.nodes,
            pattern=pattern,
        )
    for trial in report["trials"]:
        status = "ok" if trial["equivalent"] else f"FAIL: {trial['error']}"
        print(
            f"  seed {trial['seed']}: kill at epoch {trial['kill_epoch']}, "
            f"corrupt {trial['corrupt_epochs']} -> {status}"
        )
    path = Path(args.out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(
        f"{report['num_equivalent']}/{report['num_trials']} trial(s) "
        f"bit-identical after kill + resume; report -> {path}"
    )
    return 0 if report["all_equivalent"] else 1


def _cmd_codec(args: argparse.Namespace) -> int:
    from time import perf_counter

    import numpy as np

    from .codes import pyramid_10_4, rs_10_4, xorbas_lrc
    from .experiments import format_table

    stripes, payload_bytes = args.stripes, args.payload_bytes
    print(
        f"Batched codec engine: {stripes} stripes x {payload_bytes} bytes "
        "per block, encode + node-loss reconstruct per scheme ..."
    )
    rows = []
    all_verified = True
    for code in (rs_10_4(), xorbas_lrc(), pyramid_10_4()):
        rng = np.random.default_rng(args.seed)
        data = code.field.random_elements(rng, (stripes, code.k, payload_bytes))
        start = perf_counter()
        coded = code.encode_stripes(data)
        encode_seconds = perf_counter() - start
        # A node loss erases the same position in every stripe; repair it
        # twice so the second pass exercises the decoder cache.
        lost = (0, code.k)
        available = {
            p: coded[:, p, :] for p in range(code.n) if p not in lost
        }
        start = perf_counter()
        rebuilt = code.reconstruct(lost, available)
        code.reconstruct(lost, available)
        reconstruct_seconds = (perf_counter() - start) / 2.0
        verified = all(
            np.array_equal(rebuilt[:, j, :], coded[:, p, :])
            for j, p in enumerate(lost)
        )
        all_verified = all_verified and verified
        stats = code.engine.stats()
        schedule = code.encode_schedule()
        mb = stripes * code.k * payload_bytes * code.field.dtype.itemsize / 1e6
        rows.append(
            (
                code.name,
                f"{mb / encode_seconds:.0f}",
                f"{mb / reconstruct_seconds:.0f}",
                stats.cache_hits,
                stats.cache_misses,
                f"{stats.schedule_hits}/{stats.schedule_misses}",
                stats.xor_plane_calls,
                f"{schedule.xor_bytes_per_output_byte:.2f}",
                "yes" if verified else "NO",
            )
        )
    print(
        format_table(
            [
                "scheme",
                "encode MB/s",
                "rebuild MB/s",
                "cache hits",
                "misses",
                "sched h/m",
                "XOR calls",
                "XOR/byte",
                "verified",
            ],
            rows,
            title="Codec engine throughput, DecoderCache and ScheduleCache statistics",
        )
    )
    return 0 if all_verified else 1


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    import numpy as np

    from .codes import rs_10_4, three_replication, xorbas_lrc
    from .experiments import format_table
    from .reliability import (
        ClusterReliabilityParameters,
        build_chain,
        compress_chain,
        simulate_scheme_mttdl,
    )
    from .reliability.montecarlo import MAX_STEPS, expected_transitions

    params = ClusterReliabilityParameters()
    codes = (three_replication(), rs_10_4(), xorbas_lrc())
    for code in codes:
        steps = expected_transitions(
            compress_chain(build_chain(code, params), args.repair_scale)
        )
        if steps > MAX_STEPS:
            args.usage_error(
                f"argument --repair-scale: {code.name}'s compressed chain "
                f"needs ~{steps:.1e} transitions per trajectory, over the "
                f"simulator's {MAX_STEPS:,}; use a smaller scale (default 1e-6)"
            )
    print(
        f"Batched Gillespie validation: {args.trials} trajectories per scheme, "
        f"repair rates compressed by {args.repair_scale:g} ..."
    )
    rows = []
    all_consistent = True
    for code in codes:
        sim = simulate_scheme_mttdl(
            code,
            params,
            repair_scale=args.repair_scale,
            trials=args.trials,
            rng=np.random.default_rng(args.seed),
        )
        rows.append(
            (
                sim.name,
                f"{sim.analytic_seconds:.4e}",
                f"{sim.estimate.mean_seconds:.4e}",
                f"{sim.estimate.std_error:.2e}",
                "yes" if sim.consistent else "NO",
            )
        )
        all_consistent = all_consistent and sim.consistent
    print(
        format_table(
            ["scheme", "analytic s", "simulated s", "std err", "within 3 sigma"],
            rows,
            title="Compressed-chain MTTA: closed form vs batched simulation",
        )
    )
    return 0 if all_consistent else 1


def _cmd_facebook(args: argparse.Namespace) -> int:
    from .experiments import format_table, run_facebook_experiment
    from .experiments.facebook import facebook_files_for_blocks

    files = args.files
    if args.blocks is not None:
        files = facebook_files_for_blocks(args.blocks)
        print(f"--blocks {args.blocks:g}: running {files} files (paper size mix)")
    print(f"Running Facebook test-cluster experiment with {files} files ...")
    rows = run_facebook_experiment(num_files=files, seed=args.seed)
    print(
        format_table(
            ["scheme", "blocks lost", "GB read", "GB/block", "duration min"],
            [
                (
                    r.scheme,
                    r.blocks_lost,
                    f"{r.hdfs_gb_read:.1f}",
                    f"{r.gb_read_per_block:.3f}",
                    f"{r.repair_minutes:.1f}",
                )
                for r in rows
            ],
            title="Table 3",
        )
    )
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from .experiments import format_table, run_workload_experiment
    from .experiments.report import fmt_or_na as _fmt

    print("Running the Figure 7 workload experiment (three scenarios) ...")
    results = run_workload_experiment(seed=args.seed)
    print(
        format_table(
            ["scenario", "avg minutes", "bytes read GB", "degraded reads"],
            [
                (
                    r.scenario,
                    _fmt(r.average_minutes),
                    f"{r.total_bytes_read / 1e9:.1f}",
                    r.degraded_reads,
                )
                for r in results.values()
            ],
            title="Table 2",
        )
    )
    return 0


def _cmd_baselines(args: argparse.Namespace) -> int:
    from .experiments.baselines import render_baselines

    print(render_baselines())
    return 0


def _cmd_geo(args: argparse.Namespace) -> int:
    from .experiments.geo import render_geo, run_geo_experiment

    print(render_geo(run_geo_experiment(), stripes=args.stripes))
    return 0


def _cmd_archival(args: argparse.Namespace) -> int:
    from .experiments.archival import render_archival, run_archival_experiment

    rows = run_archival_experiment(
        stripe_sizes=tuple(args.stripes), samples=args.samples, seed=args.seed
    )
    print(render_archival(rows))
    return 0


def _cmd_degraded(args: argparse.Namespace) -> int:
    from .cluster.degraded import DegradedReadConfig
    from .experiments import format_table
    from .experiments.degraded import DegradedScenario, run_degraded_scenarios
    from .experiments.report import fmt_or_na as _fmt

    zipf, diurnal, racks = args.zipf, args.diurnal, args.racks
    duration = args.hours * 3600.0
    defaults = DegradedReadConfig()
    if racks > defaults.num_nodes:
        args.usage_error(
            f"argument --racks: must be at most the {defaults.num_nodes} "
            f"nodes, got {racks}"
        )
    read_rate = defaults.read_rate
    if args.reads is not None:
        read_rate = args.reads / duration
    config = DegradedReadConfig(
        duration=duration,
        read_rate=read_rate,
        zipf_exponent=zipf,
        diurnal_amplitude=diurnal,
        num_racks=racks,
    )
    scenario = []
    if zipf:
        scenario.append(f"zipf={zipf:g}")
    if diurnal:
        scenario.append(f"diurnal={diurnal:g}")
    if racks:
        scenario.append(f"racks={racks}")
    suffix = f" ({', '.join(scenario)})" if scenario else ""
    print(f"Simulating {args.hours:.0f}h of reads under transient outages{suffix} ...")
    (rows,) = run_degraded_scenarios(
        scenarios=(DegradedScenario("cli", config),), seed=args.seed
    ).values()
    print(
        format_table(
            ["scheme", "reads", "degraded", "mean degraded s", "availability"],
            [
                (
                    s.scheme,
                    s.total_reads,
                    _fmt(s.degraded_fraction, ".2%"),
                    _fmt(s.mean_degraded_latency),
                    _fmt(s.availability, ".5f"),
                )
                for s in rows
            ],
            title="Degraded reads (Section 4 availability discussion)",
        )
    )
    return 0


def _cmd_tradeoff(args: argparse.Namespace) -> int:
    from .experiments.tradeoff import locality_sweep, render_tradeoff

    print(render_tradeoff(locality_sweep(certify=args.certify)))
    if not args.certify:
        print("(pass --certify to verify each point's exact distance)")
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    from .experiments.claims import check_all_claims, render_claims

    results = check_all_claims()
    print(render_claims(results))
    return 0 if all(r.holds for r in results) else 1


def _cmd_export(args: argparse.Namespace) -> int:
    from .experiments.export import export_all

    written = export_all(args.out, seed=args.seed)
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
