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
    )

    sub.add_parser("table1", help="regenerate Table 1 (reliability comparison)")

    fig1 = sub.add_parser("fig1", help="generate the Figure 1 failure trace")
    fig1.add_argument("--days", type=int, default=31)
    fig1.add_argument("--seed", type=int, default=21)

    ec2 = sub.add_parser("ec2", help="run a (scaled) EC2 failure experiment")
    ec2.add_argument("--files", type=int, default=20)
    ec2.add_argument(
        "--blocks",
        type=float,
        default=None,
        help=(
            "target total data blocks (overrides --files).  Scale --nodes "
            "with it or repairs cannot quiesce in the simulated budget: "
            "--blocks 1e5 needs about --nodes 400, not the default 50"
        ),
    )
    ec2.add_argument("--nodes", type=int, default=50)
    ec2.add_argument("--seed", type=int, default=0)
    ec2.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for the scheme runs (default: CPU count)",
    )
    ec2.add_argument(
        "--cache-dir",
        default=None,
        help="reuse/store results in this on-disk cache directory",
    )
    ec2.add_argument(
        "--payload-bytes",
        type=int,
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

    chaos = sub.add_parser(
        "chaos",
        help=(
            "seeded kill/corrupt chaos sweep over the checkpoint-resume "
            "plane, asserting bit-identical recovery per trial"
        ),
    )
    chaos.add_argument("--trials", type=int, default=3)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--files", type=int, default=3)
    chaos.add_argument("--nodes", type=int, default=20)
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

    codec = sub.add_parser(
        "codec",
        help="exercise the batched codec engine and print cache statistics",
    )
    codec.add_argument("--stripes", type=int, default=512)
    codec.add_argument("--payload-bytes", type=int, default=1024)
    codec.add_argument("--seed", type=int, default=0)

    montecarlo = sub.add_parser(
        "montecarlo",
        help="batched Gillespie validation of the analytic MTTDL solver",
    )
    montecarlo.add_argument("--trials", type=int, default=10_000)
    montecarlo.add_argument(
        "--repair-scale",
        type=float,
        default=1e-6,
        help="repair-rate compression making absorption simulable",
    )
    montecarlo.add_argument("--seed", type=int, default=0)

    facebook = sub.add_parser("facebook", help="run the Table 3 experiment")
    facebook.add_argument("--files", type=int, default=200)
    facebook.add_argument(
        "--blocks",
        type=float,
        default=None,
        help="target total data blocks (overrides --files)",
    )
    facebook.add_argument("--seed", type=int, default=0)

    workload = sub.add_parser(
        "workload", help="run the Figure 7 / Table 2 workload experiment"
    )
    workload.add_argument("--seed", type=int, default=0)

    sub.add_parser(
        "baselines",
        help="compare code families (replication/RS/Pyramid/LRC/SRC)",
    )

    geo = sub.add_parser(
        "geo", help="geo-distributed WAN repair comparison (Section 1.1)"
    )
    geo.add_argument("--stripes", type=float, default=1e6)

    archival = sub.add_parser(
        "archival", help="archival stripe-size sweep (Section 7)"
    )
    archival.add_argument(
        "--stripes", type=int, nargs="+", default=[10, 20, 50, 100]
    )
    archival.add_argument("--samples", type=int, default=150)
    archival.add_argument("--seed", type=int, default=0)

    degraded = sub.add_parser(
        "degraded", help="degraded-read availability experiment (Section 4)"
    )
    degraded.add_argument("--hours", type=float, default=6.0)
    degraded.add_argument("--seed", type=int, default=3)
    degraded.add_argument(
        "--reads",
        type=float,
        default=None,
        help=(
            "target total client reads over the horizon (sets the read "
            "rate; 1e6+ is practical)"
        ),
    )
    degraded.add_argument(
        "--zipf",
        type=float,
        default=0.0,
        help="Zipf exponent for hot/cold stripe popularity (0 = uniform)",
    )
    degraded.add_argument(
        "--diurnal",
        type=float,
        default=0.0,
        help="diurnal read-rate modulation amplitude in [0, 1)",
    )
    degraded.add_argument(
        "--racks",
        type=int,
        default=0,
        help="number of racks with a correlated rack-outage process (0 = off)",
    )

    tradeoff = sub.add_parser(
        "tradeoff", help="locality/storage/repair frontier (Sections 1.1-2)"
    )
    tradeoff.add_argument(
        "--certify",
        action="store_true",
        help="exhaustively certify each point's distance (slow)",
    )

    export = sub.add_parser(
        "export", help="export the analytical artefacts as CSV"
    )
    export.add_argument("--out", default="results/csv")
    export.add_argument("--seed", type=int, default=0)

    sub.add_parser(
        "claims", help="check the paper's quantitative claims against the code"
    )

    lint = sub.add_parser(
        "lint", help="run reprolint, the repo's AST invariant analyzer"
    )
    from .analysis.cli import add_lint_arguments

    add_lint_arguments(lint)
    return parser


def _cmd_certify() -> int:
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


def _cmd_table1() -> int:
    from .experiments import render_table1

    print(render_table1())
    return 0


def _cmd_fig1(days: int, seed: int) -> int:
    from .experiments import render_fig1
    from .experiments.traces import generate_fig1_trace

    print(render_fig1(generate_fig1_trace(days=days, seed=seed)))
    return 0


def _cmd_ec2(
    files: int,
    nodes: int,
    seed: int,
    jobs: int | None,
    cache_dir: str | None,
    payload_bytes: int | None,
    blocks: float | None = None,
    profile: bool = False,
    checkpoint_dir: str | None = None,
    resume: bool = False,
) -> int:
    from .experiments import ResultCache, format_table, run_ec2_experiment_parallel
    from .experiments.ec2 import DEFAULT_PAYLOAD_BYTES, ec2_files_for_blocks

    if payload_bytes is None:
        payload_bytes = DEFAULT_PAYLOAD_BYTES
    if blocks is not None:
        files = ec2_files_for_blocks(blocks)
        print(f"--blocks {blocks:g}: running {files} one-stripe files")
    if resume and not checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if checkpoint_dir:
        verb = "resuming from" if resume else "checkpointing to"
        print(f"{verb} {checkpoint_dir} at each failure-epoch boundary")
    if profile:
        # Workers would take the interesting frames with them, and a
        # cache hit measures pickle loading: profile one process, fresh.
        jobs, cache_dir = 1, None
    cache = ResultCache(cache_dir) if cache_dir else None
    print(
        f"Running EC2 experiment: {files} files, {nodes} slaves, "
        f"{payload_bytes}-byte verification payloads ..."
    )

    def execute():
        return run_ec2_experiment_parallel(
            num_files=files,
            num_nodes=nodes,
            seed=seed,
            jobs=jobs,
            cache=cache,
            payload_bytes=payload_bytes,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
        )

    if profile:
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


def _cmd_chaos(
    trials: int,
    seed: int,
    files: int,
    nodes: int,
    full_pattern: bool,
    out: str,
) -> int:
    import json
    import tempfile
    from pathlib import Path

    from .cluster import EC2_FAILURE_PATTERN
    from .recovery.equivalence import run_chaos_sweep

    pattern = EC2_FAILURE_PATTERN if full_pattern else (1, 2)
    print(
        f"Chaos sweep: {trials} trial(s), {files} files, {nodes} slaves, "
        f"pattern {pattern}, base seed {seed} ..."
    )
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch:
        report = run_chaos_sweep(
            scratch,
            trials=trials,
            base_seed=seed,
            num_files=files,
            num_nodes=nodes,
            pattern=pattern,
        )
    for trial in report["trials"]:
        status = "ok" if trial["equivalent"] else f"FAIL: {trial['error']}"
        print(
            f"  seed {trial['seed']}: kill at epoch {trial['kill_epoch']}, "
            f"corrupt {trial['corrupt_epochs']} -> {status}"
        )
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(
        f"{report['num_equivalent']}/{report['num_trials']} trial(s) "
        f"bit-identical after kill + resume; report -> {path}"
    )
    return 0 if report["all_equivalent"] else 1


def _cmd_codec(stripes: int, payload_bytes: int, seed: int) -> int:
    from time import perf_counter

    import numpy as np

    from .codes import pyramid_10_4, rs_10_4, xorbas_lrc
    from .experiments import format_table

    print(
        f"Batched codec engine: {stripes} stripes x {payload_bytes} bytes "
        "per block, encode + node-loss reconstruct per scheme ..."
    )
    rows = []
    all_verified = True
    for code in (rs_10_4(), xorbas_lrc(), pyramid_10_4()):
        rng = np.random.default_rng(seed)
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


def _cmd_montecarlo(trials: int, repair_scale: float, seed: int) -> int:
    import numpy as np

    from .codes import rs_10_4, three_replication, xorbas_lrc
    from .experiments import format_table
    from .reliability import ClusterReliabilityParameters, simulate_scheme_mttdl

    params = ClusterReliabilityParameters()
    print(
        f"Batched Gillespie validation: {trials} trajectories per scheme, "
        f"repair rates compressed by {repair_scale:g} ..."
    )
    rows = []
    all_consistent = True
    for code in (three_replication(), rs_10_4(), xorbas_lrc()):
        sim = simulate_scheme_mttdl(
            code,
            params,
            repair_scale=repair_scale,
            trials=trials,
            rng=np.random.default_rng(seed),
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


def _cmd_facebook(files: int, seed: int, blocks: float | None = None) -> int:
    from .experiments import format_table, run_facebook_experiment
    from .experiments.facebook import facebook_files_for_blocks

    if blocks is not None:
        files = facebook_files_for_blocks(blocks)
        print(f"--blocks {blocks:g}: running {files} files (paper size mix)")
    print(f"Running Facebook test-cluster experiment with {files} files ...")
    rows = run_facebook_experiment(num_files=files, seed=seed)
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


def _cmd_workload(seed: int) -> int:
    from .experiments import format_table, run_workload_experiment
    from .experiments.report import fmt_or_na as _fmt

    print("Running the Figure 7 workload experiment (three scenarios) ...")
    results = run_workload_experiment(seed=seed)
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


def _cmd_baselines() -> int:
    from .experiments.baselines import render_baselines

    print(render_baselines())
    return 0


def _cmd_geo(stripes: float) -> int:
    from .experiments.geo import render_geo, run_geo_experiment

    print(render_geo(run_geo_experiment(), stripes=stripes))
    return 0


def _cmd_archival(stripe_sizes: list[int], samples: int, seed: int) -> int:
    from .experiments.archival import render_archival, run_archival_experiment

    rows = run_archival_experiment(
        stripe_sizes=tuple(stripe_sizes), samples=samples, seed=seed
    )
    print(render_archival(rows))
    return 0


def _cmd_degraded(
    hours: float,
    seed: int,
    reads: float | None = None,
    zipf: float = 0.0,
    diurnal: float = 0.0,
    racks: int = 0,
) -> int:
    from .cluster.degraded import DegradedReadConfig, compare_degraded_reads
    from .codes import rs_10_4, three_replication, xorbas_lrc
    from .experiments import format_table
    from .experiments.report import fmt_or_na as _fmt

    duration = hours * 3600.0
    # reads <= 0 flows into read_rate and is rejected by validate().
    read_rate = (
        reads / duration if reads is not None else DegradedReadConfig().read_rate
    )
    config = DegradedReadConfig(
        duration=duration,
        read_rate=read_rate,
        zipf_exponent=zipf,
        diurnal_amplitude=diurnal,
        num_racks=racks,
    )
    codes = [three_replication(), rs_10_4(), xorbas_lrc()]
    scenario = []
    if zipf:
        scenario.append(f"zipf={zipf:g}")
    if diurnal:
        scenario.append(f"diurnal={diurnal:g}")
    if racks:
        scenario.append(f"racks={racks}")
    suffix = f" ({', '.join(scenario)})" if scenario else ""
    print(f"Simulating {hours:.0f}h of reads under transient outages{suffix} ...")
    rows = compare_degraded_reads(codes, config=config, seed=seed)
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


def _cmd_tradeoff(certify: bool) -> int:
    from .experiments.tradeoff import locality_sweep, render_tradeoff

    print(render_tradeoff(locality_sweep(certify=certify)))
    if not certify:
        print("(pass --certify to verify each point's exact distance)")
    return 0


def _cmd_claims() -> int:
    from .experiments.claims import check_all_claims, render_claims

    results = check_all_claims()
    print(render_claims(results))
    return 0 if all(r.holds for r in results) else 1


def _cmd_export(out: str, seed: int) -> int:
    from .experiments.export import export_all

    written = export_all(out, seed=seed)
    for path in written:
        print(f"wrote {path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "certify":
        return _cmd_certify()
    if args.command == "table1":
        return _cmd_table1()
    if args.command == "fig1":
        return _cmd_fig1(args.days, args.seed)
    if args.command == "ec2":
        return _cmd_ec2(
            args.files,
            args.nodes,
            args.seed,
            args.jobs,
            args.cache_dir,
            args.payload_bytes,
            args.blocks,
            args.profile,
            args.checkpoint_dir,
            args.resume,
        )
    if args.command == "chaos":
        return _cmd_chaos(
            args.trials,
            args.seed,
            args.files,
            args.nodes,
            args.full_pattern,
            args.out,
        )
    if args.command == "codec":
        return _cmd_codec(args.stripes, args.payload_bytes, args.seed)
    if args.command == "montecarlo":
        return _cmd_montecarlo(args.trials, args.repair_scale, args.seed)
    if args.command == "facebook":
        return _cmd_facebook(args.files, args.seed, args.blocks)
    if args.command == "workload":
        return _cmd_workload(args.seed)
    if args.command == "baselines":
        return _cmd_baselines()
    if args.command == "geo":
        return _cmd_geo(args.stripes)
    if args.command == "archival":
        return _cmd_archival(args.stripes, args.samples, args.seed)
    if args.command == "degraded":
        return _cmd_degraded(
            args.hours,
            args.seed,
            args.reads,
            args.zipf,
            args.diurnal,
            args.racks,
        )
    if args.command == "tradeoff":
        return _cmd_tradeoff(args.certify)
    if args.command == "export":
        return _cmd_export(args.out, args.seed)
    if args.command == "claims":
        return _cmd_claims()
    if args.command == "lint":
        from .analysis.cli import run_lint

        return run_lint(args)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
