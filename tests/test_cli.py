"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_defaults(self):
        args = build_parser().parse_args(["ec2"])
        assert args.files == 20
        assert args.nodes == 50
        assert args.jobs is None
        assert args.cache_dir is None

    def test_ec2_parallel_flags(self):
        args = build_parser().parse_args(
            ["ec2", "--jobs", "2", "--cache-dir", "/tmp/repro-cache"]
        )
        assert args.jobs == 2
        assert args.cache_dir == "/tmp/repro-cache"

    def test_montecarlo_defaults(self):
        args = build_parser().parse_args(["montecarlo"])
        assert args.trials == 10_000
        assert args.repair_scale == pytest.approx(1e-6)

    def test_ec2_payload_bytes_flag(self):
        args = build_parser().parse_args(["ec2", "--payload-bytes", "4096"])
        assert args.payload_bytes == 4096
        # Default defers to the library's DEFAULT_PAYLOAD_BYTES at dispatch.
        assert build_parser().parse_args(["ec2"]).payload_bytes is None

    def test_ec2_profile_flag(self):
        assert build_parser().parse_args(["ec2", "--profile"]).profile is True
        assert build_parser().parse_args(["ec2"]).profile is False

    def test_codec_defaults(self):
        args = build_parser().parse_args(["codec"])
        assert args.stripes == 512
        assert args.payload_bytes == 1024

    def test_blocks_flags(self):
        args = build_parser().parse_args(["ec2", "--blocks", "1e6"])
        assert args.blocks == pytest.approx(1e6)
        assert build_parser().parse_args(["ec2"]).blocks is None
        args = build_parser().parse_args(["facebook", "--blocks", "5e5"])
        assert args.blocks == pytest.approx(5e5)

    def test_degraded_flags(self):
        args = build_parser().parse_args(["degraded"])
        assert args.reads is None
        assert args.zipf == 0.0
        assert args.diurnal == 0.0
        assert args.racks == 0
        args = build_parser().parse_args(
            [
                "degraded", "--reads", "1e6", "--zipf", "1.2",
                "--diurnal", "0.5", "--racks", "5",
            ]
        )
        assert args.reads == pytest.approx(1e6)
        assert args.zipf == pytest.approx(1.2)
        assert args.diurnal == pytest.approx(0.5)
        assert args.racks == 5
        # The oracle is not a CLI option: no engine flag on either command.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["degraded", "--engine", "event"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ec2", "--engines", "seed"])

    def test_files_for_blocks_helpers(self):
        from repro.experiments.ec2 import ec2_files_for_blocks
        from repro.experiments.facebook import (
            FACEBOOK_BLOCKS_PER_FILE,
            facebook_files_for_blocks,
        )

        assert ec2_files_for_blocks(1e6) == 100_000  # one k=10 stripe/file
        assert ec2_files_for_blocks(1) == 1
        assert facebook_files_for_blocks(FACEBOOK_BLOCKS_PER_FILE * 50) == 50
        with pytest.raises(ValueError):
            ec2_files_for_blocks(0)
        with pytest.raises(ValueError):
            facebook_files_for_blocks(0.5)


class TestFailFast:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["ec2", "--files", "0"], "--files"),
            (["ec2", "--blocks", "0"], "--blocks"),
            (["fig1", "--days", "0"], "--days"),
            (["montecarlo", "--trials", "0"], "--trials"),
            (["degraded", "--reads", "0"], "--reads"),
            # EC2_FAILURE_PATTERN kills 14 nodes: 5 cannot survive it.
            (["ec2", "--nodes", "5", "--files", "2"], "--nodes"),
            (["facebook", "--files", "0"], "--files"),
            (["codec", "--stripes", "0"], "--stripes"),
            # SeedSequence rejects negative seeds deep inside a run.
            (["degraded", "--seed", "-1"], "--seed"),
            (["fig1", "--seed", "-1"], "--seed"),
            (["codec", "--seed", "-1"], "--seed"),
            (["degraded", "--diurnal", "1.0"], "--diurnal"),
            (["degraded", "--zipf", "-1"], "--zipf"),
            (["degraded", "--racks", "-1"], "--racks"),
            # More racks than the 50 nodes.
            (["degraded", "--racks", "60"], "--racks"),
            # ~1e26 expected transitions per trajectory, over MAX_STEPS.
            (["montecarlo", "--repair-scale", "5"], "--repair-scale"),
            # Below one block / two trials: no file to run, no std error.
            (["ec2", "--blocks", "0.5"], "--blocks"),
            (["facebook", "--blocks", "0.4"], "--blocks"),
            (["montecarlo", "--trials", "1"], "--trials"),
        ],
    )
    def test_bad_counts_exit_2_at_the_parser(self, argv, flag, capsys):
        """Arguments ``--help`` advertises fail as usage errors, before
        anything is simulated, instead of tracebacks or all-zero tables."""
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert f"repro {argv[0]}: error:" in captured.err
        assert flag in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["abc", "0", "-3"])
    def test_bad_repro_jobs_exits_2(self, value, monkeypatch, capsys):
        """``REPRO_JOBS`` sets the worker count when ``--jobs`` is not
        given: a value that is not a positive integer is a usage error
        naming it, not a traceback or one silent worker."""
        monkeypatch.setenv("REPRO_JOBS", value)
        with pytest.raises(SystemExit) as excinfo:
            main(["ec2", "--files", "2", "--nodes", "25"])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "repro ec2: error: REPRO_JOBS" in captured.err
        assert captured.out == ""


    def test_ec2_that_cannot_quiesce_exits_2(self, monkeypatch, capsys):
        """A cluster too small for its data outlasts the simulated repair
        budget on every attempt: one line naming ``--nodes`` and the
        advertised scale, exit 2, no worker traceback."""
        from repro.experiments import runner

        quiesce = runner.run_until_quiescent
        monkeypatch.setattr(  # a budget no repair fits in
            runner,
            "run_until_quiescent",
            lambda cluster, fixer: quiesce(cluster, fixer, timeout=1.0),
        )
        assert main(["ec2", "--files", "2", "--nodes", "25", "--jobs", "1"]) == 2
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err + captured.out
        (line,) = captured.err.splitlines()
        assert line.startswith("repro ec2: error: repairs did not quiesce")
        assert "--nodes 25" in line
        assert "--blocks 1e5 needs about --nodes 400" in line


class TestCommands:
    @pytest.mark.slow  # exhaustive distance certification over all patterns
    def test_certify(self, capsys, monkeypatch, xorbas_certification):
        """The CLI wiring end to end, with the exhaustive enumeration
        itself executed once per session by the shared fixture: each
        certifier must be handed the Xorbas code and the claimed value."""
        import repro.codes

        calls = []

        def recorder(name):
            def certify(code, expected):
                assert np.array_equal(
                    code.generator, xorbas_certification.code.generator
                )
                assert expected == 5
                calls.append(name)
                return getattr(xorbas_certification, name)

            return certify

        monkeypatch.setattr(repro.codes, "certify_distance", recorder("distance"))
        monkeypatch.setattr(repro.codes, "certify_locality", recorder("locality"))
        assert main(["certify"]) == 0
        assert calls == ["distance", "locality"]
        out = capsys.readouterr().out
        assert "distance d = 5" in out
        assert "locality r = 5" in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "3-replication" in out
        assert "LRC (10,6,5)" in out

    def test_fig1(self, capsys):
        assert main(["fig1", "--days", "7", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "day  7" in out

    def test_ec2_small(self, capsys):
        assert main(["ec2", "--files", "4", "--nodes", "20"]) == 0
        out = capsys.readouterr().out
        assert "HDFS-RS" in out and "HDFS-Xorbas" in out

    def test_ec2_profile_prints_hot_functions(self, capsys):
        assert main(["ec2", "--files", "2", "--nodes", "20", "--profile"]) == 0
        out = capsys.readouterr().out
        # pstats cumulative-time report, plus the experiment table.
        assert "cumulative" in out
        assert "ncalls" in out
        assert "HDFS-Xorbas" in out

    def test_ec2_blocks_knob(self, capsys):
        # --blocks sizes the run by data blocks: 40 blocks = 4 files.
        assert main(["ec2", "--blocks", "40", "--nodes", "20"]) == 0
        out = capsys.readouterr().out
        assert "running 4 one-stripe files" in out
        assert "HDFS-Xorbas" in out

    def test_codec(self, capsys):
        assert main(["codec", "--stripes", "32", "--payload-bytes", "64"]) == 0
        out = capsys.readouterr().out
        assert "DecoderCache" in out
        assert "RS(10,4)" in out and "LRC(10,6,5)" in out
        assert "NO" not in out  # every batched rebuild verified

    def test_facebook_small(self, capsys):
        assert main(["facebook", "--files", "40"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out

    def test_workload(self, capsys):
        assert main(["workload"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "20% missing" in out

    def test_degraded_vectorized_default(self, capsys):
        assert main(["degraded", "--hours", "0.5", "--reads", "2000"]) == 0
        out = capsys.readouterr().out
        assert "LRC(10,6,5)" in out
        assert "availability" in out

    def test_degraded_event_engine_and_scenarios(self, capsys):
        assert (
            main(
                [
                    "degraded", "--hours", "0.5", "--reads", "1500",
                    "--zipf", "1.2", "--racks", "5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "zipf=1.2" in out and "racks=5" in out
        assert "RS(10,4)" in out

    def test_degraded_empty_window_prints_na(self, capsys):
        # 0.001h at ~1 read/h: no arrivals, so the NaN guard must render
        # n/a instead of a misleading 100% availability.
        assert main(["degraded", "--hours", "0.001", "--reads", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "n/a" in out
