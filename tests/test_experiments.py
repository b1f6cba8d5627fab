"""Tests for the experiment harnesses (scaled down for speed).

The full-scale parameters run in the benchmarks; here the same code paths
run against small clusters so the suite stays fast while covering every
harness end to end.
"""

import numpy as np
import pytest

from repro.codes import rs_10_4, xorbas_lrc
from repro.cluster import ec2_config
from repro.experiments import (
    PAPER_TABLE2,
    fig6_slopes,
    generate_fig1_trace,
    least_squares_slope,
    render_fig1,
    render_table1,
    run_ec2_experiment_parallel,
    run_facebook_experiment,
    run_workload_scenario,
    table1_comparison,
)
from repro.experiments.facebook import facebook_file_sizes
from repro.experiments.report import format_bar_chart, format_series, format_table


@pytest.fixture(scope="module")
def small_ec2():
    return run_ec2_experiment_parallel(
        num_files=6, seed=1, num_nodes=20, pattern=(1, 2), jobs=1
    )


class TestEC2Harness:
    def test_events_recorded(self, small_ec2):
        assert len(small_ec2.rs.events) == 2
        assert len(small_ec2.xorbas.events) == 2

    def test_all_blocks_repaired(self, small_ec2):
        for run in small_ec2.runs():
            assert run.fsck["missing_blocks"] == 0
            assert not run.data_loss_events

    def test_xorbas_reads_less(self, small_ec2):
        assert (
            small_ec2.xorbas.metrics.hdfs_bytes_read
            < small_ec2.rs.metrics.hdfs_bytes_read
        )

    def test_single_node_read_ratio_near_5_13(self, small_ec2):
        rs_event = small_ec2.rs.events[0]
        xorbas_event = small_ec2.xorbas.events[0]
        rs_per_block = rs_event.hdfs_bytes_read / rs_event.blocks_lost
        xorbas_per_block = xorbas_event.hdfs_bytes_read / xorbas_event.blocks_lost
        assert rs_per_block == pytest.approx(13 * 64e6, rel=0.01)
        assert xorbas_per_block == pytest.approx(5 * 64e6, rel=0.01)

    def test_traffic_tracks_reads(self, small_ec2):
        for run in small_ec2.runs():
            ratio = run.metrics.network_out_bytes / run.metrics.hdfs_bytes_read
            assert 1.5 <= ratio <= 2.5

    def test_xorbas_repairs_faster_per_block(self, small_ec2):
        slopes = fig6_slopes([small_ec2])
        assert (
            slopes["HDFS-Xorbas"]["repair_minutes_per_lost"]
            < slopes["HDFS-RS"]["repair_minutes_per_lost"]
        )
        assert (
            slopes["HDFS-Xorbas"]["blocks_read_per_lost"]
            < slopes["HDFS-RS"]["blocks_read_per_lost"]
        )

    def test_timeseries_cover_all_events(self, small_ec2):
        for run in small_ec2.runs():
            assert run.metrics.network_series.total() == pytest.approx(
                run.metrics.network_out_bytes
            )


class TestLeastSquares:
    def test_slope_exact_for_linear_data(self):
        xs = [1.0, 2.0, 3.0]
        ys = [2.0, 4.0, 6.0]
        assert least_squares_slope(xs, ys) == pytest.approx(2.0)

    def test_zero_x_rejected(self):
        with pytest.raises(ValueError):
            least_squares_slope([0.0], [1.0])


class TestFacebookHarness:
    def test_file_size_mix(self):
        sizes = facebook_file_sizes(num_files=2000, seed=0)
        small = sum(1 for s in sizes if s == 3 * 256e6)
        assert 0.9 <= small / len(sizes) <= 0.98
        assert set(sizes) == {3 * 256e6, 10 * 256e6}

    def test_small_scale_run(self):
        rows = run_facebook_experiment(num_files=60, seed=2, num_nodes=20)
        rs_row, xorbas_row = rows
        assert rs_row.scheme == "HDFS-RS"
        assert xorbas_row.gb_read_per_block < rs_row.gb_read_per_block
        assert xorbas_row.storage_blocks > rs_row.storage_blocks
        # Zero padding keeps per-block reads far below the full-stripe 13.
        assert rs_row.gb_read_per_block < 13 * 0.256
        assert xorbas_row.gb_read_per_block < 5 * 0.256


class TestWorkloadHarness:
    @pytest.fixture(scope="class")
    def scenarios(self):
        baseline = run_workload_scenario("base", xorbas_lrc(), 0.0, seed=3)
        rs = run_workload_scenario("rs", rs_10_4(), 0.2, seed=3)
        xorbas = run_workload_scenario("xorbas", xorbas_lrc(), 0.2, seed=3)
        return baseline, rs, xorbas

    def test_ordering_matches_figure7(self, scenarios):
        baseline, rs, xorbas = scenarios
        assert baseline.average_minutes < xorbas.average_minutes < rs.average_minutes

    def test_degraded_reads_counted(self, scenarios):
        _, rs, xorbas = scenarios
        assert rs.degraded_reads > 0
        assert xorbas.degraded_reads == rs.degraded_reads  # same loss pattern

    def test_baseline_reads_input_once(self, scenarios):
        baseline, _, _ = scenarios
        expected = 10 * 47 * 64e6  # 10 jobs x 47 blocks x 64 MB
        assert baseline.total_bytes_read == pytest.approx(expected, rel=0.01)

    def test_paper_reference_constants(self):
        assert PAPER_TABLE2["rs_minutes"] > PAPER_TABLE2["xorbas_minutes"]


class TestTable1Harness:
    def test_rows_and_rendering(self):
        comparisons = table1_comparison()
        assert [c.scheme for c in comparisons] == [
            "3-replication",
            "RS (10,4)",
            "LRC (10,6,5)",
        ]
        text = render_table1(comparisons)
        assert "MTTDL" in text
        assert "3-replication" in text

    def test_measured_ordering(self):
        comparisons = table1_comparison()
        assert (
            comparisons[0].mttdl_days
            < comparisons[1].mttdl_days
            < comparisons[2].mttdl_days
        )


class TestFig1Harness:
    def test_trace_and_rendering(self):
        trace = generate_fig1_trace(days=14, seed=0)
        text = render_fig1(trace)
        assert "day 14" in text
        assert "Summary" in text


class TestReportFormatting:
    def test_format_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 1e9]], title="T")
        assert text.startswith("T\n")
        assert "1.0000e+09" in text

    def test_format_series(self):
        text = format_series("net", [(0.0, 1.0), (300.0, 2.0)], scale=2.0)
        assert "0m:2.0" in text and "5m:4.0" in text

    def test_format_bar_chart(self):
        text = format_bar_chart(
            "title", ["e1"], {"RS": [10.0], "Xorbas": [5.0]}, unit="GB"
        )
        assert "RS" in text and "Xorbas" in text and "#" in text


class TestRunnerGuards:
    def test_quiescence_timeout_raises(self):
        # A cluster whose BlockFixer never starts cannot quiesce.
        from repro.cluster import BlockFixer, FailureInjector, HadoopCluster
        from repro.experiments.runner import run_until_quiescent

        cluster = HadoopCluster(xorbas_lrc(), ec2_config(num_nodes=20), seed=0)
        cluster.create_file("f", 640e6)
        cluster.raid_all_instant()
        fixer = BlockFixer(cluster)  # never started
        FailureInjector(cluster, np.random.default_rng(0)).kill(1)
        with pytest.raises(RuntimeError):
            run_until_quiescent(cluster, fixer, timeout=100.0)
