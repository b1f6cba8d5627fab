"""The parallel experiment runner and its on-disk result cache."""

import pickle
import struct
from pathlib import Path

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import (
    ResultCache,
    WorkerError,
    config_hash,
    parallel_map,
    result_key,
)
from repro.experiments.ec2 import (
    run_ec2_experiment_parallel,
    scheme_config,
)

SMALL = dict(num_files=3, seed=5, num_nodes=20, pattern=(1, 2), event_gap=120.0)


def _double(config):
    """Module-level worker so it pickles into pool processes."""
    return config["x"] * 2


def _maybe_fail(config):
    if config.get("fail"):
        raise RuntimeError(f"poisoned config x={config['x']}")
    return config["x"]


def _count_then_raise(config):
    """Appends one line per invocation to the marker, then raises the
    configured exception type — the attempt count survives the raise."""
    with open(config["marker"], "a") as fh:
        fh.write("attempt\n")
    raise config["error"]("always fails")


def _crash_then_succeed(config):
    """Raises ``OSError`` on its first ``crashes`` attempts (counted in
    the marker file), then succeeds."""
    marker = Path(config["marker"])
    with marker.open("a") as fh:
        fh.write("attempt\n")
    if len(marker.read_text().splitlines()) <= config["crashes"]:
        raise OSError("transient worker crash")
    return "recovered"


def _flaky(config):
    """Fails on the first attempt (per marker file), succeeds after."""
    marker = Path(config["marker"])
    if not marker.exists():
        marker.write_text("attempt 1 crashed")
        raise OSError("transient worker crash")
    return "recovered"


class TestConfigHash:
    def test_stable_across_key_order(self):
        assert config_hash({"a": 1, "b": [2, 3]}) == config_hash({"b": [2, 3], "a": 1})

    def test_value_sensitivity(self):
        base = {"scheme": "HDFS-RS", "seed": 0}
        assert config_hash(base) != config_hash({**base, "seed": 1})
        assert config_hash(base) != config_hash({**base, "scheme": "HDFS-Xorbas"})

    def test_scheme_config_hash_covers_every_knob(self):
        base = scheme_config("HDFS-RS", **SMALL)
        for knob, changed in [
            ("num_files", 4),
            ("seed", 6),
            ("num_nodes", 25),
            ("pattern", [2, 1]),
            ("event_gap", 60.0),
        ]:
            assert config_hash({**base, knob: changed}) != config_hash(base), knob


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = result_key({"a": 1}, namespace="unit")
        assert key.startswith("unit-")
        assert cache.get(key) is None
        cache.put(key, {"value": [1, 2, 3]})
        assert cache.get(key) == {"value": [1, 2, 3]}
        assert (cache.hits, cache.misses) == (1, 1)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = result_key({"a": 1})
        cache.put(key, "good")
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None
        cache.put(key, "rewritten")
        assert cache.get(key) == "rewritten"

    def test_truncated_entry_quarantined_as_corrupt(self, tmp_path):
        """A half-written entry reads as a miss and is renamed aside
        (``.corrupt``) so the rewrite cannot race it and the evidence
        survives for debugging."""
        cache = ResultCache(tmp_path)
        key = result_key({"a": 1})
        cache.put(key, {"payload": list(range(100))})
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(key) is None
        quarantined = path.with_suffix(path.suffix + ".corrupt")
        assert quarantined.exists()
        assert not path.exists()
        cache.put(key, "rewritten")
        assert cache.get(key) == "rewritten"

    def test_bitflipped_result_misses(self, tmp_path):
        """One flipped byte inside a stored float fails the checksum:
        the entry misses and is moved aside, never returned altered."""
        cache = ResultCache(tmp_path)
        key = result_key({"a": 1})
        cache.put(key, {"network_out_bytes": 3161600000.0})
        path = cache.path_for(key)
        raw = bytearray(path.read_bytes())
        at = raw.rindex(struct.pack(">d", 3161600000.0))  # pickle's BINFLOAT
        raw[at + 3] ^= 0x01  # 3161600000.0 would read back as 3161602048.0
        path.write_bytes(bytes(raw))
        assert cache.get(key) is None
        assert (cache.hits, cache.misses) == (0, 1)
        assert path.with_suffix(path.suffix + ".corrupt").exists()

    def test_runtime_keys_excluded_from_cache_key(self):
        """Underscore-prefixed config keys are runtime plumbing: a
        checkpoint-resumed run re-enters the cache under the hash of its
        semantic fields."""
        plain = result_key({"a": 1}, namespace="ec2")
        plumbed = result_key(
            {"a": 1, "_runtime": {"checkpoint_dir": "/x", "resume": True}},
            namespace="ec2",
        )
        assert plain == plumbed
        assert plain != result_key({"a": 2}, namespace="ec2")

    def test_result_from_other_source_misses(self, tmp_path, monkeypatch):
        """The key carries the source fingerprint: a result written by
        other code is never returned, whatever its config."""
        cache = ResultCache(tmp_path)
        calls = []

        def counting(config):
            calls.append(config["x"])
            return config["x"] * 2

        assert parallel_map(counting, [{"x": 1}], jobs=1, cache=cache) == [2]
        monkeypatch.setattr(parallel, "source_fingerprint", lambda: "other code")
        assert parallel_map(counting, [{"x": 1}], jobs=1, cache=cache) == [2]
        assert calls == [1, 1]
        assert (cache.hits, cache.misses) == (0, 2)


class TestParallelMap:
    def test_results_in_config_order(self, tmp_path):
        configs = [{"x": i} for i in range(7)]
        assert parallel_map(_double, configs, jobs=1) == [i * 2 for i in range(7)]

    def test_fans_across_processes(self):
        configs = [{"x": i} for i in range(5)]
        assert parallel_map(_double, configs, jobs=2) == [0, 2, 4, 6, 8]

    def test_cache_hits_skip_the_worker(self, tmp_path):
        cache = ResultCache(tmp_path)
        calls = []

        def counting(config):
            calls.append(config["x"])
            return config["x"] * 2

        configs = [{"x": 1}, {"x": 2}]
        first = parallel_map(counting, configs, jobs=1, cache=cache, namespace="t")
        second = parallel_map(counting, configs, jobs=1, cache=cache, namespace="t")
        assert first == second == [2, 4]
        assert calls == [1, 2]  # second pass never reached the worker
        assert cache.hits == 2

    def test_new_config_runs_fresh_alongside_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        parallel_map(_double, [{"x": 1}], jobs=1, cache=cache)
        results = parallel_map(_double, [{"x": 1}, {"x": 9}], jobs=1, cache=cache)
        assert results == [2, 18]
        assert cache.hits == 1 and cache.misses >= 1

    def test_namespace_separates_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        parallel_map(_double, [{"x": 3}], jobs=1, cache=cache, namespace="a")
        calls = []

        def other(config):
            calls.append(config["x"])
            return -config["x"]

        result = parallel_map(other, [{"x": 3}], jobs=1, cache=cache, namespace="b")
        assert result == [-3] and calls == [3]


class TestRetriesAndFailures:
    def test_worker_error_carries_failing_config(self):
        with pytest.raises(WorkerError) as info:
            parallel_map(_maybe_fail, [{"x": 7, "fail": True}], jobs=1)
        error = info.value
        assert error.config == {"x": 7, "fail": True}
        assert error.attempts == 1
        assert "poisoned config x=7" in error.cause_repr
        assert "RuntimeError" in error.cause_traceback
        assert "'x': 7" in str(error)

    def test_retry_recovers_transient_failure(self, tmp_path):
        config = {"marker": str(tmp_path / "attempted")}
        result = parallel_map(_flaky, [config], jobs=1)
        assert result == ["recovered"]

    def test_retries_default_to_two(self, tmp_path):
        """Two retries (three attempts): a worker whose first two
        attempts hit an ``OSError`` still succeeds."""
        marker = tmp_path / "attempts"
        config = {"marker": str(marker), "crashes": 2}
        assert parallel_map(_crash_then_succeed, [config], jobs=1) == ["recovered"]
        assert len(marker.read_text().splitlines()) == 3

    def test_exhausted_retries_report_attempt_count(self, tmp_path):
        marker = tmp_path / "attempts"
        with pytest.raises(WorkerError) as info:
            parallel_map(
                _count_then_raise,
                [{"marker": str(marker), "error": OSError}],
                jobs=1,
            )
        assert info.value.attempts == 3
        assert len(marker.read_text().splitlines()) == 3

    def test_deterministic_failure_is_not_retried(self, tmp_path):
        # A seeded simulation that raises ValueError raises it every
        # time: rerunning it is wasted wall-clock, so only OSError retries.
        marker = tmp_path / "attempts"
        with pytest.raises(WorkerError) as info:
            parallel_map(
                _count_then_raise,
                [{"marker": str(marker), "error": ValueError}],
                jobs=1,
            )
        assert info.value.attempts == 1
        assert len(marker.read_text().splitlines()) == 1

    def test_pool_survives_poisoned_task(self):
        """A task that raises inside a pool worker comes back as a
        WorkerError naming its config, not a hung or crashed pool."""
        configs = [{"x": i, "fail": i == 1} for i in range(4)]
        with pytest.raises(WorkerError) as info:
            parallel_map(_maybe_fail, configs, jobs=2)
        assert info.value.config == {"x": 1, "fail": True}

    def test_invalid_knobs_rejected(self, monkeypatch):
        """``REPRO_JOBS`` is the worker-count knob: anything but a
        positive integer is an error naming it, not one silent worker."""
        for value in ("abc", "0", "-3", "1.5"):
            monkeypatch.setenv("REPRO_JOBS", value)
            with pytest.raises(ValueError, match="REPRO_JOBS"):
                parallel_map(_double, [{"x": 1}])


class TestEC2Pipeline:
    @pytest.fixture(scope="class")
    def cached_run(self, tmp_path_factory):
        cache = ResultCache(tmp_path_factory.mktemp("ec2-cache"))
        summary = run_ec2_experiment_parallel(**SMALL, jobs=1, cache=cache)
        return cache, summary

    def test_summary_is_picklable_and_complete(self, cached_run):
        _, summary = cached_run
        clone = pickle.loads(pickle.dumps(summary))
        assert [run.scheme for run in clone.runs()] == ["HDFS-RS", "HDFS-Xorbas"]
        for run in clone.runs():
            assert run.fsck["missing_blocks"] == 0
            assert not run.data_loss_events
            assert len(run.events) == len(SMALL["pattern"])
            assert run.metrics.hdfs_bytes_read > 0
            assert run.config.num_nodes == SMALL["num_nodes"]

    def test_second_session_is_pure_cache_reads(self, cached_run):
        cache, summary = cached_run
        again = run_ec2_experiment_parallel(**SMALL, jobs=1, cache=cache)
        assert cache.hits == 2
        for first, second in zip(summary.runs(), again.runs()):
            assert first.totals() == second.totals()

    def test_config_change_misses_the_cache(self, cached_run):
        cache, _ = cached_run
        misses_before = cache.misses
        run_ec2_experiment_parallel(**{**SMALL, "seed": 6}, jobs=1, cache=cache)
        assert cache.misses == misses_before + 2
