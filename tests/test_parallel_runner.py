"""The parallel experiment runner and its on-disk result cache."""

import pickle
from pathlib import Path

import pytest

from repro.experiments.parallel import (
    CACHE_FORMAT_VERSION,
    ResultCache,
    WorkerError,
    config_hash,
    parallel_map,
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
        key = cache.key_for({"a": 1}, namespace="unit")
        assert key.startswith(f"unit-v{CACHE_FORMAT_VERSION}-")
        assert cache.get(key) is None
        cache.put(key, {"value": [1, 2, 3]})
        assert key in cache
        assert cache.get(key) == {"value": [1, 2, 3]}
        assert len(cache) == 1
        assert (cache.hits, cache.misses) == (1, 1)

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for({"a": 1})
        cache.put(key, "good")
        cache.path_for(key).write_bytes(b"not a pickle")
        assert cache.get(key) is None
        cache.put(key, "rewritten")
        assert cache.get(key) == "rewritten"

    def test_truncated_entry_quarantined_as_corrupt(self, tmp_path):
        """A half-written pickle reads as a miss and is renamed aside
        (``.corrupt``) so the rewrite cannot race it and the evidence
        survives for debugging."""
        cache = ResultCache(tmp_path)
        key = cache.key_for({"a": 1})
        cache.put(key, {"payload": list(range(100))})
        path = cache.path_for(key)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(key) is None
        quarantined = path.with_suffix(path.suffix + ".corrupt")
        assert quarantined.exists()
        assert not path.exists()
        cache.put(key, "rewritten")
        assert cache.get(key) == "rewritten"

    def test_runtime_keys_excluded_from_cache_key(self, tmp_path):
        """Underscore-prefixed config keys are runtime plumbing: a
        checkpoint-resumed run re-enters the cache under the hash of its
        semantic fields."""
        cache = ResultCache(tmp_path)
        plain = cache.key_for({"a": 1}, namespace="ec2")
        plumbed = cache.key_for(
            {"a": 1, "_runtime": {"checkpoint_dir": "/x", "resume": True}},
            namespace="ec2",
        )
        assert plain == plumbed
        assert plain != cache.key_for({"a": 2}, namespace="ec2")

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(3):
            cache.put(cache.key_for({"i": i}), i)
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_version_bump_invalidates(self, tmp_path):
        """The cache key embeds the format version, so bumping it
        orphans (rather than wrongly reuses) old entries."""
        cache = ResultCache(tmp_path)
        key = cache.key_for({"a": 1}, namespace="ec2")
        assert f"-v{CACHE_FORMAT_VERSION}-" in key
        other_version = key.replace(
            f"-v{CACHE_FORMAT_VERSION}-", f"-v{CACHE_FORMAT_VERSION + 1}-"
        )
        cache.put(key, "old")
        assert cache.get(other_version) is None


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
            parallel_map(
                _maybe_fail,
                [{"x": 7, "fail": True}],
                jobs=1,
                retries=0,
                retry_backoff=0,
            )
        error = info.value
        assert error.config == {"x": 7, "fail": True}
        assert error.attempts == 1
        assert "poisoned config x=7" in error.cause_repr
        assert "RuntimeError" in error.cause_traceback
        assert "'x': 7" in str(error)

    def test_retry_recovers_transient_failure(self, tmp_path):
        config = {"marker": str(tmp_path / "attempted")}
        result = parallel_map(_flaky, [config], jobs=1, retry_backoff=0)
        assert result == ["recovered"]

    def test_retries_default_to_two(self, tmp_path):
        """Two retries (three attempts) by default: the flaky worker
        needs no explicit retry knobs to survive one crash."""
        import inspect

        assert inspect.signature(parallel_map).parameters["retries"].default == 2

    def test_exhausted_retries_report_attempt_count(self, tmp_path):
        marker = tmp_path / "attempts"
        with pytest.raises(WorkerError) as info:
            parallel_map(
                _count_then_raise,
                [{"marker": str(marker), "error": OSError}],
                jobs=1,
                retries=2,
                retry_backoff=0,
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
                retry_backoff=0,
            )
        assert info.value.attempts == 1
        assert len(marker.read_text().splitlines()) == 1

    def test_quarantine_leaves_none_slots_and_caches_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        configs = [{"x": 1}, {"x": 2, "fail": True}, {"x": 3}]
        results = parallel_map(
            _maybe_fail,
            configs,
            jobs=1,
            cache=cache,
            retries=0,
            retry_backoff=0,
            on_error="quarantine",
        )
        assert results == [1, None, 3]
        assert len(cache) == 2  # the poisoned slot was never cached

    def test_pool_survives_poisoned_task(self):
        configs = [{"x": i, "fail": i == 1} for i in range(4)]
        results = parallel_map(
            configs=configs,
            worker=_maybe_fail,
            jobs=2,
            retries=0,
            retry_backoff=0,
            on_error="quarantine",
        )
        assert results == [0, None, 2, 3]

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ValueError):
            parallel_map(_double, [{"x": 1}], on_error="ignore")
        with pytest.raises(ValueError):
            parallel_map(_double, [{"x": 1}], retries=-1)


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
