"""Tests for reliability sensitivity sweeps and Monte-Carlo validation."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import make_lrc, repair_cost_summary, rs_10_4, xorbas_lrc
from repro.reliability.markov import BirthDeathChain
from repro.reliability.models import ClusterReliabilityParameters
from repro.reliability.montecarlo import compress_chain, estimate_mttdl
from repro.reliability.sensitivity import (
    archival_comparison,
    sampled_repair_cost,
    sweep_bandwidth,
    sweep_node_mttf,
    sweep_repair_epoch,
)
from repro.spec import simulate_time_to_absorption

pytestmark = pytest.mark.slow  # Monte-Carlo statistics over many trajectories


def _by_scheme(points, value):
    return {p.scheme: p.mttdl_days for p in points if p.value == value}


class TestSweeps:
    def test_bandwidth_sweep_preserves_ordering(self):
        points = sweep_bandwidth([0.1, 1.0, 10.0])
        for gamma in (0.1, 1.0, 10.0):
            rows = _by_scheme(points, gamma)
            assert (
                rows["3-replication"]
                < rows["RS (10,4)"]
                < rows["LRC (10,6,5)"]
            )

    def test_more_bandwidth_means_more_reliability(self):
        points = sweep_bandwidth([0.5, 5.0])
        for scheme in ("RS (10,4)", "LRC (10,6,5)"):
            slow = _by_scheme(points, 0.5)[scheme]
            fast = _by_scheme(points, 5.0)[scheme]
            assert fast > slow

    def test_mttf_sweep_monotone(self):
        points = sweep_node_mttf([1.0, 4.0, 10.0])
        for scheme in ("3-replication", "RS (10,4)", "LRC (10,6,5)"):
            values = [
                _by_scheme(points, y)[scheme] for y in (1.0, 4.0, 10.0)
            ]
            assert values[0] < values[1] < values[2]

    def test_repair_epoch_crossover(self):
        """Transfer-dominated repairs favour LRC; latency-dominated
        repairs erase the advantage and RS overtakes (it exposes two
        fewer blocks per stripe)."""
        points = sweep_repair_epoch([0.0, 3600.0])
        fast = _by_scheme(points, 0.0)
        slow = _by_scheme(points, 3600.0)
        assert fast["LRC (10,6,5)"] > fast["RS (10,4)"]
        assert slow["LRC (10,6,5)"] < slow["RS (10,4)"]
        # And within a scheme, added latency always hurts.
        assert slow["LRC (10,6,5)"] < fast["LRC (10,6,5)"]
        # The gap compresses by orders of magnitude either way.
        fast_gap = fast["LRC (10,6,5)"] / fast["RS (10,4)"]
        slow_gap = slow["LRC (10,6,5)"] / slow["RS (10,4)"]
        assert slow_gap < fast_gap

    def test_sweep_point_fields(self):
        points = sweep_bandwidth([1.0])
        assert all(p.parameter == "gamma_gbps" for p in points)
        assert {p.scheme for p in points} == {
            "3-replication",
            "RS (10,4)",
            "LRC (10,6,5)",
        }


class TestSampledRepairCost:
    def test_matches_exact_enumeration_for_single_loss(self):
        """With lost=1 every pattern costs the same, so sampling is exact."""
        code = xorbas_lrc()
        rng = np.random.default_rng(0)
        sampled = sampled_repair_cost(code, 1, rng, samples=50, heavy_reads=10)
        exact = repair_cost_summary(code, 1, heavy_reads=10, target="cheapest")
        assert sampled.expected_reads == pytest.approx(exact.expected_reads)
        assert sampled.light_fraction == pytest.approx(exact.light_fraction)

    def test_close_to_exact_for_double_loss(self):
        code = xorbas_lrc()
        rng = np.random.default_rng(1)
        sampled = sampled_repair_cost(code, 2, rng, samples=600, heavy_reads=10)
        exact = repair_cost_summary(code, 2, heavy_reads=10, target="cheapest")
        assert sampled.expected_reads == pytest.approx(
            exact.expected_reads, rel=0.08
        )

    def test_rs_sampling_is_flat(self):
        code = rs_10_4()
        rng = np.random.default_rng(2)
        sampled = sampled_repair_cost(code, 1, rng, samples=20, heavy_reads=10)
        assert sampled.expected_reads == pytest.approx(10.0)
        assert sampled.light_fraction == 0.0

    def test_parameter_validation(self):
        code = rs_10_4()
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError):
            sampled_repair_cost(code, 0, rng)
        with pytest.raises(ValueError):
            sampled_repair_cost(code, 99, rng)
        with pytest.raises(ValueError, match="n - k = 4"):
            sampled_repair_cost(code, code.n - code.k + 1, rng)
        with pytest.raises(ValueError):
            sampled_repair_cost(code, 1, rng, samples=0)


class TestArchival:
    @pytest.fixture(scope="class")
    def rows(self):
        return archival_comparison(stripe_sizes=(10, 50), samples=60, seed=7)

    def test_row_count(self, rows):
        assert len(rows) == 4  # 2 stripe sizes x 2 schemes

    def test_rs_repair_grows_linearly_lrc_stays_flat(self, rows):
        """Section 7: RS repair traffic grows with the stripe; LRC does not."""
        rs = {r.k: r for r in rows if r.scheme.startswith("RS")}
        lrc = {r.k: r for r in rows if "LRC" in r.scheme}
        assert rs[50].single_repair_reads == pytest.approx(50)
        assert rs[10].single_repair_reads == pytest.approx(10)
        assert lrc[10].single_repair_reads == pytest.approx(5, abs=0.5)
        assert lrc[50].single_repair_reads == pytest.approx(5, abs=0.5)

    def test_lrc_overhead_shrinks_with_stripe_size(self, rows):
        """Large stripes amortise parities: high fault tolerance at low
        overhead, the archival selling point."""
        lrc = {r.k: r for r in rows if "LRC" in r.scheme}
        assert lrc[50].storage_overhead < lrc[10].storage_overhead

    def test_lrc_outlives_rs_at_every_stripe_size(self, rows):
        rs = {r.k: r for r in rows if r.scheme.startswith("RS")}
        lrc = {r.k: r for r in rows if "LRC" in r.scheme}
        for k in (10, 50):
            assert lrc[k].mttdl_days > rs[k].mttdl_days

    def test_make_lrc_large_stripe_locality(self):
        code = make_lrc(50, 4, 5)
        for block in range(code.n):
            plans = code.repair_plans(block)
            assert plans, f"block {block} has no light plan"


class TestGillespie:
    def test_single_state_chain_is_exponential(self):
        """One transient state: absorption time ~ Exp(lambda)."""
        chain = BirthDeathChain(failure_rates=(2.0,), repair_rates=())
        rng = np.random.default_rng(0)
        estimate = estimate_mttdl(chain, rng, trials=2000)
        assert estimate.consistent_with(0.5, z=4.0)

    def test_matches_analytic_solver_on_compressed_chain(self):
        chain = BirthDeathChain(
            failure_rates=(3.0, 2.0, 1.0),
            repair_rates=(20.0, 10.0),
        )
        analytic = chain.mean_time_to_absorption()
        estimate = estimate_mttdl(chain, np.random.default_rng(1), trials=1500)
        assert estimate.consistent_with(analytic, z=4.0)

    def test_matches_analytic_from_interior_start(self):
        chain = BirthDeathChain(
            failure_rates=(3.0, 2.0, 1.0),
            repair_rates=(20.0, 10.0),
        )
        analytic = chain.mean_time_to_absorption(start=1)
        estimate = estimate_mttdl(
            chain, np.random.default_rng(2), trials=1500, start=1
        )
        assert estimate.consistent_with(analytic, z=4.0)

    @given(
        st.lists(
            st.floats(min_value=0.5, max_value=5.0), min_size=2, max_size=4
        ),
        st.floats(min_value=1.0, max_value=30.0),
    )
    @settings(max_examples=10, deadline=None)
    def test_compressed_paper_style_chains_validate(self, fails, repair):
        """Random small chains: simulation agrees with the closed form."""
        chain = BirthDeathChain(
            failure_rates=tuple(fails),
            repair_rates=(repair,) * (len(fails) - 1),
        )
        analytic = chain.mean_time_to_absorption()
        estimate = estimate_mttdl(chain, np.random.default_rng(3), trials=600)
        assert estimate.consistent_with(analytic, z=5.0)

    def test_compress_chain_scales_repairs_only(self):
        chain = BirthDeathChain(
            failure_rates=(1.0, 1.0), repair_rates=(100.0,)
        )
        squeezed = compress_chain(chain, 0.1)
        assert squeezed.failure_rates == chain.failure_rates
        assert squeezed.repair_rates == (10.0,)
        with pytest.raises(ValueError):
            compress_chain(chain, 0.0)

    def test_compression_reduces_mttdl(self):
        chain = BirthDeathChain(
            failure_rates=(1.0, 1.0), repair_rates=(100.0,)
        )
        assert (
            compress_chain(chain, 0.1).mean_time_to_absorption()
            < chain.mean_time_to_absorption()
        )

    def test_absorption_guard(self):
        """A hopeless repair-dominant chain trips the step guard."""
        chain = BirthDeathChain(
            failure_rates=(1.0, 1e-9), repair_rates=(1e9,)
        )
        rng = np.random.default_rng(4)
        with pytest.raises(RuntimeError):
            simulate_time_to_absorption(chain, rng, max_steps=1000)

    def test_estimate_validation(self):
        chain = BirthDeathChain(failure_rates=(1.0,), repair_rates=())
        with pytest.raises(ValueError):
            estimate_mttdl(chain, trials=1)
        with pytest.raises(ValueError):
            simulate_time_to_absorption(
                chain, np.random.default_rng(0), start=5
            )

    def test_paper_chain_cannot_be_simulated_directly(self):
        """Documents *why* the paper uses a Markov model: the production
        chain is ~7 orders of magnitude repair-dominant."""
        from repro.reliability.models import build_chain

        chain = build_chain(rs_10_4(), ClusterReliabilityParameters())
        ratio = chain.repair_rates[0] / chain.failure_rates[1]
        assert ratio > 1e4
