"""The batched Monte Carlo engine: statistical and structural checks.

The batched Gillespie engine must be a drop-in replacement for the
scalar reference loop: same jump-chain law, same estimator interface,
same guard rails.  These tests hold it to the analytic solver and to
the legacy loop at fixed seeds.
"""

import numpy as np
import pytest

from repro.codes import rs_10_4, xorbas_lrc
from repro.reliability import ClusterReliabilityParameters, simulate_scheme_mttdl
from repro.reliability.markov import BirthDeathChain
from repro.reliability.montecarlo import (
    estimate_mttdl,
    simulate_times_to_absorption,
)
from repro.spec import estimate_mttdl_loop, simulate_time_to_absorption

COMPRESSED = BirthDeathChain(
    failure_rates=(3.0, 2.0, 1.0),
    repair_rates=(20.0, 10.0),
)


class TestBatchedEngine:
    def test_single_state_chain_is_exponential(self):
        """One transient state: absorption time ~ Exp(lambda)."""
        chain = BirthDeathChain(failure_rates=(2.0,), repair_rates=())
        times = simulate_times_to_absorption(
            chain, np.random.default_rng(0), trials=20_000
        )
        assert times.shape == (20_000,)
        assert times.mean() == pytest.approx(0.5, rel=0.05)
        # Exponential: std == mean.
        assert times.std() == pytest.approx(times.mean(), rel=0.1)

    def test_matches_analytic_solver(self):
        analytic = COMPRESSED.mean_time_to_absorption()
        estimate = estimate_mttdl(COMPRESSED, np.random.default_rng(1), trials=5000)
        assert estimate.consistent_with(analytic, z=4.0)

    def test_matches_analytic_from_interior_start(self):
        analytic = COMPRESSED.mean_time_to_absorption(start=1)
        estimate = estimate_mttdl(
            COMPRESSED, np.random.default_rng(2), trials=5000, start=1
        )
        assert estimate.consistent_with(analytic, z=4.0)

    def test_deterministic_for_fixed_seed(self):
        a = simulate_times_to_absorption(
            COMPRESSED, np.random.default_rng(7), trials=100
        )
        b = simulate_times_to_absorption(
            COMPRESSED, np.random.default_rng(7), trials=100
        )
        assert np.array_equal(a, b)

    def test_every_time_positive(self):
        times = simulate_times_to_absorption(
            COMPRESSED, np.random.default_rng(3), trials=500
        )
        assert (times > 0).all()

    def test_absorption_guard(self):
        """A hopeless repair-dominant chain trips the step guard."""
        chain = BirthDeathChain(failure_rates=(1.0, 1e-9), repair_rates=(1e9,))
        with pytest.raises(RuntimeError, match="compress"):
            simulate_times_to_absorption(
                chain, np.random.default_rng(4), trials=50, max_steps=1000
            )

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            simulate_times_to_absorption(COMPRESSED, rng, trials=0)
        with pytest.raises(ValueError):
            simulate_times_to_absorption(COMPRESSED, rng, trials=10, start=5)


class TestAgainstLegacyLoop:
    def test_statistically_indistinguishable_at_fixed_seeds(self):
        """Batched and loop engines draw different variates from the
        same law; their estimates must agree within combined error."""
        batched = estimate_mttdl(
            COMPRESSED, np.random.default_rng(11), trials=4000
        )
        looped = estimate_mttdl_loop(
            COMPRESSED, np.random.default_rng(11), trials=4000
        )
        combined = np.hypot(batched.std_error, looped.std_error)
        assert abs(batched.mean_seconds - looped.mean_seconds) <= 4.0 * combined

    def test_both_engines_bracket_the_analytic_value(self):
        analytic = COMPRESSED.mean_time_to_absorption()
        for estimator in (estimate_mttdl, estimate_mttdl_loop):
            estimate = estimator(
                COMPRESSED, np.random.default_rng(5), trials=1500
            )
            assert estimate.consistent_with(analytic, z=4.0), estimator.__name__

    def test_loop_method_still_default_free(self):
        """estimate_mttdl() keeps the historical signature working, and
        the loop estimator is the scalar trajectory run ``trials`` times."""
        estimate = estimate_mttdl(COMPRESSED, trials=200)
        assert estimate.trials == 200
        assert estimate.std_error > 0
        looped = estimate_mttdl_loop(COMPRESSED, np.random.default_rng(9), trials=50)
        rng = np.random.default_rng(9)
        times = [simulate_time_to_absorption(COMPRESSED, rng) for _ in range(50)]
        assert looped.mean_seconds == float(np.mean(times))


class TestSchemeSimulation:
    @pytest.mark.parametrize("code_factory", [rs_10_4, xorbas_lrc])
    def test_compressed_scheme_chain_validates(self, code_factory):
        sim = simulate_scheme_mttdl(
            code_factory(),
            ClusterReliabilityParameters(),
            repair_scale=2e-6,
            trials=3000,
            rng=np.random.default_rng(0),
        )
        assert sim.consistent, (
            f"{sim.name}: simulated {sim.estimate.mean_seconds:.4e} vs "
            f"analytic {sim.analytic_seconds:.4e}"
        )

    def test_lrc_outlives_rs_in_simulation_too(self):
        """The Table 1 ordering survives the move from closed form to
        simulation (on the compressed chains both are feasible on)."""
        params = ClusterReliabilityParameters()
        rs = simulate_scheme_mttdl(
            rs_10_4(), params, repair_scale=2e-6, trials=3000
        )
        lrc = simulate_scheme_mttdl(
            xorbas_lrc(), params, repair_scale=2e-6, trials=3000
        )
        assert lrc.estimate.mean_seconds > rs.estimate.mean_seconds
