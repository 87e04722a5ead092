"""Monte-Carlo mining runs and the delayed-baseline comparison."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeminer import (
    GameParams,
    PowerProfile,
    SimConfig,
    SimOutcome,
    edge_utility,
    emg_vs_mdg_sweep,
    empirical_success_prob,
    first_miner_wins,
    mdg_baseline_profit,
    simulate,
    simulate_mining,
)

from conftest import zero_delay_params


def _sim(seed=0, n_blocks=1000, **params):
    game_params = GameParams(**params) if params else GameParams()
    return SimConfig(n_blocks=n_blocks, tx_per_block=game_params.tx_per_block,
                     seed=seed, params=game_params)


def _per_block(powers, cfg):
    """Reference simulator: each block's winner by its own binary search.

    Block b goes to the first miner whose cumulative win probability exceeds
    the block's draw, or to no one past the last; returns (wins, orphans).
    """
    shares = PowerProfile(np.asarray(powers, dtype=float)).shares()
    cum = np.cumsum(shares * cfg.params.delay_discount(cfg.tx_per_block))
    draws = np.random.Generator(np.random.PCG64(cfg.seed)).random(cfg.n_blocks)
    counts = np.bincount(np.searchsorted(cum, draws, side="right"),
                         minlength=shares.size + 1)
    return counts[:shares.size], int(counts[shares.size:].sum())


def _assert_matches_per_block(powers, cfg):
    outcome = simulate_mining(powers, cfg)
    wins, orphans = _per_block(powers, cfg)
    assert outcome.wins.dtype == np.int64
    assert outcome.wins.tolist() == wins.tolist()
    assert type(outcome.orphans) is int and outcome.orphans == orphans
    assert outcome.n_blocks == cfg.n_blocks


def _miner_counts(n_blocks):
    # the kernel makes one comparison pass per threshold up to log2(n_blocks)
    # thresholds and sorts the draws past that: straddle the switch
    switch = math.floor(math.log2(n_blocks))
    return sorted({1, 3, *(m for m in (switch - 1, switch, switch + 1) if m >= 1)})


class TestAgainstPerBlockReference:
    @pytest.mark.parametrize("rate", [0.0, 0.01, 100.0])
    @pytest.mark.parametrize("n_blocks", [1, 2, 137, 65_536, 200_000])
    def test_miner_counts_around_the_switch(self, n_blocks, rate):
        rng = np.random.default_rng(n_blocks)
        for m in _miner_counts(n_blocks):
            for seed in (0, 31):
                cfg = _sim(seed=seed, n_blocks=n_blocks, poisson_rate=rate)
                _assert_matches_per_block(rng.uniform(0.5, 20.0, m), cfg)

    @pytest.mark.parametrize("n_blocks", [1, 2, 137, 65_536, 200_000])
    def test_zero_power_miners(self, n_blocks):
        for m in _miner_counts(n_blocks):
            powers = np.zeros(m + 2)
            powers[1::2] = np.arange(1.0, powers[1::2].size + 1)
            _assert_matches_per_block(powers, _sim(seed=5, n_blocks=n_blocks))

    @pytest.mark.parametrize("rate", [0.0, 100.0])
    @pytest.mark.parametrize("n_blocks", [1, 137, 200_000])
    def test_single_miner(self, n_blocks, rate):
        cfg = _sim(seed=2, n_blocks=n_blocks, poisson_rate=rate)
        _assert_matches_per_block([4.0], cfg)
        outcome = simulate_mining([4.0], cfg)
        # no delay: every block is won; exp(-1000) == 0: every block orphaned
        assert outcome.orphans == (0 if rate == 0.0 else n_blocks)

    def test_many_miners(self):
        powers = np.random.default_rng(8).uniform(1.0, 10.0, 1000)
        powers[::7] = 0.0
        for n_blocks in (1, 137, 200_000):
            _assert_matches_per_block(powers, _sim(seed=44, n_blocks=n_blocks))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(powers=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40)
           .filter(lambda p: sum(p) > 0),
           seed=st.integers(0, 2**32 - 1),
           n_blocks=st.integers(1, 5000),
           rate=st.sampled_from([0.0, 0.001, 0.01, 0.1, 100.0]))
    def test_random_profiles(self, powers, seed, n_blocks, rate):
        _assert_matches_per_block(powers, _sim(seed=seed, n_blocks=n_blocks, poisson_rate=rate))


class TestCountBelow:
    # five draws: up to 2 thresholds by comparison passes, 3 or more by a sort
    DRAWS = np.array([0.5, 0.0, 0.25, 0.75, 0.25])

    @pytest.mark.parametrize("thresholds, expected", [
        ([0.25], [1]),
        ([0.25, 0.5], [1, 3]),
        ([0.0, 0.25, 0.5], [0, 1, 3]),
        ([1.0, 0.75, 0.25, 0.0, 0.3], [5, 4, 1, 0, 3]),
        ([], []),
    ])
    def test_ties_count_as_not_below(self, thresholds, expected):
        counts = simulate._count_below(self.DRAWS, np.array(thresholds, dtype=float))
        assert counts.dtype == np.int64
        assert counts.tolist() == expected


class TestSimulateMining:
    def test_certain_success_single_miner(self):
        cfg = SimConfig(n_blocks=500, tx_per_block=10, seed=1, params=zero_delay_params())
        outcome = simulate_mining([3.0], cfg)
        assert outcome.wins[0] == 500
        assert outcome.orphans == 0

    def test_zero_share_never_wins(self):
        outcome = simulate_mining([5.0, 0.0, 5.0], _sim(seed=7))
        assert outcome.wins[1] == 0

    def test_conservation(self):
        rng = np.random.default_rng(19)
        for seed in range(20):
            powers = rng.uniform(0.0, 4.0, rng.integers(1, 8)) + 0.01
            outcome = simulate_mining(powers, _sim(seed=seed))
            assert int(outcome.wins.sum()) + outcome.orphans == outcome.n_blocks

    def test_seed_determinism(self):
        a = simulate_mining([1.0, 2.0, 3.0], _sim(seed=123))
        b = simulate_mining([1.0, 2.0, 3.0], _sim(seed=123))
        assert np.array_equal(a.wins, b.wins)
        assert a.orphans == b.orphans
        c = simulate_mining([1.0, 2.0, 3.0], _sim(seed=124))
        assert not (np.array_equal(a.wins, c.wins) and a.orphans == c.orphans)

    def test_equal_shares_within_three_sigma(self):
        cfg = _sim(seed=0)
        outcome = simulate_mining([0.5, 0.5], cfg)
        expected = 0.5 * math.exp(-0.1)
        sigma = math.sqrt(expected * (1 - expected) / cfg.n_blocks)
        for i in range(2):
            assert abs(empirical_success_prob(outcome, i) - expected) <= 3 * sigma

    def test_statistical_fidelity_over_seeds(self):
        expected = 0.5 * math.exp(-0.1)
        sigma = math.sqrt(expected * (1 - expected) / 1000)
        passes = 0
        for seed in range(100):
            outcome = simulate_mining([0.5, 0.5], _sim(seed=seed))
            if all(abs(empirical_success_prob(outcome, i) - expected) <= 3 * sigma
                   for i in range(2)):
                passes += 1
        assert passes >= 99


class TestFirstMinerWins:
    PROFILES = [[0.0, 5.0], [3.0, 1.0, 2.0], [7.5], [1.0, 0.0, 4.0, 2.0]]

    @staticmethod
    def _check_against_per_block(profiles):
        cfg = _sim(seed=40, n_blocks=250, tx_per_block=4)
        wins = first_miner_wins(profiles, cfg, 6)
        assert wins.shape == (len(profiles), 6)
        for j, powers in enumerate(profiles):
            for k in range(6):
                reference, _ = _per_block(powers, dataclasses.replace(cfg, seed=40 + k))
                assert wins[j, k] == reference[0]

    def test_equals_one_simulation_per_profile_and_seed(self):
        # 4 thresholds on 250 blocks: one comparison pass each
        self._check_against_per_block(self.PROFILES)

    def test_many_profiles_sort_the_draws(self):
        # 20 thresholds on 250 blocks: one sort per seed
        profiles = [[p * (1 + j // 4) if i == 0 else p for i, p in enumerate(base)]
                    for j, base in enumerate(self.PROFILES * 5)]
        self._check_against_per_block(profiles)

    @pytest.mark.parametrize("n_seeds", [0, -1, 2.0])
    def test_bad_seed_count_rejected(self, n_seeds):
        with pytest.raises(ValueError, match="n_seeds"):
            first_miner_wins([[1.0, 1.0]], _sim(), n_seeds)


class TestEmpiricalSuccessProb:
    def test_direct_ratio(self):
        outcome = SimOutcome(wins=np.array([450]), orphans=550, n_blocks=1000)
        assert empirical_success_prob(outcome, 0) == 0.45

    def test_zero_wins(self):
        outcome = SimOutcome(wins=np.array([0, 10]), orphans=990, n_blocks=1000)
        assert empirical_success_prob(outcome, 0) == 0.0

    def test_symmetric_counts(self):
        outcome = SimOutcome(wins=np.array([250, 250, 250, 250]), orphans=0, n_blocks=1000)
        assert [empirical_success_prob(outcome, i) for i in range(4)] == [0.25] * 4


class TestMdgBaseline:
    def test_matches_edge_utility_at_unit_multiplier(self):
        params = GameParams()
        fees = [1.5, 0.7]
        assert mdg_baseline_profit(80.0, fees, params, 1.0) == pytest.approx(
            edge_utility(params, fees))

    def test_doubled_delay_value(self):
        params = GameParams(fixed_reward=8.0, tx_reward=2.0, poisson_rate=0.01,
                            delay_factor=1.0, tx_per_block=10, edge_overhead=0.0)
        # 10*e^(-0.2) - 2, frozen from a 30-digit evaluation
        assert mdg_baseline_profit(50.0, [2.0], params, 2.0) == pytest.approx(
            6.187307530779819, rel=1e-12)

    def test_limit_of_huge_delay(self):
        params = GameParams(edge_overhead=0.25)
        profit = mdg_baseline_profit(50.0, [2.0], params, 1e9)
        assert profit == pytest.approx(-2.25)

    def test_multiplier_below_one_rejected(self):
        with pytest.raises(ValueError):
            mdg_baseline_profit(50.0, [1.0], GameParams(), 0.5)


class TestSweep:
    def test_empty_grid_gives_empty_table(self):
        assert emg_vs_mdg_sweep([], 0.5, GameParams(), 0.01) == []

    def test_rows_ordered_by_total_power(self):
        rows = emg_vs_mdg_sweep([120.0, 40.0, 80.0], 0.5, GameParams(), 0.01)
        totals = [row["total_power"] for row in rows]
        assert totals == sorted(totals)

    def test_edge_scheme_wins_even_without_extra_delay(self):
        params = GameParams(edge_overhead=0.0)
        rows = emg_vs_mdg_sweep([100.0], 0.5, params, 0.01, mdg_delay_multiplier=1.0)
        # same per-power fee rate, but the edge's own half is not paid for
        assert rows[0]["profit_emg"] >= rows[0]["profit_mdg"]
        assert rows[0]["fee_mdg"] == pytest.approx(2.0 * rows[0]["fee_emg"])

    def test_edge_scheme_dominates_with_delay(self):
        rows = emg_vs_mdg_sweep(np.linspace(10, 200, 8), 0.5, GameParams(), 0.01,
                                mdg_delay_multiplier=1.5)
        assert all(row["profit_gap"] >= 0.0 for row in rows)

    def test_gap_shrinks_toward_zero_fraction(self):
        params = GameParams()
        gaps = []
        for fraction in (0.1, 0.5, 0.9):
            rows = emg_vs_mdg_sweep([100.0], fraction, params, 0.01,
                                    mdg_delay_multiplier=1.5)
            gaps.append(rows[0]["profit_gap"])
        assert gaps[0] <= gaps[1] <= gaps[2]

    def test_vanishing_fraction_at_unit_multiplier(self):
        params = GameParams()
        rows = emg_vs_mdg_sweep([100.0], 1e-4, params, 0.01, mdg_delay_multiplier=1.0)
        assert rows[0]["profit_gap"] == pytest.approx(0.0, abs=1e-3)

    def test_fraction_bounds_enforced(self):
        with pytest.raises(ValueError):
            emg_vs_mdg_sweep([50.0], 1.0, GameParams(), 0.01)

    @pytest.mark.parametrize("grid", [[0.0], [40.0, -5.0, 80.0], [-0.0, 10.0]])
    def test_nonpositive_total_rejected_before_any_search(self, grid, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("search ran on a bad grid")

        monkeypatch.setattr(simulate, "optimal_fees_uniform", no_search)
        with pytest.raises(ValueError, match="total power grid entries must be > 0"):
            emg_vs_mdg_sweep(grid, 0.5, GameParams(), 0.01)

    def test_nonfinite_total_rejected(self):
        with pytest.raises(ValueError, match="edge_power must be finite and > 0"):
            emg_vs_mdg_sweep([50.0, math.inf], 0.5, GameParams(), 0.01)

    @pytest.mark.parametrize("objective", ["full", "simplified"])
    def test_overflowing_mdg_fee_rejected(self, objective):
        # fee_emg * total overflows for a total of 1e306, as mdg_baseline_profit
        # would reject it on the per-point path
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="fees must be finite and >= 0"):
                emg_vs_mdg_sweep([50.0, 1e306], 0.5, GameParams(), 0.01,
                                 objective=objective)
