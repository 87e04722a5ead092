"""Monte-Carlo mining runs and the delayed-baseline comparison."""

import dataclasses
import functools
import math
import os
import sys
import threading
import tracemalloc
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
    emg_vs_mdg_sweep,
    first_miner_wins,
    mining_success_prob,
    net_profit,
    simulate,
    simulate_mining,
)

from conftest import zero_delay_params


def _sim(seed=0, n_blocks=1000, **params):
    game_params = GameParams(**params) if params else GameParams()
    return SimConfig(n_blocks=n_blocks, seed=seed, params=game_params)


def _per_block(powers, cfg):
    """Reference simulator: each block's winner by its own binary search.

    Block b goes to the first miner whose cumulative win probability exceeds
    the block's draw, or to no one past the last; returns (wins, orphans).
    """
    shares = PowerProfile(np.asarray(powers, dtype=float)).shares()
    cum = np.cumsum(shares * cfg.params.delay_discount(cfg.params.tx_per_block))
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


# the kernel makes one comparison pass per threshold up to _COMPARE_UP_TO
# thresholds and sorts the unit past that: straddle the switch
SWITCH = simulate._COMPARE_UP_TO
MINER_COUNTS = [1, 3, SWITCH - 1, SWITCH, SWITCH + 1]


class TestAgainstPerBlockReference:
    @pytest.mark.parametrize("rate", [0.0, 0.01, 100.0])
    @pytest.mark.parametrize("n_blocks", [1, 2, 137, 65_536, 200_000])
    def test_miner_counts_around_the_switch(self, n_blocks, rate):
        rng = np.random.default_rng(n_blocks)
        for m in MINER_COUNTS:
            for seed in (0, 31):
                cfg = _sim(seed=seed, n_blocks=n_blocks, poisson_rate=rate)
                _assert_matches_per_block(rng.uniform(0.5, 20.0, m), cfg)

    @pytest.mark.parametrize("n_blocks", [1, 2, 137, 65_536, 200_000])
    def test_zero_power_miners(self, n_blocks):
        for m in MINER_COUNTS:
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


@functools.lru_cache(maxsize=64)
def _one_shot(seed, n_blocks, thresholds):
    draws = np.random.Generator(np.random.PCG64(seed)).random(n_blocks)
    return simulate._count_below(draws, np.asarray(thresholds, dtype=float)).tolist()


def _one_shot_below(seed, n_blocks, thresholds):
    """Oracle: the kernel over all of a seed's draws, drawn in one call."""
    return np.array(_one_shot(seed, n_blocks, tuple(np.asarray(thresholds, dtype=float))),
                    dtype=np.int64)


CHUNK_EDGES = [1, simulate._CHUNK - 1, simulate._CHUNK, simulate._CHUNK + 1,
               2 * simulate._CHUNK + 1, 1_000_003]
# unsorted, with a tie and both ends of [0, 1]
THRESHOLDS = np.concatenate(([0.5, 1.0, 0.0, 0.5], np.random.default_rng(50).uniform(0.0, 1.0, 46)))


def _allow_workers(monkeypatch, n):
    """Let the kernel start one worker per full chunk of draws, up to n."""
    monkeypatch.setattr(simulate, "_cpus", lambda: n)
    monkeypatch.setattr(simulate, "_MAX_WORKERS", n)
    monkeypatch.setattr(simulate, "_DRAWS_PER_WORKER", simulate._CHUNK)


@pytest.fixture(params=[1, 2, 3, 7], ids=lambda n: f"{n}cpus")
def cpus(request, monkeypatch):
    """Run the kernel as if this process could use request.param CPUs, and
    with one worker per full chunk, so that short runs split into units too."""
    _allow_workers(monkeypatch, request.param)
    return request.param


def _assert_simulate_mining_equals_one_shot(powers, cfg):
    cum = np.cumsum(mining_success_prob(PowerProfile(powers).shares(), cfg.params))
    below = _one_shot_below(cfg.seed, cfg.n_blocks, cum)
    outcome = simulate_mining(powers, cfg)
    assert outcome.wins.tolist() == np.diff(below, prepend=0).tolist()
    assert outcome.orphans == cfg.n_blocks - below[-1]


def _assert_first_miner_wins_equals_one_shot(thresholds, cfg, n_seeds):
    wins = first_miner_wins(thresholds, cfg, n_seeds)
    assert wins.shape == (len(thresholds), n_seeds) and wins.flags.c_contiguous
    for k in range(n_seeds):
        assert wins[:, k].tolist() == _one_shot_below(cfg.seed + k, cfg.n_blocks,
                                                      thresholds).tolist()


class TestChunkedStream:
    # up to SWITCH thresholds: comparison passes over each unit; more: a sort
    @pytest.mark.parametrize("n_blocks", CHUNK_EDGES)
    @pytest.mark.parametrize("n_miners", [1, 3, SWITCH, SWITCH + 1, 40])
    def test_simulate_mining_equals_one_shot(self, n_blocks, n_miners, cpus):
        powers = np.random.default_rng(n_miners).uniform(0.5, 20.0, n_miners)
        _assert_simulate_mining_equals_one_shot(powers, _sim(seed=n_blocks % 1009,
                                                             n_blocks=n_blocks))

    @pytest.mark.parametrize("n_blocks", CHUNK_EDGES)
    @pytest.mark.parametrize("n_thresholds", [1, SWITCH, SWITCH + 1, 50])
    def test_first_miner_wins_equals_one_shot(self, n_blocks, n_thresholds):
        _assert_first_miner_wins_equals_one_shot(THRESHOLDS[:n_thresholds],
                                                 _sim(seed=9, n_blocks=n_blocks), 2)

    @pytest.mark.parametrize("run", [
        lambda: simulate_mining([1.0, 2.0, 3.0], _sim(seed=3, n_blocks=3_000_000)),
        lambda: first_miner_wins(np.linspace(0.01, 0.99, 50), _sim(seed=3, n_blocks=3_000_000), 2),
        lambda: first_miner_wins([0.5], _sim(seed=3, n_blocks=600), 5000),
    ], ids=["simulate_mining", "first_miner_wins", "many_seeds"])
    def test_memory_does_not_grow_with_blocks(self, run, cpus):
        # all 3e6 draws at once would take 22.9 MiB; the workers' buffers
        # together hold one chunk, 0.5 MiB.  A seed's generator takes about
        # 1.6 KiB and is dropped once its stream is drawn: 5,000 kept by
        # each worker would take 7.8 MiB
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestWorkers:
    """The counts do not depend on how many CPUs share a seed's units."""

    @pytest.fixture(autouse=True)
    def no_thread_left(self):
        before = threading.active_count()
        yield
        assert threading.active_count() == before

    @pytest.mark.parametrize("n_seeds", [1, 2, 20])
    @pytest.mark.parametrize("n_blocks", CHUNK_EDGES)
    def test_first_miner_wins(self, n_blocks, n_seeds, cpus):
        for n_thresholds in (4, 50):
            _assert_first_miner_wins_equals_one_shot(THRESHOLDS[:n_thresholds],
                                                     _sim(seed=9, n_blocks=n_blocks), n_seeds)

    @pytest.mark.parametrize("n_cpus, n_seeds, n_blocks, workers", [
        (7, 1, 1000, 1), (7, 20, 10_000, 1), (7, 1, 200_000, 1),
        (7, 1, 8 * simulate._CHUNK - 1, 1), (7, 1, 8 * simulate._CHUNK, 2),
        (7, 20, 26_214, 1), (7, 20, 26_215, 2), (7, 1, 3_000_000, 2),
        (2, 1, 3_000_000, 2), (1, 1, 3_000_000, 1)])
    def test_workers_started(self, n_cpus, n_seeds, n_blocks, workers, monkeypatch):
        # one worker per 4 chunks of draws, up to the CPU count and 2: the
        # bench's fig1 (20 x 10,000) and simulate-miners (200,000) calls stay
        # on one worker, its simulate-blocks call (3e6) takes two; one worker
        # starts no thread
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(simulate, "_cpus", lambda: n_cpus)
        monkeypatch.setattr(simulate.threading, "Thread", Counted)
        first_miner_wins([0.5], _sim(n_blocks=n_blocks), n_seeds)
        assert len(started) == workers - 1
        assert not any(helper.is_alive() for helper in started)

    def test_cpus_is_the_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert simulate._cpus() == len(os.sched_getaffinity(0))
        else:
            assert simulate._cpus() == (os.cpu_count() or 1)

    def test_unit_edges(self, cpus):
        # as many workers as CPUs, units of _CHUNK // cpus draws, and runs
        # that end one draw before, at and after a unit's end; with many
        # seeds, streams whose last unit is short
        unit = simulate._CHUNK // cpus
        n_units = -(-cpus * simulate._CHUNK // unit) + 1  # a full chunk per CPU
        for n_blocks in (n_units * unit - 1, n_units * unit, n_units * unit + 1):
            _assert_simulate_mining_equals_one_shot([1.0, 2.0, 3.0], _sim(seed=4, n_blocks=n_blocks))
        for n_blocks in (unit - 1, unit + 1, 3 * unit + 1):
            n_seeds = -(-cpus * simulate._CHUNK // n_blocks)
            _assert_first_miner_wins_equals_one_shot(THRESHOLDS, _sim(seed=4, n_blocks=n_blocks),
                                                     n_seeds)

    def test_claims_survive_a_short_switch_interval(self, monkeypatch):
        # more workers than CPUs, switching threads every microsecond: a unit
        # claimed twice or not at all changes some seed's counts
        _allow_workers(monkeypatch, 7)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                _assert_first_miner_wins_equals_one_shot(THRESHOLDS[:4],
                                                         _sim(seed=60, n_blocks=40_000), 20)
        finally:
            sys.setswitchinterval(interval)

    def test_helper_exception_reaches_the_caller(self, monkeypatch):
        _allow_workers(monkeypatch, 2)
        caller, helper_raised = threading.current_thread(), threading.Event()
        count_below = simulate._count_below

        def fail_on_a_helper(draws, thresholds):
            if threading.current_thread() is not caller:
                helper_raised.set()
                raise RuntimeError("helper failed")
            helper_raised.wait(10)  # the caller holds its unit until a helper has failed
            return count_below(draws, thresholds)

        monkeypatch.setattr(simulate, "_count_below", fail_on_a_helper)
        with pytest.raises(RuntimeError, match="^helper failed$"):
            simulate_mining([1.0, 2.0], _sim(n_blocks=2 * simulate._CHUNK))
        assert helper_raised.is_set()

    def test_caller_exception_stops_the_helpers(self, monkeypatch):
        _allow_workers(monkeypatch, 3)
        caller, helper_units = threading.current_thread(), []
        count_below = simulate._count_below

        def fail_on_the_caller(draws, thresholds):
            if threading.current_thread() is caller:
                raise KeyError("caller failed")
            helper_units.append(draws.size)
            return count_below(draws, thresholds)

        monkeypatch.setattr(simulate, "_count_below", fail_on_the_caller)
        with pytest.raises(KeyError, match="caller failed"):
            first_miner_wins([0.5], _sim(n_blocks=10 * simulate._CHUNK), 20)
        # 20 seeds x 31 units: the helpers stop at the caller's failure, on
        # its first unit, instead of drawing the other 619
        assert len(helper_units) < 300


class TestPcg64Advance:
    """The kernel relies on PCG64 jumped ahead giving the same doubles as one call."""

    @pytest.mark.parametrize("seed", [0, 9, 2**32 - 1])
    @pytest.mark.parametrize("skip, n", [(0, 1), (1, 7), (65_535, 2), (65_536, 1000),
                                         (1_000_007, 300)])
    def test_advance_then_draw_equals_a_slice(self, seed, skip, n):
        whole = np.random.Generator(np.random.PCG64(seed)).random(skip + n)
        bits = np.random.PCG64(seed)
        bits.advance(skip)
        assert np.random.Generator(bits).random(n).tolist() == whole[skip:].tolist()

    def test_advance_is_relative_to_the_draws_made(self):
        whole = np.random.Generator(np.random.PCG64(5)).random(100_000)
        rng = np.random.Generator(np.random.PCG64(5))
        rng.bit_generator.advance(10)
        first = rng.random(20)
        rng.bit_generator.advance(30_000 - 30)
        assert first.tolist() == whole[10:30].tolist()
        assert rng.random(500).tolist() == whole[30_000:30_500].tolist()


class TestCountBelow:
    DRAWS = np.array([0.5, 0.0, 0.25, 0.75, 0.25])

    @pytest.mark.parametrize("switch", [SWITCH, 0], ids=["compare", "sort"])
    @pytest.mark.parametrize("thresholds, expected", [
        ([0.25], [1]),
        ([0.25, 0.5], [1, 3]),
        ([0.0, 0.25, 0.5], [0, 1, 3]),
        ([1.0, 0.75, 0.25, 0.0, 0.3], [5, 4, 1, 0, 3]),
        ([], []),
    ])
    def test_ties_count_as_not_below(self, thresholds, expected, switch, monkeypatch):
        monkeypatch.setattr(simulate, "_COMPARE_UP_TO", switch)
        counts = simulate._count_below(self.DRAWS, np.array(thresholds, dtype=float))
        assert counts.dtype == np.int64
        assert counts.tolist() == expected

    @pytest.mark.parametrize("n_draws", [simulate._CHUNK, 32_768, 8_192, 1_024])
    @pytest.mark.parametrize("n_thresholds", range(17, SWITCH + 1))
    def test_paths_agree_on_a_full_chunk(self, n_draws, n_thresholds, monkeypatch):
        # a full chunk, the unit of 2 workers and shorter units, at the counts
        # between log2(_CHUNK) = 16 and the switch; unsorted, with a tie and
        # both ends of [0, 1]
        draws = np.random.Generator(np.random.PCG64(n_draws + n_thresholds)).random(n_draws)
        thresholds = np.concatenate(([draws[0], 1.0, 0.0], np.random.default_rng(
            n_thresholds).uniform(0.0, 1.0, n_thresholds - 3)))
        compared = simulate._count_below(draws, thresholds)
        monkeypatch.setattr(simulate, "_COMPARE_UP_TO", 0)
        by_sort = simulate._count_below(draws, thresholds)
        assert compared.tolist() == by_sort.tolist()
        assert compared.tolist() == [np.count_nonzero(draws < t) for t in thresholds]


class TestSimulateMining:
    def test_certain_success_single_miner(self):
        cfg = SimConfig(n_blocks=500, seed=1, params=zero_delay_params())
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
            assert abs(outcome.frequencies[i] - expected) <= 3 * sigma

    def test_statistical_fidelity_over_seeds(self):
        expected = 0.5 * math.exp(-0.1)
        sigma = math.sqrt(expected * (1 - expected) / 1000)
        passes = 0
        for seed in range(100):
            outcome = simulate_mining([0.5, 0.5], _sim(seed=seed))
            if all(abs(outcome.frequencies[i] - expected) <= 3 * sigma
                   for i in range(2)):
                passes += 1
        assert passes >= 99


class TestFirstMinerWins:
    PROFILES = [[0.0, 5.0], [3.0, 1.0, 2.0], [7.5], [1.0, 0.0, 4.0, 2.0]]

    @staticmethod
    def _check_against_per_block(profiles):
        cfg = _sim(seed=40, n_blocks=250, tx_per_block=4)
        win_probs = [mining_success_prob(PowerProfile(np.asarray(p, dtype=float)).shares()[0],
                                         cfg.params) for p in profiles]
        wins = first_miner_wins(win_probs, cfg, 6)
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

    @pytest.mark.parametrize("n_seeds", [0, -1, 2.0, True])
    def test_bad_seed_count_rejected(self, n_seeds):
        with pytest.raises(ValueError, match="n_seeds"):
            first_miner_wins([0.5], _sim(), n_seeds)


class TestSimConfig:
    @pytest.mark.parametrize("n_blocks", [0, -3, 2.0, True, False])
    def test_bad_block_count_rejected(self, n_blocks):
        with pytest.raises(ValueError, match="n_blocks must be an integer >= 1"):
            SimConfig(n_blocks=n_blocks)

    @pytest.mark.parametrize("seed", [-1, 0.0, True, False])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            SimConfig(seed=seed)

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(n_blocks=np.int64(5), seed=np.uint32(7))
        assert simulate_mining([1.0], cfg).n_blocks == 5


class TestEmpiricalSuccessProb:
    def test_direct_ratio(self):
        outcome = SimOutcome(wins=np.array([450]), orphans=550, n_blocks=1000)
        assert outcome.frequencies[0] == 0.45

    def test_zero_wins(self):
        outcome = SimOutcome(wins=np.array([0, 10]), orphans=990, n_blocks=1000)
        assert outcome.frequencies[0] == 0.0

    def test_symmetric_counts(self):
        outcome = SimOutcome(wins=np.array([250, 250, 250, 250]), orphans=0, n_blocks=1000)
        assert outcome.frequencies.tolist() == [0.25] * 4


class TestMdgBaseline:
    def test_unit_multiplier_is_the_edge_profit(self):
        params, bill = GameParams(), 1.5 + 0.7
        # 12*e^(-0.1) - bill - 0.5: the edge scheme's profit on the same bill
        assert net_profit(params, bill, 1.0) == net_profit(params, bill) == pytest.approx(
            12.0 * math.exp(-0.1) - bill - 0.5, rel=1e-12)

    def test_doubled_delay_value(self):
        params = GameParams(fixed_reward=8.0, tx_reward=2.0, poisson_rate=0.01,
                            tx_per_block=10, edge_overhead=0.0)
        # 10*e^(-0.2) - 2, frozen from a 30-digit evaluation
        assert net_profit(params, 2.0, 2.0) == pytest.approx(
            6.187307530779819, rel=1e-12)

    def test_limit_of_huge_delay(self):
        params = GameParams(edge_overhead=0.25)
        profit = net_profit(params, 2.0, 1e9)
        assert profit == pytest.approx(-2.25)

    def test_multiplier_below_one_rejected(self):
        with pytest.raises(ValueError, match="mdg_delay_multiplier must be >= 1"):
            emg_vs_mdg_sweep([100.0], 0.5, GameParams(), 0.01, mdg_delay_multiplier=0.5)


class TestSweep:
    def test_empty_grid_gives_empty_table(self):
        columns = emg_vs_mdg_sweep([40.0], 0.5, GameParams(), 0.01)
        empty = emg_vs_mdg_sweep([], 0.5, GameParams(), 0.01)
        assert list(empty) == list(columns)
        assert all(column.dtype == np.float64 and column.size == 0 for column in empty.values())

    def test_rows_ordered_by_total_power(self):
        columns = emg_vs_mdg_sweep([120.0, 40.0, 80.0], 0.5, GameParams(), 0.01)
        assert columns["total_power"].tolist() == [40.0, 80.0, 120.0]
        assert {len(column) for column in columns.values()} == {3}

    def test_edge_scheme_wins_even_without_extra_delay(self):
        params = GameParams(edge_overhead=0.0)
        columns = emg_vs_mdg_sweep([100.0], 0.5, params, 0.01, mdg_delay_multiplier=1.0)
        # same per-power fee rate, but the edge's own half is not paid for
        assert columns["profit_emg"][0] >= columns["profit_mdg"][0]
        assert columns["fee_mdg"][0] == pytest.approx(2.0 * columns["fee_emg"][0])

    def test_edge_scheme_dominates_with_delay(self):
        columns = emg_vs_mdg_sweep(np.linspace(10, 200, 8), 0.5, GameParams(), 0.01,
                                   mdg_delay_multiplier=1.5)
        assert all(gap >= 0.0 for gap in columns["profit_gap"])

    def test_gap_shrinks_toward_zero_fraction(self):
        params = GameParams()
        gaps = []
        for fraction in (0.1, 0.5, 0.9):
            columns = emg_vs_mdg_sweep([100.0], fraction, params, 0.01,
                                       mdg_delay_multiplier=1.5)
            gaps.append(columns["profit_gap"][0])
        assert gaps[0] <= gaps[1] <= gaps[2]

    def test_vanishing_fraction_at_unit_multiplier(self):
        params = GameParams()
        columns = emg_vs_mdg_sweep([100.0], 1e-4, params, 0.01, mdg_delay_multiplier=1.0)
        assert columns["profit_gap"][0] == pytest.approx(0.0, abs=1e-3)

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

    def test_overflowing_mdg_fee_rejected(self):
        # at a total of 1e306, X*u/d is far above the bracket top: no fee
        # recruits the pool, the fee is the floor and the row is finite; a
        # floor of 1e300 with 1e-9 of the total on devices makes fee_emg *
        # total / device_power overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            columns = emg_vs_mdg_sweep([50.0, 1e306], 0.5, GameParams(), 0.01)
            assert columns["fee_emg"][1] == 0.1
            assert all(math.isfinite(v) for values in columns.values() for v in values)
            params = GameParams(fixed_reward=1e306, min_consumption=1e300)
            assert emg_vs_mdg_sweep([1.0], 0.5, params, 1e307)["fee_mdg"] == [2e300]
            with pytest.raises(ValueError, match=r"^fee_mdg is not finite at instance 0 "
                               r"\(edge power 0\.999999999, fee 1e\+300\): inf$"):
                emg_vs_mdg_sweep([1.0], 1.0 - 1e-9, params, 1e307)
