"""Monte-Carlo mining runs and the delayed-baseline comparison."""

import math
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

from conftest import binomial_chain, zero_delay_params


def _sim(seed=0, n_blocks=1000, **params):
    game_params = GameParams(**params) if params else GameParams()
    return SimConfig(n_blocks=n_blocks, seed=seed, params=game_params)


def _per_block(powers, cfg):
    """Reference simulator: each block's winner by its own binary search.

    Block b goes to the first miner whose cumulative win probability exceeds
    the block's uniform draw, or to no one past the last; returns the counts
    of miners 0..M-1 and then the orphans.
    """
    shares = PowerProfile(np.asarray(powers, dtype=float)).shares()
    cum = np.cumsum(shares * cfg.params.delay_discount(cfg.params.tx_per_block))
    draws = np.random.Generator(np.random.PCG64(cfg.seed)).random(cfg.n_blocks)
    counts = np.bincount(np.searchsorted(cum, draws, side="right"), minlength=shares.size + 1)
    return np.append(counts[:shares.size], counts[shares.size:].sum())


# the reference draws its blocks from seeds this far above the simulator's, so
# that the two pooled counts are independent
REFERENCE_SEEDS = 10**6


def _assert_same_distribution(powers, cfg, n_seeds=200):
    """simulate_mining and the per-block loop, pooled over n_seeds seeds each.

    Both pooled counts of a cell are Binomial(n_seeds * n_blocks, p) for the
    same p if the simulator is right.  Given their sum m, either is then
    hypergeometric around m / 2, and by Hoeffding's inequality
    |A - B| >= 6 sqrt(m) has probability at most 2 e^-18 = 3.0e-8: so the
    test raises a false alarm in at most 3.0e-8 of the runs per cell, and in
    at most 1.3e-6 with the 43 cells it sees at most.  Each seed's counts are
    checked exactly: int64 wins, an int orphan count, n_blocks in all and no
    win for a zero-power miner.
    """
    shares = PowerProfile(np.asarray(powers, dtype=float)).shares()
    pooled = np.zeros(shares.size + 1, dtype=np.int64)
    reference = np.zeros(shares.size + 1, dtype=np.int64)
    for k in range(n_seeds):
        outcome = simulate_mining(powers, SimConfig(cfg.n_blocks, cfg.seed + k, cfg.params))
        assert outcome.wins.dtype == np.int64 and type(outcome.orphans) is int
        assert int(outcome.wins.sum()) + outcome.orphans == outcome.n_blocks == cfg.n_blocks
        assert np.all(outcome.wins[shares == 0] == 0)
        pooled += np.append(outcome.wins, outcome.orphans)
        reference += _per_block(powers, SimConfig(cfg.n_blocks, REFERENCE_SEEDS + cfg.seed + k,
                                                  cfg.params))
    gap = np.abs(pooled - reference)
    assert np.all(gap <= 6.0 * np.sqrt(pooled + reference)), (pooled, reference)


class TestAgainstPerBlockReference:
    @pytest.mark.parametrize("rate", [0.0, 0.01, 100.0])
    @pytest.mark.parametrize("n_blocks", [1, 2, 137, 2_000])
    def test_random_miner_counts(self, n_blocks, rate):
        rng = np.random.default_rng(n_blocks)
        for m in (1, 3, 40):
            cfg = _sim(seed=31 * m, n_blocks=n_blocks, poisson_rate=rate)
            _assert_same_distribution(rng.uniform(0.5, 20.0, m), cfg)

    @pytest.mark.parametrize("n_blocks", [1, 137, 2_000])
    def test_zero_power_miners(self, n_blocks):
        for m in (1, 3, 40):
            powers = np.zeros(m + 2)
            powers[1::2] = np.arange(1.0, powers[1::2].size + 1)
            _assert_same_distribution(powers, _sim(seed=5, n_blocks=n_blocks))

    @pytest.mark.parametrize("rate", [0.0, 100.0])
    @pytest.mark.parametrize("n_blocks", [1, 137, 200_000, 10**12])
    def test_single_miner(self, n_blocks, rate):
        # no delay: every block is won; exp(-1000) == 0: every block orphaned
        for seed in range(20):
            outcome = simulate_mining([4.0], _sim(seed=seed, n_blocks=n_blocks, poisson_rate=rate))
            assert outcome.orphans == (0 if rate == 0.0 else n_blocks)
            assert outcome.wins.tolist() == [n_blocks - outcome.orphans]

    def test_many_miners(self):
        powers = np.random.default_rng(8).uniform(1.0, 10.0, 1000)
        powers[::7] = 0.0
        for n_blocks in (1, 137, 200_000):
            for seed in range(20):
                outcome = simulate_mining(powers, _sim(seed=44 + seed, n_blocks=n_blocks))
                assert outcome.wins.dtype == np.int64 and outcome.wins.shape == (1000,)
                assert int(outcome.wins.sum()) + outcome.orphans == n_blocks
                assert not outcome.wins[::7].any()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(powers=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40)
           .filter(lambda p: sum(p) > 0),
           seed=st.integers(0, 2**32 - 1),
           n_blocks=st.integers(1, 5000),
           rate=st.sampled_from([0.0, 0.001, 0.01, 0.1, 100.0]))
    def test_random_profiles(self, powers, seed, n_blocks, rate):
        # 150 examples: a false alarm in at most 150 x 1.3e-6 = 2.0e-4 of the runs
        _assert_same_distribution(powers, _sim(seed=seed, n_blocks=n_blocks, poisson_rate=rate),
                                  n_seeds=100)


_THOUSAND = np.random.default_rng(8).uniform(1.0, 10.0, 1000)
_THOUSAND[::7] = 0.0

# one miner, an equal pair, idle miners between active ones, 40 and 1,000
# random miners, and shares 24 orders of magnitude apart
PROFILES = {
    "one": [4.0],
    "equal-pair": [0.5, 0.5],
    "idle-between": [0.0, 1.0, 0.0, 2.0, 0.0, 3.0, 0.0],
    "forty": np.random.default_rng(40).uniform(0.5, 20.0, 40),
    "thousand": _THOUSAND,
    "spread": [1e-12, 1.0, 1e12],
}

# unsorted, descending, tied, both ends of [0, 1], all equal, neighbouring
# floats and the smallest subnormal, and 50 random probabilities
WIN_PROBS = {
    "one": [0.3],
    "ascending": [0.1, 0.2, 0.7],
    "descending": [0.9, 0.5, 0.05],
    "ties": [0.4, 0.2, 0.4, 0.2, 0.4],
    "ends": [1.0, 0.0, 0.5, 0.0, 1.0],
    "all-equal": [0.25] * 6,
    "neighbours": [0.5, np.nextafter(0.5, 0), np.nextafter(0.5, 1), 5e-324, np.nextafter(1, 0)],
    "fifty": np.random.default_rng(50).uniform(0.0, 1.0, 50),
}


class TestAgainstBinomialChain:
    """Count for count, against numpy's multinomial written out as its binomials."""

    @pytest.mark.parametrize("profile", list(PROFILES))
    @pytest.mark.parametrize("rate", [0.0, 0.01, 100.0])
    @pytest.mark.parametrize("n_blocks", [1, 2, 137, 10**6, 10**12])
    def test_simulate_mining(self, n_blocks, rate, profile):
        powers = PROFILES[profile]
        params = GameParams(poisson_rate=rate)
        probs = mining_success_prob(PowerProfile(np.asarray(powers, dtype=float)).shares(), params)
        for seed in (0, 977, 2**64 + 5):
            outcome = simulate_mining(powers, SimConfig(n_blocks, seed, params))
            assert outcome.wins.tolist() + [outcome.orphans] == binomial_chain(seed, n_blocks,
                                                                               probs)

    @pytest.mark.parametrize("seed", [0, 2**64 - 2], ids=["zero", "across-2**64"])
    @pytest.mark.parametrize("n_seeds", [1, 5])
    @pytest.mark.parametrize("n_blocks", [1, 137, 10**6, 10**12])
    @pytest.mark.parametrize("name", list(WIN_PROBS))
    def test_first_miner_wins(self, name, n_blocks, n_seeds, seed):
        # the chain over the distinct probabilities' increments: a tie's
        # empty cell draws nothing, so ties leave the stream as it is
        win_probs = np.asarray(WIN_PROBS[name], dtype=float)
        wins = first_miner_wins(win_probs, _sim(seed=seed, n_blocks=n_blocks), n_seeds)
        assert wins.shape == (win_probs.size, n_seeds) and wins.dtype == np.int64
        assert wins.flags.c_contiguous
        distinct = np.unique(win_probs)
        row = np.searchsorted(distinct, win_probs)
        for k in range(n_seeds):
            cells = binomial_chain(seed + k, n_blocks, np.diff(distinct, prepend=0.0))
            assert wins[:, k].tolist() == np.cumsum(cells[:-1])[row].tolist()


class TestSeedColumns:
    @pytest.mark.parametrize("n_blocks", [1, 137, 10**9])
    @pytest.mark.parametrize("n_seeds", [1, 2, 7, 33])
    def test_each_column_is_its_own_seed(self, n_seeds, n_blocks):
        # column k reads seed cfg.seed + k alone, whatever the number of seeds
        win_probs = WIN_PROBS["fifty"]
        wins = first_miner_wins(win_probs, _sim(seed=20, n_blocks=n_blocks), n_seeds)
        for k in range(n_seeds):
            alone = first_miner_wins(win_probs, _sim(seed=20 + k, n_blocks=n_blocks), 1)
            assert wins[:, k].tolist() == alone[:, 0].tolist()

    @pytest.mark.parametrize("n_blocks", [1, 137, 10**9])
    @pytest.mark.parametrize("name", list(WIN_PROBS))
    def test_permuting_the_probabilities_permutes_the_rows(self, name, n_blocks):
        win_probs = np.asarray(WIN_PROBS[name], dtype=float)
        cfg = _sim(seed=61, n_blocks=n_blocks)
        wins = first_miner_wins(win_probs, cfg, 4)
        for perm_seed in range(5):
            perm = np.random.default_rng(perm_seed).permutation(win_probs.size)
            assert first_miner_wins(win_probs[perm], cfg, 4).tolist() == wins[perm].tolist()


class TestMemory:
    @pytest.mark.parametrize("run", [
        lambda n: simulate_mining([1.0, 2.0, 3.0], _sim(seed=3, n_blocks=n)),
        lambda n: first_miner_wins(np.linspace(0.01, 0.99, 50), _sim(seed=3, n_blocks=n), 20),
    ], ids=["simulate_mining", "first_miner_wins"])
    def test_memory_does_not_grow_with_blocks(self, run):
        # all 1e8 draws at once would take 763 MiB; a multinomial draw holds
        # one count per cell, whatever the block count.  The first call in a
        # process allocates numpy's one-off state, so it is not measured
        run(1)
        peaks = []
        for n_blocks in (10**3, 10**8):
            tracemalloc.start()
            try:
                run(n_blocks)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 4096 and peaks[1] < 64 * 2**10


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
    # unsorted, with a tie, both ends of [0, 1] and a probability next to 0.5
    THRESHOLDS = np.concatenate(([0.5, 1.0, 0.0, 0.5, np.nextafter(0.5, 0)],
                                 np.random.default_rng(50).uniform(0.0, 1.0, 45)))

    @pytest.mark.parametrize("n_blocks", [1, 137, 10_000, 10**9])
    def test_counts_never_fall_as_the_probability_rises(self, n_blocks):
        wins = first_miner_wins(self.THRESHOLDS, _sim(seed=9, n_blocks=n_blocks), 12)
        assert wins.shape == (50, 12) and wins.dtype == np.int64 and wins.flags.c_contiguous
        order = np.argsort(self.THRESHOLDS, kind="stable")
        assert np.all(np.diff(wins[order], axis=0) >= 0)
        assert wins[0].tolist() == wins[3].tolist()  # the tie
        assert wins[2].tolist() == [0] * 12 and wins[1].tolist() == [n_blocks] * 12

    @pytest.mark.parametrize("profiles", [
        [[0.0, 5.0], [3.0, 1.0], [7.5, 2.0], [1.0, 4.0]],
        [[7.5, 2.0], [1.0, 4.0], [1.0, 4.0]],
        [[2.0, 6.0]],
    ], ids=["four", "tied-smallest", "one"])
    def test_smallest_probability_is_one_simulation_per_seed(self, profiles):
        # only the first cell of each seed's draw is a plain simulate_mining
        # count: the other rows add cells that simulate_mining never draws
        cfg = _sim(seed=40, n_blocks=250, tx_per_block=4)
        win_probs = [mining_success_prob(PowerProfile(np.asarray(p, dtype=float)).shares()[0],
                                         cfg.params) for p in profiles]
        wins = first_miner_wins(win_probs, cfg, 6)
        smallest = int(np.argmin(win_probs))
        expected = [simulate_mining(profiles[smallest], SimConfig(250, 40 + k, cfg.params)).wins[0]
                    for k in range(6)]
        assert wins[smallest].tolist() == expected

    def test_rows_are_binomial_over_seeds(self):
        # over 4,000 seeds of 1,000 blocks, each row's mean and variance
        # against n t and n t (1 - t): both are off by more than 6 of their
        # standard errors (normal approximation; the variance's is
        # sqrt(2 / 3,999) of it) in about 2e-9 of the runs each, 1.2e-8 for
        # all six
        t = np.array([0.1, 0.3, 0.75])
        wins = first_miner_wins(t, _sim(seed=7), 4000)
        mean, var = 1000 * t, 1000 * t * (1 - t)
        assert np.all(np.abs(wins.mean(axis=1) - mean) <= 6 * np.sqrt(var / 4000))
        assert np.all(np.abs(wins.var(axis=1, ddof=1) / var - 1) <= 6 * math.sqrt(2 / 3999))

    @pytest.mark.parametrize("n_blocks", [1, 10**12])
    @pytest.mark.parametrize("win_prob, share", [(0.0, 0), (-0.0, 0), (1.0, 1)],
                             ids=["zero", "negative-zero", "one"])
    def test_certain_rows(self, win_prob, share, n_blocks):
        wins = first_miner_wins([win_prob], _sim(seed=4, n_blocks=n_blocks), 3)
        assert wins.tolist() == [[share * n_blocks] * 3]

    def test_no_probabilities_give_no_rows(self):
        wins = first_miner_wins([], _sim(), 3)
        assert wins.shape == (0, 3) and wins.dtype == np.int64

    @pytest.mark.parametrize("n_seeds", [0, -1, 2.0, True])
    def test_bad_seed_count_rejected(self, n_seeds):
        with pytest.raises(ValueError, match="n_seeds"):
            first_miner_wins([0.5], _sim(), n_seeds)

    def test_seed_count_no_array_holds_fails_before_a_draw(self, monkeypatch):
        # 2 x 10**20 counts are past numpy's largest array, so numpy allocates nothing
        monkeypatch.setattr(simulate, "_counts", lambda *args: pytest.fail("drew a seed"))
        with pytest.raises(ValueError, match=r"^n_seeds 100000000000000000000: 2 x "
                                             r"100000000000000000000 win counts cannot be "
                                             r"allocated \("):
            first_miner_wins([0.2, 0.7], _sim(), 10**20)

    @pytest.mark.parametrize("win_probs", [[0.5, -0.1], [1.5], [0.2, math.nan]])
    def test_probability_outside_the_unit_interval_rejected(self, win_probs):
        with pytest.raises(ValueError, match=r"^win_probs must lie in \[0, 1\]"):
            first_miner_wins(win_probs, _sim(), 2)

    @pytest.mark.parametrize("win_probs", [[math.inf], [0.5, -math.inf],
                                           [np.nextafter(1, 2)], [-5e-324]],
                             ids=["inf", "-inf", "above-one", "-subnormal"])
    def test_probability_just_outside_rejected(self, win_probs):
        with pytest.raises(ValueError, match=r"^win_probs must lie in \[0, 1\]"):
            first_miner_wins(win_probs, _sim(), 2)


class TestSimConfig:
    @pytest.mark.parametrize("n_blocks", [0, -3, 2.0, True, False, 2**63, np.uint64(2**63)])
    def test_bad_block_count_rejected(self, n_blocks):
        with pytest.raises(ValueError, match="n_blocks must be an integer >= 1"):
            SimConfig(n_blocks=n_blocks)

    @pytest.mark.parametrize("n_blocks", [1.5, "10", None, np.float64(3.0)])
    def test_non_integer_block_count_rejected(self, n_blocks):
        with pytest.raises(ValueError, match="n_blocks must be an integer >= 1"):
            SimConfig(n_blocks=n_blocks)

    @pytest.mark.parametrize("seed", [-1, 0.0, True, False])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            SimConfig(seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(-1), 1.5, "3", None])
    def test_non_integer_or_negative_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            SimConfig(seed=seed)

    def test_numpy_integers_accepted(self):
        cfg = SimConfig(n_blocks=np.int64(5), seed=np.uint32(7))
        assert simulate_mining([1.0], cfg).n_blocks == 5

    @pytest.mark.parametrize("n_blocks, seed", [(np.uint64(2**40), 0), (5, 2**100),
                                                (2**63 - 1, np.int64(2**62))],
                             ids=["uint64-blocks", "huge-seed", "int64-max-blocks"])
    def test_extreme_integers_accepted(self, n_blocks, seed):
        outcome = simulate_mining([1.0, 3.0], SimConfig(n_blocks=n_blocks, seed=seed))
        assert int(outcome.wins.sum()) + outcome.orphans == outcome.n_blocks == n_blocks


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
