"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances and runtime budgets are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from edgeminer import (
    DiscriminatoryGame,
    GameParams,
    SearchConfig,
    SimConfig,
    best_response_dynamics,
    best_responses,
    golden_section_max,
    grid_argmax,
    leader_delta_utility_discriminatory,
    miner_utilities,
    multiplicative_fee_search,
    nash_equilibrium_closed_form,
    optimal_fee_uniform,
    simulate_mining,
)
from edgeminer.experiments import build_config, run_experiment

from conftest import (
    UniformInstance,
    random_feasible_disc_games,
    random_uniform_games,
    zero_delay_params,
)

P_OPT_ANALYTIC = 2.924017738212866  # 5^(2/3), frozen from a 30-digit evaluation


class _criterion:
    """Prints the required PASS/FAIL line and re-raises any failure."""

    def __init__(self, number: int, label: str):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"{verdict} criterion {self.number}: {self.label}")
        return False


def test_criterion_1_best_response_oracle_equivalence():
    with _criterion(1, "uniform best response matches grid argmax on 200 instances"):
        started = time.perf_counter()
        for game in random_uniform_games(200, seed=2024):
            upper = game.kappa / game.unit_cost  # utility negative beyond this
            argmax, _ = grid_argmax(game.utility, 0.0, upper + 1.0, 1e-4)
            assert abs(game.response() - argmax) <= 1e-3
        assert time.perf_counter() - started < 10.0


def test_criterion_2_discriminatory_fixed_point_and_dynamics():
    with _criterion(2, "closed form is a best-response fixed point; dynamics reach it"):
        started = time.perf_counter()
        rng = np.random.default_rng(555)
        for game in random_feasible_disc_games(100, seed=404, m_range=(2, 10)):
            x = nash_equilibrium_closed_form(game).powers
            total = math.fsum(x)
            responses = best_responses(total - x, game.cost_coefficients)
            assert np.all(np.abs(responses - x) <= 1e-9)
            start = x * rng.uniform(0.2, 3.0, x.size)
            reached = best_response_dynamics(game, start, tol=1e-8).powers
            np.testing.assert_allclose(reached, x, atol=1e-6)
        assert time.perf_counter() - started < 10.0


def test_criterion_3_share_identity():
    with _criterion(3, "equilibrium share identity holds to 1e-9"):
        for game in random_feasible_disc_games(100, seed=777, m_range=(2, 10)):
            shares = nash_equilibrium_closed_form(game).shares()
            inv_sum = math.fsum(1.0 / game.fees)
            for i in range(game.n_miners):
                identity = 1.0 - (game.n_miners - 1) / (game.fees[i] * inv_sum)
                assert abs(shares[i] - identity) <= 1e-9


def test_criterion_4_concavity_suites():
    with _criterion(4, "curvature signs of all four objectives at 1000 points each"):
        rng = np.random.default_rng(31337)

        # aggregate pool utility, concave in the pool power
        games = random_uniform_games(50, seed=8)
        for _ in range(1000):
            game = games[rng.integers(len(games))]
            y = float(rng.uniform(0.05, 3.0 * game.kappa / game.unit_cost))
            h = 0.01 * (1.0 + y)
            second = game.utility(y + h) - 2.0 * game.utility(y) + game.utility(max(y - h, 0.0))
            assert second <= 1e-12

        # per-miner utility, concave in own power
        disc_games = random_feasible_disc_games(50, seed=16, m_range=(2, 6))
        for _ in range(1000):
            game = disc_games[rng.integers(len(disc_games))]
            others = rng.uniform(0.2, 2.0, game.n_miners - 1)
            x = float(rng.uniform(0.05, 4.0))
            h = 0.01 * (1.0 + x)

            def utility(value):
                profile = np.concatenate([[value], others])
                return miner_utilities(game, profile)[0]

            second = utility(x + h) - 2.0 * utility(x) + utility(max(x - h, 1e-9))
            assert second <= 1e-12

        # simplified uniform leader objective: increasing and concave in the fee
        for _ in range(1000):
            game = games[rng.integers(len(games))]
            fee = float(rng.uniform(0.5, 30.0))
            h = 0.01 * (1.0 + fee)

            def leader(value):
                return game._replace(fee=value).leader("simplified")

            assert leader(fee + h) - leader(fee) > 0.0
            assert leader(fee + h) - 2.0 * leader(fee) + leader(fee - h) < 0.0

        # simplified discriminatory leader term: increasing and concave in own
        # fee while miner 0 is active (a higher own fee keeps it active), 0 below
        active_points = 0
        for _ in range(1000):
            game = disc_games[rng.integers(len(disc_games))]
            fee = float(rng.uniform(0.5, 30.0))
            h = 0.01 * (1.0 + fee)

            def probe(value):
                fees = game.fees.copy()
                fees[0] = value
                return DiscriminatoryGame(fees, game.unit_cost, game.params)

            def leader_i(value):
                game_i = probe(value)
                return leader_delta_utility_discriminatory(
                    game_i, nash_equilibrium_closed_form(game_i), "simplified")[0]

            if nash_equilibrium_closed_form(probe(fee - h)).powers[0] == 0.0:
                assert leader_i(fee - h) == 0.0
                continue
            active_points += 1
            assert leader_i(fee + h) - leader_i(fee) > 0.0
            assert leader_i(fee + h) - 2.0 * leader_i(fee) + leader_i(fee - h) < 0.0
        assert active_points >= 900


def test_criterion_5_standard_function_axioms():
    with _criterion(5, "response-map axioms inside the certified region, violated outside"):
        rng = np.random.default_rng(99)

        def response(game, x):
            return math.sqrt(game.kappa * x / game.unit_cost) - x

        checked = 0
        for game in random_uniform_games(80, seed=6):
            if not game.certificate()[0]:
                continue
            checked += 1
            quarter_bound = game.kappa / (4.0 * game.unit_cost)
            xs = np.sort(rng.uniform(1e-6, quarter_bound * 0.999, 10))
            values = [response(game, x) for x in xs]
            assert all(v > 0.0 for v in values)
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
            for lam in rng.uniform(1.0 + 1e-9, 4.0, 5):
                for x in xs[:4]:
                    assert lam * response(game, x) > response(game, lam * x)
        assert checked >= 10  # the certified region is not empty in the sample

        # counterexample search outside the certified region: positivity fails
        game = UniformInstance(1.0, 4.0, 1.0, zero_delay_params())
        violating = [x for x in np.linspace(4.0, 12.0, 50) if response(game, x) < 0.0]
        assert violating, "expected a positivity violation beyond kappa/unit_cost"
        x = violating[0]
        print(f"  documented violation: response({x:.3f}) = {response(game, x):.6f} < 0 "
              f"(positivity bound {game.kappa / game.unit_cost:.3f})")


def test_criterion_6_analytic_fee_optimum_both_searches():
    with _criterion(6, "hill-climb and golden section hit the analytic optimum, "
                       "the library's closed form to 1e-12"):
        def profit(fee):
            return 10.0 * (1.0 - fee ** -0.5) - fee

        climbed, _ = multiplicative_fee_search(
            profit, SearchConfig(initial_fee=0.5, step_factor=0.1, tolerance=1e-6))
        assert abs(climbed - P_OPT_ANALYTIC) <= 1e-3
        golden, _ = golden_section_max(profit, 0.1, 50.0, rel_tol=1e-9)
        assert abs(golden - P_OPT_ANALYTIC) <= 1e-3
        # the same profit in the library: a = 10, X = u = 1, no delay
        params = GameParams(fixed_reward=8.0, tx_reward=2.0, poisson_rate=0.0)
        library, _ = optimal_fee_uniform(1.0, 1.0, params)
        assert abs(library - P_OPT_ANALYTIC) <= 1e-12


def test_criterion_7_monte_carlo_fidelity():
    with _criterion(7, "empirical win frequencies within 3 sigma in >= 99/100 seeds"):
        started = time.perf_counter()
        params = GameParams()  # rate 0.01, delay 1.0, 10 tx per block
        shares = np.array([0.3, 0.7])
        expected = shares * math.exp(-0.1)
        sigma = np.sqrt(expected * (1.0 - expected) / 1000)
        passes = 0
        for seed in range(100):
            cfg = SimConfig(n_blocks=1000, seed=seed, params=params)
            outcome = simulate_mining([3.0, 7.0], cfg)
            deviations = np.abs(outcome.frequencies - expected)
            if all(d <= 3.0 * s for d, s in zip(deviations, sigma)):
                passes += 1
        assert passes >= 99
        assert time.perf_counter() - started < 5.0
        print(f"  {passes}/100 seeds within 3 sigma")


def test_criterion_8_trend_reproduction(tmp_path):
    with _criterion(8, "figure series reproduce the reported trends"):
        def run(kind, **settings):
            settings.setdefault("kind", kind)
            settings.setdefault("out", str(tmp_path / f"{kind}.csv"))
            table, _, n_failed = run_experiment(build_config(settings))
            return table, n_failed

        table, _ = run("fig1")
        for column in ("success_prob_model", "success_prob_empirical"):
            values = table[column]
            assert np.all(np.diff(values) >= 0.0), f"fig1 {column} not monotone"

        table, _ = run("fig2")
        fees = table["optimal_fee"]
        assert np.all(np.diff(fees) >= 0.0), "fig2 optimal fee not monotone in reward"

        table, _ = run("fig3")
        for column in ("profit_same_fee", "profit_diff_fee"):
            values = table[column]
            assert np.all(np.diff(values) > 0.0), f"fig3 {column} not increasing"
            assert np.all(np.diff(values, 2) < 1e-12), f"fig3 {column} not diminishing"

        for kind in ("fig5", "fig6"):
            table, n_failed = run(kind)
            assert n_failed == 0
            by_fraction = {}
            for fraction, gap in zip(table["edge_fraction"], table["profit_gap"]):
                by_fraction.setdefault(fraction, []).append(gap)
            assert all(g >= 0.0 for gaps in by_fraction.values() for g in gaps), \
                f"{kind}: edge scheme must dominate at delay multiplier > 1"
            ordered = sorted(by_fraction)
            for small, large in zip(ordered, ordered[1:]):
                assert all(a <= b for a, b in zip(by_fraction[small], by_fraction[large])), \
                    f"{kind}: gap must shrink as the edge fraction falls"


def test_criterion_9_deterministic_outputs(tmp_path):
    with _criterion(9, "equal config and seed give byte-identical files"):
        for kind, settings in (("fig1", {"grid_steps": 8, "n_seeds": 4}),
                               ("simulate", {"seed": 11}),
                               ("fig6", {"grid_steps": 4, "format": "json"})):
            paths = []
            for tag in ("a", "b"):
                out = tmp_path / f"{kind}-{tag}.{settings.get('format', 'csv')}"
                run_experiment(build_config({"kind": kind, "out": str(out), **settings}))
                paths.append(out)
            assert paths[0].read_bytes() == paths[1].read_bytes(), kind
