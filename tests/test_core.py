"""Primitive formulas: shares, success probability, raw utilities."""

import math
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

import edgeminer.core
import edgeminer.experiments
from edgeminer import (
    ConfigError,
    DegenerateProfileError,
    DiscriminatoryGame,
    ExperimentConfig,
    GameParams,
    PowerProfile,
    miner_utilities,
    mining_success_prob,
    net_profit,
)
from edgeminer.core import type_error
from edgeminer.experiments import build_config

from conftest import reader, zero_delay_params


def _share(powers, i):
    return PowerProfile(np.asarray(powers, dtype=float)).shares()[i]


def _utility(fee, powers, i, unit_cost, params):
    """Miner i's utility when every miner is offered the same fee."""
    game = DiscriminatoryGame(np.full(len(powers), fee), unit_cost, params)
    return miner_utilities(game, powers)[i]


class TestPowerShare:
    def test_symmetric(self):
        assert _share([1, 1, 1, 1], 0) == 0.25

    def test_sole_contributor(self):
        assert _share([2, 0, 0], 0) == 1.0

    def test_direct_arithmetic(self):
        assert _share([3, 1], 0) == 0.75

    def test_all_zero_profile_rejected(self):
        with pytest.raises(DegenerateProfileError):
            _share([0.0, 0.0, 0.0], 0)

    def test_total_past_the_float_range_names_powers(self):
        # every power is finite, but their fsum is not: a ValueError, not fsum's OverflowError
        with pytest.raises(ValueError, match="^powers must have a finite total, but their sum "
                                             "overflows$"):
            _share([1e308, 1e308], 0)
        assert PowerProfile(np.array([1e308, 7e307])).total == math.fsum([1e308, 7e307])

    def test_index_checked(self):
        with pytest.raises(IndexError):
            _share([1.0, 2.0], 5)

    def test_shares_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            powers = rng.uniform(0.0, 10.0, rng.integers(1, 12))
            powers[rng.integers(powers.size)] += 0.1  # keep one entry positive
            shares = PowerProfile(powers).shares()
            assert abs(math.fsum(shares) - 1.0) <= 1e-12
            assert np.all(shares >= 0.0) and np.all(shares <= 1.0)

    def test_shares_invariant_under_scaling(self):
        profile = PowerProfile(np.array([0.3, 1.7, 2.4, 0.0, 5.1]))
        base = profile.shares()
        for lam in (2.0, 0.5, 4.0, 1024.0):
            # dyadic scaling is exact in binary floating point
            assert np.array_equal(PowerProfile(profile.powers * lam).shares(), base)
        for lam in (1.7, 3.3, 0.9):
            np.testing.assert_allclose(PowerProfile(profile.powers * lam).shares(), base,
                                       rtol=1e-13, atol=0.0)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            PowerProfile(np.array([1.0, -0.5]))


class TestMiningSuccessProb:
    def test_zero_delay_full_share(self):
        assert mining_success_prob(1.0, zero_delay_params()) == 1.0

    def test_zero_share(self):
        assert mining_success_prob(0.0, GameParams(tx_per_block=7)) == 0.0

    def test_discounted_half_share(self):
        params = GameParams(poisson_rate=0.01, tx_per_block=10)
        # 0.5 * e^(-0.1), frozen from a 30-digit evaluation
        assert mining_success_prob(0.5, params) == pytest.approx(
            0.4524187090179798, rel=1e-12)

    def test_bounded_by_share(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            share = float(rng.uniform(0.0, 1.0))
            params = GameParams(poisson_rate=0.05, tx_per_block=int(rng.integers(1, 40)))
            prob = mining_success_prob(share, params)
            assert 0.0 <= prob <= share <= 1.0

    def test_monotone_in_share_and_tx(self):
        params = GameParams(poisson_rate=0.03)
        shares = np.linspace(0.0, 1.0, 21)
        probs = [mining_success_prob(s, params) for s in shares]
        assert np.all(np.diff(probs) >= 0.0)
        by_tx = [mining_success_prob(0.7, replace(params, tx_per_block=t)) for t in range(1, 15)]
        assert np.all(np.diff(by_tx) < 0.0)

    def test_share_out_of_range(self):
        with pytest.raises(ValueError):
            mining_success_prob(1.2, GameParams())
        with pytest.raises(ValueError):
            mining_success_prob(np.array([0.5, -0.1]), GameParams())

    def test_elementwise_equals_scalar_calls(self):
        params = GameParams(poisson_rate=0.03)
        shares = np.random.default_rng(5).uniform(0.0, 1.0, 50)
        probs = mining_success_prob(shares, params)
        assert probs.tolist() == [float(mining_success_prob(s, params)) for s in shares]


class TestEdgeUtility:
    def test_no_costs(self):
        params = zero_delay_params(tx_reward=0.0, edge_overhead=0.0)
        assert net_profit(params, 0.0) == 10.0

    def test_losses_representable(self):
        params = zero_delay_params(edge_overhead=5.0)
        assert net_profit(params, 3.0 + 3.0) == -1.0

    def test_discounted_case(self):
        params = GameParams(fixed_reward=5.0, tx_reward=5.0, poisson_rate=0.05,
                            tx_per_block=10, edge_overhead=1.0)
        # 10*e^(-0.5) - 2, frozen from a 30-digit evaluation
        assert net_profit(params, 1.0) == pytest.approx(4.065306597126334, rel=1e-12)


class TestMinerUtility:
    def test_zero_power_zero_utility(self):
        assert _utility(4.0, [0.0, 2.0], 0, 1.0, GameParams()) == 0.0

    def test_symmetric_split(self):
        assert _utility(4.0, [1.0, 1.0], 0, 1.0, zero_delay_params()) == 1.0

    def test_discounted_quarter_share(self):
        params = GameParams(poisson_rate=0.01, mobile_tx_load=10)
        # 4*0.25*e^(-0.1) - 0.5 = e^(-0.1) - 0.5, frozen
        assert _utility(4.0, [1.0, 3.0], 0, 0.5, params) == pytest.approx(
            0.4048374180359596, rel=1e-12)

    def test_degenerate_profile_rejected(self):
        with pytest.raises(DegenerateProfileError):
            _utility(4.0, [0.0, 0.0], 0, 1.0, GameParams())

    def test_reward_term_scale_invariant(self):
        params = zero_delay_params()
        base_cost = 0.0  # compare reward terms via zero-cost games
        for lam in (2.0, 8.0):
            u1 = _utility(6.0, [1.0, 3.0], 1, 1e-12, params)
            u2 = _utility(6.0, [lam, 3.0 * lam], 1, 1e-12, params)
            assert u1 - base_cost == pytest.approx(u2, rel=1e-9)


class TestGameParams:
    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            GameParams(poisson_rate=-0.1)

    def test_zero_delay_allowed(self):
        assert GameParams(poisson_rate=0.0).delay_discount(10) == 1.0
        assert 0.0 < GameParams().delay_discount(10) <= 1.0

    def test_tx_loads_integral(self):
        with pytest.raises(ValueError):
            GameParams(tx_per_block=0)
        with pytest.raises(ValueError):
            GameParams(mobile_tx_load=2.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="fixed_reward must be finite"):
            GameParams(fixed_reward=float("inf"))

    def test_delay_discount_is_one_exponential(self):
        # poisson_rate is the penalty per transaction: a doubled delay is a doubled rate
        assert GameParams(poisson_rate=0.02).delay_discount(50) == math.exp(-0.02 * 50)
        assert GameParams(poisson_rate=0.02).delay_discount(50) == GameParams().delay_discount(100)

    @pytest.mark.parametrize("field", fields(GameParams), ids=lambda f: f.name)
    def test_each_field_checked_by_its_annotation(self, field):
        # a setting is declared once, by its field: floats must be >= 0, ints >= 1
        if field.type == "int":
            value, message = 0, f"{field.name} must be an integer >= 1, got 0"
        else:
            value, message = -1.0, f"{field.name} must be >= 0, got -1.0"
        with pytest.raises(ConfigError) as err:
            GameParams(**{field.name: value})
        assert err.value.errors == [message]

    def test_every_violation_listed(self):
        with pytest.raises(ConfigError) as err:
            GameParams(fixed_reward=-1.0, poisson_rate=math.nan, tx_per_block=0)
        assert err.value.errors == ["fixed_reward must be >= 0, got -1.0",
                                    "poisson_rate must be finite, got nan",
                                    "tx_per_block must be an integer >= 1, got 0"]

    @pytest.mark.parametrize("name", ["tx_per_block", "mobile_tx_load"])
    def test_count_past_the_float_range_rejected(self, name):
        # the largest float's integer is a load the discount takes; a larger one would
        # overflow it
        top = int(sys.float_info.max)
        assert GameParams(**{name: top}).delay_discount(top) == 0.0
        with pytest.raises(ConfigError) as err:
            GameParams(**{name: top + 1})
        assert err.value.errors == [f"{name} must be <= 1.7976931348623157e+308, the float "
                                    f"range, got {top + 1!r}"]
        with pytest.raises(ConfigError, match=f"^{name} must be <= "):
            GameParams(**{name: 10**400})

    def test_non_integer_count_is_a_type_error(self):
        # a count that is not an integer gets the shared type error, one below 1 the floor
        with pytest.raises(ConfigError) as err:
            GameParams(tx_per_block=2.5, mobile_tx_load=0)
        assert err.value.errors == ["tx_per_block must be an integer, got 2.5",
                                    "mobile_tx_load must be an integer >= 1, got 0"]


# values of the wrong type for each float, int and list field of both classes; None is
# one where the annotation does not admit it
_WRONG = {"float": [math.nan], "int": [2.5, True], "tuple": [np.ones((2, 2))]}
_WRONG_TYPES = [(cls, f, value) for cls in (GameParams, ExperimentConfig) for f in fields(cls)
                if f.type.partition(" | ")[0] in _WRONG
                for value in _WRONG[f.type.partition(" | ")[0]]
                + ([] if f.type.endswith("| None") else [None])]


class TestRealSettings:
    """GameParams and ExperimentConfig read a real setting the same way."""

    @pytest.mark.parametrize("real", [np.int64, np.int32])
    def test_numpy_integers_accepted(self, real):
        assert GameParams(fixed_reward=real(5)).total_reward == 7.0
        cfg = ExperimentConfig(kind="solve-uniform", edge_power=real(50), unit_cost=real(1))
        assert (cfg.edge_power, cfg.unit_cost) == (50, 1)

    @pytest.mark.parametrize("value", [np.array([1.0, 2.0]), "5"])
    def test_an_array_or_a_str_is_one_error(self, value):
        with pytest.raises(ConfigError) as err:
            GameParams(fixed_reward=value)
        assert err.value.errors == [f"fixed_reward must be finite, got {value!r}"]
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind="solve-uniform", edge_power=value)
        assert err.value.errors == [f"edge_power must be finite, got {value!r}"]

    @pytest.mark.parametrize("flag", [True, False, np.True_, np.False_], ids=repr)
    @pytest.mark.parametrize("build, message", [
        (lambda flag: GameParams(fixed_reward=flag), "fixed_reward must be finite, got {!r}"),
        (lambda flag: build_config({"kind": "simulate", "powers": (flag, 2.0)}),
         "powers must be a flat list of real numbers"),
    ], ids=["float", "tuple"])
    def test_a_bool_is_not_a_real_number(self, build, message, flag):
        # bool is a subclass of int, so a type check on int alone would take it as 1 or 0
        with pytest.raises(ConfigError) as err:
            build(flag)
        assert err.value.errors == [message.format(flag)]

    @pytest.mark.parametrize("cls, field, value", _WRONG_TYPES, ids=[
        f"{f.name}-{'2d' if isinstance(v, np.ndarray) else v}" for _, f, v in _WRONG_TYPES])
    def test_one_type_error_from_the_shared_helper(self, cls, field, value, monkeypatch):
        message = {"float": f"{field.name} must be finite, got {value!r}",
                   "int": f"{field.name} must be an integer, got {value!r}",
                   "tuple": f"{field.name} must be a flat list of real numbers"}
        assert type_error(field, value) == message[field.type.partition(" | ")[0]]

        # both classes report what core.type_error says, and nothing else, for the value
        def marked(f, v):
            error = type_error(f, v)
            return error and "shared: " + error

        monkeypatch.setattr(edgeminer.core, "type_error", marked)
        monkeypatch.setattr(edgeminer.experiments, "type_error", marked)
        kind = reader(field.name)
        with pytest.raises(ConfigError) as err:
            if cls is GameParams:
                GameParams(**{field.name: value})
            else:
                fees = {"fees": (4.0, 8.0)} if kind == "solve-disc" else {}
                ExperimentConfig(**{"kind": kind, **fees, field.name: value})
        assert err.value.errors == ["shared: " + type_error(field, value)]
