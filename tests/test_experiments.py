"""Config parsing, report writing, CLI behavior, and figure-series trends."""

import csv
import dataclasses
import hashlib
import inspect
import io
import json
import math
import re
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from edgeminer import (
    ConfigError,
    DiscriminatoryGame,
    ExperimentConfig,
    GameParams,
    SimConfig,
    best_response_dynamics,
    cli,
    discriminatory,
    experiments,
    leader_delta_utility_uniform,
    leader_reward_scale,
    nash_equilibrium_closed_form,
    search,
    simulate_mining,
    uniform,
)
from edgeminer.core import OBJECTIVES
from edgeminer.cli import _settings_from_args, build_parser, main
from edgeminer.experiments import (
    FORMATS,
    KIND_TABLE,
    KINDS,
    SETTINGS,
    _RULES,
    _rows_fig1,
    build_config,
    matched_heterogeneous_fees,
    parse_config_text,
    render_report,
    run_experiment,
)

from conftest import assert_stage1_optimum, binomial_chain, kind_argv, raw_value, reader

GOLDEN = Path(__file__).parent / "golden"


def _net_profit(params, bill, delay_multiplier=1):
    """The leader's net profit written out: discounted block reward - bill - overhead."""
    exponent = -params.poisson_rate * (params.tx_per_block * delay_multiplier)
    return params.total_reward * math.exp(exponent) - bill - params.edge_overhead


def _run(kind, tmp_path, **settings):
    settings.setdefault("kind", kind)
    settings.setdefault("out", str(tmp_path / f"{kind}.{settings.get('format', 'csv')}"))
    cfg = build_config(settings)
    return run_experiment(cfg)


def _rows(columns):
    """A report's rows as dicts, in column order."""
    return [dict(zip(columns, cells)) for cells in zip(*columns.values())]


class TestValidateConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = build_config(parse_config_text("kind = fig1\n"))
        assert cfg.kind == "fig1"
        assert cfg.n_blocks == 1000
        assert cfg.params.tx_per_block == 10
        assert cfg.resolved_grid() == KIND_TABLE["fig1"].grid

    def test_comments_and_blank_lines(self):
        cfg = build_config(parse_config_text("# experiment\nkind = fig1\n\nseed = 9  # rng\n"))
        assert cfg.kind == "fig1" and cfg.seed == 9

    def test_negative_rate_names_the_key(self):
        with pytest.raises(ConfigError) as err:
            build_config(parse_config_text("kind = fig1\npoisson_rate = -0.5\n"))
        assert "poisson_rate" in str(err.value)

    def test_unknown_key_carries_line_number(self):
        with pytest.raises(ConfigError) as err:
            build_config(parse_config_text("kind = fig1\nwat = 3\n"))
        assert "line 2" in str(err.value) and "wat" in str(err.value)

    def test_bad_value_carries_line_and_key(self):
        with pytest.raises(ConfigError) as err:
            build_config(parse_config_text("kind = fig1\nseed = banana\n"))
        assert "line 2" in str(err.value) and "seed" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            build_config(parse_config_text("kind = fig1\nseed = 1\nseed = 2\n"))

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError) as err:
            build_config(parse_config_text(
                "kind = fig1\ngrid_start = 5\ngrid_stop = 5\ngrid_steps = 2\n"))
        assert "grid_start" in str(err.value)
        with pytest.raises(ConfigError):
            build_config(parse_config_text("kind = fig1\ngrid_steps = 1\n"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            build_config(parse_config_text("kind = fig9\n"))

    def test_fees_list_parsed(self):
        cfg = build_config(parse_config_text("kind = solve-disc\nfees = 4, 8, 6\n"))
        assert cfg.fees == (4.0, 8.0, 6.0)

    def test_solve_disc_requires_fees(self):
        with pytest.raises(ConfigError):
            build_config(parse_config_text("kind = solve-disc\n"))

    def test_nonpositive_fixed_powers_rejected(self):
        with pytest.raises(ConfigError) as err:
            build_config(parse_config_text("kind = solve-uniform\nedge_power = -5\n"))
        assert "edge_power" in str(err.value)

    def test_fee_search_choices(self):
        with pytest.raises(ConfigError):
            build_config(parse_config_text("kind = solve-uniform\nfee_search = newton\n"))

    @pytest.mark.parametrize("value", [True, False, 3.0, "3"])
    @pytest.mark.parametrize("name", ["n_blocks", "n_seeds", "seed", "n_miners", "grid_steps"])
    def test_count_must_be_an_integer(self, name, value):
        # bool is an int subclass, but True blocks or seeds are a caller's mistake
        kind = "fig5" if name == "n_miners" else "fig1"  # a kind that reads the count
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind=kind, **{name: value})
        assert err.value.errors == [f"{name} must be an integer, got {value!r}"]
        with pytest.raises(ConfigError):
            dataclasses.replace(ExperimentConfig(kind=kind), **{name: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = ExperimentConfig(kind="fig1", n_blocks=np.int64(7), seed=np.uint32(2),
                               grid_steps=np.int32(3))
        assert (cfg.n_blocks, cfg.seed, cfg.grid().size) == (7, 2, 3)

    @pytest.mark.parametrize("out", [7, 3.5, b"x.csv"], ids=repr)
    def test_out_must_be_a_str(self, out):
        # open() would take an int as a file descriptor to write to and close
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind="fig2", out=out)
        assert err.value.errors == [f"out must be a path str, got {out!r}"]

    @pytest.mark.parametrize("kind", ["fig5", "fig6"])
    def test_empty_edge_fractions_rejected(self, kind, tmp_path):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind=kind, edge_fractions=(), out=str(tmp_path / "x.csv"))
        assert err.value.errors == ["edge_fractions must not be empty"]
        with pytest.raises(ConfigError):
            dataclasses.replace(ExperimentConfig(kind=kind), edge_fractions=())
        assert not (tmp_path / "x.csv").exists()


class TestSchema:
    fields = [f for cls in (GameParams, ExperimentConfig) for f in dataclasses.fields(cls)
              if f.name not in ("kind", "params")]

    def test_settings_are_the_dataclass_fields(self):
        assert set(SETTINGS) == {f.name for f in self.fields} | {"kind"}

    @pytest.mark.parametrize("f", fields, ids=lambda f: f.name)
    def test_field_is_a_config_key_and_a_flag(self, f):
        # on a kind that reads the setting
        raw = raw_value(f.name)
        kind = reader(f.name)
        argv = kind_argv(kind, fees=f.name != "fees")
        fees = "fees = 4, 8\n" if "--fees" in argv else ""
        from_file = build_config(parse_config_text(f"kind = {kind}\n{fees}{f.name} = {raw}\n"))
        args = build_parser().parse_args([*argv, "--" + f.name.replace("_", "-"), raw])
        from_flag = build_config(_settings_from_args(args))
        in_params = f.name in GameParams.__dataclass_fields__
        values = [getattr(cfg.params if in_params else cfg, f.name)
                  for cfg in (from_file, from_flag)]
        assert values[0] == values[1] == SETTINGS[f.name](raw) != f.default

    def test_invalid_values_rejected_on_construction_and_replace(self):
        cfg = ExperimentConfig(kind="fig6")
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(cfg, mdg_delay_mult=0.5)
        assert "mdg_delay_mult" in str(err.value)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind="solve-disc", fees=(4.0, -5.0), unit_cost=-1.0, format="xml")
        assert len(err.value.errors) == 3
        with pytest.raises(ConfigError):
            ExperimentConfig()  # no kind

    def test_rule_table_is_keyed_by_setting(self):
        # a misspelt key would drop its rules; each message names the setting it checks
        names = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"params"}
        assert set(_RULES) <= names
        for name, rules in _RULES.items():
            for _, message in rules:
                assert message.startswith(name + " "), message
        assert sum(map(len, _RULES.values())) == 19

    def test_every_check_message_text(self):
        # the messages are formatted only when their check fails; these are their texts
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind="bogus", unit_cost=-1.0, n_miners=1, n_blocks=0, n_seeds=0,
                             seed=-1, fee=-2.0, fees=(1.0, -1.0), edge_fraction=1.5,
                             edge_fractions=(0.5, 2.0), mdg_delay_mult=0.5, objective="bogus",
                             fee_search="y", format="xml", edge_power=-3.0,
                             device_power=0.0, grid_start=1.0, grid_stop=2.0, grid_steps=3)
        assert err.value.errors == [
            "kind must be one of ('fig1', 'fig2', 'fig3', 'fig4', 'fig5', 'fig6', "
            "'solve-uniform', 'solve-disc', 'simulate', 'compare-mdg'), got 'bogus'",
            "unit_cost must be > 0, got -1.0", "n_miners must be >= 2, got 1",
            "n_blocks must be >= 1, got 0", "n_seeds must be >= 1, got 0",
            "seed must be >= 0, got -1", "fee must be > 0, got -2.0", "fees must all be > 0",
            "edge_fraction must lie in (0, 1), got 1.5", "edge_fractions must all lie in (0, 1)",
            "mdg_delay_mult must be >= 1, got 0.5",
            "objective must be one of ('full', 'simplified'), got 'bogus'",
            "fee_search must be one of ('golden', 'hillclimb'), got 'y'",
            "format must be one of ('csv', 'json'), got 'xml'",
            "edge_power must be > 0, got -3.0", "device_power must be > 0, got 0.0"]
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind="simulate", n_blocks=2**63)
        assert err.value.errors == ["n_blocks must be <= 2**63 - 1, got 9223372036854775808"]
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind="fig6", edge_fractions=(), objective="full", n_miners=7,
                             grid_start=-1.7e308, grid_stop=1.7e308)
        assert err.value.errors == [
            "edge_fractions must not be empty",
            "fig6 does not read n_miners, objective; it reads fixed_reward, "
            "tx_reward, poisson_rate, tx_per_block, mobile_tx_load, edge_overhead, "
            "min_consumption, unit_cost, grid_start, grid_stop, grid_steps, edge_fractions, "
            "mdg_delay_mult",
            "grid_stop - grid_start must be finite, got [-1.7e+308, 1.7e+308]"]


class TestNonFiniteSettings:
    # every float and float-list field, each on a kind that reads it; three run on
    # the figure where an infinite value used to get through validation
    fields = [f.name for cls in (ExperimentConfig, GameParams) for f in dataclasses.fields(cls)
              if f.type.split(" |")[0] in ("float", "tuple")]
    commands = {"grid_stop": ["fig", "2"], "device_power": ["fig", "4"],
                "mdg_delay_mult": ["fig", "6"]}

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("name", fields)
    def test_rejected_under_its_own_name(self, name, value, tmp_path, capsys):
        out = tmp_path / "x.csv"
        if SETTINGS[name] is not float:
            value = f"1,{value}"
        argv = self.commands.get(name) or kind_argv(reader(name), fees=name != "fees")
        argv = argv + [
            f"--{name.replace('_', '-')}={value}", "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code == 2
        # one line per bad value: its range check is not reported on top
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"config error: {name} must be finite")
        assert not caught
        assert not out.exists()

    @pytest.mark.parametrize("name", [name for name in fields if SETTINGS[name] is float])
    def test_an_array_is_one_config_error(self, name):
        # a library caller's array for a scalar setting; the CLI always gives a float
        value = np.array([1.0, 2.0])
        kind = reader(name)
        with pytest.raises(ConfigError) as err:
            if name in GameParams.__dataclass_fields__:
                ExperimentConfig(kind=kind, params=GameParams(**{name: value}))
            else:
                ExperimentConfig(kind=kind, **{name: value},
                                 **({"fees": (4.0, 8.0)} if kind == "solve-disc" else {}))
        assert err.value.errors == [f"{name} must be finite, got {value!r}"]

    @pytest.mark.parametrize("kind, name, value", [
        ("solve-disc", "fees", np.ones((2, 2))),
        ("solve-disc", "fees", np.ones((2, 1))),
        ("solve-disc", "fees", 4.0),
        ("solve-disc", "fees", "4,5"),
        ("simulate", "powers", ("a", "b")),
        ("simulate", "powers", [1.0, [2.0]]),
        ("fig5", "edge_fractions", (0.5, None)),
    ])
    def test_a_malformed_list_is_one_config_error(self, kind, name, value):
        # a library caller's value for a list setting; the CLI always gives a flat list
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind=kind, **{name: value})
        assert err.value.errors == [f"{name} must be a flat list of real numbers"]


class TestTable:
    # a small run of every kind
    settings = {
        **{kind: {"grid_steps": 5} for kind in KINDS if KIND_TABLE[kind].grid},
        "solve-uniform": {}, "solve-disc": {"fees": (4.0, 4.5, 5.0)},
        "simulate": {"powers": (1.0, 0.0, 2.0)},
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_columns_are_plain_and_aligned(self, kind, tmp_path):
        table, _, n_failed = _run(kind, tmp_path, **self.settings[kind])
        assert list(table)[-1] == "status"
        lengths = {len(column) for column in table.values()}
        assert lengths == {len(table)} and len(table) > 0
        # a numeric or bool column is an array of one of the three dtypes, a str column a list
        for name, column in table.items():
            if isinstance(column, np.ndarray):
                assert column.ndim == 1 and column.dtype in (np.float64, np.int64, np.bool_), name
            else:
                assert type(column) is list and {type(cell) for cell in column} == {str}, name
        assert n_failed == sum(status != "ok" for status in table["status"])

    def test_len_counts_rows_not_columns(self, tmp_path, capsys):
        # three edge powers <= 0: every row infeasible, seven columns
        table, _, n_failed = _run("fig4", tmp_path, grid_start=-10.0, grid_stop=-1.0,
                                  grid_steps=3)
        assert len(table) == n_failed == 3 and len(table.keys()) == 7
        # the CLI reads "every row infeasible" from len(table)
        code = main(["fig", "4", "--grid-start", "-10", "--grid-stop", "-1",
                     "--grid-steps", "3", "--out", str(tmp_path / "d.csv")])
        assert code == 3
        assert capsys.readouterr().out.endswith("wrote 3 rows to "
                                                f"{tmp_path / 'd.csv'} (3 infeasible)\n")

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_run_experiment_prints_nothing(self, fmt, tmp_path, capsys):
        _run("fig4", tmp_path, grid_steps=3, format=fmt)
        assert capsys.readouterr() == ("", "")


class TestSimulateRows:
    def test_columns_at_a_thousand_miners(self, tmp_path):
        powers = np.random.default_rng(12).uniform(1.0, 10.0, 1000)
        powers[::9] = 0.0
        n_blocks = 200_000
        table, _, n_failed = _run("simulate", tmp_path, powers=tuple(powers.tolist()),
                                  n_blocks=n_blocks, seed=3)
        rows = _rows(table)
        assert n_failed == 0 and table["wins"].dtype == np.int64
        discount = GameParams().delay_discount(GameParams().tx_per_block)
        total = math.fsum(powers)
        assert [row["miner"] for row in rows] == [*range(1000), -1]
        for row, power in zip(rows, powers.tolist()):
            assert row["power"] == power
            assert row["share"] == power / total
            assert row["win_prob_model"] == power / total * discount
            assert row["frequency"] == row["wins"] / n_blocks
        assert rows[-1]["frequency"] == rows[-1]["wins"] / n_blocks
        assert sum(row["wins"] for row in rows) == n_blocks


    @pytest.mark.parametrize("rate", [0.0, 0.01])
    @pytest.mark.parametrize("n_blocks", [1, 137, 10**6])
    @pytest.mark.parametrize("powers", [(2.0,), (0.0, 3.0, 0.0, 5.0), (10.0, 0.0, 30.0, 25.0)],
                             ids=["one", "idle-first", "golden"])
    def test_wins_are_the_binomial_chain(self, powers, n_blocks, rate, tmp_path):
        table, _, _ = _run("simulate", tmp_path, powers=powers, n_blocks=n_blocks,
                           poisson_rate=rate, seed=11)
        rows = _rows(table)
        probs = [row["win_prob_model"] for row in rows[:-1]]
        assert [row["wins"] for row in rows] == binomial_chain(11, n_blocks, probs)
        assert [row["frequency"] for row in rows] == [row["wins"] / n_blocks for row in rows]
        assert rows[-1]["win_prob_model"] == (0.0 if rate == 0.0 else 1.0 - math.exp(-10 * rate))


class TestFig1SharedDraws:
    @staticmethod
    def _oracle(cfg):
        # the model columns written out, one row per grid point
        params = cfg.params
        rows = []
        for x in cfg.grid():
            share = x / (x + cfg.device_power)
            rows.append({
                "edge_power": float(x),
                "device_power": cfg.device_power,
                "edge_share": share,
                "success_prob_model": share * params.delay_discount(params.tx_per_block),
                "status": "ok",
            })
        return rows

    @pytest.mark.parametrize("params", [{}, {"poisson_rate": 0.0}, {"tx_per_block": 3}],
                             ids=["default", "no-delay", "tx3"])
    @pytest.mark.parametrize("n_blocks", [1, 137])
    @pytest.mark.parametrize("n_seeds", [1, 3, 12])
    def test_rows_share_each_seeds_draw(self, n_seeds, n_blocks, params):
        cfg = build_config({"kind": "fig1", "grid_start": 5.0, "grid_stop": 60.0,
                            "grid_steps": 13, "device_power": 20.0, "seed": 77,
                            "n_seeds": n_seeds, "n_blocks": n_blocks, **params})
        rows = _rows(_rows_fig1(cfg))
        empirical = [row.pop("success_prob_empirical") for row in rows]
        assert rows == self._oracle(cfg)
        # one draw per seed over all grid points: the column never falls as
        # the edge power rises
        assert all(a <= b for a, b in zip(empirical, empirical[1:]))
        # the first grid point's counts are a plain per-point simulation; the
        # others split the same draw further and have no per-point equal
        freqs = []
        for seed in range(cfg.seed, cfg.seed + cfg.n_seeds):
            sim = SimConfig(n_blocks=cfg.n_blocks, seed=seed, params=cfg.params)
            outcome = simulate_mining([cfg.grid()[0], cfg.device_power], sim)
            freqs.append(outcome.wins[0] / outcome.n_blocks)
        assert empirical[0] == float(np.mean(freqs))

    @pytest.mark.parametrize("params", [{}, {"poisson_rate": 0.0}, {"tx_per_block": 3}],
                             ids=["default", "no-delay", "tx3"])
    @pytest.mark.parametrize("n_blocks", [1, 137])
    @pytest.mark.parametrize("n_seeds", [1, 3, 12])
    def test_rows_are_the_binomial_chain(self, n_seeds, n_blocks, params):
        # every grid point, not only the first: seed k's blocks split over the
        # increments of the model column in one chain, and a row's count is
        # the cells up to its own
        cfg = build_config({"kind": "fig1", "grid_start": 5.0, "grid_stop": 60.0,
                            "grid_steps": 13, "device_power": 20.0, "seed": 77,
                            "n_seeds": n_seeds, "n_blocks": n_blocks, **params})
        columns = _rows_fig1(cfg)
        increments = np.diff(columns["success_prob_model"], prepend=0.0)
        wins = np.array([np.cumsum(binomial_chain(seed, n_blocks, increments)[:-1])
                         for seed in range(77, 77 + n_seeds)])
        empirical = (np.ascontiguousarray(wins.T) / n_blocks).mean(axis=1)
        assert columns["success_prob_empirical"].tolist() == empirical.tolist()

    def test_one_generator_per_seed(self, monkeypatch):
        seeds = []
        pcg64 = np.random.PCG64

        def counting(seed):
            seeds.append(seed)
            return pcg64(seed)

        monkeypatch.setattr(np.random, "PCG64", counting)
        _rows_fig1(build_config({"kind": "fig1", "grid_steps": 25, "n_seeds": 4, "seed": 9}))
        assert seeds == [9, 10, 11, 12]

    def test_negative_grid_point_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["fig", "1", "--grid-start", "-5", "--out", str(out)]) == 2
        assert ("config error: grid_start must be >= 0 for fig1's edge powers, got -5.0"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_first_overflowing_grid_point_is_named(self):
        # 1e308 + 7e307 is finite, 1.1e308 + 7e307 is not
        cfg = build_config({"kind": "fig1", "grid_start": 1e308, "grid_stop": 1.7e308,
                            "grid_steps": 8, "device_power": 7e307})
        with pytest.raises(ConfigError) as err:
            _rows_fig1(cfg)
        assert err.value.errors == [
            "device_power 7e+307 plus the edge power 1.1e+308 at grid point 1 overflows"]


class TestSolveDiscOneSolve:
    @staticmethod
    def _fees(n):
        rng = np.random.default_rng(n)
        return tuple(10.0 * (1.0 + (0.4 / n) * rng.uniform(-1.0, 1.0, n)))

    @staticmethod
    def _check_rows(rows, game, allocation):
        # each cell against the model's formula written out at the Nash allocation
        params, fees, powers = game.params, game.fees, allocation.powers
        shares = allocation.shares()
        discount = math.exp(-params.poisson_rate * params.mobile_tx_load)
        a = params.total_reward * discount
        active = powers > 0
        inv_sum = math.fsum((1.0 / fees)[active])
        assert len(rows) == game.n_miners
        for i, row in enumerate(rows):
            identity = 1.0 - (np.count_nonzero(active) - 1) / (fees[i] * inv_sum)
            assert row["power"] == powers[i]
            assert row["share"] == shares[i]
            assert row["utility"] == fees[i] * shares[i] * discount - game.unit_cost * powers[i]
            assert row["leader_delta_full"] == a * shares[i] - fees[i]
            assert row["leader_delta_simplified"] == (a * identity if active[i] else 0.0)

    @pytest.mark.parametrize("n", [2, 7, 300])
    def test_rows_equal_per_miner_functions(self, n, tmp_path):
        params = GameParams(mobile_tx_load=7, poisson_rate=0.02)
        table, _, _ = _run("solve-disc", tmp_path, fees=self._fees(n), unit_cost=0.004,
                           mobile_tx_load=7, poisson_rate=0.02)
        rows = _rows(table)
        game = DiscriminatoryGame(np.asarray(self._fees(n)), 0.004, params)
        allocation = nash_equilibrium_closed_form(game)
        assert len(rows) == n
        self._check_rows(rows, game, allocation)

    def test_dropout_rows_equal_per_miner_functions(self, tmp_path):
        fees = tuple(np.linspace(4.0, 8.0, 50).tolist())
        table, _, n_failed = _run("solve-disc", tmp_path, fees=fees)
        game = DiscriminatoryGame(np.asarray(fees), 0.005, GameParams())
        allocation = nash_equilibrium_closed_form(game)
        assert n_failed == 0 and np.count_nonzero(allocation.powers) == 14
        self._check_rows(_rows(table), game, allocation)

    def test_one_nash_solve(self, monkeypatch, tmp_path):
        sizes = []
        solve = discriminatory.nash_equilibrium_closed_form

        def counting(game):
            sizes.append(game.n_miners)
            return solve(game)

        for module in (discriminatory, experiments):
            monkeypatch.setattr(module, "nash_equilibrium_closed_form", counting)
        _run("solve-disc", tmp_path, fees=self._fees(50))
        assert sizes == [50]


class TestTracedNames:
    """The benchmark's tracer wraps functions by name, so the product path must call them.

    A refactor that bypasses one of these names would read 0 in the traced
    per-layer metrics; here it fails instead.
    """

    @staticmethod
    def _wrap(monkeypatch, module, name, wrapper):
        """Replace module.name under every name bound to it in the package, as the tracer does."""
        original = getattr(module, name)
        wrapped = wrapper(original)
        for key, mod in list(sys.modules.items()):
            if key == "edgeminer" or key.startswith("edgeminer."):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapped)

    @pytest.mark.parametrize("search", ["golden", "hillclimb"])
    def test_solve_uniform_calls_the_uniform_kernel(self, search, monkeypatch, tmp_path):
        calls, open_stage1 = [], [0]  # per kernel call, whether a stage-I solve is open

        def counted(fn):
            def call(*args, **kwargs):
                calls.append(open_stage1[0] > 0)
                return fn(*args, **kwargs)
            return call

        def stage1(fn):
            def call(*args, **kwargs):
                open_stage1[0] += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    open_stage1[0] -= 1
            return call

        self._wrap(monkeypatch, uniform, "leader_delta_utility_uniform", counted)
        self._wrap(monkeypatch, uniform, "optimal_fee_uniform", stage1)
        _run("solve-uniform", tmp_path, fee_search=search)
        # golden: the peak and the floor inside optimal_fee_uniform; hill-climb: its
        # probes outside it; then the row's full and simplified profits
        assert calls.count(True) == (2 if search == "golden" else 0)
        assert calls.count(False) >= 2 and calls[-2:] == [False, False]

    def test_solve_disc_calls_the_discriminatory_kernel(self, monkeypatch, tmp_path):
        objectives = []

        def counted(fn):
            def call(game, allocation, objective="full"):
                objectives.append(objective)
                return fn(game, allocation, objective)
            return call

        self._wrap(monkeypatch, discriminatory, "leader_delta_utility_discriminatory", counted)
        _run("solve-disc", tmp_path, fees=(4.0, 8.0))
        assert objectives == ["full", "simplified"]


class TestMatchedFees:
    def test_every_miner_active_up_to_two_thousand(self):
        # the spread min(0.2, 0.5/M) is below 1/(2M-3), so no miner drops out
        # and the equilibrium total is the device power asked for
        params = GameParams()
        for m in range(2, 2001):
            fees = matched_heterogeneous_fees(50.0, m, 0.005, params)
            powers = nash_equilibrium_closed_form(
                DiscriminatoryGame(fees, 0.005, params)).powers
            assert np.all(powers > 0.0), m
            assert math.fsum(powers) == pytest.approx(50.0, rel=1e-9)

    def test_zero_device_discount_rejected(self):
        with pytest.raises(ValueError, match="device-load delay discount"):
            matched_heterogeneous_fees(50.0, 5, 0.005, GameParams(poisson_rate=100.0))


def _assert_money_close(rows, expected, money, rel):
    """Equal rows but for the money columns, nan where infeasible.

    A money cell agrees to rel times the row's largest money cell: profits
    are differences of the others, exact only to the size of their terms.
    """
    assert len(rows) == len(expected)
    for row, want in zip(rows, expected):
        assert list(row) == list(want)
        assert {k: v for k, v in row.items() if k not in money} == {
            k: v for k, v in want.items() if k not in money}
        if want["status"] != "ok":
            assert all(math.isnan(row[name]) for name in money), row
            continue
        scale = max(abs(want[name]) for name in money)
        for name in money:
            assert row[name] == pytest.approx(want[name], rel=rel, abs=rel * scale), (name, row)


class TestPowerSweepClosedForms:
    """fig3-fig5 against the per-point route: matched fees, one Nash solve, fsum."""

    POWER_MONEY = ("fee_same", "profit_same_fee", "fee_bill_diff", "profit_diff_fee")
    FIG5_MONEY = ("fee_bill_emg", "profit_emg", "fee_bill_mdg", "profit_mdg", "profit_gap")

    @staticmethod
    def _power_sweep_oracle(cfg):
        params, objective = cfg.params, cfg.objective
        discount = params.delay_discount(params.mobile_tx_load)
        a = params.total_reward * discount
        fig3 = cfg.kind == "fig3"
        names = ("device_power", "edge_power") if fig3 else ("edge_power", "device_power")
        rows = []
        for value in cfg.grid().tolist():
            fixed = cfg.edge_power if fig3 else cfg.device_power
            edge, device = (fixed, value) if fig3 else (value, fixed)
            row = {names[0]: value, names[1]: fixed}
            if edge <= 0 or device < 0:
                what = "edge power" if edge <= 0 else "device_power"
                rows.append({**row, **dict.fromkeys(TestPowerSweepClosedForms.POWER_MONEY,
                                                    math.nan),
                             "status": f"infeasible: {what} must be > 0"})
                continue
            fee_same = cfg.unit_cost * (edge + device) ** 2 / (edge * discount)
            profit_same = leader_delta_utility_uniform(fee_same, edge, cfg.unit_cost, discount,
                                                       leader_reward_scale(params), objective)
            bill = reward = 0.0
            if device > 0:
                fees = matched_heterogeneous_fees(device, cfg.n_miners, cfg.unit_cost, params)
                allocation = nash_equilibrium_closed_form(
                    DiscriminatoryGame(fees, cfg.unit_cost, params))
                bill = math.fsum(fees.tolist())
                reward = a * allocation.total / (edge + device)
            rows.append({**row, "fee_same": fee_same, "profit_same_fee": profit_same,
                         "fee_bill_diff": bill,
                         "profit_diff_fee": reward if objective == "simplified"
                         else reward - bill, "status": "ok"})
        return rows

    @staticmethod
    def _fig5_oracle(cfg):
        params, rows = cfg.params, []
        for fraction in cfg.edge_fractions:
            for total in cfg.grid().tolist():
                edge = fraction * total
                device = total - edge
                row = {"edge_fraction": fraction, "total_power": total, "edge_power": edge,
                       "device_power": device}
                if device <= 0:
                    rows.append({**row, **dict.fromkeys(TestPowerSweepClosedForms.FIG5_MONEY,
                                                        math.nan),
                                 "status": "infeasible: device_power must be > 0"})
                    continue
                fees = matched_heterogeneous_fees(device, cfg.n_miners, cfg.unit_cost, params)
                powers = nash_equilibrium_closed_form(
                    DiscriminatoryGame(fees, cfg.unit_cost, params)).powers
                assert math.fsum(powers.tolist()) == pytest.approx(device, rel=1e-12)
                bill = math.fsum(fees.tolist())
                profit_emg = _net_profit(params, bill)
                profit_mdg = _net_profit(params, bill / (1.0 - fraction), cfg.mdg_delay_mult)
                rows.append({**row, "fee_bill_emg": bill, "profit_emg": profit_emg,
                             "fee_bill_mdg": bill / (1.0 - fraction), "profit_mdg": profit_mdg,
                             "profit_gap": profit_emg - profit_mdg, "status": "ok"})
        return rows

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("n_miners", [2, 3, 50, 1000])
    @pytest.mark.parametrize("kind, grid", [("fig3", (-100.0, 100.0, 21)),
                                            ("fig3", (0.0, 100.0, 101)),
                                            ("fig4", (-10.0, 10.0, 21)),
                                            ("fig4", (0.0, 100.0, 101))])
    def test_power_sweep_equals_per_point_route(self, kind, grid, n_miners, objective):
        # the fig3 grid holds D = -X = -50, whose same fee is 0: infeasible like every D < 0
        cfg = build_config({"kind": kind, "n_miners": n_miners, "objective": objective,
                            "grid_start": grid[0], "grid_stop": grid[1], "grid_steps": grid[2],
                            "mobile_tx_load": 7, "unit_cost": 0.004})
        rows = _rows(KIND_TABLE[kind].build(cfg))
        expected = self._power_sweep_oracle(cfg)
        _assert_money_close(rows, expected, self.POWER_MONEY, rel=1e-12)
        # the same-fee columns keep the per-point arithmetic exactly
        for row, want in zip(rows, expected):
            for name in ("fee_same", "profit_same_fee"):
                assert row[name] == want[name] or math.isnan(want[name])

    @pytest.mark.parametrize("n_miners", [2, 3, 50, 1000])
    @pytest.mark.parametrize("grid", [(-100.0, 100.0, 21), (10.0, 200.0, 20)])
    def test_fig5_equals_per_point_route(self, grid, n_miners):
        cfg = build_config({"kind": "fig5", "n_miners": n_miners, "grid_start": grid[0],
                            "grid_stop": grid[1], "grid_steps": grid[2],
                            "edge_fractions": (0.1, 0.37, 0.9), "mdg_delay_mult": 1.7})
        _assert_money_close(_rows(KIND_TABLE["fig5"].build(cfg)), self._fig5_oracle(cfg),
                            self.FIG5_MONEY, rel=1e-12)

    @pytest.mark.parametrize("n_miners", [2, 5, 1000])
    @pytest.mark.parametrize("kind", ["fig3", "fig4"])
    def test_curves_coincide_under_simplified(self, kind, n_miners, tmp_path):
        # both schemes induce the same D: a(1 - sqrt(X u/(fee d))) = a D/(X+D)
        table, _, _ = _run(kind, tmp_path, n_miners=n_miners)
        for row in _rows(table):
            if row["status"] == "ok":
                assert row["profit_diff_fee"] == pytest.approx(row["profit_same_fee"],
                                                               rel=1e-14, abs=0.0)

    def test_no_nash_solve(self, monkeypatch, tmp_path):
        sizes = []

        def counting(game):
            sizes.append(game.n_miners)
            raise AssertionError("a figure sweep solved a per-miner game")

        for module in (discriminatory, experiments):
            monkeypatch.setattr(module, "nash_equilibrium_closed_form", counting)
        for kind in ("fig3", "fig4"):
            for objective in OBJECTIVES:
                _run(kind, tmp_path, n_miners=1000, objective=objective)
        _run("fig5", tmp_path, n_miners=1000)  # fig5 reads no objective
        assert sizes == []

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("argv", [["fig", "3", "--grid-stop", "1e300"],
                                      ["fig", "4", "--grid-stop", "1e300"],
                                      ["fig", "4", "--grid-start", "1e-310",
                                       "--grid-stop", "2e-310"]])
    def test_overflowing_same_fee_is_a_config_error(self, argv, fmt, tmp_path, capsys):
        out = tmp_path / f"r.{fmt}"
        assert main([*argv, "--format", fmt, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: fee must be finite and > 0, got inf"]
        assert not out.exists()

    def test_every_negative_device_power_is_infeasible(self, tmp_path, capsys):
        # D = -X makes the same fee 0; it is an infeasible row like any D < 0
        out = tmp_path / "r.csv"
        for start in ("-50", "-120"):
            assert main(["fig", "3", "--grid-start", start, "--grid-stop", "0",
                         "--grid-steps", "2", "--out", str(out)]) == 0
            rows = list(csv.DictReader(io.StringIO(out.read_text())))
            assert rows[0]["status"] == "infeasible: device_power must be > 0"
            assert all(math.isnan(float(rows[0][name])) for name in self.POWER_MONEY)
            assert rows[1]["status"] == "ok" and float(rows[1]["fee_bill_diff"]) == 0.0
        assert capsys.readouterr().err == ""

    def test_subnormal_device_powers_are_ok(self, tmp_path):
        # no cost coefficient u / (fee d) is formed, so nothing overflows
        table, _, n_failed = _run("fig3", tmp_path, grid_start=1e-310, grid_stop=2e-310)
        assert n_failed == 0
        assert all(0.0 < bill < 1e-300 for bill in table["fee_bill_diff"])

    @pytest.mark.parametrize("kind, settings", [
        ("fig3", {"unit_cost": 1e305, "n_miners": 1000, "edge_power": 10.0,
                  "grid_stop": 20.0, "grid_steps": 21, "objective": "full"}),
        ("fig5", {"unit_cost": 1e306})])
    def test_overflowing_bill_is_infeasible(self, kind, settings, tmp_path):
        table, _, n_failed = _run(kind, tmp_path, **settings)
        assert 0 < n_failed < len(table)
        for row in _rows(table):
            cells = [v for v in row.values() if isinstance(v, float)]
            if row["status"] == "ok":
                assert all(map(math.isfinite, cells)), row
            else:
                assert row["status"] in ("infeasible: all fees must be finite and > 0",
                                         "infeasible: fees must be finite and >= 0")


class TestStage1Sweeps:
    @staticmethod
    def _check_rows(cfg, rows):
        # per grid point: the fee against the scalar golden-section oracle, and
        # every other cell from that fee through the per-point functions
        expected = []
        if cfg.kind == "fig2":
            for r, row in zip(cfg.grid(), rows):
                params = dataclasses.replace(cfg.params, fixed_reward=float(r))
                assert_stage1_optimum(row["optimal_fee"], row["leader_profit"],
                                      cfg.edge_power, cfg.unit_cost, params)
                expected.append({"fixed_reward": float(r), "optimal_fee": row["optimal_fee"],
                                 "leader_profit": row["leader_profit"], "status": "ok"})
            return expected
        params = cfg.params
        fig6 = cfg.kind == "fig6"
        points = [(fraction, total) for fraction in
                  (cfg.edge_fractions if fig6 else (cfg.edge_fraction,))
                  for total in sorted(float(w) for w in cfg.grid())]
        for (fraction, total), row in zip(points, rows):
            edge_power = fraction * total
            device_power = total - edge_power
            fee_emg = row["fee_emg"]
            assert_stage1_optimum(fee_emg, None, edge_power, cfg.unit_cost, params)
            fee_mdg = fee_emg * total / device_power
            profit_emg = _net_profit(params, fee_emg)
            profit_mdg = _net_profit(params, fee_mdg, cfg.mdg_delay_mult)
            point = {"edge_fraction": fraction} if fig6 else {}
            point.update(total_power=total, edge_power=edge_power,
                         device_power=device_power, fee_emg=fee_emg, fee_mdg=fee_mdg,
                         profit_emg=profit_emg, profit_mdg=profit_mdg,
                         profit_gap=profit_emg - profit_mdg, status="ok")
            expected.append(point)
        return expected

    @pytest.mark.parametrize("settings", [{}, {"min_consumption": 0.0},
                                          {"min_consumption": 5.0}, {"poisson_rate": 0.0},
                                          {"poisson_rate": 100.0}, {"tx_reward": 0.0},
                                          {"unit_cost": 50.0}],
                             ids=["default", "floor-0", "floor-5", "no-delay",
                                  "zero-discount", "no-tx-reward", "high-cost"])
    @pytest.mark.parametrize("steps", [2, 7, 400])
    @pytest.mark.parametrize("kind", ["fig2", "fig6", "compare-mdg"])
    def test_rows_equal_per_point_search(self, kind, steps, settings):
        # min_consumption 5 lies above the interior optimum: the floor endpoint wins;
        # a zero delay discount or a unit cost of 50 keeps the pool out, so the floor wins
        fractions = {"fig6": {"edge_fractions": (0.01, 0.99)},
                     "compare-mdg": {"edge_fraction": 0.99}}
        cfg = build_config({"kind": kind, "grid_steps": steps, **fractions.get(kind, {}),
                            **settings})
        rows = _rows(KIND_TABLE[kind].build(cfg))
        # items, in order: the column order is part of the report bytes
        expected = self._check_rows(cfg, rows)
        assert len(rows) == len(expected) == steps * (2 if kind == "fig6" else 1)
        assert [list(row.items()) for row in rows] == [list(row.items()) for row in expected]

    def test_one_search_per_sweep(self, monkeypatch, tmp_path):
        # stage I is a closed form: no sweep and no solve-uniform runs a golden section
        def no_search(*args, **kwargs):
            raise AssertionError("a stage-I run called the golden section")

        original = search.golden_section_max
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "edgeminer" and getattr(
                    module, "golden_section_max", None) is original:
                monkeypatch.setattr(module, "golden_section_max", no_search)
        for kind, steps in (("fig6", 400), ("compare-mdg", 200), ("fig2", 200)):
            table, _, _ = _run(kind, tmp_path, grid_steps=steps)
            assert len(table) == steps * (3 if kind == "fig6" else 1)
        _run("solve-uniform", tmp_path, fee_search="golden")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("search", ["golden", "hillclimb"])
    def test_zero_discount_solve_uniform(self, search, fmt, tmp_path, capsys):
        # exp(-1000) == 0: the full profit is well defined, with no device
        # joining; only the simplified profit column is undefined
        out = tmp_path / f"report.{fmt}"
        assert main(["solve-uniform", "--fee-search", search, "--poisson-rate", "100",
                     "--format", fmt, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        text = out.read_text()
        row = json.loads(text)[0] if fmt == "json" else next(csv.DictReader(io.StringIO(text)))
        assert math.isnan(float(row["leader_profit_simplified"]))
        assert float(row["best_response_power"]) == 0.0
        assert float(row["leader_profit_full"]) == -float(row["fee"])
        assert row["status"] == "ok"

    @pytest.mark.parametrize("argv, instance", [
        (["fig", "2", "--grid-stop", "1e306"], 1),
        (["fig", "2", "--grid-stop", "1e300"], 1),
        (["solve-uniform", "--edge-power", "1e300", "--unit-cost", "1e-300"], 0),
        (["solve-uniform", "--fee-search", "hillclimb", "--edge-power", "1e300",
          "--unit-cost", "1e-300"], 0),
    ], ids=["fig2-1e306", "fig2-1e300", "solve-uniform-1e300", "hillclimb-1e300"])
    def test_nonfinite_stage1_profit_is_a_config_error(self, argv, instance, tmp_path,
                                                        capsys):
        # a * Y* overflows in the profit at the optimal fee: no ok row with
        # an inf or nan profit, one error line and no report
        out = tmp_path / "report.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f"config error: stage-I profit is not finite at instance {instance} ")
        assert not out.exists()

    @pytest.mark.parametrize("argv, line", [
        (["--grid-start", "-5", "--grid-stop", "5", "--grid-steps", "3"],
         "fixed_reward must be >= 0, got -5.0"),
        (["--grid-start", "0", "--grid-stop", "1e-3", "--grid-steps", "3",
          "--min-consumption", "1", "--tx-reward", "0"],
         "fee bracket must satisfy 0 < lo < hi after the participation floor 1; "
         "got [1, 0.0452419] at instance 1 (fixed reward 0.0005)"),
        (["--grid-stop", "1e306"],
         "stage-I profit is not finite at instance 1 (edge power 50.0, "
         "fee 2.8665056559963514e+202): inf"),
    ], ids=["negative-reward", "empty-bracket", "profit-overflow"])
    def test_fig2_names_the_first_bad_reward(self, argv, line, tmp_path, capsys):
        # the rewards are one array, and the error is the first bad grid point's
        out = tmp_path / "report.csv"
        assert main(["fig", "2", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"config error: {line}"]
        assert not out.exists()

    def test_overflowing_mdg_fee_is_a_config_error(self, tmp_path, capsys):
        # fee_emg is the finite floor 1e300; fee_emg * total / device_power
        # overflows at both grid points, and the first one is named
        out = tmp_path / "report.csv"
        assert main(["compare-mdg", "--edge-fraction", "0.999999999", "--min-consumption",
                     "1e300", "--fixed-reward", "1e306", "--unit-cost", "1e307",
                     "--grid-start", "1", "--grid-stop", "2", "--grid-steps", "2",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: fee_mdg is not finite at instance 0 "
            "(edge power 0.999999999, fee 1e+300): inf"]
        assert not out.exists()

    def test_nonfinite_explicit_fee_solve_is_a_config_error(self, tmp_path, capsys):
        # sqrt(kappa X / u) overflows at this fee: no ok row with an inf
        # response or a nan profit, one error line, no warning and no report
        out = tmp_path / "report.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve-uniform", "--fee", "1e308", "--edge-power", "1e10",
                         "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: best_response_power is not finite at instance 0 "
            "(edge power 10000000000.0, fee 1e+308): inf"]
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_nonfinite_simplified_profit_is_a_config_error(self, fmt, tmp_path, capsys):
        # the pool stays out and the fee is the floor 0.1, so the full profit
        # is -0.1, but a * (1 - sqrt(X u / kappa)) overflows to -inf
        out = tmp_path / f"report.{fmt}"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["solve-uniform", "--fixed-reward", "1e300", "--unit-cost", "1e303",
                         "--format", fmt, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: leader_profit_simplified is not finite at instance 0 "
            "(edge power 50.0, fee 0.1): -inf"]
        assert not out.exists()


class TestObjectiveSetting:
    """Stage I maximizes the full profit; only fig3/fig4's money columns read the objective."""

    # every other kind, at small sizes
    OTHER_KINDS = {"fig1": ["fig", "1", "--grid-steps", "5", "--n-seeds", "2"],
                   "fig2": ["fig", "2"], "fig5": ["fig", "5"], "fig6": ["fig", "6"],
                   "solve-uniform": ["solve-uniform"],
                   "solve-disc": ["solve-disc", "--fees", "4,5,6"], "simulate": ["simulate"],
                   "compare-mdg": ["compare-mdg"]}
    # sha256 of fig3/fig4 at their defaults under --objective full, which has no golden file
    FULL_SHA256 = {
        "fig3": "35f4df394f5fd34c7efa1d3afcaacfb8b64f0156e1687610ec700012e90253b8",
        "fig4": "d407808e60d565d1cd28139b7a8f6a6af05afaaaa7f6a7a6e9daf4cd2f78aa39",
    }

    @staticmethod
    def _argv(argv, objective, how, tmp_path):
        """argv with the objective set by flag or by config file, or left unset (None)."""
        if objective is None:
            return list(argv)
        if how == "flag":
            return [*argv, "--objective", objective]
        config = tmp_path / "objective.cfg"
        config.write_text(f"objective = {objective}\n")
        return [*argv, "--config", str(config)]

    def test_stage1_takes_no_objective(self):
        for fn in (experiments.optimal_fee_uniform, experiments.optimal_fees_uniform,
                   experiments.stage1_setup, discriminatory.optimal_fees_discriminatory,
                   experiments.emg_vs_mdg_sweep, experiments._optimize_fee):
            assert "objective" not in inspect.signature(fn).parameters, fn.__name__
        assert not hasattr(experiments, "DEFAULT_OBJECTIVES")

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("kind", OTHER_KINDS)
    def test_other_kinds_reject_the_setting(self, kind, how, tmp_path, capsys):
        # "full" is one config error naming what the kind reads, and no report
        out = tmp_path / "report.csv"
        reads = ", ".join(name for name in SETTINGS if name in KIND_TABLE[kind].reads)
        argv = self._argv(self.OTHER_KINDS[kind], "full", how, tmp_path)
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"config error: {kind} does not read objective; it reads {reads}"]
        assert not out.exists()
        # "simplified" is the default, which a kind that does not read it accepts
        written = []
        for objective in (None, "simplified"):
            argv = self._argv(self.OTHER_KINDS[kind], objective, how, tmp_path)
            assert main([*argv, "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            written.append(out.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("how", ["flag", "config"])
    @pytest.mark.parametrize("kind", ["fig3", "fig4"])
    def test_power_sweeps_keep_their_bytes(self, kind, how, tmp_path):
        written = {}
        for objective in (None, "simplified", "full"):
            out = tmp_path / f"{objective}.csv"
            argv = self._argv(["fig", kind[3:]], objective, how, tmp_path)
            assert main([*argv, "--out", str(out)]) == 0
            written[objective] = out.read_bytes()
        golden = (GOLDEN / f"{kind}.csv").read_bytes()
        assert written[None] == written["simplified"] == golden
        assert hashlib.sha256(written["full"]).hexdigest() == self.FULL_SHA256[kind]


class TestReportFiles:
    def test_csv_round_trip_full_precision(self, tmp_path):
        table, path, _ = _run("fig2", tmp_path, grid_steps=6)
        rows = _rows(table)
        lines = (tmp_path / "fig2.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line, row in zip(lines[1:], rows):
            for key, cell in zip(header, line.split(",")):
                original = row[key]
                if isinstance(original, float):
                    parsed = float(cell)
                    assert parsed == original or (math.isnan(parsed) and math.isnan(original))

    def test_csv_uses_lf_endings(self, tmp_path):
        _run("fig2", tmp_path, grid_steps=4)
        raw = (tmp_path / "fig2.csv").read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_json_round_trip(self, tmp_path):
        table, path, _ = _run("fig2", tmp_path, grid_steps=4, format="json")
        parsed = json.loads((tmp_path / "fig2.json").read_text())
        assert parsed == _rows(table)

    def test_byte_identical_reruns(self, tmp_path):
        _run("fig1", tmp_path, grid_steps=5, n_seeds=3,
             out=str(tmp_path / "a.csv"))
        _run("fig1", tmp_path, grid_steps=5, n_seeds=3,
             out=str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_changes_simulation_output(self, tmp_path):
        table_a, _, _ = _run("simulate", tmp_path, seed=1, out=str(tmp_path / "a.csv"))
        table_b, _, _ = _run("simulate", tmp_path, seed=2, out=str(tmp_path / "b.csv"))
        assert not np.array_equal(table_a["wins"], table_b["wins"])

    def test_dropout_solve_disc_report_parses_as_csv(self, tmp_path):
        fees = ",".join(str(float(x)) for x in np.linspace(4.0, 8.0, 50))
        out = tmp_path / "d.csv"
        code = main(["solve-disc", "--fees", fees, "--unit-cost", "0.005", "--out", str(out)])
        assert code == 0
        lines = list(csv.reader(io.StringIO(out.read_text())))
        assert len(lines) == 51 and all(len(line) == 9 for line in lines)
        assert all(line[-1] == "ok" for line in lines[1:])
        # the 36 cheapest-fee miners stay out, with every per-miner column 0
        for line in lines[1:37]:
            assert [line[2], line[3], line[4], line[7]] == ["0.0"] * 4
        assert all(float(line[2]) > 0 for line in lines[37:])

    def test_one_active_miner_is_a_config_error(self, tmp_path, capsys):
        # c_(1) + c_(2) rounds to c_(2): no two miners fit, and nothing is written
        out = tmp_path / "d.csv"
        assert main(["solve-disc", "--fees", "4,1e17", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: fees 1e+17 and 4.0 of the two cheapest miners: their cost ratio "
            "4e-17 is below float resolution, so only one miner would be active\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, error", [
        # 0.005 / (1e-320 * e^(-0.1)) overflows; the first such miner is named
        (["--fees", "1e-320,4"], "miner 0's fee 1e-320 makes the cost coefficient "
         "unit_cost / (fee * discount) overflow or round to 0"),
        (["--fees", "4,5,1e-320,1e-321"], "miner 2's fee 1e-320 makes the cost coefficient "
         "unit_cost / (fee * discount) overflow or round to 0"),
        # subnormal cost coefficients: 1 / sum(c) overflows
        (["--fees", "4,5", "--unit-cost", "1e-320"],
         "the equilibrium total power (k-1) / sum(c) overflows at unit_cost 1e-320"),
    ], ids=["first-fee", "third-fee", "total"])
    def test_overflow_names_fees_and_unit_cost(self, argv, error, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["solve-disc", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: fees and unit_cost: {error}\n"
        assert not out.exists()

    def test_render_report_formats_booleans(self):
        columns = {"x": np.array([True, False]), "y": np.array([1, -1]), "status": ["ok", "ok"]}
        text = render_report(columns, "csv")
        assert text == "x,y,status\ntrue,1,ok\nfalse,-1,ok\n"


# the reference writers: csv.writer over each cell's text, and json.dumps
_CELL_TEXT = {bool: {True: "true", False: "false"}.__getitem__, int: int.__repr__,
              float: float.__repr__, str: str}


def _reference_report(columns, fmt):
    if fmt == "json":
        return json.dumps(_rows(columns), indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*([_CELL_TEXT[type(cell)](cell) for cell in column]
                           for column in columns.values())))
    return buffer.getvalue()


# values at which repr's spelling and orjson's differ, or at which either changes form:
# the exponent's sign and width, the positional 1e-5 <= |x| < 1e-4, and 1e16
_FLOAT_EDGES = [1e-6, 1e-5, 1.5e-05, 9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16,
                1.7976931348623157e308, 5e-324, -0.0]
_TEXT = st.text(st.sampled_from(',"\n\r%{}:\\ aé\x00\u2028😀') | st.characters(), max_size=6)
# one column of a report as the builders give it: a float64, int64 or bool array, or a
# list of str; the floats are any float64 bit pattern or a spelling edge
_ARRAY_CELLS = {
    np.float64: st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 2.2e-308, 1e-308, 1e308,
                                     -1e308, -1e-5, -2.5e-7, *_FLOAT_EDGES])
    | st.sampled_from([1e-4 * (1 - 2**-52), -1e-4, 1e-5 * (1 + 2**-52)]),
    np.int64: st.integers(-2**63, 2**63 - 1),
    np.bool_: st.booleans(),
    str: _TEXT,
}


@st.composite
def _array_tables(draw):
    n_rows = draw(st.sampled_from([0, 1]) | st.integers(0, 8))
    columns = {}
    for name in draw(st.lists(_TEXT, min_size=1, max_size=5, unique=True)):
        dtype = draw(st.sampled_from(list(_ARRAY_CELLS)))
        cells = draw(st.lists(_ARRAY_CELLS[dtype], min_size=n_rows, max_size=n_rows))
        columns[name] = cells if dtype is str else np.array(cells, dtype=dtype)
    return columns


class TestRenderArrays:
    @pytest.mark.parametrize("fmt", FORMATS)
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(columns=_array_tables())
    @example(columns={"x": np.array([math.nan, -math.inf, -0.0, 5e-324, 1e-5, 1e16])})
    @example(columns={"x": np.array([], dtype=np.int64), "status": []})
    @example(columns={"status": []})
    @example(columns={"": [""]})
    @example(columns={"a,b": ['say "hi"\n', "x\ry"], "n": np.array([1, -1]),
                      "t": np.array([True, False])})
    def test_arrays_render_as_their_cells_as_lists(self, fmt, columns):
        lists = {name: cells.tolist() if isinstance(cells, np.ndarray) else cells
                 for name, cells in columns.items()}
        assert render_report(columns, fmt) == _reference_report(lists, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("cells", [[1.0], [1], [True], ["ok", None]])
    def test_a_list_holding_a_non_str_is_rejected(self, fmt, cells):
        with pytest.raises(TypeError):
            render_report({"x": cells}, fmt)

    def test_a_strided_array_renders_as_its_cells(self):
        cells = np.arange(10.0)[::3]
        assert render_report({"x": cells}, "csv") == "x\n0.0\n3.0\n6.0\n9.0\n"

    def test_another_dtype_renders_as_its_tolist(self):
        # a float32 array renders as its float64 cast, an int one as its int64 cast
        x = np.array([0.1, 2.5, math.nan, -math.inf], dtype=np.float32)
        n = np.array([7, 0, 255], np.uint8)
        swapped = np.array([1, -2], ">i8")  # orjson would read its bytes as native
        wide = np.array([2**64 - 1, 0], np.uint64)  # past int64: written as its tolist()
        for fmt in FORMATS:
            assert render_report({"x": x}, fmt) == render_report({"x": x.astype(np.float64)}, fmt)
            for cells in (n, swapped):
                assert render_report({"n": cells}, fmt) == render_report(
                    {"n": cells.astype(np.int64)}, fmt)
            assert render_report({"n": wide}, fmt) == _reference_report({"n": wide.tolist()},
                                                                        fmt)


class TestWriteReport:
    @staticmethod
    def _table(n_rows):
        # every column type, a header that CSV quotes over two lines, and a str column
        # that needs quoting
        rng = np.random.default_rng(n_rows)
        return experiments.Table({
            "x": rng.normal(size=n_rows) * 10.0 ** rng.integers(-8, 20, n_rows),
            'say "n",\nnow': np.arange(n_rows) - 3,
            "flag": rng.random(n_rows) < 0.5,
            "note": [f"{i},é" if i % 7 else "" for i in range(n_rows)],
            "status": ["ok"] * n_rows,
        })

    block = experiments._BLOCK_ROWS

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("n_rows", [0, 1, block - 1, block, block + 1, 3 * block + 2])
    def test_blocks_write_one_render(self, fmt, n_rows, tmp_path):
        # the one-column table has CSV's quoted empty cells on every row
        for table in (self._table(n_rows), experiments.Table(status=[""] * n_rows)):
            path = tmp_path / f"report.{fmt}"
            experiments.write_report(table, fmt, path)
            assert path.read_text(encoding="utf-8") == render_report(table, fmt)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_peak_memory_is_the_columns_and_a_few_blocks(self, fmt, tmp_path):
        # fig6 at 3 x 20,000 rows is 15 blocks: rendering it whole holds every
        # cell's text at once, the writer one block's at a time
        cfg = build_config({"kind": "fig6", "grid_steps": 20_000, "format": fmt})
        tracemalloc.start()
        try:
            table = experiments.Table(KIND_TABLE["fig6"].build(cfg))
            held = tracemalloc.get_traced_memory()[0]  # the columns
            tracemalloc.reset_peak()
            experiments.write_report(table, fmt, tmp_path / f"fig6.{fmt}")
            write_peak = tracemalloc.get_traced_memory()[1] - held
            first = {name: cells[:experiments._BLOCK_ROWS] for name, cells in table.items()}
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            block_text = render_report(first, fmt)
            block_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(table) >= 14 * experiments._BLOCK_ROWS
        assert block_peak > len(block_text)
        assert write_peak <= 3 * block_peak

    def test_fig6_build_holds_the_columns_and_one_sweep(self):
        # fig6 at 3 x 20,000 rows: each fraction's sweep of 8 float columns is copied
        # into the report's columns before the next is built, not kept for one concatenate
        cfg = build_config({"kind": "fig6", "grid_steps": 20_000})
        tracemalloc.start()
        try:
            table = KIND_TABLE["fig6"].build(cfg)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sweep = 8 * 20_000 * 8
        assert len(table["status"]) == 3 * 20_000
        assert held > 3 * sweep and peak < held + 2 * sweep


class TestFloatTexts:
    """experiments._float_texts against float.__repr__, the reference."""

    @staticmethod
    def _check(cells):
        assert experiments._float_texts(cells) == list(map(float.__repr__, cells))

    @pytest.mark.parametrize("size", [1, 2, 7, 1000, 100_000])
    def test_random_bit_patterns(self, size):
        # 200,000 float64 bit patterns per size: NaN payloads, infinities and
        # subnormals among them
        bits = np.random.default_rng(size).integers(0, 2**64, 200_000, dtype=np.uint64)
        cells = bits.view(np.float64).tolist()
        for start in range(0, len(cells), size):
            self._check(cells[start:start + size])

    def test_spelling_edges(self):
        cells = list(_FLOAT_EDGES)
        for k in range(-1074, 1024):
            cells.append(math.ldexp(1.0, k))
        for k in range(-323, 309):
            cells.append(float(f"1e{k}"))
        cells = [x for c in cells for x in (math.nextafter(c, -math.inf), c,
                                            math.nextafter(c, math.inf))]
        cells += [float(2**53 + d) for d in range(-4, 5)]
        cells += [math.nan, math.inf, -math.inf]
        cells += [-c for c in cells]
        self._check(cells)
        for cell in cells:  # each alone, so no neighbour shares its rewrite
            self._check([cell])

    def test_empty_column(self):
        self._check([])

    @pytest.mark.parametrize("share", [0.1, 0.5, 1.0])
    def test_small_cells_among_others(self, share):
        # 1e-5 <= |x| < 1e-4, the cells orjson writes as 0.0000..., amid every other form
        rng = np.random.default_rng(int(share * 10))
        small = rng.uniform(1e-5, 1e-4, 2000) * rng.choice([-1.0, 1.0], 2000)
        others = rng.normal(size=2000) * 10.0 ** rng.integers(-12, 20, 2000)
        cells = np.where(rng.random(2000) < share, small, others)
        cells[rng.integers(0, 2000, 20)] = rng.choice([1e-5, 1e-4, -1e-5, 2e-5, math.nan,
                                                       math.inf, 0.0, -0.0], 20)
        self._check(cells.tolist())


class TestTrends:
    def test_fig1_monotone_columns(self, tmp_path):
        table, _, _ = _run("fig1", tmp_path, grid_steps=20, n_seeds=5)
        assert np.all(np.diff(table["success_prob_model"]) >= 0.0)
        assert np.all(np.diff(table["success_prob_empirical"]) >= 0.0)

    def test_fig2_optimal_fee_monotone_in_reward(self, tmp_path):
        table, _, _ = _run("fig2", tmp_path, grid_steps=12)
        assert np.all(np.diff(table["optimal_fee"]) >= 0.0)

    def test_fig3_profit_increasing_and_diminishing(self, tmp_path):
        table, _, _ = _run("fig3", tmp_path, grid_steps=26)
        for column in ("profit_same_fee", "profit_diff_fee"):
            values = table[column]
            assert np.all(np.diff(values) > 0.0)
            assert np.all(np.diff(values, 2) < 1e-12)

    def test_fig4_edge_zero_marked_infeasible(self, tmp_path):
        table, _, n_failed = _run("fig4", tmp_path, grid_steps=6)
        assert table["edge_power"][0] == 0.0
        assert table["status"][0].startswith("infeasible")
        assert math.isnan(table["profit_same_fee"][0])
        assert n_failed == 1

    def test_fig5_fig6_gap_ordering(self, tmp_path):
        for kind in ("fig5", "fig6"):
            table, _, n_failed = _run(kind, tmp_path, grid_steps=6)
            assert n_failed == 0
            by_fraction = {}
            for fraction, gap in zip(table["edge_fraction"], table["profit_gap"]):
                by_fraction.setdefault(fraction, []).append(gap)
            assert all(g >= 0.0 for gaps in by_fraction.values() for g in gaps)
            ordered = sorted(by_fraction)
            for small, large in zip(ordered, ordered[1:]):
                pairs = zip(by_fraction[small], by_fraction[large])
                assert all(a <= b for a, b in pairs)

    # the climb starts at SearchConfig's 1.0, raised to the participation
    # threshold X*u/d (1.105 at edge power 200: below it the pool stays out
    # and the profit -fee falls with the fee, so a start at 1.0 walks down
    # to the floor) and clamped into the bracket (top 0.452 at reward 0.005)
    @pytest.mark.parametrize("settings", [{}, {"edge_power": 200.0},
                                          {"fixed_reward": 0.005, "tx_reward": 0.0},
                                          {"min_consumption": 0.0}, {"poisson_rate": 0.0},
                                          {"unit_cost": 0.05}],
                             ids=["default", "raised-to-threshold", "clamped-to-top",
                                  "floor-0", "no-delay", "high-cost"])
    def test_hillclimb_lands_on_the_closed_form(self, settings, tmp_path):
        # both routes maximize the full profit over one bracket
        closed, _, _ = _run("solve-uniform", tmp_path, out=str(tmp_path / "g.csv"),
                            **settings)
        climbed, _, _ = _run("solve-uniform", tmp_path, fee_search="hillclimb",
                             out=str(tmp_path / "h.csv"), **settings)
        assert climbed["optimal_fee"][0] == pytest.approx(closed["optimal_fee"][0], rel=1e-5)
        assert climbed["optimal_profit"][0] <= closed["optimal_profit"][0]

    def test_fig2_row_recomputable_via_solve_uniform(self, tmp_path):
        table, _, _ = _run("fig2", tmp_path, grid_steps=5)
        target = _rows(table)[2]
        single, _, _ = _run("solve-uniform", tmp_path,
                            fixed_reward=target["fixed_reward"],
                            out=str(tmp_path / "one.csv"))
        assert single["optimal_fee"] == [target["optimal_fee"]]
        assert single["optimal_profit"] == [target["leader_profit"]]

    def test_fig6_row_recomputable_via_compare_mdg(self, tmp_path):
        table, _, _ = _run("fig6", tmp_path, grid_steps=4)
        target = [r for r in _rows(table) if r["edge_fraction"] == 0.5][1]
        single, _, _ = _run("compare-mdg", tmp_path, edge_fraction=0.5,
                            grid_start=target["total_power"] - 1.0,
                            grid_stop=target["total_power"],
                            grid_steps=2, out=str(tmp_path / "cmp.csv"))
        match = [r for r in _rows(single) if r["total_power"] == target["total_power"]]
        assert match and match[0]["profit_emg"] == target["profit_emg"]
        assert match[0]["profit_mdg"] == target["profit_mdg"]


class TestGolden:
    # the committed series; the settings match demos/06_figure_series.py
    @pytest.mark.parametrize("kind", ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6"])
    def test_series_byte_identical(self, kind, tmp_path):
        settings = {"grid_steps": 20} if kind == "fig1" else {}
        _run(kind, tmp_path, **settings)
        assert (tmp_path / f"{kind}.csv").read_bytes() == (GOLDEN / f"{kind}.csv").read_bytes()

    # every other kind, and the JSON form of the series, in both formats
    reports = {
        "fig1": {"kind": "fig1", "grid_steps": 20},
        **{f"fig{n}": {"kind": f"fig{n}"} for n in range(2, 7)},
        "compare-mdg": {"kind": "compare-mdg"},
        "solve-uniform": {"kind": "solve-uniform"},
        "solve-uniform-hillclimb": {"kind": "solve-uniform", "fee_search": "hillclimb"},
        "solve-disc": {"kind": "solve-disc", "fees": (4.0, 4.5, 5.0)},
        "solve-disc-dropout": {"kind": "solve-disc", "fees": (4.0, 5.0, 6.0, 7.0, 8.0) * 2},
        "simulate": {"kind": "simulate", "powers": (10.0, 0.0, 30.0, 25.0), "n_blocks": 500,
                     "seed": 3},
    }

    @pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.iterdir()
                                            if not (p.stem.startswith("fig")
                                                    and p.suffix == ".csv")))
    def test_report_byte_identical(self, name, tmp_path):
        stem, fmt = name.rsplit(".", 1)
        out = tmp_path / name
        run_experiment(build_config({**self.reports[stem], "format": fmt, "out": str(out)}))
        assert out.read_bytes() == (GOLDEN / name).read_bytes()

    def test_simulate_golden_is_the_binomial_chain(self):
        rows = json.loads((GOLDEN / "simulate.json").read_text())
        probs = [row["win_prob_model"] for row in rows[:-1]]
        assert [row["wins"] for row in rows] == binomial_chain(3, 500, probs)
        assert [row["frequency"] for row in rows] == [row["wins"] / 500 for row in rows]

    def test_fig1_golden_is_the_binomial_chain(self):
        # per seed, the grid points' increments of the model column split the
        # blocks; a row counts the cells up to its own
        rows = json.loads((GOLDEN / "fig1.json").read_text())
        model = np.array([row["success_prob_model"] for row in rows])
        increments = np.diff(model, prepend=0.0)
        wins = np.array([np.cumsum(binomial_chain(seed, 1000, increments)[:-1])
                         for seed in range(10)])
        # a C-ordered (grid points x seeds) array, as first_miner_wins returns:
        # the mean then adds each row's terms in the same order
        empirical = (np.ascontiguousarray(wins.T) / 1000).mean(axis=1)
        assert [row["success_prob_empirical"] for row in rows] == empirical.tolist()

    def test_dropout_golden_is_the_equilibrium(self):
        # miners 0, 1, 5 and 6 stay out; damped best-response dynamics from a
        # positive start reach the pinned powers
        rows = json.loads((GOLDEN / "solve-disc-dropout.json").read_text())
        fees = np.array([row["fee"] for row in rows])
        powers = np.array([row["power"] for row in rows])
        assert np.flatnonzero(powers == 0.0).tolist() == [0, 1, 5, 6]
        assert all(row["status"] == "ok" for row in rows)
        for row in rows:
            if row["power"] == 0.0:
                assert row["share"] == row["utility"] == row["leader_delta_simplified"] == 0.0
        game = DiscriminatoryGame(fees, 0.005, GameParams())
        scale = float(np.max(powers))
        reached = best_response_dynamics(game, np.ones(fees.size), tol=1e-12 * scale)
        np.testing.assert_allclose(reached.powers, powers, rtol=0, atol=1e-9 * scale)


class TestCli:
    def test_solve_uniform_writes_file(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        code = main(["solve-uniform", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "solve-uniform" in capsys.readouterr().out

    def test_fig_subcommand(self, tmp_path):
        out = tmp_path / "f.json"
        code = main(["fig", "2", "--grid-steps", "4", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        assert len(json.loads(out.read_text())) == 4

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["fig", "1", "--grid-steps", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("setting, argv", [
        ("n_blocks", ["simulate", "--n-blocks", str(10**20)]),
        ("n_blocks", ["simulate", "--n-blocks", str(2**63)]),
        ("n_blocks", ["fig", "1", "--n-blocks", str(10**20), "--grid-steps", "2",
                      "--n-seeds", "1"]),
        ("n_seeds", ["fig", "1", "--n-seeds", str(10**20), "--grid-steps", "2",
                     "--n-blocks", "10"]),
        ("grid_steps", ["fig", "3", "--grid-steps", str(10**20)]),
        ("n_miners", ["fig", "5", "--n-miners", str(10**20)]),
        ("n_miners", ["fig", "3", "--n-miners", str(10**20)]),
    ], ids=["simulate-blocks", "simulate-blocks-2**63", "fig1-blocks", "fig1-seeds",
            "fig3-grid", "fig5-miners", "fig3-miners"])
    def test_count_no_array_holds_names_its_setting(self, setting, argv, tmp_path, capsys):
        # each count is past what numpy takes, so it fails before numpy allocates anything
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: {setting} ")
        assert not out.exists()

    @pytest.mark.parametrize("setting, argv", [
        ("tx_per_block", ["simulate", "--tx-per-block", str(10**400)]),
        ("mobile_tx_load", ["fig", "5", "--mobile-tx-load", "9" * 400]),
        ("mobile_tx_load", ["solve-uniform", "--mobile-tx-load", "9" * 320]),
        ("grid_start", ["fig", "1", "--grid-start", "-5", "--grid-steps", "2"]),
        ("grid_start", ["fig", "6", "--grid-start", "-5"]),
        ("grid_start", ["compare-mdg", "--grid-start", "-5"]),
        ("grid_start", ["compare-mdg", "--grid-start", "0"]),
    ], ids=["simulate-tx", "fig5-mobile-tx", "solve-uniform-mobile-tx", "fig1-grid",
            "fig6-grid", "compare-mdg-grid", "compare-mdg-grid-0"])
    def test_value_out_of_range_names_its_setting(self, setting, argv, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"config error: {setting} must be ")
        assert not out.exists()

    def test_largest_tx_load_runs(self, tmp_path):
        # every block is an orphan: the discount e^(-0.01 * 1.8e308) is 0
        out = tmp_path / "s.csv"
        assert main(["simulate", "--tx-per-block", str(int(sys.float_info.max)),
                     "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            assert list(csv.DictReader(fh))[-1]["wins"] == "1000"

    def test_largest_block_count_runs(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["simulate", "--n-blocks", str(2**63 - 1), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4  # header + 2 miners + orphan row

    @pytest.mark.parametrize("error, line", [
        (MemoryError("Unable to allocate 74.5 GiB for an array"),
         "Unable to allocate 74.5 GiB for an array"),
        (MemoryError(), "MemoryError"),
    ], ids=["numpy", "bare"])
    def test_memory_error_is_a_config_error(self, error, line, monkeypatch, tmp_path, capsys):
        # a builder that raises it, so the test allocates nothing
        def out_of_memory(cfg):
            raise error

        monkeypatch.setitem(KIND_TABLE, "fig3", KIND_TABLE["fig3"]._replace(build=out_of_memory))
        out = tmp_path / "x.csv"
        assert main(["fig", "3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"
        assert not out.exists()

    def test_negative_rate_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--poisson-rate", "-3",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "poisson_rate" in capsys.readouterr().err

    def test_all_infeasible_exit_code(self, tmp_path, capsys):
        # every edge power on this grid is <= 0, so every row is infeasible
        code = main(["fig", "4", "--grid-start", "-10", "--grid-stop", "-1",
                     "--grid-steps", "3", "--out", str(tmp_path / "d.csv")])
        assert code == 3
        out, err = capsys.readouterr()
        assert out.endswith("(3 infeasible)\n")
        assert "infeasible" in err

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("argv", [["fig", "3"], ["fig", "4"], ["fig", "5"],
                                      ["fig", "3", "--objective", "full"],
                                      ["solve-disc", "--fees", "4,5"]])
    def test_zero_device_discount_is_a_config_error(self, argv, fmt, tmp_path, capsys):
        # exp(-100 * 1 * 10) underflows to 0; matched, inducing and per-miner
        # fees all divide by it
        out = tmp_path / f"r.{fmt}"
        code = main([*argv, "--poisson-rate", "100", "--format", fmt, "--out", str(out)])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert "device-load delay discount" in lines[0]
        assert not out.exists()

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("kind = fig2\ngrid_steps = 4\nedge_power = 40\n")
        out = tmp_path / "o.csv"
        code = main(["fig", "2", "--config", str(config),
                     "--grid-steps", "6", "--out", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 7  # header + 6 rows

    def test_mdg_delay_mult_flag(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(["compare-mdg", "--mdg-delay-mult", "2.5", "--grid-steps", "3",
                     "--out", str(out)])
        assert code == 0

    def test_simulate_powers_flag(self, tmp_path):
        out = tmp_path / "s.csv"
        code = main(["simulate", "--powers", "10,20,30", "--seed", "5",
                     "--n-blocks", "200", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 3 miners + orphan row

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["fig", "1", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2

    def test_exhausted_hillclimb_reports_no_result(self, tmp_path, capsys):
        # X*u/d passes the bracket top 100*a = 9e301, so the pool stays out at
        # every fee and the profit -fee rises at each 5% step down from the
        # top: about 14,300 steps to the floor, past the 10,000-evaluation budget
        out = tmp_path / "u.csv"
        code = main(["solve-uniform", "--fee-search", "hillclimb", "--fixed-reward", "1e300",
                     "--unit-cost", "1e303", "--out", str(out)])
        assert code == 3
        assert capsys.readouterr().err.startswith("no result: fee search did not terminate "
                                                  "within 10000 evaluations")
        assert not out.exists()

    @pytest.mark.parametrize("name", ["initial_fee", "step_factor", "tolerance", "max_iters"])
    def test_hillclimb_tuning_is_no_setting(self, name, tmp_path, capsys):
        # the climb runs on SearchConfig's defaults
        config = tmp_path / "exp.cfg"
        config.write_text(f"{name} = 1\n")
        assert main(["solve-uniform", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"config error: line 1: unknown key {name!r}\n"
        with pytest.raises(SystemExit) as exc:
            main(["solve-uniform", "--" + name.replace("_", "-"), "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("name", ["delay_factor", "fee_basis"])
    def test_folded_settings_are_gone(self, name, tmp_path, capsys):
        # poisson_rate is the penalty per transaction, and the leader pays each miner its fee
        config = tmp_path / "exp.cfg"
        config.write_text(f"{name} = 1\n")
        assert main(["solve-disc", "--fees", "4,8", "--config", str(config)]) == 2
        assert capsys.readouterr().err == f"config error: line 1: unknown key {name!r}\n"
        with pytest.raises(SystemExit) as exc:
            main(["solve-disc", "--fees", "4,8", "--" + name.replace("_", "-"), "1"])
        assert exc.value.code == 2
        with pytest.raises(TypeError):
            GameParams(**{name: 1.0})
        with pytest.raises(TypeError):
            ExperimentConfig(kind="solve-disc", fees=(4.0, 8.0), **{name: 1.0})

    def test_help_lists_one_flag_per_setting(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        flags = re.findall(r"^ +(--[a-z-]+)", text.split("\noptions:\n", 1)[1], flags=re.M)
        # kind is the command itself
        assert flags == ["--config"] + ["--" + key.replace("_", "-") for key in SETTINGS
                                        if key != "kind"]
        for removed in ("--initial-fee", "--step-factor", "--tolerance", "--max-iters"):
            assert removed not in text

    def test_every_bad_game_constant_reported(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["solve-uniform", "--fixed-reward", "-1", "--tx-reward", "-2",
                     "--unit-cost", "-1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: fixed_reward must be >= 0, got -1.0",
            "config error: tx_reward must be >= 0, got -2.0",
            "config error: unit_cost must be > 0, got -1.0"]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--powers", "1e308,1e308"],
        ["fig", "1", "--grid-start", "1e308", "--grid-stop", "1.7e308",
         "--device-power", "1e308"],
        ["solve-disc", "--fees", "4,5", "--unit-cost", "1e-320"],
    ])
    def test_overflow_is_a_config_error(self, argv, tmp_path, capsys):
        # the total power passes the float range: in fsum, in X + D, in (k-1)/sum(c);
        # the line names the settings that overflow, where one setting can be named
        names = {"simulate": ["powers"], "fig": ["device_power 1e+308", "grid point 0"],
                 "solve-disc": []}[argv[0]]
        out = tmp_path / "o.csv"
        assert main([*argv, "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert "overflow" in lines[0]
        assert all(name in lines[0] for name in names), lines[0]
        assert not out.exists()

    @pytest.mark.parametrize("command", [["fig", "1"], ["fig", "2"], ["fig", "3"], ["fig", "6"]])
    def test_grid_span_past_the_float_range_is_a_config_error(self, command, tmp_path, capsys):
        # both ends are finite, but stop - start is not: no grid point is formed
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*command, "--grid-start=-1.7e308", "--grid-stop", "1.7e308",
                         "--grid-steps", "5", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr() == (
            "", "config error: grid_stop - grid_start must be finite, "
                "got [-1.7e+308, 1.7e+308]\n")
        assert not caught
        assert not out.exists()

    def test_bad_flag_value_is_a_config_error(self, tmp_path, capsys):
        code = main(["fig", "2", "--seed", "banana", "--fees", "a,b",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "--fees" in err
        assert not (tmp_path / "x.csv").exists()

    def test_bad_flag_reported_with_bad_config_line(self, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("wat = 3\n")
        code = main(["fig", "2", "--config", str(config), "--n-blocks", "1e3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "wat" in err and "--n-blocks" in err

    def test_choice_flag_checked_by_config(self, tmp_path, capsys):
        code = main(["fig", "2", "--format", "xml", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "format must be one of" in capsys.readouterr().err

    def test_figure_number_only_with_fig(self):
        for argv in (["fig"], ["solve-uniform", "3"], ["fig", "7"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_options_before_figure_number(self, tmp_path):
        out = tmp_path / "f.csv"
        assert main(["fig", "--grid-steps", "4", "2", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 5


class TestParserReuse:
    """main keeps one parser per process: no call may see another call's flags."""

    def test_built_once_and_build_parser_stays_a_factory(self, monkeypatch, tmp_path):
        built = []

        def counting_build():
            built.append(build_parser())
            return built[-1]

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build)
        for _ in range(3):
            assert main(["solve-uniform", "--out", str(tmp_path / "u.csv")]) == 0
        assert len(built) == 1
        assert build_parser() is not build_parser()

    def test_flag_reads_its_default_in_the_next_call(self, monkeypatch, tmp_path):
        with_fee, after, fresh = (tmp_path / f"{n}.csv" for n in ("with_fee", "after", "fresh"))
        assert main(["solve-uniform", "--fee", "3", "--fee-search", "hillclimb",
                     "--out", str(with_fee)]) == 0
        assert main(["solve-uniform", "--out", str(after)]) == 0
        monkeypatch.setattr(cli, "_parser", None)
        assert main(["solve-uniform", "--out", str(fresh)]) == 0
        assert after.read_bytes() == fresh.read_bytes() != with_fee.read_bytes()
        row = next(csv.DictReader(io.StringIO(after.read_text())))
        assert row["fee"] == row["optimal_fee"] != "3.0"

    @pytest.mark.parametrize("bad", [["fig", "2", "--nope", "1"], ["fig", "7"], ["bogus"],
                                     ["fig", "2", "--grid-steps"], ["fig"]])
    def test_good_call_after_an_argparse_error(self, bad, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        first = capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(bad)
        assert capsys.readouterr().err == first
        out = tmp_path / "f.csv"
        assert main(["fig", "--grid-steps", "4", "2", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 5

    def test_help_after_other_calls(self, tmp_path, capsys):
        assert main(["fig", "2", "--grid-steps", "3", "--out", str(tmp_path / "f.csv")]) == 0
        with pytest.raises(SystemExit):
            main(["fig", "8"])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        fresh = build_parser()
        fresh.usage = fresh.format_usage()[7:]
        assert capsys.readouterr().out == fresh.format_help()
