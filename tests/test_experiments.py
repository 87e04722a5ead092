"""Config parsing, report writing, CLI behavior, and figure-series trends."""

import csv
import dataclasses
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from edgeminer import (
    ConfigError,
    DiscriminatoryGame,
    ExperimentConfig,
    GameParams,
    SimConfig,
    discriminatory,
    edge_utility,
    experiments,
    leader_delta_utility_discriminatory,
    mdg_baseline_profit,
    miner_utility_i,
    nash_equilibrium_closed_form,
    optimal_fee_uniform,
    simulate_mining,
    uniform,
    validate_config,
)
from edgeminer.core import OBJECTIVES
from edgeminer.cli import _settings_from_args, build_parser, main
from edgeminer.discriminatory import FEE_BASES
from edgeminer.experiments import (
    DEFAULT_GRIDS,
    SETTINGS,
    _rows_fig1,
    build_config,
    render_report,
    run_experiment,
)

GOLDEN = Path(__file__).parent / "golden"


def _run(kind, tmp_path, **settings):
    settings.setdefault("kind", kind)
    settings.setdefault("out", str(tmp_path / f"{kind}.{settings.get('format', 'csv')}"))
    cfg = build_config(settings)
    return run_experiment(cfg)


class TestValidateConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = validate_config("kind = fig1\n")
        assert cfg.kind == "fig1"
        assert cfg.n_blocks == 1000
        assert cfg.params.tx_per_block == 10
        assert cfg.resolved_grid() == DEFAULT_GRIDS["fig1"]

    def test_comments_and_blank_lines(self):
        cfg = validate_config("# experiment\nkind = fig2\n\nseed = 9  # rng\n")
        assert cfg.kind == "fig2" and cfg.seed == 9

    def test_negative_rate_names_the_key(self):
        with pytest.raises(ConfigError) as err:
            validate_config("kind = fig1\npoisson_rate = -0.5\n")
        assert "poisson_rate" in str(err.value)

    def test_step_factor_outside_unit_interval(self):
        with pytest.raises(ConfigError) as err:
            validate_config("kind = solve-uniform\nstep_factor = 1.5\n")
        assert "step_factor" in str(err.value)

    def test_unknown_key_carries_line_number(self):
        with pytest.raises(ConfigError) as err:
            validate_config("kind = fig1\nwat = 3\n")
        assert "line 2" in str(err.value) and "wat" in str(err.value)

    def test_bad_value_carries_line_and_key(self):
        with pytest.raises(ConfigError) as err:
            validate_config("kind = fig1\nseed = banana\n")
        assert "line 2" in str(err.value) and "seed" in str(err.value)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            validate_config("kind = fig1\nseed = 1\nseed = 2\n")

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError) as err:
            validate_config("kind = fig1\ngrid_start = 5\ngrid_stop = 5\ngrid_steps = 2\n")
        assert "grid_start" in str(err.value)
        with pytest.raises(ConfigError):
            validate_config("kind = fig1\ngrid_steps = 1\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            validate_config("kind = fig9\n")

    def test_fees_list_parsed(self):
        cfg = validate_config("kind = solve-disc\nfees = 4, 8, 6\n")
        assert cfg.fees == (4.0, 8.0, 6.0)

    def test_solve_disc_requires_fees(self):
        with pytest.raises(ConfigError):
            validate_config("kind = solve-disc\n")

    def test_nonpositive_fixed_powers_rejected(self):
        with pytest.raises(ConfigError) as err:
            validate_config("kind = solve-uniform\nedge_power = -5\n")
        assert "edge_power" in str(err.value)

    def test_fee_search_choices(self):
        with pytest.raises(ConfigError):
            validate_config("kind = solve-uniform\nfee_search = newton\n")


# valid non-default raw values for the settings whose default gives no hint
_RAW_VALUES = {
    "fee": "2.5", "fees": "4, 8", "objective": "simplified", "fee_basis": "per_power",
    "fee_search": "hillclimb", "grid_start": "2.5", "grid_stop": "20", "grid_steps": "3",
    "edge_fractions": "0.2,0.7", "powers": "1,2", "out": "x.json", "format": "json",
}


def _raw_value(f):
    if f.name in _RAW_VALUES:
        return _RAW_VALUES[f.name]
    default = f.default
    return str(default + 1) if isinstance(default, int) else repr(1.5 * default)


class TestSchema:
    fields = [f for cls in (GameParams, ExperimentConfig) for f in dataclasses.fields(cls)
              if f.name not in ("kind", "params")]

    def test_settings_are_the_dataclass_fields(self):
        assert set(SETTINGS) == {f.name for f in self.fields} | {"kind"}

    @pytest.mark.parametrize("f", fields, ids=lambda f: f.name)
    def test_field_is_a_config_key_and_a_flag(self, f):
        raw = _raw_value(f)
        from_file = validate_config(f"kind = fig2\n{f.name} = {raw}\n")
        args = build_parser().parse_args(["fig", "2", "--" + f.name.replace("_", "-"), raw])
        from_flag = build_config(_settings_from_args(args))
        in_params = f.name in GameParams.__dataclass_fields__
        values = [getattr(cfg.params if in_params else cfg, f.name)
                  for cfg in (from_file, from_flag)]
        assert values[0] == values[1] == SETTINGS[f.name](raw) != f.default

    def test_invalid_values_rejected_on_construction_and_replace(self):
        cfg = ExperimentConfig(kind="fig2")
        with pytest.raises(ConfigError) as err:
            dataclasses.replace(cfg, step_factor=1.5)
        assert "step_factor" in str(err.value)
        with pytest.raises(ConfigError) as err:
            ExperimentConfig(kind="fig2", seed=-1, format="xml", fee_basis="weird")
        assert len(err.value.errors) == 3
        with pytest.raises(ConfigError):
            ExperimentConfig()  # no kind


class TestNonFiniteSettings:
    # every float and float-list field; three run on the figure where an infinite
    # value used to get through validation, powers on the one kind that checks it
    fields = [f.name for cls in (ExperimentConfig, GameParams) for f in dataclasses.fields(cls)
              if f.type.split(" |")[0] in ("float", "tuple")]
    commands = {"grid_stop": ["fig", "2"], "device_power": ["fig", "4"],
                "mdg_delay_mult": ["fig", "6"], "powers": ["simulate"]}

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("name", fields)
    def test_rejected_under_its_own_name(self, name, value, tmp_path, capsys):
        out = tmp_path / "x.csv"
        if SETTINGS[name] is not float:
            value = f"1,{value}"
        argv = self.commands.get(name, ["fig", "2"]) + [
            f"--{name.replace('_', '-')}={value}", "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code == 2
        # one line per bad value: its range check is not reported on top
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith((f"config error: {name} must be finite",
                                    f"config error: {name} must be a finite number"))
        assert not caught
        assert not out.exists()


class TestSimulateRows:
    def test_columns_at_a_thousand_miners(self, tmp_path):
        powers = np.random.default_rng(12).uniform(1.0, 10.0, 1000)
        powers[::9] = 0.0
        n_blocks = 200_000
        rows, _, n_failed = _run("simulate", tmp_path, powers=tuple(powers.tolist()),
                                 n_blocks=n_blocks, seed=3)
        assert n_failed == 0
        discount = GameParams().delay_discount(GameParams().tx_per_block)
        total = math.fsum(powers)
        assert [row["miner"] for row in rows] == [*range(1000), -1]
        for row, power in zip(rows, powers.tolist()):
            assert type(row["wins"]) is int
            assert row["power"] == power
            assert row["share"] == power / total
            assert row["win_prob_model"] == power / total * discount
            assert row["frequency"] == row["wins"] / n_blocks
        assert rows[-1]["frequency"] == rows[-1]["wins"] / n_blocks
        assert sum(row["wins"] for row in rows) == n_blocks


class TestFig1SharedDraws:
    @staticmethod
    def _oracle(cfg):
        # the per-point loop: one simulate_mining run per grid point and seed
        params = cfg.params
        rows = []
        for x in cfg.grid():
            freqs = []
            for seed in range(cfg.seed, cfg.seed + cfg.n_seeds):
                sim = SimConfig(n_blocks=cfg.n_blocks, tx_per_block=params.tx_per_block,
                                seed=seed, params=params)
                outcome = simulate_mining([x, cfg.device_power], sim)
                freqs.append(outcome.wins[0] / outcome.n_blocks)
            share = x / (x + cfg.device_power)
            rows.append({
                "edge_power": float(x),
                "device_power": cfg.device_power,
                "edge_share": share,
                "success_prob_model": share * params.delay_discount(params.tx_per_block),
                "success_prob_empirical": float(np.mean(freqs)),
                "status": "ok",
            })
        return rows

    @pytest.mark.parametrize("params", [{}, {"poisson_rate": 0.0}, {"tx_per_block": 3}],
                             ids=["default", "no-delay", "tx3"])
    @pytest.mark.parametrize("n_blocks", [1, 137])
    @pytest.mark.parametrize("n_seeds", [1, 3, 12])
    def test_rows_equal_per_point_simulation(self, n_seeds, n_blocks, params):
        cfg = build_config({"kind": "fig1", "grid_start": 0.0, "grid_stop": 60.0,
                            "grid_steps": 13, "device_power": 20.0, "seed": 77,
                            "n_seeds": n_seeds, "n_blocks": n_blocks, **params})
        assert _rows_fig1(cfg) == self._oracle(cfg)

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
        assert "config error: powers must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestSolveDiscOneSolve:
    @staticmethod
    def _fees(n):
        rng = np.random.default_rng(n)
        return tuple(10.0 * (1.0 + (0.4 / n) * rng.uniform(-1.0, 1.0, n)))

    @pytest.mark.parametrize("basis", FEE_BASES)
    @pytest.mark.parametrize("n", [2, 7, 300])
    def test_rows_equal_per_miner_functions(self, n, basis, tmp_path):
        params = GameParams(mobile_tx_load=7, poisson_rate=0.02)
        rows, _, _ = _run("solve-disc", tmp_path, fees=self._fees(n), fee_basis=basis,
                          unit_cost=0.004, mobile_tx_load=7, poisson_rate=0.02)
        game = DiscriminatoryGame(np.asarray(self._fees(n)), 0.004, params)
        allocation = nash_equilibrium_closed_form(game)
        assert len(rows) == n
        for i, row in enumerate(rows):
            assert row["power"] == allocation.powers[i]
            assert row["share"] == allocation.shares()[i]
            assert row["utility"] == miner_utility_i(game, allocation, i)
            assert row["leader_delta_full"] == leader_delta_utility_discriminatory(
                game, i, "full", basis)
            assert row["leader_delta_simplified"] == leader_delta_utility_discriminatory(
                game, i, "simplified", basis)

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


class TestStage1Sweeps:
    @staticmethod
    def _oracle(cfg):
        # the per-point loop: one scalar optimal_fee_uniform search per grid point
        objective = cfg.resolved_objective()
        rows = []
        if cfg.kind == "fig2":
            for r in cfg.grid():
                params = dataclasses.replace(cfg.params, fixed_reward=float(r))
                fee, profit = optimal_fee_uniform(cfg.edge_power, cfg.unit_cost, params,
                                                  objective=objective)
                rows.append({"fixed_reward": float(r), "optimal_fee": fee,
                             "leader_profit": profit, "status": "ok"})
            return rows
        params = cfg.params
        fig6 = cfg.kind == "fig6"
        for fraction in cfg.edge_fractions if fig6 else (cfg.edge_fraction,):
            for total in sorted(float(w) for w in cfg.grid()):
                edge_power = fraction * total
                device_power = total - edge_power
                fee_emg, _ = optimal_fee_uniform(edge_power, cfg.unit_cost, params,
                                                 objective=objective)
                fee_mdg = fee_emg * total / device_power
                profit_emg = edge_utility(params, [fee_emg])
                profit_mdg = mdg_baseline_profit(total, [fee_mdg], params, cfg.mdg_delay_mult)
                row = {"edge_fraction": fraction} if fig6 else {}
                row.update(total_power=total, edge_power=edge_power,
                           device_power=device_power, fee_emg=fee_emg, fee_mdg=fee_mdg,
                           profit_emg=profit_emg, profit_mdg=profit_mdg,
                           profit_gap=profit_emg - profit_mdg, status="ok")
                rows.append(row)
        return rows

    @pytest.mark.parametrize("settings", [{}, {"min_consumption": 0.0},
                                          {"min_consumption": 5.0}, {"poisson_rate": 0.0}],
                             ids=["default", "floor-0", "floor-5", "no-delay"])
    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("steps", [2, 7, 400])
    @pytest.mark.parametrize("kind", ["fig2", "fig6", "compare-mdg"])
    def test_rows_equal_per_point_search(self, kind, steps, objective, settings):
        # min_consumption 5 lies above the interior optimum: the floor endpoint wins
        cfg = build_config({"kind": kind, "grid_steps": steps, "objective": objective,
                            "edge_fractions": (0.01, 0.99), "edge_fraction": 0.99,
                            **settings})
        rows = experiments._BUILDERS[kind](cfg)
        # items, in order: the column order is part of the report bytes
        assert [list(row.items()) for row in rows] == [
            list(row.items()) for row in self._oracle(cfg)]

    def test_one_search_per_sweep(self, monkeypatch, tmp_path):
        sizes = []
        batched = uniform.golden_section_max_array

        def counting(f, lo, hi, rel_tol=1e-9):
            sizes.append(len(lo))
            return batched(f, lo, hi, rel_tol)

        def per_point(*args, **kwargs):
            raise AssertionError("a sweep ran a per-point search")

        monkeypatch.setattr(uniform, "golden_section_max_array", counting)
        monkeypatch.setattr(uniform, "golden_section_max", per_point)
        for kind, steps, expected in (("fig6", 400, [400, 400, 400]),
                                      ("compare-mdg", 200, [200]), ("fig2", 200, [200])):
            sizes.clear()
            _run(kind, tmp_path, grid_steps=steps)
            assert sizes == expected, kind

    @pytest.mark.parametrize("kind", ["fig2", "fig6", "compare-mdg", "solve-uniform"])
    def test_zero_discount_simplified_is_a_config_error(self, kind, tmp_path, capsys):
        # exp(-1000) == 0: the sweeps fail as the single solve does, in one line
        argv = ["fig", kind[3:]] if kind.startswith("fig") else [kind]
        code = main(argv + ["--objective", "simplified", "--poisson-rate", "100",
                            "--out", str(tmp_path / "report.csv")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: the simplified objective needs fee * delay discount > 0, "
            "but the device-load delay discount is 0"]
        assert not (tmp_path / "report.csv").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("search", ["golden", "hillclimb"])
    def test_zero_discount_solve_uniform(self, search, fmt, tmp_path, capsys):
        # exp(-1000) == 0: the full objective is well defined, with no device
        # joining; only the simplified profit column is undefined
        out = tmp_path / f"report.{fmt}"
        argv = ["solve-uniform", "--fee-search", search, "--poisson-rate", "100",
                "--format", fmt, "--out", str(out)]
        assert main(argv + ["--objective", "full"]) == 0
        assert capsys.readouterr().err == ""
        text = out.read_text()
        row = json.loads(text)[0] if fmt == "json" else next(csv.DictReader(io.StringIO(text)))
        assert math.isnan(float(row["leader_profit_simplified"]))
        assert float(row["best_response_power"]) == 0.0
        assert float(row["leader_profit_full"]) == -float(row["fee"])
        assert row["status"] == "ok"
        out.unlink()
        assert main(argv + ["--objective", "simplified"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: the simplified objective needs fee * delay discount > 0, "
            "but the device-load delay discount is 0"]
        assert not out.exists()


class TestReportFiles:
    def test_csv_round_trip_full_precision(self, tmp_path):
        rows, path, _ = _run("fig2", tmp_path, grid_steps=6)
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
        rows, path, _ = _run("fig2", tmp_path, grid_steps=4, format="json")
        parsed = json.loads((tmp_path / "fig2.json").read_text())
        assert len(parsed) == len(rows)
        for loaded, row in zip(parsed, rows):
            assert loaded["optimal_fee"] == row["optimal_fee"]

    def test_byte_identical_reruns(self, tmp_path):
        _run("fig1", tmp_path, grid_steps=5, n_seeds=3,
             out=str(tmp_path / "a.csv"))
        _run("fig1", tmp_path, grid_steps=5, n_seeds=3,
             out=str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_seed_changes_simulation_output(self, tmp_path):
        rows_a, _, _ = _run("simulate", tmp_path, seed=1, out=str(tmp_path / "a.csv"))
        rows_b, _, _ = _run("simulate", tmp_path, seed=2, out=str(tmp_path / "b.csv"))
        assert [r["wins"] for r in rows_a] != [r["wins"] for r in rows_b]

    def test_infeasible_solve_disc_report_parses_as_csv(self, tmp_path):
        fees = ",".join(str(float(x)) for x in np.linspace(4.0, 8.0, 50))
        out = tmp_path / "d.csv"
        code = main(["solve-disc", "--fees", fees, "--unit-cost", "0.005", "--out", str(out)])
        assert code == 3
        lines = list(csv.reader(io.StringIO(out.read_text())))
        assert len(lines) == 2 and all(len(line) == 9 for line in lines)
        assert lines[1][-1] == "infeasible: miners 0 1 2 3 4 ... (21 of 50)"

    def test_render_report_formats_booleans(self):
        text = render_report([{"x": True, "y": 1, "status": "ok"}], "csv")
        assert text == "x,y,status\ntrue,1,ok\n"


class TestTrends:
    def test_fig1_monotone_columns(self, tmp_path):
        rows, _, _ = _run("fig1", tmp_path, grid_steps=20, n_seeds=5)
        model = [r["success_prob_model"] for r in rows]
        empirical = [r["success_prob_empirical"] for r in rows]
        assert np.all(np.diff(model) >= 0.0)
        assert np.all(np.diff(empirical) >= 0.0)

    def test_fig2_optimal_fee_monotone_in_reward(self, tmp_path):
        rows, _, _ = _run("fig2", tmp_path, grid_steps=12)
        fees = [r["optimal_fee"] for r in rows]
        assert np.all(np.diff(fees) >= 0.0)

    def test_fig3_profit_increasing_and_diminishing(self, tmp_path):
        rows, _, _ = _run("fig3", tmp_path, grid_steps=26)
        for column in ("profit_same_fee", "profit_diff_fee"):
            values = [r[column] for r in rows]
            assert np.all(np.diff(values) > 0.0)
            assert np.all(np.diff(values, 2) < 1e-12)

    def test_fig4_edge_zero_marked_infeasible(self, tmp_path):
        rows, _, n_failed = _run("fig4", tmp_path, grid_steps=6)
        assert rows[0]["edge_power"] == 0.0
        assert rows[0]["status"].startswith("infeasible")
        assert math.isnan(rows[0]["profit_same_fee"])
        assert n_failed == 1

    def test_fig5_fig6_gap_ordering(self, tmp_path):
        for kind in ("fig5", "fig6"):
            rows, _, n_failed = _run(kind, tmp_path, grid_steps=6)
            assert n_failed == 0
            by_fraction = {}
            for row in rows:
                by_fraction.setdefault(row["edge_fraction"], []).append(row["profit_gap"])
            assert all(g >= 0.0 for gaps in by_fraction.values() for g in gaps)
            ordered = sorted(by_fraction)
            for small, large in zip(ordered, ordered[1:]):
                pairs = zip(by_fraction[small], by_fraction[large])
                assert all(a <= b for a, b in pairs)

    def test_hillclimb_agrees_with_golden_section(self, tmp_path):
        golden, _, _ = _run("solve-uniform", tmp_path, out=str(tmp_path / "g.csv"))
        climbed, _, _ = _run("solve-uniform", tmp_path, fee_search="hillclimb",
                             initial_fee=0.5, step_factor=0.1,
                             out=str(tmp_path / "h.csv"))
        assert climbed[0]["optimal_fee"] == pytest.approx(
            golden[0]["optimal_fee"], abs=1e-4)

    def test_fig2_row_recomputable_via_solve_uniform(self, tmp_path):
        rows, _, _ = _run("fig2", tmp_path, grid_steps=5)
        target = rows[2]
        single, _, _ = _run("solve-uniform", tmp_path,
                            fixed_reward=target["fixed_reward"],
                            out=str(tmp_path / "one.csv"))
        assert single[0]["optimal_fee"] == target["optimal_fee"]
        assert single[0]["optimal_profit"] == target["leader_profit"]

    def test_fig6_row_recomputable_via_compare_mdg(self, tmp_path):
        rows, _, _ = _run("fig6", tmp_path, grid_steps=4)
        target = [r for r in rows if r["edge_fraction"] == 0.5][1]
        single, _, _ = _run("compare-mdg", tmp_path, edge_fraction=0.5,
                            grid_start=target["total_power"] - 1.0,
                            grid_stop=target["total_power"],
                            grid_steps=2, out=str(tmp_path / "cmp.csv"))
        match = [r for r in single if r["total_power"] == target["total_power"]]
        assert match and match[0]["profit_emg"] == target["profit_emg"]
        assert match[0]["profit_mdg"] == target["profit_mdg"]


class TestGolden:
    # the committed series; the settings match demos/06_figure_series.py
    @pytest.mark.parametrize("kind", ["fig1", "fig2", "fig3", "fig4", "fig5", "fig6"])
    def test_series_byte_identical(self, kind, tmp_path):
        settings = {"grid_steps": 20} if kind == "fig1" else {}
        _run(kind, tmp_path, **settings)
        assert (tmp_path / f"{kind}.csv").read_bytes() == (GOLDEN / f"{kind}.csv").read_bytes()


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

    def test_negative_rate_rejected(self, tmp_path, capsys):
        code = main(["simulate", "--poisson-rate", "-3",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "poisson_rate" in capsys.readouterr().err

    def test_all_infeasible_exit_code(self, tmp_path, capsys):
        # dispersed fees make the closed form leave the orthant
        code = main(["solve-disc", "--fees", "1,40,40",
                     "--out", str(tmp_path / "d.csv")])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "exp.cfg"
        config.write_text("kind = fig2\ngrid_steps = 4\nseed = 3\n")
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

    def test_unbounded_hillclimb_reports_no_result(self, tmp_path, capsys):
        # the simplified objective grows with the fee, so the climb cannot stop
        code = main(["solve-uniform", "--fee-search", "hillclimb",
                     "--objective", "simplified", "--max-iters", "300",
                     "--out", str(tmp_path / "u.csv")])
        assert code == 3
        assert "no result" in capsys.readouterr().err

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
