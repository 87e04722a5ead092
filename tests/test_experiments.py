"""Config parsing, report writing, CLI behavior, and figure-series trends."""

import csv
import dataclasses
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from edgeminer import ConfigError, ExperimentConfig, GameParams, validate_config
from edgeminer.cli import _settings_from_args, build_parser, main
from edgeminer.experiments import (
    DEFAULT_GRIDS,
    SETTINGS,
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
