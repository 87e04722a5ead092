"""The kind table: what each kind declares it reads, against what it reads and is given.

The declaration is checked against the settings each builder actually reads,
against the rule that a setting a kind ignores is a config error, and against
the command lines of the benchmark, the CI workflow and the README.  The
benchmark's scripts are read as text (``ast``), never imported.
"""

import ast
import dataclasses
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

from edgeminer import ConfigError, ExperimentConfig, GameParams, cli
from edgeminer.cli import main
from edgeminer.experiments import KIND_TABLE, KINDS, SETTINGS, run_experiment

from conftest import DEFAULTS, kind_argv, raw_value

ROOT = Path(__file__).resolve().parent.parent
PARAM_NAMES = {f.name for f in dataclasses.fields(GameParams)}
ALWAYS_READ = {"kind", "out", "format"}


def _undeclared(kind):
    return [name for name in SETTINGS if name not in KIND_TABLE[kind].reads | ALWAYS_READ]


def _error_line(kind, unread):
    reads = ", ".join(name for name in SETTINGS if name in KIND_TABLE[kind].reads)
    return f"{kind} does not read {', '.join(unread)}; it reads {reads}"


def test_kinds_and_commands_come_from_the_table():
    assert KINDS == tuple(KIND_TABLE) == ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
                                          "solve-uniform", "solve-disc", "simulate",
                                          "compare-mdg")
    assert cli.COMMANDS == ("fig", "solve-uniform", "solve-disc", "simulate", "compare-mdg")
    assert cli.FIGURES == (1, 2, 3, 4, 5, 6)
    for kind, spec in KIND_TABLE.items():
        assert spec.reads <= set(SETTINGS) - ALWAYS_READ, kind
        assert (spec.grid is None) == ("grid_steps" not in spec.reads), kind


class TestDeclarationIsWhatBuildersRead:
    """Every kind runs on recording configs, and the settings read are the ones declared."""

    log = []  # the open read logs, innermost last; empty while nothing records

    # each kind at its defaults, plus the inputs that change which branch a builder takes
    runs = {
        **{kind: [{}] for kind in KINDS},
        "fig3": [{}, {"objective": "full"}],
        "fig4": [{}, {"objective": "full"}],
        "solve-uniform": [{}, {"fee": 3.0}, {"fee_search": "hillclimb"}],
        # interior, and four miners out
        "solve-disc": [{"fees": (4.0, 4.5, 5.0)}, {"fees": (4.0, 5.0, 6.0, 7.0, 8.0) * 2}],
    }

    class Recording:
        """Logs each setting read from an instance while a log is open."""

        def __getattribute__(self, name):
            log = TestDeclarationIsWhatBuildersRead.log
            if log and name in SETTINGS:
                log[-1].add(name)
            return super().__getattribute__(name)

    class Params(Recording, GameParams):
        pass

    class Config(Recording, ExperimentConfig):
        pass

    def _reads(self, kind, settings, tmp_path):
        params = self.Params(**{k: v for k, v in settings.items() if k in PARAM_NAMES})
        cfg = self.Config(kind=kind, params=params, out=str(tmp_path / "report.csv"),
                          **{k: v for k, v in settings.items() if k not in PARAM_NAMES})
        self.log.append(set())  # construction is done: its checks read every setting
        try:
            run_experiment(cfg)
        finally:
            reads = self.log.pop()
        return reads - ALWAYS_READ

    @pytest.mark.parametrize("kind", KINDS)
    def test_declared_settings_are_the_settings_read(self, kind, tmp_path):
        reads = set().union(*(self._reads(kind, settings, tmp_path)
                              for settings in self.runs[kind]))
        assert reads == KIND_TABLE[kind].reads


class TestUndeclaredSettings:
    @pytest.mark.parametrize("kind", KINDS)
    def test_each_is_one_config_error(self, kind, tmp_path, capsys):
        # by flag, config key, construction and dataclasses.replace: one line, no report
        out, config = tmp_path / "report.csv", tmp_path / "exp.cfg"
        base = {"fees": (4.0, 8.0)} if kind == "solve-disc" else {}
        for name in _undeclared(kind):
            raw, line = raw_value(name), _error_line(kind, [name])
            config.write_text(f"{name} = {raw}\n")
            for given in (["--" + name.replace("_", "-"), raw], ["--config", str(config)]):
                assert main([*kind_argv(kind), *given, "--out", str(out)]) == 2
                assert capsys.readouterr() == ("", f"config error: {line}\n")
                assert not out.exists()
            value = SETTINGS[name](raw)
            changes = ({"params": GameParams(**{name: value})} if name in PARAM_NAMES
                       else {name: value})
            with pytest.raises(ConfigError) as err:
                ExperimentConfig(kind=kind, **base, **changes)
            assert err.value.errors == [line]
            with pytest.raises(ConfigError) as err:
                dataclasses.replace(ExperimentConfig(kind=kind, **base), **changes)
            assert err.value.errors == [line]

    @pytest.mark.parametrize("name, value", [("powers", [1.0, 2.0]), ("fees", [4.0, 5.0])])
    def test_an_unread_list_or_array_is_one_config_error(self, name, value):
        for given in (np.array(value), value):
            with pytest.raises(ConfigError) as err:
                ExperimentConfig(kind="fig1", **{name: given})
            assert err.value.errors == [_error_line("fig1", [name])]
        # item by item, the default
        ExperimentConfig(kind="fig1", powers=np.array(DEFAULTS["powers"]))
        ExperimentConfig(kind="fig1", powers=list(DEFAULTS["powers"]))

    def test_simulate_reads_a_powers_array(self, tmp_path):
        written = []
        for i, powers in enumerate([(1.0, 2.0, 0.5), np.array([1.0, 2.0, 0.5])]):
            out = tmp_path / f"simulate{i}.csv"
            run_experiment(ExperimentConfig(kind="simulate", powers=powers, n_blocks=500,
                                            out=str(out)))
            written.append(out.read_bytes())
        assert written[0] == written[1]

    @pytest.mark.parametrize("kind", KINDS)
    def test_all_at_once_is_one_line(self, kind, tmp_path, capsys):
        config = tmp_path / "exp.cfg"
        config.write_text("".join(f"{name} = {raw_value(name)}\n" for name in _undeclared(kind)))
        out = tmp_path / "report.csv"
        assert main([*kind_argv(kind), "--config", str(config), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", f"config error: {_error_line(kind, _undeclared(kind))}\n")
        assert not out.exists()

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_at_its_default_is_accepted(self, kind, tmp_path, capsys):
        defaults = {name: DEFAULTS[name] for name in _undeclared(kind)
                    if DEFAULTS[name] is not None}
        argv = kind_argv(kind)
        for name, default in defaults.items():
            text = ",".join(map(repr, default)) if isinstance(default, tuple) else str(default)
            argv += ["--" + name.replace("_", "-"), text]
        out = tmp_path / "report.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert out.exists()
        # and by construction
        params = GameParams(**{k: v for k, v in defaults.items() if k in PARAM_NAMES})
        base = {"fees": (4.0, 8.0)} if kind == "solve-disc" else {}
        ExperimentConfig(kind=kind, params=params, **base,
                         **{k: v for k, v in defaults.items() if k not in PARAM_NAMES})


def _words(node):
    """The items of a list literal; an item that is not a literal reads None."""
    return [elt.value if isinstance(elt, ast.Constant) else None for elt in node.elts]


def _command_lines(source):
    """Every command line a script spells out: a list literal that starts with a command,
    or a named one plus a list literal (``base + ["--flag", value]``)."""
    tree = ast.parse(source)
    named = {node.targets[0].id: _words(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and isinstance(node.value, ast.List)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.List) and node.elts and _words(node)[0] in cli.COMMANDS:
            lines.append(_words(node))
        elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
              and isinstance(node.left, ast.Name) and isinstance(node.right, ast.List)
              and named.get(node.left.id, [None])[0] in cli.COMMANDS):
            lines.append(named[node.left.id] + _words(node.right))
    return lines


def _ci_scripts():
    """The Python heredocs of the CI workflow."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    return [textwrap.dedent(block) for block in re.findall(r"<<'PY'\n(.*?)\n *PY\n", text, re.S)]


BENCH_LINES = _command_lines((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
CI_LINES = [line for script in _ci_scripts() for line in _command_lines(script)]


@pytest.mark.parametrize("line", BENCH_LINES + CI_LINES, ids=lambda line: " ".join(
    str(word) for word in line[:2]))
def test_bench_and_ci_flags_are_declared(line):
    kind = f"fig{line[1]}" if line[0] == "fig" else line[0]
    # --config names a file of settings, not a setting
    flags = [word[2:].replace("-", "_") for word in line
             if isinstance(word, str) and word.startswith("--") and word != "--config"]
    assert set(flags) <= KIND_TABLE[kind].reads | ALWAYS_READ, (kind, flags)


def test_bench_and_ci_lines_found():
    # the warm-up runs every kind; the CI times fig1, fig2, fig6, simulate and solve-disc at
    # scale
    kinds = {f"fig{line[1]}" if line[0] == "fig" else line[0] for line in BENCH_LINES}
    assert kinds == set(KINDS)
    assert ["solve-uniform", "--edge-power", None, "--unit-cost", None, "--fee-search",
            "hillclimb"] in BENCH_LINES
    assert {tuple(line[:2]) for line in CI_LINES} == {("fig", "1"), ("fig", "2"), ("fig", "6"),
                                                       ("simulate", "--powers"),
                                                       ("simulate", "--n-blocks"),
                                                       ("solve-disc", "--config")}


def test_readme_settings_column_is_the_declaration():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("### Experiment kinds and their columns", 1)[1].split("\n\n", 2)[1]
    header, _, *rows = table.splitlines()
    assert header.split("|")[-2].strip() == "settings read"
    declared = {}
    for row in rows:
        cells = row.split("|")
        declared[cells[1].strip()] = cells[-2].strip().strip("`").split(", ")
    assert list(declared) == list(KINDS)
    for kind, names in declared.items():
        assert names == [name for name in SETTINGS if name in KIND_TABLE[kind].reads], kind


def test_readme_defaults_table_is_declared():
    # every GameParams field has a row, and every backticked name is a setting
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Default parameters")[1]
    table = next(block for block in section.split("\n\n") if block.startswith("| name |"))
    names = [name for row in table.splitlines()[2:]
             for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert set(names) <= set(SETTINGS)
    assert {f.name for f in dataclasses.fields(GameParams)} <= set(names)


def test_readme_columns_column_is_the_header(tmp_path):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    table = text.split("### Experiment kinds and their columns", 1)[1].split("\n\n", 2)[1]
    header, _, *rows = table.splitlines()
    assert header.split("|")[3].strip() == "columns"
    documented = {row.split("|")[1].strip(): row.split("|")[3].strip() for row in rows}
    assert list(documented) == list(KINDS)
    for kind, cell in documented.items():
        out = tmp_path / f"{kind}.csv"
        steps = ["--grid-steps", "2"] if KIND_TABLE[kind].grid else []
        assert main([*kind_argv(kind), *steps, "--out", str(out)]) == 0
        written = out.read_text(encoding="utf-8").splitlines()[0]
        assert cell == f"`{written.replace(',', ', ')}`", kind
