"""The public names: every ``__all__`` entry and every name the benchmark looks up exist.

The benchmark's scripts under ``bench/`` are read as text (``ast``), never
imported, so this test writes nothing there.
"""

import ast
import functools
import importlib
import pkgutil
from pathlib import Path

import pytest

import edgeminer

BENCH = Path(__file__).resolve().parent.parent / "bench"
MODULES = sorted(info.name for info in pkgutil.iter_modules(edgeminer.__path__))
for _module in MODULES:  # each submodule becomes an attribute of the package
    importlib.import_module(f"edgeminer.{_module}")


def _resolve(dotted):
    """The object a dotted name under edgeminer refers to; AttributeError if missing."""
    return functools.reduce(getattr, dotted.split(".")[1:], edgeminer)


def _traced_names():
    """``module.function`` of every entry of bench/tracing.py's SPANS and COUNTS."""
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    tables = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in ("SPANS", "COUNTS")}
    assert set(tables) == {"SPANS", "COUNTS"}
    return sorted({f"{entry[0]}.{entry[1]}" for table in tables.values() for entry in table})


def _bench_references(name):
    """Every dotted edgeminer name a bench script imports or reaches by attribute."""
    tree = ast.parse((BENCH / name).read_text(encoding="utf-8"))
    roots = {}  # local name -> the edgeminer name it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "edgeminer":
                    roots[alias.asname or "edgeminer"] = (alias.name if alias.asname
                                                          else "edgeminer")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "edgeminer":
            for alias in node.names:
                roots[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    refs = set(roots.values())
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in roots:
            refs.add(".".join([roots[node.id], *reversed(chain)]))
    return refs


BENCH_REFERENCES = sorted(set().union(*(_bench_references(name) for name in
                                        ("workloads.py", "reference.py", "tracing.py"))))


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = getattr(edgeminer, module)
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"edgeminer.{module}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("name", _traced_names())
def test_traced_function_exists(name):
    assert callable(_resolve(f"edgeminer.{name}"))


@pytest.mark.parametrize("name", BENCH_REFERENCES)
def test_bench_reference_resolves(name):
    _resolve(name)


def test_bench_references_found():
    # the scan sees the calls the workloads make, so an empty list fails here
    assert {"edgeminer.cli.main", "edgeminer.discriminatory.optimal_fees_discriminatory",
            "edgeminer.optimal_fee_uniform", "edgeminer.core.GameParams.delay_discount"
            } <= set(BENCH_REFERENCES)
