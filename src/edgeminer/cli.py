"""Command-line front end for the solvers, sweeps and the mining simulator.

Exit codes: 0 success, 2 configuration error (an arithmetic overflow too),
3 no result: every instance infeasible or the fee search out of budget.
Flags override values from an optional --config file.
Each setting (see experiments.SETTINGS) is a --kebab-case flag whose value
goes through the same parser as its config-file key.
"""

from __future__ import annotations

import argparse
import sys

from .core import ConfigError, ConvergenceError
from .experiments import KINDS, SETTINGS, build_config, parse_config_text, run_experiment

# a kind is a command, or "fig" and a figure number
COMMANDS = tuple(dict.fromkeys(kind.rstrip("0123456789") for kind in KINDS))
FIGURES = tuple(int(kind[3:]) for kind in KINDS if kind.startswith("fig"))


class _Parser(argparse.ArgumentParser):
    def parse_args(self, args=None, namespace=None):
        # options may sit between the command and the figure number: fig --seed 3 2
        return self.parse_intermixed_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="edgeminer",
        description="Stackelberg fee games between an edge server and recruited miners",
        epilog="Flag values are parsed like config-file values; lists are comma-separated.")
    parser.add_argument("command", choices=COMMANDS,
                        help="fig N emits the data series behind figure N; solve-uniform "
                             "and solve-disc solve one instance; simulate runs the seeded "
                             "mining simulation; compare-mdg compares the edge scheme "
                             "with the delayed baseline")
    parser.add_argument("number", nargs="?", type=int, choices=FIGURES, metavar="N",
                        help="figure number 1..6, for fig only")
    parser.add_argument("--config", metavar="FILE", help="flat key = value config file")
    for key in SETTINGS:
        if key != "kind":
            parser.add_argument("--" + key.replace("_", "-"), dest=key)
    return parser


def _settings_from_args(args: argparse.Namespace) -> dict:
    data, errors = {}, []
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
        try:
            data.update(parse_config_text(text))
        except ConfigError as exc:
            errors.extend(exc.errors)
    for key, parse in SETTINGS.items():
        text = getattr(args, key, None)
        if text is None:
            continue
        try:
            data[key] = parse(text)
        except ValueError as exc:
            errors.append(f"flag --{key.replace('_', '-')}: {exc}")
    if errors:
        raise ConfigError(errors)
    data["kind"] = f"fig{args.number}" if args.command == "fig" else args.command
    return data


_parser = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        # one parser per process; parse_intermixed_args sets this usage (the
        # generated one without "usage: ") on every call, so setting it once
        # leaves --help and error texts as they are
        _parser = build_parser()
        _parser.usage = _parser.format_usage()[7:]
    parser = _parser
    args = parser.parse_args(argv)
    if (args.command == "fig") != (args.number is not None):
        parser.error("a figure number N goes with 'fig' and only with 'fig'")
    try:
        cfg = build_config(_settings_from_args(args))
        table, path, n_failed = run_experiment(cfg)
    except ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return 2
    except (OSError, ValueError, OverflowError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"no result: {exc}", file=sys.stderr)
        return 3
    print(f"{cfg.kind}: wrote {len(table)} rows to {path}"
          + (f" ({n_failed} infeasible)" if n_failed else ""))
    if table and n_failed == len(table):
        print("all instances infeasible", file=sys.stderr)
        return 3
    return 0


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
