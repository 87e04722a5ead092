"""Per-layer timing and counting wrappers installed around edgeminer's functions.

The package's modules bind each other's functions with ``from .x import y``,
so a wrapper replaces the function under every name that refers to it, in
every ``edgeminer`` module.  Spans nest: a layer's self time is its span's
duration minus the spans opened inside it.  Hot helpers get a count-only
wrapper, which keeps the tracing overhead small.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# (module, function, layer) pairs that get a timed span
SPANS = (
    ("cli", "main", "cli"),
    ("cli", "build_parser", "cli"),
    ("experiments", "build_config", "experiments"),
    ("experiments", "run_experiment", "experiments"),
    ("experiments", "render_report", "experiments"),
    ("uniform", "optimal_fee_uniform", "uniform"),
    ("discriminatory", "nash_equilibrium_closed_form", "discriminatory"),
    ("discriminatory", "leader_delta_utility_discriminatory", "discriminatory"),
    ("discriminatory", "optimal_fees_discriminatory", "discriminatory"),
    ("search", "golden_section_max", "search"),
    ("search", "multiplicative_fee_search", "search"),
    ("search", "best_response_dynamics", "search"),
    ("simulate", "simulate_mining", "simulate"),
    ("simulate", "emg_vs_mdg_sweep", "simulate"),
)

# functions called thousands of times per operation: counted, not timed
COUNTS = (
    ("uniform", "leader_delta_utility_uniform"),
)


class Tracer:
    """Aggregates spans and counts in memory; one instance per traced run."""

    def __init__(self):
        self.stack = []                      # one [child_seconds] cell per open span
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.errors = Counter()
        self.counts = Counter()
        self.cells = defaultdict(lambda: [0])  # hot counters, cheaper than a Counter
        self.op_kind = ""
        self.by_kind = defaultdict(Counter)  # op kind -> span name -> calls
        self.kind_layer_self = defaultdict(lambda: defaultdict(float))

    def span(self, layer, name, fn, on_result=None):
        open_cell = self.cells[name + "@open"]

        def traced(*args, **kwargs):
            cell = [0.0]
            self.stack.append(cell)
            open_cell[0] += 1
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(name, type(exc).__name__)] += 1
                raise
            finally:
                duration = time.perf_counter() - start
                self.stack.pop()
                open_cell[0] -= 1
                if self.stack:
                    self.stack[-1][0] += duration
                own = duration - cell[0]
                self.calls[name] += 1
                self.inclusive[name] += duration
                self.self_time[name] += own
                self.layer_self[layer] += own
                self.by_kind[self.op_kind][name] += 1
                self.kind_layer_self[self.op_kind][layer] += own
            if on_result is not None:
                on_result(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        """Count-only wrapper; also counts the calls made inside a uniform stage-I solve."""
        total, inside = self.cells[name], self.cells[name + "@stage1"]
        stage1_open = self.cells["uniform.optimal_fee_uniform@open"]

        def counted(*args, **kwargs):
            total[0] += 1
            if stage1_open[0]:
                inside[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Wrap every listed function under all of its names in the package."""
        import edgeminer
        from edgeminer import core

        modules = [m for key, m in sys.modules.items()
                   if key == "edgeminer" or key.startswith("edgeminer.")]
        hooks = {
            "experiments.run_experiment": self._on_run_experiment,
            "experiments.render_report": self._on_render,
            "search.multiplicative_fee_search": self._on_hillclimb,
            "simulate.simulate_mining": self._on_simulate,
            "search.golden_section_max": self._on_golden,
        }
        for module_name, func_name, layer in SPANS:
            original = getattr(getattr(edgeminer, module_name), func_name)
            name = f"{module_name}.{func_name}"
            if name == "cli.build_parser":
                wrapped = self.span(layer, name, self._parser_factory(original))
            else:
                wrapped = self.span(layer, name, original, hooks.get(name))
            _replace_everywhere(modules, original, wrapped)
        for module_name, func_name in COUNTS:
            original = getattr(getattr(edgeminer, module_name), func_name)
            _replace_everywhere(modules, original,
                                self.counter(f"{module_name}.{func_name}", original))
        discount, calls = core.GameParams.delay_discount, self.cells["core.delay_discount"]

        def counted_discount(params, tx_count):
            calls[0] += 1
            return discount(params, tx_count)

        core.GameParams.delay_discount = counted_discount

    def _parser_factory(self, build_parser):
        def build():
            parser = build_parser()
            parser.parse_args = self.span("cli", "cli.parse_args", parser.parse_args)
            return parser
        return build

    def _on_run_experiment(self, args, out):
        self.counts["experiments.rows"] += len(out[0])

    def _on_render(self, args, out):
        self.counts["experiments.report_bytes"] += len(out.encode("utf-8"))

    def _on_hillclimb(self, args, out):
        self.counts["search.hillclimb_evals"] += len(out[1].steps)

    def _on_golden(self, args, out):
        if self.cells["discriminatory.optimal_fees_discriminatory@open"][0]:
            self.counts["search.golden_section_max@disc_stage1"] += 1

    def _on_simulate(self, args, out):
        self.counts["simulate.blocks"] += int(out.n_blocks)

    def metrics(self, rounds: int) -> dict:
        """Per-layer metrics, each per round (one pass through the op list)."""
        r = float(rounds)
        inc, own, calls, counts = self.inclusive, self.self_time, self.calls, self.counts
        cli_calls = calls["cli.main"]
        config_s = (inc["cli.build_parser"] + inc["cli.parse_args"]
                    + inc["experiments.build_config"])
        stage1_calls = calls["uniform.optimal_fee_uniform"]
        stage1_evals = self.cells["uniform.leader_delta_utility_uniform@stage1"][0]
        # near-equal-fee solves only; the dispersed case stops at one Nash call
        solve_disc_ops = sum(n["cli.main"] for kind, n in self.by_kind.items()
                             if kind.startswith("solve-disc-M"))
        solve_disc_nash = sum(n["discriminatory.nash_equilibrium_closed_form"]
                              for kind, n in self.by_kind.items()
                              if kind.startswith("solve-disc-M"))
        sim_s = inc["simulate.simulate_mining"]
        values = {
            "cli.config_ms": (1e3 * config_s / cli_calls, "ms") if cli_calls else (0.0, "ms"),
            "cli.self_s": (self.layer_self["cli"] / r, "s"),
            "experiments.self_s": (self.layer_self["experiments"] / r, "s"),
            "experiments.render_s": (inc["experiments.render_report"] / r, "s"),
            "experiments.report_bytes": (counts["experiments.report_bytes"] / r, "bytes"),
            "experiments.rows": (counts["experiments.rows"] / r, "count"),
            "uniform.stage1_calls": (stage1_calls / r, "count"),
            "uniform.stage1_s": (inc["uniform.optimal_fee_uniform"] / r, "s"),
            "uniform.objective_evals": (stage1_evals / r, "count"),
            "uniform.evals_per_stage1": (stage1_evals / stage1_calls if stage1_calls else 0.0,
                                         "count"),
            "uniform.self_s": (self.layer_self["uniform"] / r, "s"),
            "search.golden_calls": (calls["search.golden_section_max"] / r, "count"),
            "search.golden_s": (inc["search.golden_section_max"] / r, "s"),
            "search.hillclimb_evals": (counts["search.hillclimb_evals"] / r, "count"),
            "search.brd_calls": (calls["search.best_response_dynamics"] / r, "count"),
            "search.brd_s": (inc["search.best_response_dynamics"] / r, "s"),
            "search.brd_failed": (self._errors("search.best_response_dynamics") / r, "count"),
            "search.self_s": (self.layer_self["search"] / r, "s"),
            "discriminatory.nash_calls": (
                calls["discriminatory.nash_equilibrium_closed_form"] / r, "count"),
            "discriminatory.nash_s": (inc["discriminatory.nash_equilibrium_closed_form"] / r, "s"),
            "discriminatory.nash_per_solve": (
                solve_disc_nash / solve_disc_ops if solve_disc_ops else 0.0, "count"),
            "discriminatory.leader_delta_s": (
                inc["discriminatory.leader_delta_utility_discriminatory"] / r, "s"),
            "discriminatory.stage1_s": (inc["discriminatory.optimal_fees_discriminatory"] / r, "s"),
            "discriminatory.stage1_golden_calls": (
                counts["search.golden_section_max@disc_stage1"] / r, "count"),
            "discriminatory.infeasible": (
                self._errors("discriminatory.nash_equilibrium_closed_form") / r, "count"),
            "discriminatory.self_s": (self.layer_self["discriminatory"] / r, "s"),
            "simulate.s": (sim_s / r, "s"),
            "simulate.blocks": (counts["simulate.blocks"] / r, "count"),
            "simulate.blocks_per_s": (counts["simulate.blocks"] / sim_s if sim_s else 0.0,
                                      "blocks/s"),
            "simulate.mdg_sweep_s": (own["simulate.emg_vs_mdg_sweep"] / r, "s"),
            "simulate.self_s": (self.layer_self["simulate"] / r, "s"),
            "core.discount_calls": (self.cells["core.delay_discount"][0] / r, "count"),
        }
        return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    def _errors(self, name):
        return sum(n for (span, _), n in self.errors.items() if span == name)

    def report(self, rounds: int) -> dict:
        """Everything the run aggregated, for the JSON report file."""
        return {
            "rounds": rounds,
            "spans": {name: {"calls": self.calls[name],
                             "inclusive_s": self.inclusive[name],
                             "self_s": self.self_time[name]}
                      for name in sorted(self.calls)},
            "layer_self_s": dict(sorted(self.layer_self.items())),
            "errors": {f"{span}:{exc}": n for (span, exc), n in sorted(self.errors.items())},
            "counts": dict(sorted({**self.counts, **{k: v[0] for k, v in self.cells.items()
                                                     if not k.endswith("@open")}}.items())),
            "layer_self_s_by_op_kind": {kind: dict(sorted(layers.items()))
                                        for kind, layers in sorted(self.kind_layer_self.items())},
        }


def _replace_everywhere(modules, original, wrapped):
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)
