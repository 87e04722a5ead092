"""Experiment harness: flat-text configs, sweep builders, CSV/JSON reports.

Output is data, not images: every figure-style experiment emits the series
behind one plot.  All builders are deterministic for a fixed config and
seed, and every row is recomputable through the matching single-instance
subcommand.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace
from json.encoder import encode_basestring_ascii

import numpy as np

from .core import (
    OBJECTIVES,
    ConfigError,
    GameParams,
    PowerProfile,
    device_discount,
    is_integer,
    leader_reward_scale,
    mining_success_prob,
    net_profit,
)
from .search import SearchConfig, multiplicative_fee_search
from .discriminatory import (
    FEE_BASES,
    DiscriminatoryGame,
    leader_deltas,
    miner_utilities,
    nash_equilibrium_closed_form,
    uniqueness_certificate_discriminatory,
)
from .simulate import (
    SimConfig,
    emg_vs_mdg_sweep,
    first_miner_wins,
    simulate_mining,
)
from .uniform import (
    UniformGame,
    aggregate_miner_utility,
    best_response_uniform,
    leader_delta_utility_uniform,
    leader_profits_uniform,
    optimal_fee_uniform,
    optimal_fees_uniform,
    reject_nonfinite_profits,
    stage1_setup,
    uniqueness_certificate_uniform,
)

__all__ = [
    "ExperimentConfig",
    "FEE_SEARCHES",
    "FORMATS",
    "KINDS",
    "SETTINGS",
    "Table",
    "matched_heterogeneous_fees",
    "parse_config_text",
    "render_report",
    "run_experiment",
    "validate_config",
]

DEFAULT_GRIDS = {
    "fig1": (1.0, 100.0, 100),
    "fig2": (1.0, 50.0, 50),
    "fig3": (0.0, 100.0, 101),
    "fig4": (0.0, 100.0, 101),
    "fig5": (10.0, 200.0, 20),
    "fig6": (10.0, 200.0, 20),
    "compare-mdg": (10.0, 200.0, 20),
}

FEE_SEARCHES = ("golden", "hillclimb")
FORMATS = ("csv", "json")


def _field_type(f) -> str:
    """A dataclass field's annotation without "| None": float, int, str or tuple."""
    return f.type.split(" |")[0]


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs: its kind, the game constants, every setting.

    The fields are the only declaration of the settings: each field but
    ``params`` is a config-file key, and the CLI turns each field but
    ``kind`` and ``params``, plus each GameParams field, into a
    ``--kebab-case`` flag (see SETTINGS).  Construction, including through
    ``dataclasses.replace``, validates every field and raises one
    ConfigError that lists all violations.
    """

    kind: str = ""
    params: GameParams = field(default_factory=GameParams)
    edge_power: float = 50.0
    device_power: float = 50.0
    unit_cost: float = 0.005
    fee: float | None = None
    fees: tuple | None = None
    n_miners: int = 5
    objective: str | None = None
    fee_basis: str = "lump"
    fee_search: str = "golden"
    grid_start: float | None = None
    grid_stop: float | None = None
    grid_steps: int | None = None
    edge_fraction: float = 0.5
    edge_fractions: tuple = (0.1, 0.5, 0.9)
    mdg_delay_mult: float = 1.5
    seed: int = SimConfig.seed
    n_seeds: int = 10
    n_blocks: int = SimConfig.n_blocks
    powers: tuple = (50.0, 50.0)
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        # a non-finite float or a non-integer count (a bool among them) is
        # reported once, as such: its range checks are skipped
        nonfinite, nonint = [], []
        for f in fields(self):
            kind, value = _field_type(f), getattr(self, f.name)
            if kind in ("float", "tuple") and value is not None and not all(
                    map(math.isfinite, value if kind == "tuple" else (value,))):
                nonfinite.append(f.name)
            if kind == "int" and value is not None and not is_integer(value):
                nonint.append(f.name)

        def at_least(name, low):
            return name in nonint or getattr(self, name) >= low

        checks = (
            ("kind", self.kind in KINDS, f"kind must be one of {KINDS}, got {self.kind!r}"),
            ("unit_cost", self.unit_cost > 0, f"unit_cost must be > 0, got {self.unit_cost!r}"),
            ("n_miners", at_least("n_miners", 2), f"n_miners must be >= 2, got {self.n_miners!r}"),
            ("n_blocks", at_least("n_blocks", 1), f"n_blocks must be >= 1, got {self.n_blocks!r}"),
            ("n_seeds", at_least("n_seeds", 1), f"n_seeds must be >= 1, got {self.n_seeds!r}"),
            ("seed", at_least("seed", 0), f"seed must be >= 0, got {self.seed!r}"),
            ("fee", self.fee is None or self.fee > 0, f"fee must be > 0, got {self.fee!r}"),
            ("fees", self.fees is None or all(f > 0 for f in self.fees), "fees must all be > 0"),
            ("edge_fraction", 0 < self.edge_fraction < 1,
             f"edge_fraction must lie in (0, 1), got {self.edge_fraction!r}"),
            ("edge_fractions", all(0 < f < 1 for f in self.edge_fractions),
             "edge_fractions must all lie in (0, 1)"),
            ("edge_fractions", len(self.edge_fractions) > 0, "edge_fractions must not be empty"),
            ("mdg_delay_mult", self.mdg_delay_mult >= 1,
             f"mdg_delay_mult must be >= 1, got {self.mdg_delay_mult!r}"),
            ("objective", self.objective is None or self.objective in OBJECTIVES,
             f"objective must be one of {OBJECTIVES}, got {self.objective!r}"),
            # stage I maximizes the full profit: simplified rises with the fee
            ("objective", self.objective != "simplified" or self.kind not in (
                "fig2", "fig6", "compare-mdg", "solve-uniform"),
             "objective 'simplified' applies to fig3 and fig4 only; "
             f"stage I of {self.kind} maximizes the full profit"),
            ("fee_basis", self.fee_basis in FEE_BASES,
             f"fee_basis must be one of {FEE_BASES}, got {self.fee_basis!r}"),
            ("fee_search", self.fee_search in FEE_SEARCHES,
             f"fee_search must be one of {FEE_SEARCHES}, got {self.fee_search!r}"),
            ("format", self.format in FORMATS,
             f"format must be one of {FORMATS}, got {self.format!r}"),
            ("edge_power", self.edge_power > 0,
             f"edge_power must be > 0, got {self.edge_power!r}"),
            ("device_power", self.device_power > 0,
             f"device_power must be > 0, got {self.device_power!r}"),
        )
        errors = [message for name, ok, message in checks
                  if not ok and name not in nonfinite]
        errors += [f"{name} must be finite, got {getattr(self, name)!r}" for name in nonfinite]
        errors += [f"{name} must be an integer, got {getattr(self, name)!r}" for name in nonint]

        start, stop, steps = self.resolved_grid()
        grid_given = any(v is not None for v in (self.grid_start, self.grid_stop,
                                                 self.grid_steps))
        if self.kind in DEFAULT_GRIDS or grid_given:
            if start is None or stop is None or steps is None:
                errors.append("grid_start, grid_stop and grid_steps must be given together "
                              f"for kind {self.kind!r} (no default grid)")
            else:
                if not start < stop and not {"grid_start", "grid_stop"} & set(nonfinite):
                    errors.append(f"grid_start must be < grid_stop, got [{start!r}, {stop!r}]")
                if "grid_steps" not in nonint and steps < 2:
                    errors.append(f"grid_steps must be >= 2, got {steps!r}")
        if self.kind == "solve-disc" and self.fees is None:
            errors.append("solve-disc requires a 'fees' list")
        if self.kind == "simulate" and "powers" not in nonfinite:
            if len(self.powers) < 1 or any(p < 0 for p in self.powers) or sum(self.powers) <= 0:
                errors.append("powers must be nonnegative with a positive total")
        if errors:
            raise ConfigError(errors)

    def resolved_grid(self):
        """Grid spec with missing pieces filled from the kind's default."""
        default = DEFAULT_GRIDS.get(self.kind, (None, None, None))
        start = self.grid_start if self.grid_start is not None else default[0]
        stop = self.grid_stop if self.grid_stop is not None else default[1]
        steps = self.grid_steps if self.grid_steps is not None else default[2]
        return start, stop, steps

    def grid(self) -> np.ndarray:
        start, stop, steps = self.resolved_grid()
        return np.linspace(start, stop, steps)

    def resolved_objective(self) -> str:
        """The objective of fig3/fig4's money columns, simplified unless set."""
        return self.objective or ("simplified" if self.kind in ("fig3", "fig4") else "full")


def _float_list(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(p) for p in parts)


# a value's parser follows from its field's annotation: "float | None" -> float
_PARSERS = {"float": float, "int": int, "str": str, "tuple": _float_list}

# every config key with its value parser; each is a field of one of the two dataclasses
SETTINGS = {f.name: _PARSERS[_field_type(f)]
            for cls in (GameParams, ExperimentConfig) for f in fields(cls)
            if f.name != "params"}
_PARAM_NAMES = frozenset(f.name for f in fields(GameParams))


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` lines into a settings dict."""
    errors = []
    data = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SETTINGS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in data:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        try:
            data[key] = SETTINGS[key](value)
        except ValueError as exc:
            errors.append(f"line {lineno}: key {key!r}: {exc}")
    if errors:
        raise ConfigError(errors)
    return data


def build_config(data: dict) -> ExperimentConfig:
    """Assemble GameParams and ExperimentConfig from parsed settings.

    Raises one ConfigError that lists every invalid value of both.
    """
    unknown = set(data) - set(SETTINGS)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    errors = []
    try:
        params = GameParams(**{k: v for k, v in data.items() if k in _PARAM_NAMES})
    except ConfigError as exc:
        errors.extend(exc.errors)
        params = GameParams()
    try:
        cfg = ExperimentConfig(params=params, **{k: v for k, v in data.items()
                                                 if k not in _PARAM_NAMES})
    except ConfigError as exc:
        errors.extend(exc.errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def validate_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat config file into an ExperimentConfig."""
    return build_config(parse_config_text(text))


def _matched_base(device_power, n_miners: int, unit_cost: float, params: GameParams):
    """matched_heterogeneous_fees' base level, elementwise in device_power, and multipliers."""
    spread = min(0.2, 0.5 / n_miners)
    multipliers = np.linspace(1.0 - spread, 1.0 + spread, n_miners)
    discount = device_discount(params)
    inv_sum = math.fsum((1.0 / multipliers).tolist())
    return device_power * unit_cost * inv_sum / ((n_miners - 1) * discount), multipliers


def _matched_bill(device_power, n_miners: int, unit_cost: float, params: GameParams):
    """The sum of matched_heterogeneous_fees, elementwise in device_power."""
    base, multipliers = _matched_base(device_power, n_miners, unit_cost, params)
    return base * math.fsum(multipliers.tolist())


def matched_heterogeneous_fees(device_power: float, n_miners: int, unit_cost: float,
                               params: GameParams) -> np.ndarray:
    """Per-miner fees whose equilibrium total equals device_power.

    Fees follow an evenly spaced multiplier pattern around a base level; the
    spread, min(0.2, 0.5 / n_miners), is below 1 / (2 n_miners - 3), so
    every miner stays active and the interior total (M-1)/sum(c) applies.
    """
    if device_power <= 0:
        raise ValueError("device_power must be > 0")
    base, multipliers = _matched_base(device_power, n_miners, unit_cost, params)
    return base * multipliers


def _rows_fig1(cfg: ExperimentConfig):
    """Edge-miner mining success probability against its computing power."""
    params = cfg.params
    grid = PowerProfile(cfg.grid()).powers  # a negative edge power is rejected before dividing
    with np.errstate(over="raise"):  # a total power past the float range is not a share of 0
        share = grid / (grid + cfg.device_power)
    model = mining_success_prob(share, params)
    sim = SimConfig(n_blocks=cfg.n_blocks, seed=cfg.seed, params=params)
    # same seeds for every grid point: with common draws the empirical
    # frequency is monotone in the win probability by construction
    wins = first_miner_wins(model, sim, cfg.n_seeds)
    return {
        "edge_power": grid.tolist(),
        "device_power": [cfg.device_power] * grid.size,
        "edge_share": share.tolist(),
        "success_prob_model": model.tolist(),
        "success_prob_empirical": (wins / cfg.n_blocks).mean(axis=1).tolist(),
        "status": ["ok"] * grid.size,
    }


def _rows_fig2(cfg: ExperimentConfig):
    """Stage-I optimal fee against the fixed block reward."""
    rewards = cfg.grid().tolist()
    points = [replace(cfg.params, fixed_reward=r) for r in rewards]
    fees, profits = optimal_fees_uniform(np.full(len(points), cfg.edge_power), cfg.unit_cost,
                                         points)
    return {"fixed_reward": rewards, "optimal_fee": fees.tolist(),
            "leader_profit": profits.tolist(), "status": ["ok"] * len(rewards)}


def _rows_power_sweep(cfg: ExperimentConfig):
    """Leader-profit curves: fig3 sweeps the device power D, fig4 the edge power X.

    Same fee: u(X+D)^2/(X d), whose pool best response is D.  Different
    fees: matched_heterogeneous_fees, whose Nash total is D, so the leader
    earns a*D/(X+D) for their sum.  Rows with X <= 0, D < 0 or a bill that
    overflows are infeasible; any other fee_same must be finite and > 0.
    """
    objective = cfg.resolved_objective()
    fig3 = cfg.kind == "fig3"
    grid = cfg.grid()
    fixed = np.full(grid.size, cfg.edge_power if fig3 else cfg.device_power)
    edge, device = (fixed, grid) if fig3 else (grid, fixed)
    discount, a = device_discount(cfg.params), leader_reward_scale(cfg.params)
    # overflow gives inf, rejected below; infeasible rows are masked to nan
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        fee_same = cfg.unit_cost * (edge + device) ** 2 / (edge * discount)
        bad = (edge > 0) & (device >= 0) & ~(np.isfinite(fee_same) & (fee_same > 0))
        if bad.any():
            raise ValueError(f"fee must be finite and > 0, got {float(fee_same[bad][0])!r}")
        profit_same = leader_profits_uniform(fee_same, edge, cfg.unit_cost, discount, a,
                                             objective)
        bill = _matched_bill(device, cfg.n_miners, cfg.unit_cost, cfg.params)
        reward = a * device / (edge + device)
    status = np.select([edge <= 0, device < 0, ~np.isfinite(bill)],
                       ["infeasible: edge power must be > 0",
                        "infeasible: device_power must be > 0",
                        "infeasible: all fees must be finite and > 0"], "ok")
    names = ("device_power", "edge_power") if fig3 else ("edge_power", "device_power")
    money = {"fee_same": fee_same, "profit_same_fee": profit_same, "fee_bill_diff": bill,
             "profit_diff_fee": reward if objective == "simplified" else reward - bill}
    return {names[0]: grid.tolist(), names[1]: fixed.tolist(),
            **{name: np.where(status == "ok", column, math.nan).tolist()
               for name, column in money.items()},
            "status": status.tolist()}


def _rows_fig5(cfg: ExperimentConfig):
    """Edge scheme vs delayed baseline; heterogeneous per-miner fees.

    The edge scheme pays the sum of matched_heterogeneous_fees, the baseline
    the same rate on the whole total: that sum / (1 - edge_fraction).
    """
    grid = cfg.grid()
    fraction = np.repeat(cfg.edge_fractions, grid.size)
    total = np.tile(grid, len(cfg.edge_fractions))
    edge = fraction * total
    device = total - edge
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bill = _matched_bill(device, cfg.n_miners, cfg.unit_cost, cfg.params)
        bill_mdg = bill / (1.0 - fraction)
        profit_emg = net_profit(cfg.params, bill)
        profit_mdg = net_profit(cfg.params, bill_mdg, cfg.mdg_delay_mult)
        money = {"fee_bill_emg": bill, "profit_emg": profit_emg, "fee_bill_mdg": bill_mdg,
                 "profit_mdg": profit_mdg, "profit_gap": profit_emg - profit_mdg}
    status = np.select([device <= 0, ~np.isfinite(bill_mdg)],
                       ["infeasible: device_power must be > 0",
                        "infeasible: fees must be finite and >= 0"], "ok")
    return {"edge_fraction": fraction.tolist(), "total_power": total.tolist(),
            "edge_power": edge.tolist(), "device_power": device.tolist(),
            **{name: np.where(status == "ok", column, math.nan).tolist()
               for name, column in money.items()},
            "status": status.tolist()}


def _rows_mdg(cfg: ExperimentConfig):
    """Edge scheme vs delayed baseline; one stage-I optimized uniform fee.

    fig6 sweeps every edge fraction and leads each row with it; compare-mdg
    is the one-fraction case without that column.
    """
    fig6 = cfg.kind == "fig6"
    fractions = cfg.edge_fractions if fig6 else (cfg.edge_fraction,)
    grid = cfg.grid()
    columns = {"edge_fraction": [f for f in fractions for _ in grid]} if fig6 else {}
    for fraction in fractions:
        sweep = emg_vs_mdg_sweep(grid, fraction, cfg.params, cfg.unit_cost, cfg.mdg_delay_mult)
        for name, values in sweep.items():
            columns.setdefault(name, []).extend(values)
    columns["status"] = ["ok"] * (len(fractions) * grid.size)
    return columns


def _optimize_fee(cfg: ExperimentConfig):
    """Stage I in closed form ("golden"), or hill-climbed over the same profit and bracket."""
    if cfg.fee_search == "golden":
        return optimal_fee_uniform(cfg.edge_power, cfg.unit_cost, cfg.params)
    discount, a, lo, hi = stage1_setup(cfg.params)

    def profit_fn(fee):
        if not lo <= fee <= hi:
            return -math.inf
        return float(leader_profits_uniform(fee, cfg.edge_power, cfg.unit_cost, discount, a,
                                            "full"))

    # below X*u/d (inf at d == 0) the pool stays out and the profit -fee falls with the fee
    threshold = cfg.edge_power * cfg.unit_cost / discount if discount > 0 else math.inf
    search = SearchConfig(min(max(SearchConfig.initial_fee, lo, threshold), hi))
    # overflow gives inf or nan, as Python floats do, and is rejected below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        best_fee, _ = multiplicative_fee_search(profit_fn, search)
        profit, at_floor = profit_fn(best_fee), profit_fn(lo)
    if at_floor > profit:
        best_fee, profit = lo, at_floor
    reject_nonfinite_profits([cfg.edge_power], [best_fee], [profit])
    return best_fee, profit


def _rows_solve_uniform(cfg: ExperimentConfig):
    params = cfg.params
    optimal_fee, optimal_profit = _optimize_fee(cfg)
    fee = cfg.fee if cfg.fee is not None else optimal_fee
    game = UniformGame(cfg.edge_power, fee, cfg.unit_cost, params)
    response = best_response_uniform(game)
    # an explicit fee can overflow the response, a large reward the simplified
    # profit; inf and nan are rejected
    with np.errstate(over="ignore", invalid="ignore"):
        values = {"best_response_power": response,
                  "follower_utility": aggregate_miner_utility(game, response),
                  "leader_profit_full": leader_delta_utility_uniform(game, "full")}
        if game.kappa > 0:
            values["leader_profit_simplified"] = leader_delta_utility_uniform(game, "simplified")
    for name, value in values.items():
        reject_nonfinite_profits([cfg.edge_power], [fee], [value], name)
    # the simplified profit divides by kappa; undefined at kappa == 0
    values.setdefault("leader_profit_simplified", math.nan)
    certificate = uniqueness_certificate_uniform(game)
    return {
        "edge_power": [cfg.edge_power],
        "fee": [fee],
        "unit_cost": [cfg.unit_cost],
        **{name: [value] for name, value in values.items()},
        "certified_unique": [certificate.below_quarter_bound],
        "below_quarter_bound": [certificate.below_quarter_bound],
        "below_positivity_bound": [certificate.below_positivity_bound],
        "optimal_fee": [optimal_fee],
        "optimal_profit": [optimal_profit],
        "status": ["ok"],
    }


def _rows_solve_disc(cfg: ExperimentConfig):
    game = DiscriminatoryGame(np.asarray(cfg.fees, dtype=float), cfg.unit_cost, cfg.params)
    # the per-miner functions, elementwise from this one solve; a miner that
    # stays out has power, share, utility and leader_delta_simplified 0
    allocation = nash_equilibrium_closed_form(game)
    return {
        "miner": list(range(game.n_miners)),
        "fee": game.fees.tolist(),
        "power": allocation.powers.tolist(),
        "share": allocation.shares().tolist(),
        "utility": miner_utilities(game, allocation).tolist(),
        "certified_unique_i": uniqueness_certificate_discriminatory(game).tolist(),
        "leader_delta_full": leader_deltas(game, allocation, "full", cfg.fee_basis).tolist(),
        "leader_delta_simplified": leader_deltas(game, allocation, "simplified").tolist(),
        "status": ["ok"] * game.n_miners,
    }


def _rows_simulate(cfg: ExperimentConfig):
    sim = SimConfig(n_blocks=cfg.n_blocks, seed=cfg.seed, params=cfg.params)
    outcome = simulate_mining(list(cfg.powers), sim)
    powers = np.asarray(cfg.powers, dtype=float)
    shares = powers / math.fsum(cfg.powers)
    # the last row is the orphaned rounds, which no miner won
    return {
        "miner": [*range(powers.size), -1],
        "power": [*powers.tolist(), math.nan],
        "share": [*shares.tolist(), math.nan],
        "win_prob_model": [*mining_success_prob(shares, cfg.params).tolist(),
                           1.0 - cfg.params.delay_discount(cfg.params.tx_per_block)],
        "wins": [*outcome.wins.tolist(), outcome.orphans],
        "frequency": [*outcome.frequencies.tolist(), outcome.orphans / outcome.n_blocks],
        "status": ["ok"] * (powers.size + 1),
    }


# one builder per experiment kind; KINDS is their names, in this order
_BUILDERS = {
    "fig1": _rows_fig1, "fig2": _rows_fig2, "fig3": _rows_power_sweep,
    "fig4": _rows_power_sweep, "fig5": _rows_fig5, "fig6": _rows_mdg,
    "solve-uniform": _rows_solve_uniform, "solve-disc": _rows_solve_disc,
    "simulate": _rows_simulate, "compare-mdg": _rows_mdg,
}
KINDS = tuple(_BUILDERS)


class Table(dict):
    """A report: column name -> list of cells, ``status`` last.

    Cells are plain bool, int, float or str.  ``len()`` counts the rows,
    not the columns.
    """

    def __len__(self):
        return len(self["status"])


# a cell's text follows its Python type; floats round-trip
_CSV_CELL = {bool: {True: "true", False: "false"}.__getitem__, int: int.__repr__,
             float: float.__repr__, str: str}
_JSON_CELL = {**_CSV_CELL, str: encode_basestring_ascii}
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
# csv.writer's QUOTE_MINIMAL with lineterminator "\n": a cell holding the
# delimiter, the quote character or the line terminator is quoted
_CSV_SPECIAL = re.compile('[,"\n]')


def _csv_quote(texts):
    if not _CSV_SPECIAL.search("".join(texts)):
        return texts
    return ['"' + t.replace('"', '""') + '"' if _CSV_SPECIAL.search(t) else t for t in texts]


def _column_text(cells, cell_text):
    """A column's cell texts: in one pass when its cells share a type, else cell by cell."""
    types = set(map(type, cells))
    if len(types) == 1:
        return list(map(cell_text[types.pop()], cells))
    return [cell_text[type(cell)](cell) for cell in cells]


def render_report(columns, fmt: str) -> str:
    """Serialize report columns to CSV or JSON text with round-trippable floats.

    The text is built column by column and equals, byte for byte, what
    ``csv.writer(lineterminator="\\n")`` writes of the cells' texts and what
    ``json.dumps(rows, indent=2) + "\\n"`` writes of the row objects.
    """
    if fmt == "json":
        # of the cell texts only a float's can read nan, inf or -inf: a string's is quoted
        texts = (_column_text(cells, _JSON_CELL) for cells in columns.values())
        rows = zip(*(map(_JSON_NONFINITE.get, t, t) for t in texts))
        members = ",\n".join(f"    {encode_basestring_ascii(name).replace('%', '%%')}: %s"
                              for name in columns)
        template = f"  {{\n{members}\n  }}"
        body = ",\n".join([template % cells for cells in rows])
        return f"[\n{body}\n]\n" if body else "[]\n"
    texts = (_csv_quote(_column_text(cells, _CSV_CELL)) for cells in columns.values())
    lines = [",".join(_csv_quote(list(columns))), *map(",".join, zip(*texts))]
    if len(columns) == 1:  # csv.writer quotes a row's one empty cell
        lines = [line or '""' for line in lines]
    return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig):
    """Build the report for cfg and write it to its file.

    Returns (table, path, n_failed): the Table of columns, whose len() is
    the row count, the path written, and how many rows are infeasible.
    Infeasible instances become row-level markers in the ``status`` column
    rather than aborting the run.
    """
    table = Table(_BUILDERS[cfg.kind](cfg))
    path = cfg.out or f"{cfg.kind}.{cfg.format}"
    text = render_report(table, cfg.format)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return table, path, len(table) - table["status"].count("ok")
