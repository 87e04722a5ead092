"""Experiment harness: flat-text configs, sweep builders, CSV/JSON reports.

Output is data, not images: every figure-style experiment emits the series
behind one plot.  All builders are deterministic for a fixed config and
seed, and every row is recomputable through the matching single-instance
subcommand.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii

import numpy as np
import orjson

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
    stage1_setup,
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
    uniqueness_certificate_uniform,
)

__all__ = [
    "ExperimentConfig",
    "FEE_SEARCHES",
    "FORMATS",
    "KIND_TABLE",
    "KINDS",
    "SETTINGS",
    "Table",
    "matched_heterogeneous_fees",
    "parse_config_text",
    "render_report",
    "run_experiment",
    "validate_config",
]

FEE_SEARCHES = ("golden", "hillclimb")
FORMATS = ("csv", "json")
# the types a scalar float setting may hold; an isinstance on numbers.Real costs 8x as much
_REAL = (float, int, np.floating, np.integer)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs: its kind, the game constants, every setting.

    The fields are the only declaration of the settings: each field but
    ``params`` is a config-file key, and the CLI turns each field but
    ``kind`` and ``params``, plus each GameParams field, into a
    ``--kebab-case`` flag (see SETTINGS).  Construction, including through
    ``dataclasses.replace``, validates every field and raises one
    ConfigError that lists all violations, a setting the kind does not read
    (KIND_TABLE) among them unless it holds its default.
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
        # a float that is not a finite number (an array among them) or a count that is
        # not an integer (a bool among them) is reported once, as such: its range
        # checks are skipped
        nonfinite, nonint = [], []
        for name, parse in SETTINGS.items():
            value = getattr(self, name, None)  # None for a GameParams setting, checked there
            if value is None:
                continue
            if parse is float and not (isinstance(value, _REAL) and math.isfinite(value)):
                nonfinite.append(name)
            if parse is _float_list and not all(map(math.isfinite, value)):
                nonfinite.append(name)
            if parse is int and not is_integer(value):
                nonint.append(name)

        # each check runs on its setting's value, unless that was reported above
        reported = {*nonfinite, *nonint}
        checks = (
            ("kind", lambda v: v in KINDS, "kind must be one of {KINDS}, got {self.kind!r}"),
            ("unit_cost", lambda v: v > 0, "unit_cost must be > 0, got {self.unit_cost!r}"),
            ("n_miners", lambda v: v >= 2, "n_miners must be >= 2, got {self.n_miners!r}"),
            ("n_blocks", lambda v: v >= 1, "n_blocks must be >= 1, got {self.n_blocks!r}"),
            ("n_seeds", lambda v: v >= 1, "n_seeds must be >= 1, got {self.n_seeds!r}"),
            ("seed", lambda v: v >= 0, "seed must be >= 0, got {self.seed!r}"),
            ("fee", lambda v: v is None or v > 0, "fee must be > 0, got {self.fee!r}"),
            ("fees", lambda v: v is None or all(f > 0 for f in v), "fees must all be > 0"),
            ("edge_fraction", lambda v: 0 < v < 1,
             "edge_fraction must lie in (0, 1), got {self.edge_fraction!r}"),
            ("edge_fractions", lambda v: all(0 < f < 1 for f in v),
             "edge_fractions must all lie in (0, 1)"),
            ("edge_fractions", lambda v: len(v) > 0, "edge_fractions must not be empty"),
            ("mdg_delay_mult", lambda v: v >= 1,
             "mdg_delay_mult must be >= 1, got {self.mdg_delay_mult!r}"),
            ("objective", lambda v: v is None or v in OBJECTIVES,
             "objective must be one of {OBJECTIVES}, got {self.objective!r}"),
            ("fee_basis", lambda v: v in FEE_BASES,
             "fee_basis must be one of {FEE_BASES}, got {self.fee_basis!r}"),
            ("fee_search", lambda v: v in FEE_SEARCHES,
             "fee_search must be one of {FEE_SEARCHES}, got {self.fee_search!r}"),
            ("format", lambda v: v in FORMATS,
             "format must be one of {FORMATS}, got {self.format!r}"),
            ("edge_power", lambda v: v > 0, "edge_power must be > 0, got {self.edge_power!r}"),
            ("device_power", lambda v: v > 0,
             "device_power must be > 0, got {self.device_power!r}"),
            ("powers", lambda v: all(p >= 0 for p in v) and sum(v) > 0,
             "powers must be nonnegative with a positive total"),
        )
        # a message is a template, formatted only when its check fails
        errors = [message.format(self=self, KINDS=KINDS, OBJECTIVES=OBJECTIVES,
                                 FEE_BASES=FEE_BASES, FEE_SEARCHES=FEE_SEARCHES, FORMATS=FORMATS)
                  for name, ok, message in checks
                  if name not in reported and not ok(getattr(self, name))]
        errors += [f"{name} must be finite, got {getattr(self, name)!r}" for name in nonfinite]
        errors += [f"{name} must be an integer, got {getattr(self, name)!r}" for name in nonint]

        kind = KIND_TABLE.get(self.kind) or Kind(None, _DEFAULTS)  # an unknown kind reads all
        values = {**vars(self.params), **vars(self)}
        unread = ", ".join(name for name, default in _DEFAULTS.items()
                           if name not in kind.reads and not _holds(values[name], default))
        if unread:  # a setting the kind ignores may only hold its default
            errors.append(f"{self.kind} does not read {unread}; it reads "
                          + ", ".join(name for name in _DEFAULTS if name in kind.reads))
        if kind.grid is not None:
            start, stop, steps = self.resolved_grid()
            if not {"grid_start", "grid_stop"} & set(nonfinite):
                if not start < stop:
                    errors.append(f"grid_start must be < grid_stop, got [{start!r}, {stop!r}]")
                elif not math.isfinite(float(stop) - float(start)):
                    errors.append("grid_stop - grid_start must be finite, got "
                                  f"[{start!r}, {stop!r}]")
            if "grid_steps" not in nonint and steps < 2:
                errors.append(f"grid_steps must be >= 2, got {steps!r}")
        if self.kind == "solve-disc" and self.fees is None:
            errors.append("solve-disc requires a 'fees' list")
        if errors:
            raise ConfigError(errors)

    def resolved_grid(self):
        """Grid spec with missing pieces filled from the kind's default."""
        given = (self.grid_start, self.grid_stop, self.grid_steps)
        return tuple(d if g is None else g for g, d in zip(given, KIND_TABLE[self.kind].grid))

    def grid(self) -> np.ndarray:
        start, stop, steps = self.resolved_grid()
        return np.linspace(start, stop, steps)


def _holds(value, default) -> bool:
    """Whether a setting's value is its default; a list or an array compares item by item."""
    if isinstance(value, (list, np.ndarray)):
        return default is not None and np.array_equal(value, default)
    return value == default


def _float_list(text: str) -> tuple:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected a comma-separated list of numbers")
    return tuple(float(p) for p in parts)


# a value's parser follows from its field's annotation: "float | None" -> float
_PARSERS = {"float": float, "int": int, "str": str, "tuple": _float_list}

_FIELDS = [f for cls in (GameParams, ExperimentConfig) for f in fields(cls) if f.name != "params"]
# every config key with its value parser; each is a field of one of the two dataclasses
SETTINGS = {f.name: _PARSERS[f.type.split(" |")[0]] for f in _FIELDS}
_PARAM_NAMES = frozenset(f.name for f in fields(GameParams))
# each setting's default, but for kind, out and format, which every kind reads
_DEFAULTS = {f.name: f.default for f in _FIELDS if f.name not in ("kind", "out", "format")}


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
    """Stage-I optimal fee against the fixed block reward, one broadcast over the grid."""
    rewards = cfg.grid()
    fees, profits = optimal_fees_uniform([cfg.edge_power], cfg.unit_cost, cfg.params, rewards)
    return {"fixed_reward": rewards.tolist(), "optimal_fee": fees.tolist(),
            "leader_profit": profits.tolist(), "status": ["ok"] * rewards.size}


def _rows_power_sweep(cfg: ExperimentConfig):
    """Leader-profit curves: fig3 sweeps the device power D, fig4 the edge power X.

    Same fee: u(X+D)^2/(X d), whose pool best response is D.  Different
    fees: matched_heterogeneous_fees, whose Nash total is D, so the leader
    earns a*D/(X+D) for their sum.  Rows with X <= 0, D < 0 or a bill that
    overflows are infeasible; any other fee_same must be finite and > 0.
    """
    objective = cfg.objective or "simplified"
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


# the GameParams fields each piece of the model reads; a is the reward scale (r + tx) d
_BLOCK_DISCOUNT = {"poisson_rate", "delay_factor", "tx_per_block"}
_DEVICE_SCALE = {"poisson_rate", "delay_factor", "mobile_tx_load", "fixed_reward", "tx_reward"}
_BRACKET = _DEVICE_SCALE | {"min_consumption"}
_STAGE1 = _BRACKET | {"edge_power", "unit_cost"}  # stage I at one edge power
_NET_PROFIT = _BLOCK_DISCOUNT | {"fixed_reward", "tx_reward", "edge_overhead"}
_GRID = {"grid_start", "grid_stop", "grid_steps"}
_MDG = _GRID | _BRACKET | _NET_PROFIT | {"unit_cost", "mdg_delay_mult"}
_POWER_SWEEP = _GRID | _DEVICE_SCALE | {"unit_cost", "n_miners", "objective"}
# each kind's row builder, settings read besides out and format, and default grid, if any
Kind = namedtuple("Kind", "build reads grid", defaults=(None,))
KIND_TABLE = {
    "fig1": Kind(_rows_fig1, _GRID | _BLOCK_DISCOUNT | {"device_power", "seed", "n_seeds",
                                                        "n_blocks"}, (1.0, 100.0, 100)),
    "fig2": Kind(_rows_fig2, _GRID | _STAGE1 - {"fixed_reward"}, (1.0, 50.0, 50)),  # grid is r
    "fig3": Kind(_rows_power_sweep, _POWER_SWEEP | {"edge_power"}, (0.0, 100.0, 101)),
    "fig4": Kind(_rows_power_sweep, _POWER_SWEEP | {"device_power"}, (0.0, 100.0, 101)),
    "fig5": Kind(_rows_fig5, _MDG - {"min_consumption"} | {"n_miners", "edge_fractions"},
                 (10.0, 200.0, 20)),
    "fig6": Kind(_rows_mdg, _MDG | {"edge_fractions"}, (10.0, 200.0, 20)),
    "solve-uniform": Kind(_rows_solve_uniform, _STAGE1 | {"fee", "fee_search"}),
    "solve-disc": Kind(_rows_solve_disc, _DEVICE_SCALE | {"fees", "unit_cost", "fee_basis"}),
    "simulate": Kind(_rows_simulate, _BLOCK_DISCOUNT | {"powers", "seed", "n_blocks"}),
    "compare-mdg": Kind(_rows_mdg, _MDG | {"edge_fraction"}, (10.0, 200.0, 20)),
}
KINDS = tuple(KIND_TABLE)


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


def _small_exponent(tail):
    """'15,...' -> '1.5e-05,...': the digits that led a 0.0000 cell, in exponent form."""
    digits, comma, rest = tail.partition(",")
    point = "." if len(digits) > 1 else ""
    return f"{digits[0]}{point}{digits[1:]}e-05{comma}{rest}"


def _float_texts(cells):
    """``float.__repr__`` of each float in cells, from one ``orjson.dumps`` call.

    orjson writes the same shortest round-trip digits as repr, and three
    rewrites turn its spelling into repr's: an exponent gets a sign and at
    least two digits (1e16 -> 1e+16, 1e-6 -> 1e-06), the positional
    0.0000d... of 1e-5 <= |x| < 1e-4 becomes d....e-05, and a null (nan,
    inf or -inf) becomes its cell's repr.
    """
    if not cells:
        return []
    text = f",{orjson.dumps(cells)[1:-1].decode()},"  # every cell between two commas
    if "e" in text:
        text = text.replace("e", "e+")
        if "e+-" in text:
            text = text.replace("e+-", "e-")
            for digit in "6789":  # a one-digit negative exponent is -6 to -9
                text = text.replace(f"e-{digit},", f"e-0{digit},")
    if "0.0000" in text:
        for sign in ("", "-"):
            head, *tails = text.split(f",{sign}0.0000")
            text = f",{sign}".join([head, *map(_small_exponent, tails)])
    if "null" in text and not (math.inf in cells or -math.inf in cells):
        text = text.replace("null", "nan")  # nan is the only non-finite cell
    texts = text[1:-1].split(",")
    if "null" in text:
        texts = [float.__repr__(cell) if t == "null" else t for t, cell in zip(texts, cells)]
    return texts


def _column_text(cells, fmt: str):
    """A column's cell texts in fmt.

    A column of floats becomes text through _float_texts, a column of one
    other type in one pass, and a column of mixed types cell by cell.  Only
    a column holding a str can need CSV quoting, and only one holding a
    non-finite float JSON's NaN and Infinity.
    """
    types = set(map(type, cells))
    cell_text = _JSON_CELL if fmt == "json" else _CSV_CELL
    if types == {float}:
        texts = _float_texts(cells)
    elif len(types) == 1:
        texts = list(map(cell_text[next(iter(types))], cells))
    else:
        texts = [cell_text[type(cell)](cell) for cell in cells]
    if fmt == "csv":
        return _csv_quote(texts) if str in types else texts
    # a str's JSON text is quoted: only a float's can read nan, inf or -inf
    if float in types and not _JSON_NONFINITE.keys().isdisjoint(texts):
        return list(map(_JSON_NONFINITE.get, texts, texts))
    return texts


def render_report(columns, fmt: str) -> str:
    """Serialize report columns to CSV or JSON text with round-trippable floats.

    The text is built column by column and equals, byte for byte, what
    ``csv.writer(lineterminator="\\n")`` writes of the cells' texts and what
    ``json.dumps(rows, indent=2) + "\\n"`` writes of the row objects.
    """
    texts = (_column_text(cells, fmt) for cells in columns.values())
    if fmt == "json":
        members = ",\n".join(f"    {encode_basestring_ascii(name).replace('%', '%%')}: %s"
                              for name in columns)
        template = f"  {{\n{members}\n  }}"
        body = ",\n".join([template % cells for cells in zip(*texts)])
        return f"[\n{body}\n]\n" if body else "[]\n"
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
    table = Table(KIND_TABLE[cfg.kind].build(cfg))
    path = cfg.out or f"{cfg.kind}.{cfg.format}"
    text = render_report(table, cfg.format)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return table, path, len(table) - table["status"].count("ok")
