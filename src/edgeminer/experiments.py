"""Experiment harness: flat-text configs, sweep builders, CSV/JSON reports.

Output is data, not images: every figure-style experiment emits the series
behind one plot.  All builders are deterministic for a fixed config and
seed, and every row is recomputable through the matching single-instance
subcommand.
"""

from __future__ import annotations

import math
import operator
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
    leader_reward_scale,
    mining_success_prob,
    net_profit,
    stage1_setup,
    type_error,
)
from .search import SearchConfig, multiplicative_fee_search
from .discriminatory import (
    DiscriminatoryGame,
    leader_delta_utility_discriminatory,
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
    aggregate_miner_utility,
    leader_delta_utility_uniform,
    optimal_fee_uniform,
    optimal_fees_uniform,
    pool_responses,
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
    "write_report",
]

FEE_SEARCHES = ("golden", "hillclimb")
FORMATS = ("csv", "json")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs: its kind, the game constants, every setting.

    The fields are the only declaration of the settings: each field but
    ``params`` is a config-file key, and the CLI turns each field but
    ``kind`` and ``params``, plus each GameParams field, into a
    ``--kebab-case`` flag (see SETTINGS).  Construction, including through
    ``dataclasses.replace``, checks each setting in one pass, in _RULES' order: its
    type error (core.type_error), or else each of its rules that fails.  The
    cross-setting checks follow: a setting the kind does not read (KIND_TABLE) unless
    it holds its default, the grid, solve-disc's fees.  One ConfigError lists all.
    """

    kind: str = ""
    params: GameParams = field(default_factory=GameParams)
    edge_power: float = 50.0
    device_power: float = 50.0
    unit_cost: float = 0.005
    fee: float | None = None
    fees: tuple | None = None
    n_miners: int = 5
    objective: str = "simplified"
    fee_search: str = "golden"
    grid_start: float | None = None
    grid_stop: float | None = None
    grid_steps: int | None = None
    edge_fraction: float = 0.5
    edge_fractions: tuple = (0.1, 0.5, 0.9)
    mdg_delay_mult: float = emg_vs_mdg_sweep.__defaults__[0]  # its mdg_delay_multiplier
    seed: int = SimConfig.seed
    n_seeds: int = 10
    n_blocks: int = SimConfig.n_blocks
    powers: tuple = (50.0, 50.0)
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        errors, mistyped = [], set()
        for f, rules in _CHECKS:
            value = getattr(self, f.name)
            error = type_error(f, value)
            if error is not None:
                errors.append(error)
                mistyped.add(f.name)
                continue
            for ok, message in rules:
                if not ok(value):  # a message is a template, formatted only when its rule fails
                    errors.append(message.format(v=value, KINDS=KINDS, OBJECTIVES=OBJECTIVES,
                                                 FEE_SEARCHES=FEE_SEARCHES, FORMATS=FORMATS))

        kind = KIND_TABLE.get(self.kind) or Kind(None, _DEFAULTS)  # an unknown kind reads all
        values = {**vars(self.params), **vars(self)}
        unread = ", ".join(name for name, default in _DEFAULTS.items()
                           if name not in kind.reads and not _holds(values[name], default))
        if unread:  # a setting the kind ignores may only hold its default
            errors.append(f"{self.kind} does not read {unread}; it reads "
                          + ", ".join(name for name in _DEFAULTS if name in kind.reads))
        if kind.grid is not None:
            start, stop, steps = self.resolved_grid()
            if not {"grid_start", "grid_stop"} & mistyped:
                if not start < stop:
                    errors.append(f"grid_start must be < grid_stop, got [{start!r}, {stop!r}]")
                elif not math.isfinite(float(stop) - float(start)):
                    errors.append("grid_stop - grid_start must be finite, got "
                                  f"[{start!r}, {stop!r}]")
            if "grid_steps" not in mistyped and steps < 2:
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


# each setting's rules, in the order they report, with the message of each; a setting
# whose value does not fit its field's annotation (core.type_error) reports that alone
_RULES = {
    "kind": [(lambda v: v in KINDS, "kind must be one of {KINDS}, got {v!r}")],
    "unit_cost": [(lambda v: v > 0, "unit_cost must be > 0, got {v!r}")],
    "n_miners": [(lambda v: v >= 2, "n_miners must be >= 2, got {v!r}")],
    "n_blocks": [(lambda v: v >= 1, "n_blocks must be >= 1, got {v!r}")],
    "n_seeds": [(lambda v: v >= 1, "n_seeds must be >= 1, got {v!r}")],
    "seed": [(lambda v: v >= 0, "seed must be >= 0, got {v!r}")],
    "fee": [(lambda v: v is None or v > 0, "fee must be > 0, got {v!r}")],
    "fees": [(lambda v: v is None or len(v) == 0 or min(v) > 0, "fees must all be > 0")],
    "edge_fraction": [(lambda v: 0 < v < 1, "edge_fraction must lie in (0, 1), got {v!r}")],
    "edge_fractions": [(lambda v: all(0 < f < 1 for f in v),
                        "edge_fractions must all lie in (0, 1)"),
                       (lambda v: len(v) > 0, "edge_fractions must not be empty")],
    "mdg_delay_mult": [(lambda v: v >= 1, "mdg_delay_mult must be >= 1, got {v!r}")],
    "objective": [(lambda v: v in OBJECTIVES,
                   "objective must be one of {OBJECTIVES}, got {v!r}")],
    "fee_search": [(lambda v: v in FEE_SEARCHES,
                    "fee_search must be one of {FEE_SEARCHES}, got {v!r}")],
    "format": [(lambda v: v in FORMATS, "format must be one of {FORMATS}, got {v!r}")],
    "edge_power": [(lambda v: v > 0, "edge_power must be > 0, got {v!r}")],
    "device_power": [(lambda v: v > 0, "device_power must be > 0, got {v!r}")],
    "powers": [(lambda v: len(v) > 0 and min(v) >= 0 and sum(v) > 0,
                "powers must be nonnegative with a positive total")],
}
_FIELD = {f.name: f for f in fields(ExperimentConfig) if f.name != "params"}
# each ExperimentConfig setting with its rules, those in _RULES first and in its order
_CHECKS = [(_FIELD[name], _RULES.get(name, ())) for name in {**_RULES, **_FIELD}]


def _holds(value, default) -> bool:
    """Whether a setting's value is its default; a list or an array compares item by item."""
    if isinstance(value, (list, np.ndarray)):
        return default is not None and np.array_equal(value, default)
    return value == default


def _float_list(text: str) -> tuple:
    try:  # float() strips what str.strip() does: the loop below gives the same numbers
        return tuple(map(float, text.split(",")))
    except ValueError:
        pass  # an empty or a bad item: the loop skips the one and words the other
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
    with np.errstate(over="ignore"):  # a total power past the float range is not a share of 0
        total = grid + cfg.device_power
    if np.isinf(total).any():
        k = int(np.argmax(np.isinf(total)))
        raise ConfigError(f"device_power {cfg.device_power!r} plus the edge power "
                          f"{float(grid[k])!r} at grid point {k} overflows")
    share = grid / total
    model = mining_success_prob(share, params)
    sim = SimConfig(n_blocks=cfg.n_blocks, seed=cfg.seed, params=params)
    # same seeds for every grid point: with common draws the empirical
    # frequency is monotone in the win probability by construction
    wins = first_miner_wins(model, sim, cfg.n_seeds)
    return {
        "edge_power": grid,
        "device_power": np.full(grid.size, cfg.device_power),
        "edge_share": share,
        "success_prob_model": model,
        "success_prob_empirical": (wins / cfg.n_blocks).mean(axis=1),
        "status": ["ok"] * grid.size,
    }


def _rows_fig2(cfg: ExperimentConfig):
    """Stage-I optimal fee against the fixed block reward, one broadcast over the grid."""
    rewards = cfg.grid()
    fees, profits = optimal_fees_uniform([cfg.edge_power], cfg.unit_cost, cfg.params, rewards)
    return {"fixed_reward": rewards, "optimal_fee": fees, "leader_profit": profits,
            "status": ["ok"] * rewards.size}


def _rows_power_sweep(cfg: ExperimentConfig):
    """Leader-profit curves: fig3 sweeps the device power D, fig4 the edge power X.

    Same fee: u(X+D)^2/(X d), whose pool best response is D.  Different
    fees: matched_heterogeneous_fees, whose Nash total is D, so the leader
    earns a*D/(X+D) for their sum.  Rows with X <= 0, D < 0 or a bill that
    overflows are infeasible; any other fee_same must be finite and > 0.
    """
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
        profit_same = leader_delta_utility_uniform(fee_same, edge, cfg.unit_cost, discount, a,
                                                   cfg.objective)
        bill = _matched_bill(device, cfg.n_miners, cfg.unit_cost, cfg.params)
        reward = a * device / (edge + device)
    status = np.select([edge <= 0, device < 0, ~np.isfinite(bill)],
                       ["infeasible: edge power must be > 0",
                        "infeasible: device_power must be > 0",
                        "infeasible: all fees must be finite and > 0"], "ok")
    names = ("device_power", "edge_power") if fig3 else ("edge_power", "device_power")
    money = {"fee_same": fee_same, "profit_same_fee": profit_same, "fee_bill_diff": bill,
             "profit_diff_fee": reward if cfg.objective == "simplified" else reward - bill}
    return {names[0]: grid, names[1]: fixed,
            **{name: np.where(status == "ok", column, math.nan) for name, column in money.items()},
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
    return {"edge_fraction": fraction, "total_power": total, "edge_power": edge,
            "device_power": device,
            **{name: np.where(status == "ok", column, math.nan) for name, column in money.items()},
            "status": status.tolist()}


def _rows_mdg(cfg: ExperimentConfig):
    """Edge scheme vs delayed baseline; one stage-I optimized uniform fee.

    fig6 sweeps every edge fraction and leads each row with it; compare-mdg
    is the one-fraction case without that column.
    """
    fig6 = cfg.kind == "fig6"
    fractions = cfg.edge_fractions if fig6 else (cfg.edge_fraction,)
    grid = cfg.grid()
    n_rows = len(fractions) * grid.size
    columns = {"edge_fraction": np.repeat(fractions, grid.size)} if fig6 else {}
    # each fraction's sweep is copied into its rows and dropped before the next is built
    for k, fraction in enumerate(fractions):
        rows = slice(k * grid.size, (k + 1) * grid.size)
        for name, cells in emg_vs_mdg_sweep(grid, fraction, cfg.params, cfg.unit_cost,
                                            cfg.mdg_delay_mult).items():
            columns.setdefault(name, np.empty(n_rows))[rows] = cells
    columns["status"] = ["ok"] * n_rows
    return columns


def _optimize_fee(cfg: ExperimentConfig):
    """Stage I in closed form ("golden"), or hill-climbed over the same profit and bracket."""
    if cfg.fee_search == "golden":
        return optimal_fee_uniform(cfg.edge_power, cfg.unit_cost, cfg.params)
    discount, a, lo, hi = stage1_setup(cfg.params)

    def profit_fn(fee):
        if not lo <= fee <= hi:
            return -math.inf
        return float(leader_delta_utility_uniform(fee, cfg.edge_power, cfg.unit_cost, discount,
                                                  a, "full"))

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
    params, edge, cost = cfg.params, cfg.edge_power, cfg.unit_cost
    optimal_fee, optimal_profit = _optimize_fee(cfg)
    fee = cfg.fee if cfg.fee is not None else optimal_fee
    discount = params.delay_discount(params.mobile_tx_load)
    kappa, a = fee * discount, leader_reward_scale(params)
    # an explicit fee can overflow the response, a large reward the simplified
    # profit; inf and nan are rejected
    with np.errstate(over="ignore", invalid="ignore"):
        response = pool_responses(kappa, edge, cost)
        values = {"best_response_power": response,
                  "follower_utility": aggregate_miner_utility(kappa, edge, cost, response),
                  "leader_profit_full": leader_delta_utility_uniform(fee, edge, cost, discount,
                                                                     a, "full")}
        if kappa > 0:
            values["leader_profit_simplified"] = leader_delta_utility_uniform(
                fee, edge, cost, discount, a, "simplified")
    for name, value in values.items():
        reject_nonfinite_profits([edge], [fee], [value], name)
    # the simplified profit divides by kappa; undefined at kappa == 0
    values.setdefault("leader_profit_simplified", math.nan)
    below_quarter, below_positivity = uniqueness_certificate_uniform(kappa, edge, cost)
    row = {
        "edge_power": edge,
        "fee": fee,
        "unit_cost": cost,
        **values,
        "certified_unique": below_quarter,
        "below_quarter_bound": below_quarter,
        "below_positivity_bound": below_positivity,
        "optimal_fee": optimal_fee,
        "optimal_profit": optimal_profit,
    }
    return {**{name: np.array([value]) for name, value in row.items()}, "status": ["ok"]}


def _rows_solve_disc(cfg: ExperimentConfig):
    game = DiscriminatoryGame(np.asarray(cfg.fees, dtype=float), cfg.unit_cost, cfg.params)
    # the per-miner functions, elementwise from this one solve; a miner that
    # stays out has power, share, utility and leader_delta_simplified 0
    allocation = nash_equilibrium_closed_form(game)
    return {
        "miner": np.arange(game.n_miners),
        "fee": game.fees,
        "power": allocation.powers,
        "share": allocation.shares(),
        "utility": miner_utilities(game, allocation),
        "certified_unique_i": uniqueness_certificate_discriminatory(game),
        "leader_delta_full": leader_delta_utility_discriminatory(game, allocation, "full"),
        "leader_delta_simplified": leader_delta_utility_discriminatory(game, allocation,
                                                                       "simplified"),
        "status": ["ok"] * game.n_miners,
    }


def _rows_simulate(cfg: ExperimentConfig):
    sim = SimConfig(n_blocks=cfg.n_blocks, seed=cfg.seed, params=cfg.params)
    outcome = simulate_mining(list(cfg.powers), sim)
    powers = np.asarray(cfg.powers, dtype=float)
    shares = powers / math.fsum(cfg.powers)
    # the last row is the orphaned rounds, which no miner won
    return {
        "miner": np.append(np.arange(powers.size), -1),
        "power": np.append(powers, math.nan),
        "share": np.append(shares, math.nan),
        "win_prob_model": np.append(mining_success_prob(shares, cfg.params),
                                    1.0 - cfg.params.delay_discount(cfg.params.tx_per_block)),
        "wins": np.append(outcome.wins, outcome.orphans),
        "frequency": np.append(outcome.frequencies, outcome.orphans / outcome.n_blocks),
        "status": ["ok"] * (powers.size + 1),
    }


# the GameParams fields each piece of the model reads; a is the reward scale (r + tx) d
_BLOCK_DISCOUNT = {"poisson_rate", "tx_per_block"}
_DEVICE_SCALE = {"poisson_rate", "mobile_tx_load", "fixed_reward", "tx_reward"}
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
    "solve-disc": Kind(_rows_solve_disc, _DEVICE_SCALE | {"fees", "unit_cost"}),
    "simulate": Kind(_rows_simulate, _BLOCK_DISCOUNT | {"powers", "seed", "n_blocks"}),
    "compare-mdg": Kind(_rows_mdg, _MDG | {"edge_fraction"}, (10.0, 200.0, 20)),
}
KINDS = tuple(KIND_TABLE)


class Table(dict):
    """A report: column name -> cells, ``status`` last.

    A numeric or bool column is a 1-d numpy array of any int, float or bool
    dtype, a str column (``status`` among them) a list of str.  ``len()``
    counts the rows, not the columns.
    """

    def __len__(self):
        return len(self["status"])


# a nan, inf or -inf cell's text in each format
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_NONFINITE_TEXT = {"csv": float.__repr__, "json": lambda x: _JSON_NONFINITE[float.__repr__(x)]}
# rows rendered at a time by write_report: writing holds the columns and one block's
# text; 4,096 wrote fig6 at 3 x 300,000 rows fastest of the powers of two from 1,024 to
# 65,536, in both formats
_BLOCK_ROWS = 4096
# what orjson writes before the digits of a float in [1e-5, 1e-4)
_SMALL_HEAD = np.frombuffer(b"0.0000", np.uint8)
# csv.writer's QUOTE_MINIMAL with lineterminator "\n": a cell holding the
# delimiter, the quote character or the line terminator is quoted
_CSV_SPECIAL = re.compile('[,"\n]')


def _csv_quote(texts):
    if not _CSV_SPECIAL.search("".join(texts)):
        return texts
    return ['"' + t.replace('"', '""') + '"' if _CSV_SPECIAL.search(t) else t for t in texts]


def _dumps(cells: np.ndarray) -> str:
    """',a,b,...,z,': orjson's texts of a C-contiguous array, each between two commas."""
    return f",{orjson.dumps(cells, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()},"


def _small_exponents(text: str) -> str:
    """text, ",c1,...,cn,", with each cell orjson wrote as [-]0.0000d... in repr's d....e-05.

    Those are the cells with 1e-5 <= |x| < 1e-4.  On the text's bytes, each
    such cell loses its 0.0000 and gains a point after its first digit, if
    more digits follow, and e-05 before its comma.
    """
    b = np.frombuffer(f"{text}      ".encode(), np.uint8)  # every cell's 6-byte head fits
    commas = np.flatnonzero(b == ord(","))
    start = commas[:-1] + 1
    start += b[start] == ord("-")
    small = (b[start[:, None] + np.arange(6)] == _SMALL_HEAD).all(axis=1)
    start, end = start[small], commas[1:][small]
    keep = np.ones(b.size, bool)
    keep[(start[:, None] + np.arange(6)).ravel()] = False
    shift = 6 * np.arange(start.size)  # the k-th small cell moves 6k bytes left
    first, end = start - shift, end - shift - 6
    point = first[end - first > 1] + 1
    at = np.concatenate([point, np.repeat(end, 4)])
    values = np.concatenate([np.full(point.size, ord("."), np.uint8),
                             np.tile(np.frombuffer(b"e-05", np.uint8), end.size)])
    return np.insert(b[keep], at, values)[:-6].tobytes().decode()


def _float_texts(cells, nonfinite=float.__repr__):
    """``float.__repr__`` of each float in cells, from one ``orjson.dumps`` call.

    cells is a list of floats or a float array, read as float64.  orjson writes the
    same shortest round-trip digits as repr, and in repr's spelling but for two
    cases.  An exponent gets a sign and at least two digits (1e16 -> 1e+16,
    1e-6 -> 1e-06), by rewrites of the joined text.  The positional
    0.0000d... of 1e-5 <= |x| < 1e-4 becomes d....e-05 (_small_exponents).
    A null (nan, inf or -inf) becomes ``nonfinite`` of its cell, its repr
    unless JSON's spelling is asked for.
    """
    cells = np.ascontiguousarray(cells, dtype=np.float64)
    if not cells.size:
        return []
    text = _dumps(cells)
    if "e" in text:
        text = text.replace("e", "e+")
        if "e+-" in text:
            text = text.replace("e+-", "e-")
            for digit in "6789":  # a one-digit negative exponent is -6 to -9
                text = text.replace(f"e-{digit},", f"e-0{digit},")
    if ",0.0000" in text or ",-0.0000" in text:  # not 10.00001
        text = _small_exponents(text)
    texts = text[1:-1].split(",")
    if "null" in text:  # nan, inf or -inf
        for i in np.flatnonzero(~np.isfinite(cells)).tolist():
            texts[i] = nonfinite(cells[i])
    return texts


def _column_text(cells, fmt: str):
    """A column's cell texts in fmt: a 1-d numeric or bool array, or a list of str.

    A float array goes through _float_texts, a bool one and an int one cast to int64
    (uint64 if unsigned) through one orjson.dumps call.  A list of str is CSV-quoted
    or JSON-escaped; a cell that is not a str raises TypeError.
    """
    if isinstance(cells, list):
        return _csv_quote(cells) if fmt == "csv" else list(map(encode_basestring_ascii, cells))
    if not cells.size:
        return []
    if cells.dtype.kind == "f":
        return _float_texts(cells, _NONFINITE_TEXT[fmt])
    dtype = {"b": np.bool_, "u": np.uint64}.get(cells.dtype.kind, np.int64)
    return _dumps(np.ascontiguousarray(cells, dtype=dtype))[1:-1].split(",")


def _csv_header(columns) -> str:
    """The CSV header line of columns, without its line end."""
    line = ",".join(_csv_quote(list(columns)))
    return '""' if len(columns.keys()) == 1 and not line else line  # as csv.writer quotes it


def render_report(columns, fmt: str) -> str:
    """Serialize report columns to CSV or JSON text with round-trippable floats.

    The text is built column by column and equals, byte for byte, what
    ``csv.writer(lineterminator="\\n")`` writes of the cells' texts and what
    ``json.dumps(rows, indent=2) + "\\n"`` writes of the row objects.
    """
    texts = [_column_text(cells, fmt) for cells in columns.values()]
    if fmt == "json":
        n_rows = len(texts[0]) if texts else 0
        if not n_rows:
            return "[]\n"
        # a member's lead and its cell take every 2k-th slot from their own, one slice
        # assignment each; a row's first lead also closes the row before it
        leads = [f"    {encode_basestring_ascii(name)}: " for name in columns]
        stride = 2 * len(leads)
        parts = [""] * (stride * n_rows)
        for j, (lead, column) in enumerate(zip(leads, texts)):
            parts[2 * j::stride] = [f",\n{lead}" if j else f"\n  }},\n  {{\n{lead}"] * n_rows
            parts[2 * j + 1::stride] = column
        parts[0] = f"[\n  {{\n{leads[0]}"
        parts.append("\n  }\n]\n")
        return "".join(parts)
    lines = [_csv_header(columns), *map(",".join, zip(*texts))]
    if len(columns.keys()) == 1:  # csv.writer quotes a row's one empty cell
        lines = [line or '""' for line in lines]
    return "\n".join(lines) + "\n"


def _report_blocks(table: Table, fmt: str):
    """The text of ``render_report(table, fmt)`` in blocks of _BLOCK_ROWS rows.

    Each block is one render_report call.  A block after the first loses
    its CSV header line or its JSON ``[`` line (replaced by the ``,`` line
    end between row objects), and a block before the last its JSON ``]``
    line, so the blocks join to the bytes of one render_report call over
    every row.
    """
    n_rows = len(table)
    if n_rows <= _BLOCK_ROWS:
        yield render_report(table, fmt)
        return
    if fmt == "json":
        head, join, tail = "[\n", ",\n", "\n]\n"
    else:
        head, join, tail = _csv_header(table) + "\n", "", ""
    for start in range(0, n_rows, _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        text = render_report({name: cells[start:stop] for name, cells in table.items()}, fmt)
        if start:
            text = join + text[len(head):]
        if stop < n_rows:
            text = text[:len(text) - len(tail)]
        yield text


def write_report(table: Table, fmt: str, path) -> None:
    """Write ``render_report(table, fmt)`` to path, _BLOCK_ROWS rows at a time.

    The first block is rendered before the file is opened: a report that
    fails to render leaves no file, and a one-block report wrote 15-20 us
    faster than when it was rendered into an open file.
    """
    blocks = _report_blocks(table, fmt)
    first = next(blocks)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(first)
        fh.writelines(blocks)


def run_experiment(cfg: ExperimentConfig):
    """Build the report for cfg and write it to its file.

    Returns (table, path, n_failed): the Table of columns, whose len() is
    the row count, the path written, and how many rows are infeasible.
    Infeasible instances become row-level markers in the ``status`` column
    rather than aborting the run.
    """
    table = Table(KIND_TABLE[cfg.kind].build(cfg))
    path = cfg.out or f"{cfg.kind}.{cfg.format}"
    write_report(table, cfg.format, path)
    return table, path, len(table) - operator.countOf(table["status"], "ok")
