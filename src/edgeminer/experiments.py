"""Experiment harness: flat-text configs, sweep builders, CSV/JSON reports.

Output is data, not images: every figure-style experiment emits the series
behind one plot.  All builders are deterministic for a fixed config and
seed, and every row is recomputable through the matching single-instance
subcommand.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .core import (
    OBJECTIVES,
    ConfigError,
    GameParams,
    InfeasibleEquilibriumError,
    edge_utility,
    leader_reward_scale,
)
from .search import SearchConfig, multiplicative_fee_search
from .discriminatory import (
    FEE_BASES,
    DiscriminatoryGame,
    nash_equilibrium_closed_form,
    uniqueness_certificate_discriminatory,
)
from .simulate import (
    SimConfig,
    emg_vs_mdg_sweep,
    first_miner_wins,
    mdg_baseline_profit,
    simulate_mining,
)
from .uniform import (
    UniformGame,
    aggregate_miner_utility,
    best_response_uniform,
    check_kappa,
    leader_delta_utility_uniform,
    optimal_fee_uniform,
    optimal_fees_uniform,
    uniqueness_certificate_uniform,
)

__all__ = [
    "ExperimentConfig",
    "FEE_SEARCHES",
    "FORMATS",
    "KINDS",
    "SETTINGS",
    "matched_heterogeneous_fees",
    "parse_config_text",
    "render_report",
    "run_experiment",
    "validate_config",
]

KINDS = ("fig1", "fig2", "fig3", "fig4", "fig5", "fig6",
         "solve-uniform", "solve-disc", "simulate", "compare-mdg")

DEFAULT_GRIDS = {
    "fig1": (1.0, 100.0, 100),
    "fig2": (1.0, 50.0, 50),
    "fig3": (0.0, 100.0, 101),
    "fig4": (0.0, 100.0, 101),
    "fig5": (10.0, 200.0, 20),
    "fig6": (10.0, 200.0, 20),
    "compare-mdg": (10.0, 200.0, 20),
}

# full keeps the fee cost (finite stage-I optimum); the simplified objective
# is monotone in the fee, which suits the induced-power profit curves
DEFAULT_OBJECTIVES = {
    "fig2": "full", "fig3": "simplified", "fig4": "simplified",
    "fig5": "full", "fig6": "full", "compare-mdg": "full",
    "solve-uniform": "full", "solve-disc": "full",
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
    seed: int = 0
    n_seeds: int = 10
    n_blocks: int = 1000
    powers: tuple = (50.0, 50.0)
    initial_fee: float = 1.0
    step_factor: float = 0.05
    tolerance: float = 1e-6
    max_iters: int = 10_000
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        # a non-finite value is reported once, as such: its range checks are skipped
        nonfinite = []
        for f in fields(self):
            kind, value = _field_type(f), getattr(self, f.name)
            if kind in ("float", "tuple") and value is not None and not all(
                    map(math.isfinite, value if kind == "tuple" else (value,))):
                nonfinite.append(f.name)
        checks = (
            ("kind", self.kind in KINDS, f"kind must be one of {KINDS}, got {self.kind!r}"),
            ("step_factor", 0 < self.step_factor < 1,
             f"step_factor must lie strictly inside (0, 1), got {self.step_factor!r}"),
            ("tolerance", self.tolerance > 0, f"tolerance must be > 0, got {self.tolerance!r}"),
            ("initial_fee", self.initial_fee > 0,
             f"initial_fee must be > 0, got {self.initial_fee!r}"),
            ("max_iters", self.max_iters >= 1, f"max_iters must be >= 1, got {self.max_iters!r}"),
            ("unit_cost", self.unit_cost > 0, f"unit_cost must be > 0, got {self.unit_cost!r}"),
            ("n_miners", self.n_miners >= 2, f"n_miners must be >= 2, got {self.n_miners!r}"),
            ("n_blocks", self.n_blocks >= 1, f"n_blocks must be >= 1, got {self.n_blocks!r}"),
            ("n_seeds", self.n_seeds >= 1, f"n_seeds must be >= 1, got {self.n_seeds!r}"),
            ("seed", self.seed >= 0, f"seed must be >= 0, got {self.seed!r}"),
            ("fee", self.fee is None or self.fee > 0, f"fee must be > 0, got {self.fee!r}"),
            ("fees", self.fees is None or all(f > 0 for f in self.fees), "fees must all be > 0"),
            ("edge_fraction", 0 < self.edge_fraction < 1,
             f"edge_fraction must lie in (0, 1), got {self.edge_fraction!r}"),
            ("edge_fractions", all(0 < f < 1 for f in self.edge_fractions),
             "edge_fractions must all lie in (0, 1)"),
            ("mdg_delay_mult", self.mdg_delay_mult >= 1,
             f"mdg_delay_mult must be >= 1, got {self.mdg_delay_mult!r}"),
            ("objective", self.objective is None or self.objective in OBJECTIVES,
             f"objective must be one of {OBJECTIVES}, got {self.objective!r}"),
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
                if steps < 2:
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
        return self.objective or DEFAULT_OBJECTIVES.get(self.kind, "full")


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
    except ValueError as exc:
        errors.append(str(exc))
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


def matched_heterogeneous_fees(device_power: float, n_miners: int, unit_cost: float,
                               params: GameParams, spread: float | None = None) -> np.ndarray:
    """Per-miner fees whose interior equilibrium total equals device_power.

    Fees follow an evenly spaced multiplier pattern around a base level; the
    spread shrinks with the miner count to keep the allocation interior.
    """
    if device_power <= 0:
        raise ValueError("device_power must be > 0")
    if spread is None:
        spread = min(0.2, 0.5 / n_miners)
    multipliers = np.linspace(1.0 - spread, 1.0 + spread, n_miners)
    discount = params.delay_discount(params.mobile_tx_load)
    base = device_power * unit_cost * math.fsum(1.0 / multipliers) / ((n_miners - 1) * discount)
    return base * multipliers


def _inducing_fee(edge_power: float, device_power: float, unit_cost: float,
                  params: GameParams) -> float:
    """Uniform fee whose best response is exactly device_power."""
    discount = params.delay_discount(params.mobile_tx_load)
    return unit_cost * (edge_power + device_power) ** 2 / (edge_power * discount)


def _failed(template: dict, status: str) -> dict:
    # result columns in the template start as nan; only the status changes
    row = dict(template)
    row["status"] = status
    return row


def _rows_fig1(cfg: ExperimentConfig):
    """Edge-miner mining success probability against its computing power."""
    params = cfg.params
    device_power = cfg.device_power
    grid = cfg.grid()
    sim = SimConfig(n_blocks=cfg.n_blocks, tx_per_block=params.tx_per_block,
                    seed=cfg.seed, params=params)
    # same seeds for every grid point: with common draws the empirical
    # frequency is monotone in the win probability by construction
    wins = first_miner_wins([[x, device_power] for x in grid], sim, cfg.n_seeds)
    freqs = wins / cfg.n_blocks
    rows = []
    for x, point_freqs in zip(grid, freqs):
        share = x / (x + device_power)
        rows.append({
            "edge_power": float(x),
            "device_power": device_power,
            "edge_share": share,
            "success_prob_model": share * params.delay_discount(params.tx_per_block),
            "success_prob_empirical": float(np.mean(point_freqs)),
            "status": "ok",
        })
    return rows


def _rows_fig2(cfg: ExperimentConfig):
    """Stage-I optimal fee against the fixed block reward."""
    rewards = cfg.grid().tolist()
    points = [replace(cfg.params, fixed_reward=r) for r in rewards]
    fees, profits = optimal_fees_uniform(np.full(len(points), cfg.edge_power), cfg.unit_cost,
                                         points, objective=cfg.resolved_objective())
    return [{"fixed_reward": r, "optimal_fee": fee, "leader_profit": profit, "status": "ok"}
            for r, fee, profit in zip(rewards, fees.tolist(), profits.tolist())]


def _profit_rows_power_sweep(cfg: ExperimentConfig, axis: str):
    """Shared builder for the leader-profit curves (fig3 and fig4).

    Same-fee column: the uniform fee inducing the device power as the pool's
    best response.  Diff-fee column: heterogeneous per-miner fees matched to
    the same device total, reward credited on the edge-inclusive pool share.
    """
    params = cfg.params
    objective = cfg.resolved_objective()
    scale = params.total_reward * params.delay_discount(params.mobile_tx_load)
    rows = []
    for value in cfg.grid():
        if axis == "device_power":
            edge_power, device_power = cfg.edge_power, float(value)
            template = {"device_power": device_power, "edge_power": edge_power}
        else:
            edge_power, device_power = float(value), cfg.device_power
            template = {"edge_power": edge_power, "device_power": device_power}
        template.update(fee_same=math.nan, profit_same_fee=math.nan,
                        fee_bill_diff=math.nan, profit_diff_fee=math.nan, status="ok")
        if edge_power <= 0:
            rows.append(_failed(template, "infeasible: edge power must be > 0"))
            continue
        row = dict(template)
        row["fee_same"] = _inducing_fee(edge_power, device_power, cfg.unit_cost, params)
        row["profit_same_fee"] = leader_delta_utility_uniform(
            UniformGame(edge_power, row["fee_same"], cfg.unit_cost, params), objective)
        if device_power == 0:
            row["fee_bill_diff"] = 0.0
            row["profit_diff_fee"] = 0.0
            rows.append(row)
            continue
        try:
            fees = matched_heterogeneous_fees(device_power, cfg.n_miners,
                                              cfg.unit_cost, params)
            allocation = nash_equilibrium_closed_form(
                DiscriminatoryGame(fees, cfg.unit_cost, params))
        except (InfeasibleEquilibriumError, ValueError) as exc:
            rows.append(_failed(template, f"infeasible: {exc}"))
            continue
        reward_diff = scale * math.fsum(allocation.powers) / (edge_power + device_power)
        row["fee_bill_diff"] = math.fsum(fees)
        row["profit_diff_fee"] = (reward_diff if objective == "simplified"
                                  else reward_diff - row["fee_bill_diff"])
        rows.append(row)
    return rows


def _rows_fig3(cfg: ExperimentConfig):
    return _profit_rows_power_sweep(cfg, "device_power")


def _rows_fig4(cfg: ExperimentConfig):
    return _profit_rows_power_sweep(cfg, "edge_power")


def _rows_fig5(cfg: ExperimentConfig):
    """Edge scheme vs delayed baseline; heterogeneous per-miner fees."""
    params = cfg.params
    rows = []
    for fraction in cfg.edge_fractions:
        for total in cfg.grid():
            total = float(total)
            edge_power = fraction * total
            device_power = total - edge_power
            template = {
                "edge_fraction": fraction, "total_power": total,
                "edge_power": edge_power, "device_power": device_power,
                "fee_bill_emg": math.nan, "profit_emg": math.nan,
                "fee_bill_mdg": math.nan, "profit_mdg": math.nan,
                "profit_gap": math.nan, "status": "ok",
            }
            try:
                fees = matched_heterogeneous_fees(device_power, cfg.n_miners,
                                                  cfg.unit_cost, params)
                nash_equilibrium_closed_form(DiscriminatoryGame(fees, cfg.unit_cost, params))
                fee_bill = math.fsum(fees)
                fee_bill_mdg = fee_bill / (1.0 - fraction)
                profit_emg = edge_utility(params, fees)
                profit_mdg = mdg_baseline_profit(total, [fee_bill_mdg], params,
                                                 cfg.mdg_delay_mult)
            except (InfeasibleEquilibriumError, ValueError) as exc:
                rows.append(_failed(template, f"infeasible: {exc}"))
                continue
            row = dict(template)
            row.update(fee_bill_emg=fee_bill, profit_emg=profit_emg,
                       fee_bill_mdg=fee_bill_mdg, profit_mdg=profit_mdg,
                       profit_gap=profit_emg - profit_mdg)
            rows.append(row)
    return rows


def _rows_mdg(cfg: ExperimentConfig):
    """Edge scheme vs delayed baseline; one stage-I optimized uniform fee.

    fig6 sweeps every edge fraction and leads each row with it; compare-mdg
    is the one-fraction case without that column.
    """
    fig6 = cfg.kind == "fig6"
    rows = []
    for fraction in cfg.edge_fractions if fig6 else (cfg.edge_fraction,):
        for sweep_row in emg_vs_mdg_sweep(cfg.grid(), fraction, cfg.params,
                                          cfg.unit_cost, cfg.mdg_delay_mult,
                                          objective=cfg.resolved_objective()):
            row = {"edge_fraction": fraction} if fig6 else {}
            row.update(sweep_row)
            row["status"] = "ok"
            rows.append(row)
    return rows


def _optimize_fee(cfg: ExperimentConfig, objective: str):
    params = cfg.params
    if cfg.fee_search == "golden":
        return optimal_fee_uniform(cfg.edge_power, cfg.unit_cost, params,
                                   objective=objective)
    floor = max(params.min_consumption, 1e-6)
    check_kappa(objective, floor, params.delay_discount(params.mobile_tx_load))

    def profit_fn(fee):
        if fee < floor:
            return -math.inf  # devices refuse fees below their consumption
        game = UniformGame(cfg.edge_power, fee, cfg.unit_cost, params)
        return (leader_delta_utility_uniform(game, objective),
                best_response_uniform(game))

    search = SearchConfig(initial_fee=max(cfg.initial_fee, floor),
                          step_factor=cfg.step_factor,
                          tolerance=cfg.tolerance, max_iters=cfg.max_iters)
    best_fee, _ = multiplicative_fee_search(profit_fn, search)
    return best_fee, profit_fn(best_fee)[0]


def _rows_solve_uniform(cfg: ExperimentConfig):
    params = cfg.params
    objective = cfg.resolved_objective()
    optimal_fee, optimal_profit = _optimize_fee(cfg, objective)
    fee = cfg.fee if cfg.fee is not None else optimal_fee
    game = UniformGame(cfg.edge_power, fee, cfg.unit_cost, params)
    response = best_response_uniform(game)
    certificate = uniqueness_certificate_uniform(game)
    return [{
        "edge_power": cfg.edge_power,
        "fee": fee,
        "unit_cost": cfg.unit_cost,
        "best_response_power": response,
        "follower_utility": aggregate_miner_utility(game, response),
        "leader_profit_full": leader_delta_utility_uniform(game, "full"),
        # the simplified objective divides by kappa; undefined at kappa == 0
        "leader_profit_simplified": (leader_delta_utility_uniform(game, "simplified")
                                     if game.kappa > 0 else math.nan),
        "certified_unique": certificate.certified,
        "below_quarter_bound": certificate.below_quarter_bound,
        "below_positivity_bound": certificate.below_positivity_bound,
        "optimal_fee": optimal_fee,
        "optimal_profit": optimal_profit,
        "status": "ok",
    }]


def _rows_solve_disc(cfg: ExperimentConfig):
    game = DiscriminatoryGame(np.asarray(cfg.fees, dtype=float), cfg.unit_cost, cfg.params)
    template = {
        "miner": -1, "fee": math.nan, "power": math.nan, "share": math.nan,
        "utility": math.nan, "certified_unique_i": False,
        "leader_delta_full": math.nan, "leader_delta_simplified": math.nan,
        "status": "ok",
    }
    try:
        allocation = nash_equilibrium_closed_form(game)
    except InfeasibleEquilibriumError as exc:
        shown = " ".join(str(i) for i in exc.indices[:5])
        more = " ..." if len(exc.indices) > 5 else ""
        return [_failed(template, f"infeasible: miners {shown}{more} "
                                  f"({len(exc.indices)} of {game.n_miners})")]
    certificate = uniqueness_certificate_discriminatory(game)
    # miner_utility_i and leader_delta_utility_discriminatory, elementwise
    # over every miner from this one solve
    fees, powers, shares = game.fees, allocation.powers, allocation.shares()
    discount = game.params.delay_discount(game.params.mobile_tx_load)
    a = leader_reward_scale(game.params)
    utility = fees * shares * discount - game.unit_cost * powers
    delta_full = a * shares - (fees * powers if cfg.fee_basis == "per_power" else fees)
    delta_simplified = a * (1.0 - (game.n_miners - 1) / (fees * math.fsum(1.0 / fees)))
    return [{
        "miner": i,
        "fee": float(fees[i]),
        "power": float(powers[i]),
        "share": float(shares[i]),
        "utility": float(utility[i]),
        "certified_unique_i": bool(certificate.per_miner[i]),
        "leader_delta_full": float(delta_full[i]),
        "leader_delta_simplified": float(delta_simplified[i]),
        "status": "ok",
    } for i in range(game.n_miners)]


def _rows_simulate(cfg: ExperimentConfig):
    sim = SimConfig(n_blocks=cfg.n_blocks, tx_per_block=cfg.params.tx_per_block,
                    seed=cfg.seed, params=cfg.params)
    outcome = simulate_mining(list(cfg.powers), sim)
    shares = np.asarray(cfg.powers, dtype=float) / math.fsum(cfg.powers)
    discount = cfg.params.delay_discount(sim.tx_per_block)
    columns = (cfg.powers, shares.tolist(), (shares * discount).tolist(),
               outcome.wins.tolist(), outcome.frequencies.tolist())
    rows = [{
        "miner": i,
        "power": float(power),
        "share": share,
        "win_prob_model": win_prob,
        "wins": wins,
        "frequency": frequency,
        "status": "ok",
    } for i, (power, share, win_prob, wins, frequency) in enumerate(zip(*columns))]
    rows.append({
        "miner": -1,
        "power": math.nan,
        "share": math.nan,
        "win_prob_model": 1.0 - discount,
        "wins": outcome.orphans,
        "frequency": outcome.orphans / outcome.n_blocks,
        "status": "ok",
    })
    return rows


_BUILDERS = {
    "fig1": _rows_fig1, "fig2": _rows_fig2, "fig3": _rows_fig3, "fig4": _rows_fig4,
    "fig5": _rows_fig5, "fig6": _rows_mdg, "compare-mdg": _rows_mdg,
    "solve-uniform": _rows_solve_uniform, "solve-disc": _rows_solve_disc,
    "simulate": _rows_simulate,
}


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def render_report(rows, fmt: str) -> str:
    """Serialize rows to CSV or JSON text with round-trippable floats."""
    if fmt == "json":
        clean = []
        for row in rows:
            clean.append({k: (bool(v) if isinstance(v, np.bool_) else
                              int(v) if isinstance(v, np.integer) else
                              float(v) if isinstance(v, np.floating) else v)
                          for k, v in row.items()})
        return json.dumps(clean, indent=2) + "\n"
    if not rows:
        return ""
    header = list(rows[0].keys())
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_format_cell(row[key]) for key in header] for row in rows)
    return buffer.getvalue()


def run_experiment(cfg: ExperimentConfig):
    """Build the rows for cfg, write the report file, print a summary.

    Returns (rows, path, n_failed); infeasible instances become row-level
    markers in the ``status`` column rather than aborting the run.
    """
    if cfg.kind not in _BUILDERS:
        raise ConfigError(f"unknown experiment kind {cfg.kind!r}")
    rows = _BUILDERS[cfg.kind](cfg)
    path = cfg.out or f"{cfg.kind}.{cfg.format}"
    text = render_report(rows, cfg.format)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    n_failed = sum(1 for row in rows if row.get("status") != "ok")
    print(f"{cfg.kind}: wrote {len(rows)} rows to {path}"
          + (f" ({n_failed} infeasible)" if n_failed else ""))
    return rows, path, n_failed
