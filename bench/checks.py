"""Output checks computed apart from edgeminer, with numpy and the model's formulas.

Every check either recomputes a value from the model as stated (closed
forms, the Nash allocation of a Tullock contest with linear costs, a
binomial bound) or asserts a property the method must have (monotone
curves, shares summing to one, a best-response fixed point).  A failed check
raises CheckError with a message naming the row and the column.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# GameParams defaults; the workloads pass any other value explicitly
DEFAULTS = {
    "fixed_reward": 10.0, "tx_reward": 2.0, "poisson_rate": 0.01, "delay_factor": 1.0,
    "tx_per_block": 10, "mobile_tx_load": 10, "edge_overhead": 0.5, "min_consumption": 0.1,
}
SIGMAS = 6.0  # binomial bound for Monte-Carlo frequencies


class CheckError(AssertionError):
    pass


def expect(condition, message):
    if not condition:
        raise CheckError(message)


def close(actual, expected, rel, what, abs_tol=0.0):
    ok = abs(actual - expected) <= max(rel * max(abs(actual), abs(expected)), abs_tol)
    expect(ok, f"{what}: got {actual!r}, expected {expected!r} (rel tol {rel:g})")


class Model:
    """The model's constants, from the same settings the operation passed."""

    def __init__(self, **overrides):
        p = {**DEFAULTS, **overrides}
        self.p = p
        self.reward = p["fixed_reward"] + p["tx_reward"]
        rate = p["poisson_rate"] * p["delay_factor"]
        self.rate = rate
        self.d_block = math.exp(-rate * p["tx_per_block"])
        self.d_device = math.exp(-rate * p["mobile_tx_load"])
        self.a = self.reward * self.d_device          # leader reward scale
        self.floor = max(p["min_consumption"], 1e-6)
        self.overhead = p["edge_overhead"]

    def uniform_response(self, fee, edge_power, unit_cost):
        """Device-pool power answering a uniform fee (0 when staying out pays)."""
        y = np.sqrt(fee * self.d_device * edge_power / unit_cost) - edge_power
        return np.maximum(y, 0.0)

    def uniform_profit(self, fee, edge_power, unit_cost):
        """Leader's full profit a*Y/(X+Y) - fee at the pool's response."""
        y = self.uniform_response(fee, edge_power, unit_cost)
        return self.a * y / (edge_power + y) - fee

    def stage1_fee(self, edge_power, unit_cost):
        """Closed-form stage-I fee and profit on the bracket [floor, 100a].

        The interior optimum is p* = ((a/2) sqrt(X u / d))^(2/3); it is
        clamped to the bracket and compared with the floor endpoint, where
        the profit is -p if the pool stays out.
        """
        lo, hi = self.floor, 100.0 * self.a
        star = ((self.a / 2.0) * math.sqrt(edge_power * unit_cost / self.d_device)) ** (2.0 / 3.0)
        candidates = [min(max(star, lo), hi), lo]
        profits = [float(self.uniform_profit(p, edge_power, unit_cost)) for p in candidates]
        best = int(np.argmax(profits))
        return candidates[best], profits[best]

    def check_stage1(self, fee, profit, edge_power, unit_cost, fee_rel, what):
        """Fee and profit against the closed form and a dense grid of the profit."""
        expected_fee, expected_profit = self.stage1_fee(edge_power, unit_cost)
        close(fee, expected_fee, fee_rel, f"{what} stage-I fee")
        close(profit, float(self.uniform_profit(fee, edge_power, unit_cost)), 1e-12,
              f"{what} profit at the reported fee")
        close(profit, expected_profit, 1e-8, f"{what} stage-I profit", abs_tol=1e-10)
        grid = np.geomspace(self.floor, 100.0 * self.a, 4001)
        best_on_grid = float(np.max(self.uniform_profit(grid, edge_power, unit_cost)))
        expect(profit >= best_on_grid - 1e-9 * (1.0 + abs(best_on_grid)),
               f"{what}: profit {profit!r} below the dense-grid maximum {best_on_grid!r}")


def nash_allocation(fees, unit_cost, model):
    """Interior Nash allocation x_i = T - c_i T^2 with T = (M-1)/sum(c)."""
    c = unit_cost / (np.asarray(fees, dtype=float) * model.d_device)
    total = (c.size - 1) / math.fsum(c)
    return total - c * total * total


def br_residual(powers, fees, unit_cost, model):
    """max |BR(x) - x| of the per-miner game at profile x."""
    x = np.asarray(powers, dtype=float)
    c = unit_cost / (np.asarray(fees, dtype=float) * model.d_device)
    others = x.sum() - x
    response = np.maximum(np.sqrt(others / c) - others, 0.0)
    return float(np.max(np.abs(response - x)))


def matched_fees(device_power, n_miners, unit_cost, model):
    """Evenly spread per-miner fees whose Nash total is device_power."""
    spread = min(0.2, 0.5 / n_miners)
    multipliers = np.linspace(1.0 - spread, 1.0 + spread, n_miners)
    base = (device_power * unit_cost * math.fsum(1.0 / multipliers)
            / ((n_miners - 1) * model.d_device))
    return base * multipliers


# ---- report parsing ---------------------------------------------------------

def _cell(text, column, lineno):
    if column == "status":
        return text
    if text in ("true", "false"):
        return text == "true"
    value = float(text)
    if text.lstrip("-").isdigit():
        expect(int(text) == value, f"line {lineno} {column}: integer {text!r} lost digits")
        return int(text)
    expect(repr(value) == text,
           f"line {lineno} {column}: cell {text!r} does not round-trip through float()")
    return value


def parse_report(text, fmt, columns):
    """Rows of a CSV or JSON report, with the header checked against columns."""
    if fmt == "json":
        rows = json.loads(text)
        expect(isinstance(rows, list), "JSON report is not an array")
        for row in rows:
            expect(list(row) == columns, f"JSON keys {list(row)} != {columns}")
        return rows
    expect(text.endswith("\n") and "\r" not in text, "CSV must end with LF and use LF only")
    lines = list(csv.reader(io.StringIO(text)))
    expect(lines and lines[0] == columns, f"CSV header {lines[:1]} != {columns}")
    for lineno, line in enumerate(lines[1:], start=2):
        expect(len(line) == len(columns), f"CSV line {lineno} has {len(line)} cells")
    return [{col: _cell(cell, col, lineno) for col, cell in zip(columns, line)}
            for lineno, line in enumerate(lines[1:], start=2)]


def all_ok(rows, what):
    bad = [i for i, row in enumerate(rows) if row["status"] != "ok"]
    expect(not bad, f"{what}: rows {bad[:5]} not ok: {rows[bad[0]]['status'] if bad else ''}")


# ---- per-kind checks ----------------------------------------------------------

FIG1_COLUMNS = ["edge_power", "device_power", "edge_share", "success_prob_model",
                "success_prob_empirical", "status"]


def check_fig1(rows, grid, device_power, n_seeds, n_blocks, model):
    expect(len(rows) == grid.size, f"fig1: {len(rows)} rows for {grid.size} grid points")
    all_ok(rows, "fig1")
    x = np.array([r["edge_power"] for r in rows])
    np.testing.assert_allclose(x, grid, rtol=1e-15)
    share = x / (x + device_power)
    want = share * math.exp(-model.rate * model.p["tx_per_block"])
    got = np.array([r["success_prob_model"] for r in rows])
    emp = np.array([r["success_prob_empirical"] for r in rows])
    np.testing.assert_allclose([r["edge_share"] for r in rows], share, rtol=1e-14)
    np.testing.assert_allclose(got, want, rtol=1e-14)
    trials = n_seeds * n_blocks
    bound = SIGMAS * np.sqrt(want * (1.0 - want) / trials) + 1.0 / trials
    worst = int(np.argmax(np.abs(emp - want) - bound))
    expect(np.all(np.abs(emp - want) <= bound),
           f"fig1 row {worst}: empirical {emp[worst]!r} outside the binomial bound of "
           f"{want[worst]!r}")
    expect(np.all(np.diff(got) > 0), "fig1: model column does not rise with edge power")
    expect(np.all(np.diff(emp) >= 0), "fig1: empirical column falls as edge power rises")


SIMULATE_COLUMNS = ["miner", "power", "share", "win_prob_model", "wins", "frequency", "status"]


def check_simulate(rows, powers, n_blocks, model):
    powers = np.asarray(powers, dtype=float)
    expect(len(rows) == powers.size + 1, f"simulate: {len(rows)} rows for {powers.size} miners")
    all_ok(rows, "simulate")
    miners, orphan = rows[:-1], rows[-1]
    expect([r["miner"] for r in miners] == list(range(powers.size)) and orphan["miner"] == -1,
           "simulate: miner column out of order")
    share = powers / math.fsum(powers)
    want = share * model.d_block
    wins = np.array([r["wins"] for r in miners], dtype=np.int64)
    np.testing.assert_allclose([r["share"] for r in miners], share, rtol=1e-14)
    np.testing.assert_allclose([r["win_prob_model"] for r in miners], want, rtol=1e-14)
    close(orphan["win_prob_model"], 1.0 - model.d_block, 1e-12, "simulate orphan probability")
    expect(int(wins.sum()) + int(orphan["wins"]) == n_blocks,
           f"simulate: wins {int(wins.sum())} + orphans {orphan['wins']} != {n_blocks} blocks")
    freq = np.array([r["frequency"] for r in miners])
    np.testing.assert_array_equal(freq, wins / n_blocks)
    close(orphan["frequency"], orphan["wins"] / n_blocks, 0.0, "simulate orphan frequency")
    probs = np.append(want, 1.0 - model.d_block)
    counts = np.append(wins, orphan["wins"])
    bound = SIGMAS * np.sqrt(probs * (1.0 - probs) / n_blocks) + 1.0 / n_blocks
    worst = int(np.argmax(np.abs(counts / n_blocks - probs) - bound))
    expect(np.all(np.abs(counts / n_blocks - probs) <= bound),
           f"simulate row {worst}: frequency outside the binomial bound")


FIG2_COLUMNS = ["fixed_reward", "optimal_fee", "leader_profit", "status"]


def check_fig2(rows, grid, edge_power, unit_cost, overrides):
    expect(len(rows) == grid.size, f"fig2: {len(rows)} rows for {grid.size} grid points")
    all_ok(rows, "fig2")
    for i, (row, reward) in enumerate(zip(rows, grid)):
        close(row["fixed_reward"], float(reward), 1e-15, f"fig2 row {i} fixed_reward")
        model = Model(**{**overrides, "fixed_reward": float(reward)})
        model.check_stage1(row["optimal_fee"], row["leader_profit"], edge_power, unit_cost,
                           1e-6, f"fig2 row {i}")


MDG_COLUMNS = ["total_power", "edge_power", "device_power", "fee_emg", "fee_mdg",
               "profit_emg", "profit_mdg", "profit_gap", "status"]


def check_mdg_rows(rows, grid, fraction, unit_cost, mdg_mult, model, what):
    expect(len(rows) == grid.size, f"{what}: {len(rows)} rows for {grid.size} grid points")
    all_ok(rows, what)
    mdg_discount = math.exp(-model.rate * model.p["tx_per_block"] * mdg_mult)
    for i, (row, total) in enumerate(zip(rows, np.sort(grid))):
        where = f"{what} fraction {fraction} row {i}"
        close(row["total_power"], float(total), 1e-15, f"{where} total_power")
        edge = fraction * float(total)
        close(row["edge_power"], edge, 1e-14, f"{where} edge_power")
        close(row["device_power"], float(total) - edge, 1e-14, f"{where} device_power")
        fee = row["fee_emg"]
        fee_want, _ = model.stage1_fee(edge, unit_cost)
        close(fee, fee_want, 1e-6, f"{where} fee_emg")
        close(row["fee_mdg"], fee * float(total) / row["device_power"], 1e-14,
              f"{where} fee_mdg")
        close(row["profit_emg"], model.reward * model.d_block - fee - model.overhead,
              1e-12, f"{where} profit_emg", abs_tol=1e-12)
        close(row["profit_mdg"],
              model.reward * mdg_discount - row["fee_mdg"] - model.overhead,
              1e-12, f"{where} profit_mdg", abs_tol=1e-12)
        close(row["profit_gap"], row["profit_emg"] - row["profit_mdg"], 1e-12,
              f"{where} profit_gap", abs_tol=1e-12)
    # the dense-grid oracle on every eighth row keeps the check cheap
    for i in range(0, len(rows), 8):
        row = rows[i]
        fee = row["fee_emg"]
        profit = float(model.uniform_profit(fee, row["edge_power"], unit_cost))
        model.check_stage1(fee, profit, row["edge_power"], unit_cost, 1e-6, f"{what} row {i}")


def check_fig6(rows, grid, fractions, unit_cost, mdg_mult, model):
    expect(len(rows) == grid.size * len(fractions), f"fig6: {len(rows)} rows")
    for k, fraction in enumerate(fractions):
        block = rows[k * grid.size:(k + 1) * grid.size]
        expect(all(r["edge_fraction"] == fraction for r in block),
               f"fig6: edge_fraction column out of order for {fraction}")
        stripped = [{c: r[c] for c in MDG_COLUMNS} for r in block]
        check_mdg_rows(stripped, grid, fraction, unit_cost, mdg_mult, model, "fig6")


SOLVE_UNIFORM_COLUMNS = [
    "edge_power", "fee", "unit_cost", "best_response_power", "follower_utility",
    "leader_profit_full", "leader_profit_simplified", "certified_unique",
    "below_quarter_bound", "below_positivity_bound", "optimal_fee", "optimal_profit", "status"]


def check_solve_uniform(row, edge_power, unit_cost, model, fee_rel, what):
    all_ok([row], what)
    fee = row["fee"]
    expect(fee == row["optimal_fee"], f"{what}: fee column is not the optimal fee")
    model.check_stage1(fee, row["optimal_profit"], edge_power, unit_cost, fee_rel, what)
    kappa = fee * model.d_device
    y = float(model.uniform_response(fee, edge_power, unit_cost))
    close(row["best_response_power"], y, 1e-12, f"{what} best_response_power", abs_tol=1e-12)
    close(row["follower_utility"], kappa * y / (edge_power + y) - unit_cost * y, 1e-10,
          f"{what} follower_utility", abs_tol=1e-12)
    close(row["leader_profit_full"], row["optimal_profit"], 1e-14, f"{what} leader_profit_full")
    close(row["leader_profit_simplified"],
          model.a * (1.0 - math.sqrt(edge_power * unit_cost / kappa)), 1e-12,
          f"{what} leader_profit_simplified", abs_tol=1e-12)
    expect(row["certified_unique"] == (edge_power < kappa / (4.0 * unit_cost)),
           f"{what}: certified_unique disagrees with X < kappa/(4u)")


POWER_SWEEP_COLUMNS = {
    "device_power": ["device_power", "edge_power", "fee_same", "profit_same_fee",
                     "fee_bill_diff", "profit_diff_fee", "status"],
    "edge_power": ["edge_power", "device_power", "fee_same", "profit_same_fee",
                   "fee_bill_diff", "profit_diff_fee", "status"],
}


def check_power_sweep(rows, axis, grid, fixed_power, n_miners, unit_cost, model, what):
    """fig3/fig4: both fee schemes induce exactly the stated device power."""
    expect(len(rows) == grid.size, f"{what}: {len(rows)} rows for {grid.size} grid points")
    for i, (row, value) in enumerate(zip(rows, grid)):
        where = f"{what} row {i}"
        if axis == "device_power":
            edge, device = fixed_power, float(value)
        else:
            edge, device = float(value), fixed_power
        close(row["edge_power"], edge, 1e-15, f"{where} edge_power")
        close(row["device_power"], device, 1e-15, f"{where} device_power")
        if edge <= 0:
            expect(row["status"].startswith("infeasible:"),
                   f"{where}: zero edge power not marked infeasible")
            continue
        expect(row["status"] == "ok", f"{where}: status {row['status']!r}")
        induced = float(model.uniform_response(row["fee_same"], edge, unit_cost))
        close(induced, device, 1e-9, f"{where} power induced by fee_same", abs_tol=1e-9)
        kappa = row["fee_same"] * model.d_device
        close(row["profit_same_fee"], model.a * (1.0 - math.sqrt(edge * unit_cost / kappa)),
              1e-9, f"{where} profit_same_fee", abs_tol=1e-9)
        if device == 0:
            expect(row["fee_bill_diff"] == 0 and row["profit_diff_fee"] == 0,
                   f"{where}: no devices but a nonzero bill or profit")
            continue
        fees = matched_fees(device, n_miners, unit_cost, model)
        close(row["fee_bill_diff"], math.fsum(fees), 1e-12, f"{where} fee_bill_diff")
        x = nash_allocation(fees, unit_cost, model)
        expect(np.all(x >= 0), f"{where}: matched fees give a negative allocation")
        close(math.fsum(x), device, 1e-9, f"{where} Nash total of the matched fees")
        close(row["profit_diff_fee"], model.a * math.fsum(x) / (edge + device), 1e-9,
              f"{where} profit_diff_fee")


FIG5_COLUMNS = ["edge_fraction", "total_power", "edge_power", "device_power", "fee_bill_emg",
                "profit_emg", "fee_bill_mdg", "profit_mdg", "profit_gap", "status"]


def check_fig5(rows, grid, fractions, n_miners, unit_cost, mdg_mult, model):
    """fig5: the matched fees' Nash allocation sums to the device power."""
    expect(len(rows) == grid.size * len(fractions), f"fig5: {len(rows)} rows")
    all_ok(rows, "fig5")
    mdg_discount = math.exp(-model.rate * model.p["tx_per_block"] * mdg_mult)
    i = 0
    for fraction in fractions:
        for total in grid:
            row, where = rows[i], f"fig5 row {i}"
            i += 1
            total = float(total)
            device = total - fraction * total
            close(row["device_power"], device, 1e-14, f"{where} device_power")
            fees = matched_fees(device, n_miners, unit_cost, model)
            bill = math.fsum(fees)
            close(row["fee_bill_emg"], bill, 1e-12, f"{where} fee_bill_emg")
            close(math.fsum(nash_allocation(fees, unit_cost, model)), device, 1e-9,
                  f"{where} Nash total of the matched fees")
            close(row["fee_bill_mdg"], bill / (1.0 - fraction), 1e-12, f"{where} fee_bill_mdg")
            close(row["profit_emg"], model.reward * model.d_block - bill - model.overhead,
                  1e-12, f"{where} profit_emg", abs_tol=1e-12)
            close(row["profit_mdg"],
                  model.reward * mdg_discount - row["fee_bill_mdg"] - model.overhead,
                  1e-12, f"{where} profit_mdg", abs_tol=1e-12)
            close(row["profit_gap"], row["profit_emg"] - row["profit_mdg"], 1e-12,
                  f"{where} profit_gap", abs_tol=1e-11)


SOLVE_DISC_COLUMNS = ["miner", "fee", "power", "share", "utility", "certified_unique_i",
                      "leader_delta_full", "leader_delta_simplified", "status"]


def check_solve_disc(rows, fees, unit_cost, model):
    """Per-miner rows: shares sum to 1 and the powers are a best-response fixed point.

    Where the interior formula gives every miner positive power the rows
    must match it; otherwise some miners stay out, and the fixed point,
    nonnegative powers and the per-row accounting are what is checked.
    """
    fees = np.asarray(fees, dtype=float)
    expect(len(rows) == fees.size, f"solve-disc: {len(rows)} rows for {fees.size} miners")
    all_ok(rows, "solve-disc")
    expect([r["miner"] for r in rows] == list(range(fees.size)), "solve-disc: miner order")
    np.testing.assert_array_equal([r["fee"] for r in rows], fees)
    x = np.array([r["power"] for r in rows])
    share = np.array([r["share"] for r in rows])
    expect(np.all(x >= 0), "solve-disc: negative power")
    close(math.fsum(share), 1.0, 1e-9, "solve-disc shares sum")
    np.testing.assert_allclose(share, x / math.fsum(x), rtol=1e-12)
    residual = br_residual(x, fees, unit_cost, model)
    expect(residual <= 1e-9 * float(np.max(x)),
           f"solve-disc: best-response residual {residual:g} above 1e-9 of max power")
    np.testing.assert_allclose([r["utility"] for r in rows],
                               fees * share * model.d_device - unit_cost * x,
                               rtol=1e-9, atol=1e-12)
    np.testing.assert_allclose([r["leader_delta_full"] for r in rows],
                               model.a * share - fees, rtol=1e-9, atol=1e-12)
    inv_sum = math.fsum(1.0 / fees)
    expect([r["certified_unique_i"] for r in rows]
           == (2.0 * (fees.size - 1) / fees < inv_sum).tolist(),
           "solve-disc: certified_unique_i disagrees with 2(M-1)/p_i < sum 1/p_j")
    interior = nash_allocation(fees, unit_cost, model)
    if np.all(interior > 0):
        np.testing.assert_allclose(x, interior, rtol=1e-9)
        np.testing.assert_allclose([r["leader_delta_simplified"] for r in rows],
                                   model.a * (1.0 - (fees.size - 1) / (fees * inv_sum)),
                                   rtol=1e-9, atol=1e-12)


def check_disc_stage1(fees, profit, n_miners, model):
    """Coordinate ascent lands on the symmetric point a(M-1)^2/M^2."""
    target = model.a * (n_miners - 1) ** 2 / n_miners ** 2
    expect(fees.shape == (n_miners,), f"stage-I fee vector has shape {fees.shape}")
    worst = float(np.max(np.abs(fees - target))) / target
    expect(worst <= 1e-4, f"stage-I fees off a(M-1)^2/M^2 = {target!r} by {worst:.3g} relative")
    share = 1.0 - (n_miners - 1) / (fees * np.sum(1.0 / fees))
    close(profit, math.fsum(model.a * share - fees), 1e-9, "stage-I summed profit",
          abs_tol=1e-9)


def check_brd(brd_powers, closed_powers, fees, unit_cost, model, what):
    """Best-response dynamics and the closed form reach the same fixed point."""
    want = nash_allocation(fees, unit_cost, model)
    scale = float(np.max(want))
    np.testing.assert_allclose(closed_powers, want, rtol=1e-9, err_msg=f"{what} closed form")
    gap = float(np.max(np.abs(brd_powers - want)))
    expect(gap <= 1e-6 * scale, f"{what}: BRD is {gap:g} from the closed form")
    residual = br_residual(brd_powers, fees, unit_cost, model)
    expect(residual <= 1e-8 * scale, f"{what}: BRD residual {residual:g}")
