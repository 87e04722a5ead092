"""The three workloads: each is a fixed list of operations built from a seed.

An operation is one public call, timed on its own: ``edgeminer.cli.main``
run in-process on an argv list, writing its report into the work directory
with stdout captured, or a library function the CLI does not reach.  The
seed draws the inputs' values (grid ends, powers, fees, unit costs, simulator
seeds); it never changes an operation's size, so every seed costs the same
work.  The two operations that fail on purpose use fixed inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
from dataclasses import dataclass, field

import numpy as np

import edgeminer
import edgeminer.cli
from checks import (
    FIG1_COLUMNS, FIG2_COLUMNS, FIG5_COLUMNS, MDG_COLUMNS, POWER_SWEEP_COLUMNS,
    SIMULATE_COLUMNS, SOLVE_DISC_COLUMNS, SOLVE_UNIFORM_COLUMNS, Model, CheckError,
    check_brd, check_disc_stage1, check_fig1, check_fig2, check_fig5, check_fig6,
    check_mdg_rows, check_power_sweep, check_simulate, check_solve_disc,
    check_solve_uniform, close, expect, parse_report,
)

def _same(raw):
    return raw


@dataclass
class Op:
    """One timed call plus its untimed checks.

    ``run`` is the timed call.  ``finish`` turns its raw result into the
    output that ``check`` verifies and ``digest`` hashes.  ``fault``
    recognises the one known failure an operation may end in.
    """

    kind: str
    run: object
    check: object
    digest: object
    finish: object = _same
    fault: object = None


@dataclass
class CliOutput:
    code: int
    stderr: str
    text: str
    fmt: str


@dataclass
class CliCall:
    argv: list
    path: str
    fmt: str

    def run(self):
        if os.path.exists(self.path):
            os.unlink(self.path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = edgeminer.cli.main(self.argv)
        return code, err.getvalue()

    def finish(self, raw):
        code, stderr = raw
        text = ""
        if os.path.exists(self.path):
            with open(self.path, encoding="utf-8", newline="") as fh:
                text = fh.read()
        return CliOutput(code, stderr, text, self.fmt)


@dataclass
class Builder:
    """Collects a workload's operations; the seed draws every input value."""

    workload: str
    seed: int
    workdir: str
    rng: random.Random = field(init=False)
    ops: list = field(default_factory=list)
    _files: int = 0

    def __post_init__(self):
        self.rng = random.Random(f"{self.workload}:{self.seed}")

    def uniform(self, lo, hi, digits=6):
        return round(self.rng.uniform(lo, hi), digits)

    def cli(self, argv, fmt="csv"):
        self._files += 1
        path = os.path.join(self.workdir, f"op{self._files}.{fmt}")
        return CliCall(list(argv) + ["--format", fmt, "--out", path], path, fmt)

    def add_cli(self, kind, argv, columns, check, fmt="csv", fault=None):
        call = self.cli(argv, fmt)

        def checked(out):
            expect(out.code == 0, f"{kind}: exit code {out.code}: {out.stderr.strip()}")
            check(parse_report(out.text, out.fmt, columns))

        self.ops.append(Op(kind, call.run, checked, _cli_digest, call.finish, fault))

    def add_cli_batch(self, kind, calls, check):
        """Several CLI calls timed as one operation; check gets their outputs."""
        def run():
            return [call.run() for call in calls]

        def finish(raws):
            return [call.finish(raw) for call, raw in zip(calls, raws)]

        def digest(outs):
            return hashlib.sha256(b"".join(_cli_digest(o) for o in outs)).digest()

        self.ops.append(Op(kind, run, check, digest, finish))


def _cli_digest(out):
    return hashlib.sha256(f"{out.code}\n{out.text}".encode()).digest()


def _floats(values):
    return ",".join(repr(float(v)) for v in values)


def _array_digest(out):
    h = hashlib.sha256()
    for item in out:
        h.update(np.asarray(item, dtype=float).tobytes() if not isinstance(item, str)
                 else item.encode())
    return h.digest()


# ---- montecarlo ----------------------------------------------------------------

FIG1_SEEDS, FIG1_BLOCKS, FIG1_STEPS = 20, 10_000, 50
SIM_BLOCKS = 3_000_000
SIM_MANY_MINERS, SIM_MANY_BLOCKS = 1000, 200_000


def montecarlo(b: Builder):
    """fig1 over many seeds x blocks, and simulate with many blocks or many miners."""
    model = Model()
    for _ in range(2):
        device = b.uniform(40, 60)
        start, stop, seed = b.uniform(1, 5), b.uniform(90, 110), b.rng.randrange(10**6)
        grid = np.linspace(start, stop, FIG1_STEPS)
        b.add_cli("fig1", ["fig", "1", "--n-seeds", str(FIG1_SEEDS),
                           "--n-blocks", str(FIG1_BLOCKS), "--grid-start", repr(start),
                           "--grid-stop", repr(stop), "--grid-steps", str(FIG1_STEPS),
                           "--device-power", repr(device), "--seed", str(seed)],
                  FIG1_COLUMNS,
                  lambda rows, g=grid, d=device: check_fig1(rows, g, d, FIG1_SEEDS,
                                                            FIG1_BLOCKS, model))
    for _ in range(4):
        powers = [b.uniform(10, 100) for _ in range(3)]
        b.add_cli("simulate-blocks", ["simulate", "--powers", _floats(powers),
                                      "--n-blocks", str(SIM_BLOCKS),
                                      "--seed", str(b.rng.randrange(10**6))],
                  SIMULATE_COLUMNS,
                  lambda rows, p=powers: check_simulate(rows, p, SIM_BLOCKS, model))
    for k in range(2):
        powers = [b.uniform(1, 10) for _ in range(SIM_MANY_MINERS)]
        b.add_cli("simulate-miners", ["simulate", "--powers", _floats(powers),
                                      "--n-blocks", str(SIM_MANY_BLOCKS),
                                      "--seed", str(b.rng.randrange(10**6))],
                  SIMULATE_COLUMNS,
                  lambda rows, p=powers: check_simulate(rows, p, SIM_MANY_BLOCKS, model),
                  fmt=("csv", "json")[k])


# ---- stage1-sweeps -------------------------------------------------------------

FIG2_STEPS, MDG_STEPS, FIG6_STEPS = 200, 200, 400
SOLVE_UNIFORM_BATCH = 8


def stage1_sweeps(b: Builder):
    """Stage-I fee searches over fine grids, and single solves by both searches."""
    model = Model()
    edge, cost = b.uniform(30, 70), b.uniform(0.004, 0.006)
    start, stop = b.uniform(1, 3), b.uniform(45, 55)
    grid = np.linspace(start, stop, FIG2_STEPS)
    b.add_cli("fig2", ["fig", "2", "--edge-power", repr(edge), "--unit-cost", repr(cost),
                       "--grid-start", repr(start), "--grid-stop", repr(stop),
                       "--grid-steps", str(FIG2_STEPS)],
              FIG2_COLUMNS, lambda rows: check_fig2(rows, grid, edge, cost, {}))

    fraction, mult = b.uniform(0.3, 0.7), b.uniform(1.3, 1.7)
    m_start, m_stop = b.uniform(5, 15), b.uniform(180, 220)
    m_grid = np.linspace(m_start, m_stop, MDG_STEPS)
    b.add_cli("compare-mdg", ["compare-mdg", "--edge-fraction", repr(fraction),
                              "--mdg-delay-mult", repr(mult), "--unit-cost", repr(cost),
                              "--grid-start", repr(m_start), "--grid-stop", repr(m_stop),
                              "--grid-steps", str(MDG_STEPS)],
              MDG_COLUMNS,
              lambda rows: check_mdg_rows(rows, m_grid, fraction, cost, mult, model,
                                          "compare-mdg"),
              fmt="json")

    for _ in range(4):
        _solve_uniform_batch(b, model)

    for k in range(2):
        fractions = (b.uniform(0.05, 0.15), b.uniform(0.4, 0.6), b.uniform(0.85, 0.95))
        f_start, f_stop, f_mult = b.uniform(5, 15), b.uniform(180, 220), b.uniform(1.3, 1.7)
        f_grid = np.linspace(f_start, f_stop, FIG6_STEPS)
        b.add_cli("fig6", ["fig", "6", "--edge-fractions", _floats(fractions),
                           "--mdg-delay-mult", repr(f_mult), "--unit-cost", repr(cost),
                           "--grid-start", repr(f_start), "--grid-stop", repr(f_stop),
                           "--grid-steps", str(FIG6_STEPS)],
                  ["edge_fraction"] + MDG_COLUMNS,
                  lambda rows, fr=fractions, g=f_grid, m=f_mult:
                      check_fig6(rows, g, fr, cost, m, model),
                  fmt=("csv", "json")[k])


def _solve_uniform_batch(b: Builder, model):
    """Each instance solved by golden section and by the hill-climb; half CSV, half JSON."""
    instances, calls = [], []
    for i in range(SOLVE_UNIFORM_BATCH):
        edge, cost = b.uniform(20, 80), b.uniform(0.003, 0.008)
        instances.append((edge, cost))
        golden_fmt, climb_fmt = ("csv", "json") if i % 2 == 0 else ("json", "csv")
        base = ["solve-uniform", "--edge-power", repr(edge), "--unit-cost", repr(cost)]
        calls.append(b.cli(base + ["--fee-search", "golden"], golden_fmt))
        calls.append(b.cli(base + ["--fee-search", "hillclimb"], climb_fmt))

    def check(outs):
        for i, (edge, cost) in enumerate(instances):
            rows = []
            for out, search, rel in ((outs[2 * i], "golden", 1e-6),
                                     (outs[2 * i + 1], "hillclimb", 1e-4)):
                expect(out.code == 0, f"solve-uniform {search}: exit code {out.code}")
                parsed = parse_report(out.text, out.fmt, SOLVE_UNIFORM_COLUMNS)
                expect(len(parsed) == 1, f"solve-uniform {search}: {len(parsed)} rows")
                check_solve_uniform(parsed[0], edge, cost, model, rel,
                                    f"solve-uniform {search} instance {i}")
                rows.append(parsed[0])
            close(rows[1]["optimal_fee"], rows[0]["optimal_fee"], 1e-4,
                  f"solve-uniform instance {i}: hill-climb vs golden fee")

    b.add_cli_batch("solve-uniform", calls, check)


# ---- disc-scale ----------------------------------------------------------------

SOLVE_DISC_SIZES = (1000, 1000, 1000, 500, 500, 500, 500, 500)
DISC_STAGE1_SIZES = (2, 5, 10, 20, 30, 40)
BRD_SMALL, BRD_SMALL_GAMES, BRD_MEDIUM = 10, 10, 100
FIG_MINERS = 1000
FIG34_STEPS, FIG5_STEPS = 401, 40
# fixed inputs of the two operations that fail today
BRD_LARGE = 1000
DISPERSED_FEES = np.linspace(4.0, 8.0, 50)


def _near_equal_fees(b: Builder, n):
    # a relative spread under 1/M keeps every miner active at equilibrium
    level = b.uniform(8, 12)
    return level * (1.0 + (0.4 / n) * np.array([b.rng.uniform(-1, 1) for _ in range(n)]))


def disc_scale(b: Builder):
    """The per-miner-fee game at many miners: solves, stage I, dynamics, sweeps."""
    model = Model()
    cost = b.uniform(0.004, 0.006)
    for n in SOLVE_DISC_SIZES:
        fees = _near_equal_fees(b, n)
        b.add_cli(f"solve-disc-M{n}", ["solve-disc", "--fees", _floats(fees),
                                       "--unit-cost", repr(cost)],
                  SOLVE_DISC_COLUMNS,
                  lambda rows, f=fees: check_solve_disc(rows, f, cost, model))
    _dispersed_solve_disc(b, model)

    for n in DISC_STAGE1_SIZES:
        reward = b.uniform(8, 12)
        params = edgeminer.GameParams(fixed_reward=reward)
        stage1_model = Model(fixed_reward=reward)

        def run(n=n, params=params):
            return edgeminer.discriminatory.optimal_fees_discriminatory(n, cost, params)

        b.ops.append(Op(f"disc-stage1-M{n}", run,
                        lambda out, n=n, m=stage1_model: check_disc_stage1(out[0], out[1], n, m),
                        digest=_array_digest))

    games = []
    for _ in range(BRD_SMALL_GAMES):
        fees = _near_equal_fees(b, BRD_SMALL)
        games.append(_brd_case(b, fees, cost))
    _add_brd(b, f"brd-M{BRD_SMALL}x{BRD_SMALL_GAMES}", games, model)
    _add_brd(b, f"brd-M{BRD_MEDIUM}", [_brd_case(b, _near_equal_fees(b, BRD_MEDIUM), cost)],
             model)
    large = 10.0 * (1.0 + (0.4 / BRD_LARGE) * np.linspace(-1.0, 1.0, BRD_LARGE))
    _add_brd(b, f"brd-M{BRD_LARGE}", [(large, 0.005, np.ones(BRD_LARGE))], model,
             may_fail=True)

    _fig_sweeps(b, model, cost)


def _brd_case(b: Builder, fees, cost):
    start = np.array([b.uniform(0.5, 2.0) for _ in range(fees.size)])
    return fees, cost, start


def _add_brd(b: Builder, kind, cases, model, may_fail=False):
    """Best-response dynamics next to the closed form, on each case in turn."""
    prepared = [(edgeminer.DiscriminatoryGame(fees, cost), fees, cost, start)
                for fees, cost, start in cases]

    def run():
        out = []
        for game, _, _, start in prepared:
            try:
                dynamics = edgeminer.search.best_response_dynamics(game, start)
            except edgeminer.ConvergenceError as exc:
                return [("ConvergenceError", str(exc))]
            closed = edgeminer.discriminatory.nash_equilibrium_closed_form(game)
            out.append((dynamics.powers, closed.powers))
        return out

    def check(out):
        expect(len(out) == len(prepared) and isinstance(out[0][0], np.ndarray),
               f"{kind}: {out[0][1] if out else 'no result'}")
        for k, ((dyn, closed), (_, fees, cost, _)) in enumerate(zip(out, prepared)):
            check_brd(dyn, closed, fees, cost, model, f"{kind} case {k}")

    def digest(out):
        return _array_digest([a for pair in out for a in pair])

    fault = (lambda out: out and out[0][0] == "ConvergenceError") if may_fail else None
    b.ops.append(Op(kind, run, check, digest=digest, fault=fault))


def _dispersed_solve_disc(b: Builder, model):
    """Fees spread over [4, 8]: some miners supply zero power at equilibrium."""
    def fault(out):
        return (out.code == 3 and out.text.count("\n") == 2
                and ",infeasible: miners " in out.text)

    b.add_cli("solve-disc-dispersed", ["solve-disc", "--fees", _floats(DISPERSED_FEES),
                                       "--unit-cost", "0.005"],
              SOLVE_DISC_COLUMNS,
              lambda rows: check_solve_disc(rows, DISPERSED_FEES, 0.005, model),
              fault=fault)


def _fig_sweeps(b: Builder, model, cost):
    """fig3, fig4 and fig5 with many miners: uniform closed forms, no search."""
    edge = b.uniform(40, 60)
    grid3 = np.linspace(0.0, 100.0, FIG34_STEPS)
    b.add_cli("fig3", ["fig", "3", "--n-miners", str(FIG_MINERS), "--edge-power", repr(edge),
                       "--unit-cost", repr(cost), "--grid-steps", str(FIG34_STEPS)],
              POWER_SWEEP_COLUMNS["device_power"],
              lambda rows: check_power_sweep(rows, "device_power", grid3, edge, FIG_MINERS,
                                             cost, model, "fig3"))
    device = b.uniform(40, 60)
    b.add_cli("fig4", ["fig", "4", "--n-miners", str(FIG_MINERS), "--device-power", repr(device),
                       "--unit-cost", repr(cost), "--grid-steps", str(FIG34_STEPS)],
              POWER_SWEEP_COLUMNS["edge_power"],
              lambda rows: check_power_sweep(rows, "edge_power", grid3, device, FIG_MINERS,
                                             cost, model, "fig4"),
              fmt="json")
    mult = b.uniform(1.3, 1.7)
    grid5 = np.linspace(10.0, 200.0, FIG5_STEPS)
    fractions = (0.1, 0.5, 0.9)
    b.add_cli("fig5", ["fig", "5", "--n-miners", str(FIG_MINERS), "--mdg-delay-mult", repr(mult),
                       "--unit-cost", repr(cost), "--grid-steps", str(FIG5_STEPS)],
              FIG5_COLUMNS,
              lambda rows: check_fig5(rows, grid5, fractions, FIG_MINERS, cost, mult, model))


BUILDERS = {"montecarlo": montecarlo, "stage1-sweeps": stage1_sweeps, "disc-scale": disc_scale}


def build(workload: str, seed: int, workdir: str) -> list:
    b = Builder(workload, seed, workdir)
    BUILDERS[workload](b)
    return b.ops


def warm_up(workdir: str):
    """One small call down every path the workloads time, before any timing."""
    b = Builder("warm-up", 0, workdir)
    for argv in (["fig", "1", "--grid-steps", "2", "--n-seeds", "1", "--n-blocks", "10"],
                 ["fig", "2", "--grid-steps", "2"], ["fig", "3", "--grid-steps", "2"],
                 ["fig", "4", "--grid-steps", "2"], ["fig", "5", "--grid-steps", "2"],
                 ["fig", "6", "--grid-steps", "2"], ["compare-mdg", "--grid-steps", "2"],
                 ["solve-uniform"], ["solve-uniform", "--fee-search", "hillclimb"],
                 ["solve-disc", "--fees", "4,5"], ["simulate", "--n-blocks", "10"]):
        for fmt in ("csv", "json"):
            call = b.cli(argv, fmt)
            code, stderr = call.run()
            if code != 0:
                raise CheckError(f"warm-up {argv}: exit code {code}: {stderr.strip()}")
    game = edgeminer.DiscriminatoryGame(np.array([4.0, 5.0]), 0.005)
    edgeminer.search.best_response_dynamics(game, [1.0, 1.0])
    edgeminer.discriminatory.optimal_fees_discriminatory(2, 0.005, edgeminer.GameParams())
