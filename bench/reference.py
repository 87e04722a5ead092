"""Reference timings of single calls, quoted in bench/README.md.

Usage, from the root of a source checkout:

    python3 bench/reference.py

Each figure is the median of a few repeats of one call, with perf_counter.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import io
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import edgeminer  # noqa: E402
from edgeminer import cli  # noqa: E402


def timed(fn, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        try:
            fn()
        except edgeminer.ConvergenceError:
            pass
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main():
    params = edgeminer.GameParams()
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, "bench")) as tmp:
        def cli_call(*argv):
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main(list(argv) + ["--out", os.path.join(tmp, "out.csv")])

        fees = 10.0 * (1 + 0.4e-3 * np.linspace(-1, 1, 1000))  # near-equal, all miners active
        fee_list = ",".join(repr(float(f)) for f in fees)
        brd_game = edgeminer.DiscriminatoryGame(fees, 0.005)
        figures = [
            ("fig1, 100 seeds x 1e4 blocks (CLI)", "s", 1,
             timed(lambda: cli_call("fig", "1", "--n-seeds", "100", "--n-blocks", "10000"), 3)),
            ("optimal_fee_uniform, one call", "ms", 1e3,
             timed(lambda: [edgeminer.optimal_fee_uniform(50.0, 0.005, params)
                            for _ in range(100)], 5) / 100),
            ("solve-disc, M = 1000 near-equal fees (CLI)", "s", 1,
             timed(lambda: cli_call("solve-disc", "--fees", fee_list), 3)),
            ("optimal_fees_discriminatory, M = 40", "s", 1,
             timed(lambda: edgeminer.optimal_fees_discriminatory(40, 0.005, params), 3)),
            ("best_response_dynamics, M = 1000 (ConvergenceError)", "s", 1,
             timed(lambda: edgeminer.best_response_dynamics(brd_game, np.ones(1000)), 3)),
            ("simulate_mining, 1e6 blocks", "ms", 1e3,
             timed(lambda: edgeminer.simulate_mining(
                 [30.0, 70.0], edgeminer.SimConfig(n_blocks=1_000_000)), 5)),
        ]
    for name, unit, scale, seconds in figures:
        print(f"{name}: {seconds * scale:.3g} {unit}")


if __name__ == "__main__":
    main()
