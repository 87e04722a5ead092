"""Emit every figure-style data series into demos/out/ and show the trends.

The same experiments are reachable from the command line, e.g.::

    edgeminer fig 3 --out fig3.csv
    edgeminer compare-mdg --edge-fraction 0.5 --mdg-delay-mult 1.5
"""

import os

import numpy as np

from edgeminer.experiments import build_config, run_experiment

out_dir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(out_dir, exist_ok=True)


def run(kind, **settings):
    settings.setdefault("kind", kind)
    settings.setdefault("out", os.path.join(out_dir, f"{kind}.csv"))
    table, path, n_failed = run_experiment(build_config(settings))
    print(f"{kind}: wrote {len(table)} rows to {path}")
    return table


print("== fig1: success probability vs edge power (model and 10-seed average) ==")
table = run("fig1", grid_steps=20)
values = table["success_prob_empirical"]
print(f"  empirical monotone nondecreasing: {bool(np.all(np.diff(values) >= 0))}")

print("\n== fig2: optimal fee vs fixed reward ==")
fees = run("fig2")["optimal_fee"]
print(f"  fee range {fees[0]:.3f} -> {fees[-1]:.3f}, "
      f"monotone: {bool(np.all(np.diff(fees) >= 0))}")

print("\n== fig3: leader profit vs device power (edge power fixed at 50) ==")
profits = run("fig3")["profit_same_fee"]
print(f"  increasing: {bool(np.all(np.diff(profits) > 0))}, "
      f"diminishing increments: {bool(np.all(np.diff(profits, 2) < 1e-12))}")

print("\n== fig4: leader profit vs edge power (device power fixed at 50) ==")
table = run("fig4")
failed = sum(1 for status in table["status"] if status != "ok")
print(f"  rows: {len(table)} (the edge-power-zero row is marked infeasible: {failed})")

print("\n== fig5 and fig6: edge scheme vs delayed baseline ==")
for kind in ("fig5", "fig6"):
    table = run(kind)
    by_fraction = {}
    for fraction, gap in zip(table["edge_fraction"], table["profit_gap"]):
        by_fraction.setdefault(fraction, []).append(gap)
    print(f"  {kind}: mean profit gap by edge fraction:",
          {float(f): round(float(np.mean(g)), 3) for f, g in sorted(by_fraction.items())})

print(f"\nall series written under {out_dir}")
