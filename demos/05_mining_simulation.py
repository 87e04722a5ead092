"""Seeded Monte-Carlo mining: per-block categorical draws with orphan rounds.

Each block is won by miner i with probability share_i * e^(-rate*tx);
the leftover mass is an orphaned round.  Everything is reproducible from
the seed (numpy PCG64).
"""

import math

import numpy as np

from edgeminer import GameParams, SimConfig, mining_success_prob, net_profit, simulate_mining

params = GameParams()
cfg = SimConfig(n_blocks=1000, seed=42, params=params)
powers = [30.0, 50.0, 20.0]

print("== one seeded run, 1000 blocks of 10 transactions ==")
outcome = simulate_mining(powers, cfg)
discount = params.delay_discount(params.tx_per_block)
shares = np.asarray(powers) / sum(powers)
model = mining_success_prob(shares, params)
print(f"  {'miner':>5} {'share':>7} {'model p':>9} {'wins':>5} {'freq':>7}")
for i, power in enumerate(powers):
    print(f"  {i:>5} {shares[i]:>7.3f} {model[i]:>9.4f} "
          f"{outcome.wins[i]:>5d} {outcome.frequencies[i]:>7.3f}")
print(f"  orphaned rounds: {outcome.orphans} "
      f"(model {1 - discount:.4f}, observed {outcome.orphans / cfg.n_blocks:.4f})")
print(f"  conservation: {int(outcome.wins.sum()) + outcome.orphans} == {cfg.n_blocks}")

print("\n== three-sigma check against the model ==")
for i in range(3):
    p = model[i]
    sigma = math.sqrt(p * (1 - p) / cfg.n_blocks)
    deviation = abs(outcome.frequencies[i] - p)
    print(f"  miner {i}: |freq - p| = {deviation:.4f} <= 3 sigma = {3 * sigma:.4f}")

print("\n== same seed, same outcome ==")
again = simulate_mining(powers, cfg)
print(f"  identical wins: {np.array_equal(outcome.wins, again.wins)}")

print("\n== the delayed baseline for comparison ==")
bill = 2.0
for mult in (1.0, 1.5, 2.0, 4.0):
    # the net profit with every transaction's delay penalty multiplied by mult
    profit = net_profit(params, bill, mult)
    print(f"  delay multiplier {mult:3.1f}: baseline profit {profit:+.4f}")
print("  (multiplier 1.0 reproduces the edge scheme's net profit on the same bill)")
