"""Power shares and the delay-discounted chance of mining a block.

The probability that a miner wins a round is its share of the pool's
computing power, shrunk by e^(-rate * tx) for propagation and
verification latency.
"""

from dataclasses import replace

import numpy as np

from edgeminer import DiscriminatoryGame, GameParams, PowerProfile, miner_utilities, \
    mining_success_prob, net_profit

params = GameParams()  # penalty 0.01 per transaction, 10 tx per block

print("== shares ==")
profile = PowerProfile(np.array([30.0, 50.0, 20.0]))
shares = profile.shares()
for i in range(3):
    print(f"  miner {i}: power {profile.powers[i]:5.1f}  share {shares[i]:.3f}")
print(f"  share total: {shares.sum():.15f}")

print("\n== success probability vs transactions per block ==")
for tx in (1, 5, 10, 20, 40):
    # elementwise over the miners, at the block load params.tx_per_block
    probs = mining_success_prob(shares, replace(params, tx_per_block=tx))
    print(f"  tx = {tx:2d}: win probabilities {np.round(probs, 4)} (orphan {1 - probs.sum():.4f})")

print("\n== scaling leaves shares untouched ==")
doubled = PowerProfile(profile.powers * 2.0)
print("  doubled powers ->", doubled.shares(), "(same shares)")

print("\n== utilities ==")
fee = 2.0
print(f"  edge server, fee bill {fee}: net profit {net_profit(params, fee):+.4f}")
for unit_cost in (0.005, 0.02, 0.05):
    # every miner offered the same fee
    values = miner_utilities(DiscriminatoryGame(np.full(3, fee), unit_cost, params), profile)
    print(f"  unit cost {unit_cost}: miner utilities {np.round(values, 4)}")
print("  (negative values are real losses; participation is a stage-I concern)")
