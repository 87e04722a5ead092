"""The uniform-fee game end to end: follower response, certificate, stage I.

One expected fee is offered to the aggregate device pool.  The pool's best
response has a closed form; the leader then picks the fee that maximizes
its additional profit.  Every formula is an elementwise kernel: here each
gets one game's scalars, kappa being the fee discounted by the device load.
"""

from edgeminer import GameParams, aggregate_miner_utility, grid_argmax, \
    leader_delta_utility_uniform, leader_reward_scale, optimal_fee_uniform, pool_responses, \
    uniqueness_certificate_uniform

params = GameParams()
edge_power, fee, unit_cost = 50.0, 2.0, 0.005
discount = params.delay_discount(params.mobile_tx_load)
a = leader_reward_scale(params)
kappa = fee * discount


def leader_profit(fee, objective):
    return leader_delta_utility_uniform(fee, edge_power, unit_cost, discount, a, objective)


print("== stage II: device pool best response ==")
y_star = pool_responses(kappa, edge_power, unit_cost)
print(f"  closed form Y* = {y_star:.6f}")
argmax, value = grid_argmax(lambda y: aggregate_miner_utility(kappa, edge_power, unit_cost, y),
                            0.0, 400.0, 1e-3)
print(f"  grid oracle    = {argmax:.6f} (pool utility {value:.6f})")

print("\n== uniqueness certificate ==")
below_quarter, below_positivity = uniqueness_certificate_uniform(kappa, edge_power, unit_cost)
print(f"  edge power {edge_power} vs quarter bound {kappa / (4.0 * unit_cost):.2f} "
      f"-> certified: {below_quarter}")
print(f"  positivity bound {kappa / unit_cost:.2f} (also satisfied: {below_positivity})")

print("\n== leader profit at this fee ==")
print(f"  full (fee charged):   {leader_profit(fee, 'full'):+.4f}")
print(f"  simplified (no fee):  {leader_profit(fee, 'simplified'):+.4f}")

print("\n== stage I: the fee maximizing the full profit ==")
best_fee, best_profit = optimal_fee_uniform(edge_power, unit_cost, params)
print(f"  fee {best_fee:8.4f}  profit {best_profit:+.4f}")

print("\n== at the optimal fee ==")
best_kappa = best_fee * discount
supplied = pool_responses(best_kappa, edge_power, unit_cost)
print(f"  fee {best_fee:.4f}: devices supply {supplied:.2f}, "
      f"pool utility {aggregate_miner_utility(best_kappa, edge_power, unit_cost, supplied):+.4f}")
print(f"  leader full {leader_profit(best_fee, 'full'):+.4f}, "
      f"simplified {leader_profit(best_fee, 'simplified'):+.4f}, "
      f"certified {uniqueness_certificate_uniform(best_kappa, edge_power, unit_cost)[0]}")
