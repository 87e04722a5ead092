"""The uniform-fee game end to end: follower response, certificate, stage I.

One expected fee is offered to the aggregate device pool.  The pool's best
response has a closed form; the leader then picks the fee that maximizes
its additional profit.
"""

from edgeminer import GameParams, UniformGame, aggregate_miner_utility, \
    best_response_uniform, grid_argmax, leader_delta_utility_uniform, \
    optimal_fee_uniform, uniqueness_certificate_uniform

params = GameParams()
game = UniformGame(edge_power=50.0, fee=2.0, unit_cost=0.005, params=params)

print("== stage II: device pool best response ==")
y_star = best_response_uniform(game)
print(f"  closed form Y* = {y_star:.6f}")
argmax, value = grid_argmax(lambda y: aggregate_miner_utility(game, y), 0.0, 400.0, 1e-3)
print(f"  grid oracle    = {argmax:.6f} (pool utility {value:.6f})")

print("\n== uniqueness certificate ==")
cert = uniqueness_certificate_uniform(game)
print(f"  edge power {game.edge_power} vs quarter bound {cert.quarter_bound:.2f} "
      f"-> certified: {cert.below_quarter_bound}")
print(f"  positivity bound {cert.positivity_bound:.2f} "
      f"(also satisfied: {cert.below_positivity_bound})")

print("\n== leader profit at this fee ==")
print(f"  full (fee charged):   {leader_delta_utility_uniform(game, 'full'):+.4f}")
print(f"  simplified (no fee):  {leader_delta_utility_uniform(game, 'simplified'):+.4f}")

print("\n== stage I: the fee maximizing the full profit ==")
best_fee, best_profit = optimal_fee_uniform(50.0, 0.005, params)
print(f"  fee {best_fee:8.4f}  profit {best_profit:+.4f}")

print("\n== at the optimal fee ==")
best = UniformGame(50.0, best_fee, 0.005, params)
supplied = best_response_uniform(best)
print(f"  fee {best_fee:.4f}: devices supply {supplied:.2f}, "
      f"pool utility {aggregate_miner_utility(best, supplied):+.4f}")
print(f"  leader full {leader_delta_utility_uniform(best, 'full'):+.4f}, "
      f"simplified {leader_delta_utility_uniform(best, 'simplified'):+.4f}, "
      f"certified {uniqueness_certificate_uniform(best).below_quarter_bound}")
