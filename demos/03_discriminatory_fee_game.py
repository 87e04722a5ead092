"""Per-miner fees: closed-form equilibrium, its quirky certificate, stage I.

Each recruited miner gets its own expected fee.  The equilibrium is in
closed form, including the miners that stay out; best-response iteration
reaches the same point from any positive start, which is the operative
uniqueness evidence.
"""

import numpy as np

from edgeminer import DiscriminatoryGame, GameParams, best_response_dynamics, \
    leader_delta_utility_discriminatory, miner_utilities, \
    nash_equilibrium_closed_form, optimal_fees_discriminatory, pool_responses, \
    uniqueness_certificate_discriminatory

params = GameParams(poisson_rate=0.0, tx_reward=0.0)  # no delay, reward scale 10
game = DiscriminatoryGame(np.array([4.0, 8.0]), unit_cost=1.0, params=params)

print("== closed-form equilibrium, fees (4, 8) ==")
allocation = nash_equilibrium_closed_form(game)
print(f"  powers {allocation.powers} (exact: 8/9, 16/9), total {allocation.total:.6f}")
others = allocation.total - allocation.powers
responses = pool_responses(1.0, others, game.cost_coefficients)  # the Tullock response
utilities = miner_utilities(game, allocation)
for i in range(2):
    print(f"  miner {i}: BR({others[i]:.4f}) = {responses[i]:.6f}  "
          f"utility {utilities[i]:+.4f}")

print("\n== best-response dynamics from a lopsided start ==")
reached = best_response_dynamics(game, [0.01, 5.0], tol=1e-10)
print(f"  reached {reached.powers} after damped simultaneous sweeps")

print("\n== the literal certificate is reported, never trusted alone ==")
cert = uniqueness_certificate_discriminatory(game)
print(f"  per-miner condition: {cert.tolist()}")
print("  (the condition cannot hold for every miner at once; the fixed-point")
print("   check above is the operative uniqueness evidence)")

print("\n== dispersed fees: the cheapest-fee miners stay out ==")
dispersed = DiscriminatoryGame(np.array([4.0, 5.0, 6.0, 7.0, 8.0] * 2), 1.0, params)
powers = nash_equilibrium_closed_form(dispersed).powers
print(f"  fees   {dispersed.fees}")
print(f"  powers {np.round(powers, 4)}")
print(f"  miners {np.flatnonzero(powers == 0).tolist()} supply 0; "
      f"damped dynamics agree: "
      f"{np.allclose(best_response_dynamics(dispersed, np.ones(10)).powers, powers)}")

print("\n== leader profit per recruited miner ==")
full = leader_delta_utility_discriminatory(game, allocation, "full")
simple = leader_delta_utility_discriminatory(game, allocation, "simplified")
for i in range(2):
    print(f"  miner {i}: full {full[i]:+.4f}  simplified {simple[i]:+.4f}")

print("\n== stage I: symmetric fixed point of the per-fee terms (full objective) ==")
for m in (2, 3, 5):
    fees, profit = optimal_fees_discriminatory(m, 1.0, params)
    print(f"  M={m}: fees {np.round(fees, 4)} = a(M-1)^2/M^2, summed profit {profit:+.4f}")
print("  (with more miners the per-fee competition bids fees up and the")
print("   total shrinks; the sum over recruited miners is reported as-is)")
