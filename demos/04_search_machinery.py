"""The search toolbox: multiplicative fee hill-climb and the scalar oracles.

The hill-climb probes fees multiplicatively and halves its step on the
first non-improvement; golden section and the exhaustive grid are used to
cross-check each other and every closed form in the test suite.
"""

from edgeminer import ConvergenceError, SearchConfig, golden_section_max, \
    grid_argmax, multiplicative_fee_search

P_OPT = 2.924017738212866  # analytic optimum of the profit below, 5^(2/3)


def leader_profit(fee):
    return 10.0 * (1.0 - fee ** -0.5) - fee


print("== multiplicative hill-climb ==")
cfg = SearchConfig(initial_fee=0.5, step_factor=0.1, tolerance=1e-6)
fee, trace = multiplicative_fee_search(leader_profit, cfg)
print(f"  found fee {fee:.6f} (analytic {P_OPT:.6f}) in {len(trace.steps)} evaluations")
print("  first climb, then refinement around the peak:")
for step in trace.steps[:6]:
    mark = "accept" if step.improved else "reject"
    print(f"    fee {step.fee:8.4f}  profit {step.leader_profit:+.5f}  {mark}")

print("\n== the same optimum from the two oracles ==")
gx, gv = golden_section_max(leader_profit, 0.1, 50.0, rel_tol=1e-9)
bx, bv = grid_argmax(leader_profit, 0.1, 50.0, 1e-4)
print(f"  golden section: {gx:.6f} -> {gv:+.6f}")
print(f"  grid argmax:    {bx:.6f} -> {bv:+.6f}")

print("\n== a monotone objective exhausts the budget on purpose ==")
try:
    multiplicative_fee_search(lambda fee: fee, SearchConfig(initial_fee=1.0, max_iters=200))
except ConvergenceError as err:
    print(f"  diagnostic: {err}")
    print(f"  trace kept {len(err.trace.steps)} steps for audit")
