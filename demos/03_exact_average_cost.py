"""Exact average-cost DP on a fully enumerable two-charger instance.
==========================================================================

The two-charger scenario is small enough to enumerate every system state
reachable from the empty fleet (12 of the 98 charger-state combinations),
run anchored relative value iteration to machine precision, and then check
everything the hard way:

* the optimal gain is the same from every initial state,
* it matches an exhaustive brute force over all 65,536 stationary
  deterministic policies, evaluated in exact rational arithmetic,
* the greedy optimal policy can be rewritten (here: is already) compliant
  with the priority rule without touching its gain,
* simulating the policy reproduces the gain as a long-run time average.
"""

import numpy as np

from chargesched import (TabularPolicy, brute_force_optimal_gain, enumerate_mdp,
                         exact_policy_gain, lllp_projection,
                         relative_value_iteration, run_trajectory,
                         two_charger_scenario, verify_constant_gain)
from chargesched.exactdp import compliance_violations

sc = two_charger_scenario()
mdp = enumerate_mdp(sc)
print(f"scenario {sc.name!r}: {mdp.n_states} states, "
      f"{sum(len(a) for a in mdp.actions)} state-action pairs")

sol = relative_value_iteration(mdp)
print(f"\nrelative value iteration: gain = {sol.gain:.12f} "
      f"(residual {sol.residual:.2e}, {sol.iterations} sweeps)")

findings = verify_constant_gain(mdp, sol)
print(f"constant gain from every start: {findings.constant_gain} "
      f"({findings.n_recurrent_classes} recurrent class)")

exact = exact_policy_gain(mdp, sol.policy)
print(f"exact rational gain of the greedy policy: {exact} = {float(exact):.12f}")

bf = brute_force_optimal_gain(mdp)
print(f"brute force over {bf.n_policies} stationary policies "
      f"({bf.n_evaluations} closed sets with their actions evaluated): "
      f"min gain {bf.gain}")
assert bf.gain == exact

proj = lllp_projection(mdp, sol)
print(f"priority-rule projection: {proj.swaps} swaps, "
      f"{compliance_violations(mdp, proj.policy)} violations remain, "
      f"gain {exact_policy_gain(mdp, proj.policy)}")

tr = run_trajectory(sc, TabularPolicy(mdp, sol.policy), stages=200_000,
                    seed=17, warmup=500, record_stages=False)
print(f"\n200k-stage simulation of the optimal policy: "
      f"time average {tr.time_average:.5f} vs gain {sol.gain:.5f} "
      f"({abs(tr.time_average - sol.gain) / sol.gain:.2%} off)")
