"""Interchange policies: fixing a priority violation never costs more.
==========================================================================

Whenever a policy charges vehicle i while idling a strictly higher-priority
vehicle j, we can wrap it: charge j instead now, shadow the original policy,
and give the charge back at the first stage the original would have charged
j but not i.  On every sample path the wrapper's realized cost is no higher;
with a convex non-completion penalty the no-swap-back branch can be strictly
better.  This script walks one instance by hand, then runs the randomized
certifier on the capacity benchmark, then shows the negative control: with a
concave penalty the guarantee genuinely breaks.
"""

from fractions import Fraction

from chargesched import (PenaltyFunction, SystemState, VehicleState,
                         capacity_scenario, certify_dominance, coupled_rollout,
                         search_two_vehicle_counterexamples, wrap_interchange)
from chargesched.interchange import ScriptedPolicy, pure_penalty_scenario
from chargesched.policies import make_policy

# --- one instance by hand -------------------------------------------------
# vehicles: i = (1,1) departs next stage, j = (2,3) has negative laxity.
# The base policy charges i now and j once afterwards.
q = PenaltyFunction.quadratic(10)
sc = pure_penalty_scenario(q)
x0 = SystemState((VehicleState(1, 1), VehicleState(2, 3)), 0, 0)
base = ScriptedPolicy({0: (1, 0), 1: (0, 1)})
wrapped = wrap_interchange(base, x0, i=0, j=1, stage=0)
roll = coupled_rollout(sc, base, wrapped, x0, wrapped.length, seed=0)

print("hand-worked instance (quadratic penalty, zero charging cost):")
print(f"  base order   : shortfalls {roll.base_shortfalls}  total {roll.base_total}")
print(f"  interchanged : shortfalls {roll.swapped_shortfalls}  total {roll.swapped_total}")
print(f"  swap-back stage: {roll.swap_back_at}  (none: the charge is never owed back)")

# --- randomized certificate on the benchmark -------------------------------
print("\ncertifying EDF on the capacity benchmark (200 sampled violations):")
bench = capacity_scenario(20, "quadratic")
report = certify_dominance(bench, make_policy("edf", bench), n_cases=200, seed=11)
print(f"  strict improvements: {report.strict}")
print(f"  exact ties         : {report.equal}")
print(f"  counterexamples    : {len(report.counterexamples)}")

# --- negative control -------------------------------------------------------
print("\nnegative control: concave penalty (decreasing increments)")
concave = PenaltyFunction([0, 2, 3, Fraction(7, 2), Fraction(15, 4)],
                          require_convex=False)
hits = search_two_vehicle_counterexamples(concave, 10_000, seed=1)
h = hits[0]
print(f"  found a strict counterexample: base {h['base_total']} "
      f"vs interchanged {h['swapped_total']}")
print("  convexity of the penalty is not decoration; the guarantee needs it.")
