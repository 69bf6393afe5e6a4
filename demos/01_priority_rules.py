"""A tour of vehicle states, laxity, and the three charging heuristics.
==========================================================================

Each charger holds a vehicle described by (stay, need): the stages left
before it departs and the charge units it still wants.  Laxity = stay - need
is the slack before charging would have to run uninterrupted to finish in
time.  Run this script to see how EDF, LLSP and LLLP rank the same fleet
differently, and where EDF breaks the priority partial order.
"""

from chargesched import (SystemState, VehicleState, check_lllp_compliance,
                         laxity, outranks)
from chargesched.policies import HeuristicPolicy

fleet = [
    VehicleState(2, 1),   # leaves soon, one unit to go        (laxity 1)
    VehicleState(3, 2),   # a stage longer, two units          (laxity 1)
    VehicleState(8, 5),   # plenty of slack                    (laxity 3)
    VehicleState(1, 3),   # cannot finish: negative laxity     (laxity -2)
    VehicleState(4, 0),   # fully charged, still parked
    VehicleState(0, 0),   # empty charger
]

print("fleet:")
for i, v in enumerate(fleet):
    tag = "empty" if not v.present else f"laxity {laxity(v):+d}"
    print(f"  charger {i}: stay={v.stay} need={v.need}  ({tag})")

print("\npairwise priority (laxity no larger, remaining work no smaller):")
pairs = [(0, 1), (0, 2), (1, 2), (3, 1)]
for i, j in pairs:
    if outranks(fleet[j], fleet[i]):
        rel = "j over i"
    elif outranks(fleet[i], fleet[j]):
        rel = "i over j"
    else:
        rel = "neither"
    print(f"  charger {i} vs {j}: {rel}")

state = SystemState(tuple(fleet), grid=0, demand=0)
budget = lambda x: min(2, x.unfinished_count)   # capacity for two charges

print("\ndecisions with a budget of 2 charges:")
for name in ("edf", "llsp", "lllp"):
    action = HeuristicPolicy(name, budget).decide(state)
    chosen = [i for i, b in enumerate(action.bits) if b]
    verdict = check_lllp_compliance(state, action)
    note = "ok" if verdict is None else f"violates priority: charges {verdict[0]} over {verdict[1]}"
    print(f"  {name:4s} charges chargers {chosen}   [{note}]")

print("""
EDF chases the earliest deadline, so it pours energy into vehicle 3 (already
late) and vehicle 0, while LLLP spends the same budget on the least-laxity
vehicles and, on ties, the one with more remaining work; that choice keeps
more flexibility for whatever the grid does next.""")
