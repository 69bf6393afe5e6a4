"""Charging heuristics and the priority-rule compliance check.

All three heuristics rank the chargeable vehicles, then charge the first
``budget(state)`` of them:

* EDF  -- earliest departure first; deadline ties go to less laxity.
* LLSP -- least laxity first; laxity ties go to the shorter remaining request.
* LLLP -- least laxity first; laxity ties go to the longer remaining request.

Ties break toward the lower charger index, so decisions are deterministic:
each key is injective on (stay, need), and a vehicle sorts by its type's rank
(`type_ranks`) times N plus its index.  The default budget is min(grid
capacity value, number of unfinished vehicles), which never exceeds free
capacity under the capacity cost model; any other budget rule can be passed in.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Optional

from .core import ActionVector, SystemState, outranks
from .models import ScenarioModel

ChargeBudgetRule = Callable[[SystemState], int]


@dataclass(frozen=True, slots=True)
class CapacityBudget:
    """min(capacity of the grid state, V(x)): charge as many unfinished
    vehicles as the current capacity allows.  The vectorized engine
    recognizes this rule by its type and runs it on these capacities."""
    capacities: tuple[int, ...]

    def __call__(self, state: SystemState) -> int:
        return min(self.capacities[state.grid], state.unfinished_count)


def capacity_budget(scenario: ScenarioModel) -> CapacityBudget:
    """The capacity budget of ``scenario``, whose grid values are capacities."""
    return CapacityBudget(scenario.grid.values)


_KEYS = {"edf": lambda stay, need: (stay, stay - need),
         "llsp": lambda stay, need: (stay - need, need),
         "lllp": lambda stay, need: (stay - need, -need)}

# Per heuristic, each seen vehicle type's position in key order.  Re-ranks hold
# the lock and publish a new table, never a change, so readers need no lock.
_RANKS: dict[str, dict] = {name: {} for name in _KEYS}
_RERANK = threading.Lock()


def type_ranks(name: str, types) -> dict:
    """Heuristic ``name``'s rank table, covering ``types``: distinct ints in
    the order of its key.  Both engines order vehicle types by it."""
    with _RERANK:
        ranks = _RANKS[name]
        if new := set(types).difference(ranks):
            ranked = sorted([*ranks, *new], key=lambda v: _KEYS[name](*v))
            ranks = _RANKS[name] = {v: r for r, v in enumerate(ranked)}
    return ranks


def _rank_and_charge(state: SystemState, budget: ChargeBudgetRule, name: str) -> ActionVector:
    m = budget(state)
    chargeable = state.unfinished
    if not 0 <= m <= len(chargeable):
        raise ValueError(f"budget {m} outside 0..V(x)={len(chargeable)}")
    vehicles, n = state.vehicles, len(state.vehicles)
    charged = chargeable    # nothing to rank when the budget covers them all
    if m < len(chargeable):     # rank * n + i sorts by (rank, index) as an int
        ranks = _RANKS[name]
        try:
            order = sorted([ranks[vehicles[i]] * n + i for i in chargeable])
        except KeyError:    # a type met for the first time
            ranks = type_ranks(name, map(vehicles.__getitem__, chargeable))
            order = sorted([ranks[vehicles[i]] * n + i for i in chargeable])
        charged = [r % n for r in order[:m]]
    bits = [0] * n
    for i in charged:
        bits[i] = 1
    return ActionVector(tuple(bits))


@dataclass(frozen=True)
class HeuristicPolicy:
    """A named stationary heuristic bound to a budget rule."""
    name: str
    budget: ChargeBudgetRule

    def decide(self, state: SystemState, stage: int = 0) -> ActionVector:
        return _rank_and_charge(state, self.budget, self.name)


POLICY_NAMES = tuple(_KEYS)


def make_policy(name: str, scenario: ScenarioModel,
                budget: ChargeBudgetRule | None = None) -> HeuristicPolicy:
    if name not in _KEYS:
        raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
    return HeuristicPolicy(name, budget or capacity_budget(scenario))


def check_lllp_compliance(state: SystemState,
                          action: ActionVector) -> Optional[tuple[int, int]]:
    """Return a pair (i, j) with i charged, j idle, and j strictly above i in
    the priority order; None when the action honours the priority rule.

    Only chargeable pairs can witness a violation: an idle vehicle with no
    remaining request is never above a charged one, and once the action is
    feasible every charged vehicle is still owed charge.  It is feasible when
    the bits on unfinished vehicles sum to the aggregate, as bits are 0/1.
    """
    vehicles, bits = state.vehicles, action.bits
    if len(bits) != len(vehicles):
        action.check_feasible(vehicles)   # raises the length error
    charged = [i for i in state.unfinished if bits[i]]
    if len(charged) != action.aggregate:
        action.check_feasible(vehicles)   # names the charger at fault
    idle = [j for j in state.unfinished if not bits[j]]
    for i in charged:
        for j in idle:
            if outranks(vehicles[j], vehicles[i]):
                return (i, j)
    return None
