"""Charging heuristics and the priority-rule compliance check.

All three heuristics rank the chargeable vehicles, then charge the first
``budget(state)`` of them:

* EDF  -- earliest departure first; deadline ties go to less laxity.
* LLSP -- least laxity first; laxity ties go to the shorter remaining request.
* LLLP -- least laxity first; laxity ties go to the longer remaining request.

Remaining ties always break toward the lower charger index so that decisions
are deterministic.  The default budget is min(grid capacity value, number of
unfinished vehicles), which never exceeds free capacity under the capacity
cost model; any other budget rule can be passed in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .core import ActionVector, PriorityOrdering, SystemState, compare_priority
from .models import ScenarioModel

ChargeBudgetRule = Callable[[SystemState], int]


def capacity_budget(scenario: ScenarioModel) -> ChargeBudgetRule:
    """min(s_t value, V(x)): charge as many unfinished vehicles as the current
    capacity allows."""
    values = scenario.grid.values

    def budget(state: SystemState) -> int:
        return min(values[state.grid], state.unfinished_count)

    budget.budget_kind = "capacity"  # lets the vectorized engine recognize it
    return budget


def _edf_key(stay: int, need: int) -> tuple[int, int]:
    return (stay, stay - need)


def _llsp_key(stay: int, need: int) -> tuple[int, int]:
    return (stay - need, need)


def _lllp_key(stay: int, need: int) -> tuple[int, int]:
    return (stay - need, -need)


_KEYS = {"edf": _edf_key, "llsp": _llsp_key, "lllp": _lllp_key}


def _rank_and_charge(state: SystemState, budget: ChargeBudgetRule, key) -> ActionVector:
    m = budget(state)
    chargeable = state.unfinished
    if not 0 <= m <= len(chargeable):
        raise ValueError(f"budget {m} outside 0..V(x)={len(chargeable)}")
    vehicles = state.vehicles
    # Nothing to rank when the budget covers every unfinished vehicle.
    charged = chargeable if m == len(chargeable) else sorted(
        chargeable, key=lambda i: (*key(*vehicles[i]), i))[:m]
    bits = [0] * len(vehicles)
    for i in charged:
        bits[i] = 1
    return ActionVector(tuple(bits))


def edf(state: SystemState, budget: ChargeBudgetRule) -> ActionVector:
    return _rank_and_charge(state, budget, _edf_key)


def llsp(state: SystemState, budget: ChargeBudgetRule) -> ActionVector:
    return _rank_and_charge(state, budget, _llsp_key)


def lllp(state: SystemState, budget: ChargeBudgetRule) -> ActionVector:
    return _rank_and_charge(state, budget, _lllp_key)


@dataclass(frozen=True)
class HeuristicPolicy:
    """A named stationary heuristic bound to a budget rule."""
    name: str
    budget: ChargeBudgetRule

    def decide(self, state: SystemState, stage: int = 0) -> ActionVector:
        return _rank_and_charge(state, self.budget, _KEYS[self.name])

    def sort_key(self, stay: int, need: int) -> tuple[int, int]:
        return _KEYS[self.name](stay, need)


POLICY_NAMES = tuple(_KEYS)


def make_policy(name: str, scenario: ScenarioModel,
                budget: ChargeBudgetRule | None = None) -> HeuristicPolicy:
    if name not in _KEYS:
        raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
    return HeuristicPolicy(name, budget or capacity_budget(scenario))


def check_lllp_compliance(state: SystemState, action: ActionVector,
                          horizon: int) -> Optional[tuple[int, int]]:
    """Return a pair (i, j) with i charged, j idle, and j strictly above i in
    the priority order; None when the action honours the priority rule.

    Only chargeable pairs can witness a violation: an idle vehicle with no
    remaining request is never above a charged one.
    """
    action.check_feasible(state.vehicles)
    charged = [i for i, b in enumerate(action.bits) if b == 1]
    idle = [j for j in state.unfinished if action.bits[j] == 0]
    for i in charged:
        for j in idle:
            if compare_priority(state.vehicles[i], state.vehicles[j],
                                horizon) is PriorityOrdering.J_OVER_I:
                return (i, j)
    return None
