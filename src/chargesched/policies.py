"""Charging heuristics and the priority-rule compliance check.

Each heuristic ranks the chargeable vehicles, then charges the first
min(capacity of the grid state, V(x)) of them:

* EDF  -- earliest departure first; deadline ties go to less laxity.
* LLSP -- least laxity first; laxity ties go to the shorter remaining request.
* LLLP -- least laxity first; laxity ties go to the longer remaining request.

Ties break toward the lower charger index, so decisions are deterministic:
each key is injective on (stay, need), and a vehicle sorts by its type's rank
(`type_ranks`) times N plus its index.  Under the capacity cost model the
charges never exceed free capacity.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .core import ActionVector, SystemState, outranks
from .models import ScenarioModel

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


@dataclass(frozen=True)
class HeuristicPolicy:
    """Heuristic ``name`` with a charging capacity per grid state: it charges
    its first min(capacities[grid], V(x)) unfinished vehicles in key order."""
    name: str
    capacities: tuple[int, ...]

    def __post_init__(self):
        if self.name not in _KEYS:
            raise ValueError(f"unknown policy {self.name!r}; choose from {tuple(_KEYS)}")
        if any(c < 0 for c in self.capacities):
            raise ValueError(f"capacities {self.capacities} must be >= 0")

    def decide(self, state: SystemState, stage: int = 0) -> ActionVector:
        chargeable = state.unfinished
        vehicles, n = state.vehicles, len(state.vehicles)
        m = self.capacities[state.grid]
        charged = chargeable    # nothing to rank when the capacity covers them all
        if m < len(chargeable):     # rank * n + i sorts by (rank, index) as an int
            ranks = _RANKS[self.name]
            try:
                order = sorted([ranks[vehicles[i]] * n + i for i in chargeable])
            except KeyError:    # a type met for the first time
                ranks = type_ranks(self.name, map(vehicles.__getitem__, chargeable))
                order = sorted([ranks[vehicles[i]] * n + i for i in chargeable])
            charged = [r % n for r in order[:m]]
        bits = [0] * n
        for i in charged:
            bits[i] = 1
        return ActionVector.counted(tuple(bits), len(charged))   # distinct indices


def make_policy(name: str, scenario: ScenarioModel) -> HeuristicPolicy:
    """Heuristic ``name`` on ``scenario``, reading its grid values as the
    capacities whatever the charging-cost form."""
    return HeuristicPolicy(name, scenario.grid.values)


def check_lllp_compliance(state: SystemState,
                          action: ActionVector) -> tuple[int, int] | None:
    """Return a pair (i, j) with i charged, j idle, and j strictly above i in
    the priority order; None when the action honours the priority rule.

    Only chargeable pairs can witness a violation: an idle vehicle with no
    remaining request is never above a charged one, and once the action is
    feasible every charged vehicle is still owed charge.  It is feasible when
    the bits on unfinished vehicles sum to the aggregate, as bits are 0/1,
    and when that sum is their count no vehicle owed charge is idle.
    """
    vehicles, bits, unfinished = state.vehicles, action.bits, state.unfinished
    if len(bits) != len(vehicles):
        action.check_feasible(vehicles)   # raises the length error
    charged = [i for i in unfinished if bits[i]]
    if len(charged) != action.aggregate:
        action.check_feasible(vehicles)   # names the charger at fault
    if len(charged) == len(unfinished):
        return None
    idle = [j for j in unfinished if not bits[j]]
    for i in charged:
        for j in idle:
            if outranks(vehicles[j], vehicles[i]):
                return (i, j)
    return None
