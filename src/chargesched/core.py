"""Vehicle/system state arithmetic, the laxity priority order, and stage costs.

A charger is either empty, written ``VehicleState(0, 0)``, or holds a vehicle
described by ``stay`` (stages remaining until its departure) and ``need``
(charge units still requested).  All costs are exact: penalty tables are
rationals, and ``settle_stage`` reads each vehicle type's step from
``step_tables(q)``, q a penalty table indexed by unmet need: Fractions from
``PenaltyFunction.values``, or ints in units of 1/L (``ScenarioModel.prices``
holds both q and its tables), L covering every penalty and charging cost.
So sample-path cost comparisons elsewhere in the package are tolerance-free.
The stage step walks ``SystemState.occupied`` only and reports the chargers
that keep a vehicle, so a rollout's next state need not scan for them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from operator import gt, itemgetter
from typing import NamedTuple, Sequence


class VehicleState(NamedTuple):
    """Per-charger state: (stages until departure, charge units still owed)."""
    stay: int
    need: int

    @property
    def present(self) -> bool:
        return self.stay > 0


EMPTY = VehicleState(0, 0)
_stay, _need = itemgetter(0), itemgetter(1)
# vehicle_type(stay, need): one shared VehicleState per type, at most B * (E + 1).
vehicle_type = functools.cache(VehicleState)


class InfeasibleActionError(ValueError):
    """Raised when an action charges a charger whose vehicle owes nothing."""


def laxity(v: VehicleState) -> int:
    """Slack before charging must run uninterrupted: stay - need."""
    return v.stay - v.need


def outranks(vj: VehicleState, vi: VehicleState) -> bool:
    """The priority rule, a strict partial order on present vehicles: j is
    above i when j has no more laxity and no less remaining work, with at
    least one strict.  Crossed inequalities leave the pair incomparable
    (which vehicle deserves priority then depends on the future)."""
    sj, gj = vj
    si, gi = vi
    if sj < 1 or si < 1:
        raise ValueError("priority comparison requires both vehicles present (stay >= 1)")
    return gj >= gi and sj - gj <= si - gi and (sj != si or gj != gi)


def convexity_fault(q: Sequence[Fraction]) -> str | None:
    """Why the table q(0..E) is not convex, its increments negative or
    decreasing, or None when it is convex."""
    steps = [b - a for a, b in zip(q, q[1:])]
    for k, d in enumerate(steps):
        if d < 0:
            return f"penalty increment q({k + 1})-q({k}) is negative"
        if k > 0 and d < steps[k - 1]:
            return f"penalty increments decrease at n={k + 1}"
    return None


@dataclass(frozen=True)
class PenaltyFunction:
    """Tabulated non-completion penalty q(0..E).

    q(0) must be 0 and the increments must be non-negative and non-decreasing
    (convexity); violating tables are rejected unless ``require_convex=False``
    is passed explicitly, which exists only so negative-control experiments can
    study what breaks without that property.
    """
    values: tuple[Fraction, ...]

    def __init__(self, values: Sequence[int | Fraction], require_convex: bool = True):
        vals = tuple(Fraction(v) for v in values)
        if len(vals) < 1 or vals[0] != 0:
            raise ValueError("penalty table must start with q(0) = 0")
        if require_convex and (fault := convexity_fault(vals)):
            raise ValueError(fault)
        object.__setattr__(self, "values", vals)

    @classmethod
    def linear(cls, max_units: int) -> "PenaltyFunction":
        return cls([n for n in range(max_units + 1)])

    @classmethod
    def quadratic(cls, max_units: int) -> "PenaltyFunction":
        return cls([n * n for n in range(max_units + 1)])

    @property
    def max_units(self) -> int:
        return len(self.values) - 1

    def __call__(self, n: int) -> Fraction:
        return self.values[n]


@dataclass(frozen=True)
class ActionVector:
    """Binary charge/idle decision per charger; ``aggregate`` counts the 1s."""
    bits: tuple[int, ...]
    aggregate: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ones = self.bits.count(1)       # two C-level passes, not one per bit
        if ones + self.bits.count(0) != len(self.bits):
            raise ValueError("action bits must be 0 or 1")
        object.__setattr__(self, "aggregate", ones)

    @classmethod
    def counted(cls, bits: tuple[int, ...], aggregate: int) -> "ActionVector":
        """An action whose caller set ``aggregate`` distinct bits of a row of
        0s to 1, so its bits need neither the check nor the count."""
        action = object.__new__(cls)
        action.__dict__.update(bits=bits, aggregate=aggregate)
        return action

    def check_feasible(self, vehicles: Sequence[VehicleState]) -> None:
        if len(self.bits) != len(vehicles):
            raise ValueError("action length does not match charger count")
        if any(map(gt, self.bits, map(_need, vehicles))):
            idx = next(k for k, (b, v) in enumerate(zip(self.bits, vehicles)) if b > v.need)
            raise InfeasibleActionError(
                f"charger {idx}: cannot charge a vehicle with no remaining request")


@dataclass(frozen=True)
class SystemState:
    """All charger states plus the grid and demand state indices."""
    vehicles: tuple[VehicleState, ...]
    grid: int
    demand: int

    @functools.cached_property
    def occupied(self) -> tuple[int, ...]:
        """Indices of the chargers holding a vehicle, computed once per state."""
        return tuple(compress(range(len(self.vehicles)), map(_stay, self.vehicles)))

    @classmethod
    def successor(cls, vehicles: tuple, grid: int, demand: int, occupied: tuple) -> "SystemState":
        """A state whose occupied chargers the caller already knows, its
        fields set directly rather than through the frozen ``__init__``."""
        state = object.__new__(cls)
        state.__dict__.update(vehicles=vehicles, grid=grid, demand=demand,
                              occupied=occupied)
        return state

    @functools.cached_property
    def unfinished(self) -> tuple[int, ...]:
        """Indices of the vehicles still owed charge, computed once per state;
        V(x) is their number."""
        vehicles = self.vehicles
        return tuple([i for i in self.occupied if vehicles[i].need])


class _TypeSteps(dict):
    """Per vehicle type, filled on first use: (next type, units charged, and
    q[unmet need] on departure, else None).  One owing nothing gets 0 units."""

    def __init__(self, q: Sequence, units: int):
        super().__init__()
        self.q, self.units = q, units

    def __missing__(self, v: VehicleState) -> tuple:
        units = self.units if v.need else 0
        step = self[v] = ((EMPTY, units, self.q[v.need - units]) if v.stay == 1
                          else (vehicle_type(v.stay - 1, v.need - units), units, None))
        return step


def step_tables(q: Sequence) -> tuple[dict, dict]:
    """`settle_stage`'s steps for idle and charged vehicles under penalty table
    ``q``, built by whoever owns ``q``: never cache them by its value, as an
    int table can equal a Fraction one."""
    return _TypeSteps(q, 0), _TypeSteps(q, 1)


def settle_stage(state: SystemState, action: ActionVector, steps: tuple[dict, dict]
                 ) -> tuple[int | Fraction, list[VehicleState], list[int]]:
    """The part of one stage that the fleet alone decides, in one pass over
    the occupied chargers: check the action, then return the sum of q[need]
    over the vehicles departing after this stage (stay == 1), ``steps`` being
    `step_tables(q)` indexed by bit, the vehicles one stage later as a new
    list, and the chargers that keep a vehicle (stay > 1), in index order.
    Callers price the charging cost C(A, s), which depends only on the
    aggregate and the grid state.  Bits are 0/1, so none sits on an empty
    charger exactly when the occupied ones charged sum to the aggregate."""
    vehicles, bits = state.vehicles, action.bits
    if len(bits) != len(vehicles):
        action.check_feasible(vehicles)     # raises the length error
    out = list(vehicles)
    kept = []
    shortfall = charged = 0
    for i in state.occupied:
        out[i], units, due = steps[bits[i]][vehicles[i]]
        charged += units        # a bit on need 0 goes uncounted, refused below
        if due is None:
            kept.append(i)
        else:
            shortfall += due
    if charged != action.aggregate:
        action.check_feasible(vehicles)     # names the charger at fault
    return shortfall, out, kept


def stage_cost(state: SystemState, action: ActionVector, cost_fn, penalty: PenaltyFunction) -> Fraction:
    """Charging cost C(A, s) plus penalties for vehicles departing next stage
    (stay == 1) that leave with unmet request.  Exact rational arithmetic.

    ``cost_fn`` maps (aggregate count, grid index) to a Fraction.
    """
    shortfall = settle_stage(state, action, step_tables(penalty.values))[0]
    return Fraction(cost_fn(action.aggregate, state.grid)) + shortfall


def step_vehicles(vehicles: Sequence[VehicleState], action: ActionVector) -> tuple[VehicleState, ...]:
    """Advance one stage: charged vehicles lose one unit of need, everyone
    present loses one stage of stay, and vehicles reaching stay 0 depart
    (their charger resets to the empty sentinel)."""
    zero = (0,) * (1 + max(map(_need, vehicles), default=0))
    return tuple(settle_stage(SystemState(tuple(vehicles), 0, 0), action, step_tables(zero))[1])
