"""Vehicle/system state arithmetic, the laxity priority order, and stage costs.

A charger is either empty, written ``VehicleState(0, 0)``, or holds a vehicle
described by ``stay`` (stages remaining until its departure) and ``need``
(charge units still requested).  All costs are exact: penalty tables are
rationals and ``stage_cost`` never touches floating point, so sample-path cost
comparisons elsewhere in the package are tolerance-free.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
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
_need = itemgetter(1)


class InfeasibleActionError(ValueError):
    """Raised when an action charges a charger whose vehicle owes nothing."""


def laxity(v: VehicleState, horizon: int) -> int:
    """Slack before charging must run uninterrupted: stay - need, or the
    horizon bound when the vehicle owes nothing (fully charged vehicles sort
    behind everything that still needs work)."""
    if v.need > 0:
        return v.stay - v.need
    return horizon


class PriorityOrdering(enum.Enum):
    J_OVER_I = "j_over_i"
    I_OVER_J = "i_over_j"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def compare_priority(vi: VehicleState, vj: VehicleState, horizon: int) -> PriorityOrdering:
    """Partial order on present vehicles: j dominates i when j has no more
    laxity and no less remaining work, with at least one strict.

    Identical (laxity, need) pairs compare EQUAL; crossed inequalities are
    INCOMPARABLE (which vehicle deserves priority then depends on the future).
    """
    if not vi.present or not vj.present:
        raise ValueError("priority comparison requires both vehicles present (stay >= 1)")
    ti, tj = laxity(vi, horizon), laxity(vj, horizon)
    gi, gj = vi.need, vj.need
    if ti == tj and gi == gj:
        return PriorityOrdering.EQUAL
    if ti >= tj and gi <= gj:
        return PriorityOrdering.J_OVER_I
    if tj >= ti and gj <= gi:
        return PriorityOrdering.I_OVER_J
    return PriorityOrdering.INCOMPARABLE


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
        if require_convex:
            increments = [vals[n] - vals[n - 1] for n in range(1, len(vals))]
            for k, d in enumerate(increments):
                if d < 0:
                    raise ValueError(f"penalty increment q({k + 1})-q({k}) is negative")
                if k > 0 and d < increments[k - 1]:
                    raise ValueError(f"penalty increments decrease at n={k + 1}")
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

    @functools.cached_property
    def scaled(self) -> tuple[tuple[int, ...], int]:
        """The table as integers over a common denominator: (q(n) * L for
        n in 0..E, L), so a sum of penalties is one Fraction at the end."""
        unit = math.lcm(*(v.denominator for v in self.values))
        return tuple(int(v * unit) for v in self.values), unit


_BITS = frozenset((0, 1))


@dataclass(frozen=True)
class ActionVector:
    """Binary charge/idle decision per charger."""
    bits: tuple[int, ...]

    def __post_init__(self):
        if not _BITS.issuperset(self.bits):
            raise ValueError("action bits must be 0 or 1")

    @functools.cached_property
    def aggregate(self) -> int:
        return sum(self.bits)

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
    def unfinished(self) -> tuple[int, ...]:
        """Indices of the vehicles still owed charge, computed once per state."""
        return tuple([i for i, (_, need) in enumerate(self.vehicles) if need > 0])

    @property
    def unfinished_count(self) -> int:
        """V(x): vehicles still owed charge (the only ones worth charging)."""
        return len(self.unfinished)


def settle_stage(state: SystemState, action: ActionVector, penalty: PenaltyFunction
                 ) -> tuple[Fraction, tuple[VehicleState, ...]]:
    """The part of one stage that the fleet alone decides: check the action
    once, then return the penalty of the vehicles departing after this stage
    (stay == 1) with unmet request, and the vehicles one stage later.  The
    charging cost C(A, s) depends only on the aggregate and the grid state,
    so callers price it themselves.  The penalty is summed over integers in
    units of 1/L and divided once."""
    action.check_feasible(state.vehicles)
    return _penalty(state, action, penalty), _step(state.vehicles, action.bits)


def _penalty(state: SystemState, action: ActionVector, penalty: PenaltyFunction) -> Fraction:
    scaled, unit = penalty.scaled
    shortfall = sum([scaled[need - a] for (stay, need), a in zip(state.vehicles, action.bits)
                     if stay == 1])
    return Fraction(shortfall) if unit == 1 else Fraction(shortfall, unit)


def _step(vehicles: Sequence[VehicleState], bits: Sequence[int]) -> tuple[VehicleState, ...]:
    return tuple([EMPTY if stay <= 1 else VehicleState(stay - 1, need - a)
                  for (stay, need), a in zip(vehicles, bits)])


def stage_cost(state: SystemState, action: ActionVector, cost_fn, penalty: PenaltyFunction) -> Fraction:
    """Charging cost C(A, s) plus penalties for vehicles departing next stage
    (stay == 1) that leave with unmet request.  Exact rational arithmetic.

    ``cost_fn`` maps (aggregate count, grid index) to a Fraction.
    """
    action.check_feasible(state.vehicles)
    return Fraction(cost_fn(action.aggregate, state.grid)) + _penalty(state, action, penalty)


def step_vehicles(vehicles: Sequence[VehicleState], action: ActionVector) -> tuple[VehicleState, ...]:
    """Advance one stage: charged vehicles lose one unit of need, everyone
    present loses one stage of stay, and vehicles reaching stay 0 depart
    (their charger resets to the empty sentinel)."""
    action.check_feasible(vehicles)
    return _step(vehicles, action.bits)
