"""Vehicle/system state arithmetic, the laxity priority order, and stage costs.

A charger is either empty, written ``VehicleState(0, 0)``, or holds a vehicle
described by ``stay`` (stages remaining until its departure) and ``need``
(charge units still requested).  All costs are exact: penalty tables are
rationals and ``stage_cost`` never touches floating point, so sample-path cost
comparisons elsewhere in the package are tolerance-free.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence


class VehicleState(NamedTuple):
    """Per-charger state: (stages until departure, charge units still owed)."""
    stay: int
    need: int

    @property
    def present(self) -> bool:
        return self.stay > 0

    @property
    def chargeable(self) -> bool:
        return self.need > 0


EMPTY = VehicleState(0, 0)


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


@dataclass(frozen=True)
class ActionVector:
    """Binary charge/idle decision per charger."""
    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise ValueError("action bits must be 0 or 1")

    @property
    def aggregate(self) -> int:
        return sum(self.bits)

    def check_feasible(self, vehicles: Sequence[VehicleState]) -> None:
        if len(self.bits) != len(vehicles):
            raise ValueError("action length does not match charger count")
        for idx, (b, v) in enumerate(zip(self.bits, vehicles)):
            if b > v.need:
                raise InfeasibleActionError(
                    f"charger {idx}: cannot charge a vehicle with no remaining request")


@dataclass(frozen=True)
class SystemState:
    """All charger states plus the grid and demand state indices."""
    vehicles: tuple[VehicleState, ...]
    grid: int
    demand: int

    @property
    def present_count(self) -> int:
        return sum(1 for v in self.vehicles if v.present)

    @property
    def unfinished_count(self) -> int:
        """V(x): vehicles still owed charge (the only ones worth charging)."""
        return sum(1 for v in self.vehicles if v.chargeable)

    def chargeable_indices(self) -> list[int]:
        return [i for i, v in enumerate(self.vehicles) if v.chargeable]


def stage_cost(state: SystemState, action: ActionVector, cost_fn, penalty: PenaltyFunction) -> Fraction:
    """Charging cost C(A, s) plus penalties for vehicles departing next stage
    (stay == 1) that leave with unmet request.  Exact rational arithmetic.

    ``cost_fn`` maps (aggregate count, grid index) to a Fraction.
    """
    action.check_feasible(state.vehicles)
    total = Fraction(cost_fn(action.aggregate, state.grid))
    for v, a in zip(state.vehicles, action.bits):
        if v.stay == 1:
            total += penalty(v.need - a)
    return total


def step_vehicles(vehicles: Sequence[VehicleState], action: ActionVector) -> tuple[VehicleState, ...]:
    """Advance one stage: charged vehicles lose one unit of need, everyone
    present loses one stage of stay, and vehicles reaching stay 0 depart
    (their charger resets to the empty sentinel)."""
    action.check_feasible(vehicles)
    out = []
    for v, a in zip(vehicles, action.bits):
        if not v.present:
            out.append(EMPTY)
        elif v.stay == 1:
            out.append(EMPTY)
        else:
            out.append(VehicleState(v.stay - 1, v.need - a))
    return tuple(out)
