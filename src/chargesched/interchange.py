"""Priority-interchange policies and sample-path dominance certification.

Given a policy that charges vehicle i while idling a strictly higher-priority
vehicle j, the interchange wrapper charges j instead at that stage, then
shadows the base policy until the first stage the base policy charges j but
not i (swapping back there), and coincides with it afterwards.  Because the
wrapper charges the same number of vehicles at every stage, both rollouts can
be driven by the same exogenous randomness, and the realized cost of the
wrapper can never exceed the base policy's when the penalty increments are
non-decreasing.  `certify_dominance` checks that claim case by case in exact
arithmetic, also asserting the structural facts the argument rests on
(aggregate preservation, the shortfall algebra when no swap-back occurs, and
exact cost equality when one does).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Optional

from . import streams
from .core import ActionVector, SystemState, VehicleState, outranks
from .models import ScenarioModel, initial_states, penalty_json
from .montecarlo import advance_stage, as_fractions
from .policies import check_lllp_compliance

# `certify_dominance` looks for a case's violation from stage MIN_STAGE on,
# and counts the case unreached when none comes within MAX_SCAN stages.
MIN_STAGE = 3
MAX_SCAN = 400


def find_violation(policy, state: SystemState,
                   stage: int) -> Optional[tuple[int, int]]:
    """Lexicographically smallest (i, j) such that the policy's decision at
    this state charges i, idles j, and j has priority over i."""
    return check_lllp_compliance(state, policy.decide(state, stage))


@dataclass(frozen=True)
class InterchangeWindow:
    """One interchange: swap (i -> j) at stage t0, watch for the first stage
    w where the base policy charges j but not i before either departs, and
    guarantee agreement after t0 + length.  `map_action` is the wrapper's
    decision rule, expressed over the base policy's realized decisions (the
    direct transcription of the definition; it also sidesteps any ambiguity
    for history-dependent base policies)."""
    i: int
    j: int
    t0: int
    length: int      # W = max(stay_i, stay_j) - 1, stages t0+1 .. t0+length
    depart_i: int    # absolute stage at which i departs (beta_i)
    depart_j: int

    def map_action(self, base_action: ActionVector, stage: int,
                   swap_back_at: Optional[int]) -> ActionVector:
        """The base action itself (it is frozen) at a stage without a swap."""
        if stage != self.t0 and stage != swap_back_at:
            return base_action
        bits = list(base_action.bits)
        bits[self.i], bits[self.j] = (0, 1) if stage == self.t0 else (1, 0)
        return ActionVector(tuple(bits))


@dataclass(frozen=True)
class ShortfallPair:
    rho_i: int
    rho_j: int


def wrap_interchange(policy, state: SystemState, i: int, j: int,
                     stage: int) -> InterchangeWindow:
    """Build the interchange window for a verified violation (i, j) of the
    policy at this state; its `map_action` is the wrapper's decision rule."""
    action = policy.decide(state, stage)
    if not (action.bits[i] == 1 and action.bits[j] == 0):
        raise ValueError("(i, j) is not a violation: policy does not charge i and idle j")
    if not outranks(state.vehicles[j], state.vehicles[i]):
        raise ValueError("(i, j) is not a violation: j lacks priority over i")
    si, sj = state.vehicles[i].stay, state.vehicles[j].stay
    return InterchangeWindow(i=i, j=j, t0=stage, length=max(si, sj) - 1,
                             depart_i=stage + si, depart_j=stage + sj)


class AggregateMismatchError(AssertionError):
    """The two coupled rollouts charged different vehicle counts: a bug."""


@dataclass
class CoupledRollout:
    window: Optional[InterchangeWindow]
    swap_back_at: Optional[int]
    g_empty: Optional[bool]
    base_total: Fraction
    swapped_total: Fraction
    base_stage_costs: tuple[Fraction, ...]
    swapped_stage_costs: tuple[Fraction, ...]
    aggregates: tuple[int, ...]
    base_shortfalls: Optional[ShortfallPair]
    swapped_shortfalls: Optional[ShortfallPair]


def coupled_rollout(scenario: ScenarioModel, base_policy, other,
                    state0: SystemState, horizon: int, seed: int,
                    traj: int = 0, stage_offset: int = 0) -> CoupledRollout:
    """Run two policies from the same state over the same random substreams.

    ``other`` may be an InterchangeWindow (driven in lock step against the
    base rollout, per its action map) or any plain policy; either way the two
    rollouts must charge equal aggregate counts at every stage, which makes
    their grid and demand paths coincide.  Where the two sides hold one
    state and take one action, as a window's do outside its swaps, the stage
    is stepped once for both; a step that leaves them equal makes them one
    state again.  Stage costs are summed as ints in units of 1/L and
    returned as exact rationals.
    """
    win = other if isinstance(other, InterchangeWindow) else None
    if win is not None:
        if horizon < win.length:
            raise ValueError("horizon must cover the interchange window")
        if stage_offset != win.t0:
            raise ValueError("rollout must start at the window's opening stage")
    key = streams.philox_key(seed)
    x = state0
    xh = state0
    swap_back_at: Optional[int] = None
    base_costs: list[int] = []      # units of 1/L
    sw_costs: list[int] = []
    aggs: list[int] = []
    rho_base, rho_sw = [None, None], [None, None]   # (i, j) shortfalls at departure

    for k in range(horizon + 1):
        stage = stage_offset + k
        a = base_policy.decide(x, stage)
        if win is not None:
            if (swap_back_at is None and stage > win.t0
                    and stage < min(win.depart_i, win.depart_j)
                    and a.bits[win.j] == 1 and a.bits[win.i] == 0):
                swap_back_at = stage
            ah = other.map_action(a, stage, swap_back_at)
        else:
            ah = other.decide(xh, stage)
        if ah.aggregate != a.aggregate:
            raise AggregateMismatchError(
                f"stage {stage}: aggregates differ ({a.aggregate} vs {ah.aggregate})")
        if win is not None:
            _record_shortfalls(x, a, win, stage, rho_base)
            _record_shortfalls(xh, ah, win, stage, rho_sw)
        shared = xh is x and ah is a
        x, bill = advance_stage(scenario, x, a, stage, key, traj)
        if shared:      # one pure step of identical inputs serves both sides
            xh, bill_h = x, bill
        else:
            xh, bill_h = advance_stage(scenario, xh, ah, stage, key, traj)
            if xh == x:
                xh = x      # so later stages take the shared step
        if (x.grid, x.demand) != (xh.grid, xh.demand):
            raise AggregateMismatchError(f"stage {stage}: exogenous paths diverged")
        base_costs.append(bill.charging + bill.penalty)
        sw_costs.append(bill_h.charging + bill_h.penalty)
        aggs.append(a.aggregate)

    g_empty = None
    if win is not None:
        g_empty = swap_back_at is None
        if x != xh:
            raise AggregateMismatchError("states failed to reconcile after the window")
    unit = scenario.prices.unit
    return CoupledRollout(
        window=win, swap_back_at=swap_back_at, g_empty=g_empty,
        base_total=Fraction(sum(base_costs), unit),
        swapped_total=Fraction(sum(sw_costs), unit),
        base_stage_costs=as_fractions(base_costs, unit),
        swapped_stage_costs=as_fractions(sw_costs, unit),
        aggregates=tuple(aggs),
        base_shortfalls=None if None in rho_base else ShortfallPair(*rho_base),
        swapped_shortfalls=None if None in rho_sw else ShortfallPair(*rho_sw))


def _record_shortfalls(state: SystemState, action: ActionVector,
                       win: InterchangeWindow, stage: int, rho: list):
    for k, (idx, depart) in enumerate(((win.i, win.depart_i), (win.j, win.depart_j))):
        if stage == depart - 1:
            v = state.vehicles[idx]
            if v.stay != 1:
                raise AggregateMismatchError(
                    f"stage {stage}: vehicle {idx} not departing when expected")
            rho[k] = v.need - action.bits[idx]


# ---------------------------------------------------------------------------
# Certification
# ---------------------------------------------------------------------------

@dataclass
class DominanceReport:
    policy: str
    scenario: str
    penalty: str | list | dict    # as `models.penalty_json` writes it
    n_cases: int
    strict: int = 0
    equal: int = 0
    unreached: int = 0      # cases with no violation within MAX_SCAN stages
    g_empty_cases: int = 0
    g_nonempty_cases: int = 0
    shortfall_identity_failures: int = 0
    equality_failures: int = 0
    counterexamples: list = field(default_factory=list)
    seed: int = 0

    @property
    def ok(self) -> bool:
        return (not self.counterexamples and self.shortfall_identity_failures == 0
                and self.equality_failures == 0)

    def to_json(self) -> dict:
        """The fields in declaration order, `n_cases` written "cases" and
        `unreached` left out when 0, so a report whose every case met a
        violation is written as it was before that field existed."""
        return {"cases" if k == "n_cases" else k: v for k, v in asdict(self).items()
                if k != "unreached" or v}


def _bundle(case: int, seed: int, stage: int, state: SystemState,
            pair: tuple[int, int], roll: CoupledRollout) -> dict:
    """Everything needed to replay one failing case."""
    return {
        "case": case, "seed": seed, "stage": stage,
        "state": {"vehicles": [[v.stay, v.need] for v in state.vehicles],
                  "grid": state.grid, "demand": state.demand},
        "i": pair[0], "j": pair[1],
        "window_length": roll.window.length if roll.window else None,
        "swap_back_at": roll.swap_back_at,
        "base_total": str(roll.base_total),
        "swapped_total": str(roll.swapped_total),
    }


def certify_dominance(scenario: ScenarioModel, policy, n_cases: int,
                      seed: int) -> DominanceReport:
    """Sample reachable violation states by rolling the scenario forward under
    the policy, wrap each violation, and check in exact arithmetic that the
    interchange never costs more on the shared sample path.

    Each case uses its own trajectory substream (seed, case), from the
    initial state `draw_initial` gives it (all drawn in one call); the
    rollout continues that trajectory's randomness from the violation stage.
    A case whose rollout meets no violation within `MAX_SCAN` stages, as a
    policy that keeps the priority rule never does, counts as unreached, so
    ``strict + equal + unreached == n_cases`` when the report is ok.
    """
    if n_cases < 1:
        raise ValueError("need at least one case")
    report = DominanceReport(policy=getattr(policy, "name", repr(policy)),
                             scenario=scenario.name,
                             penalty=penalty_json(scenario.penalty),
                             n_cases=n_cases, seed=seed)
    key = streams.philox_key(seed)
    grids, demands = initial_states(scenario, key, n_cases)
    for case, (s0, d0) in enumerate(zip(grids.tolist(), demands.tolist())):
        state = scenario.empty_state(s0, d0)
        for t in range(MAX_SCAN):
            action = policy.decide(state, t)
            # find_violation on the decision already made
            pair = check_lllp_compliance(state, action) if t >= MIN_STAGE else None
            if pair is not None:
                break
            state, _ = advance_stage(scenario, state, action, t, key, case)
        else:
            report.unreached += 1
            continue
        wrapped = wrap_interchange(policy, state, *pair, t)
        roll = coupled_rollout(scenario, policy, wrapped, state, wrapped.length,
                               seed, traj=case, stage_offset=t)
        delta = roll.base_total - roll.swapped_total
        if delta < 0:
            failed = True
        elif roll.g_empty:
            report.g_empty_cases += 1
            rb, rs = roll.base_shortfalls, roll.swapped_shortfalls
            failed = not (rb is not None and rs is not None
                          and rs.rho_i == rb.rho_i + 1 and rs.rho_j == rb.rho_j - 1
                          and 0 <= rb.rho_i < rb.rho_j)
            report.shortfall_identity_failures += failed
        else:
            report.g_nonempty_cases += 1
            failed = delta != 0
            report.equality_failures += failed
        if failed:
            report.counterexamples.append(_bundle(case, seed, t, state, pair, roll))
        elif delta > 0:
            report.strict += 1
        else:
            report.equal += 1
    return report


def save_report(report: DominanceReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report.to_json(), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Two-vehicle search (negative control for non-convex penalties)
# ---------------------------------------------------------------------------

class ScriptedPolicy:
    """Replays a precomputed per-stage action table (bits masked down to
    feasibility); handy for exploring arbitrary base behaviors on tiny
    instances."""

    name = "scripted"

    def __init__(self, script: dict[int, tuple[int, ...]]):
        self.script = script

    def decide(self, state: SystemState, stage: int) -> ActionVector:
        bits = self.script.get(stage, (0,) * len(state.vehicles))
        fixed = tuple(b if state.vehicles[k].need > 0 else 0
                      for k, b in enumerate(bits))
        return ActionVector(fixed)


def pure_penalty_scenario(penalty, num_chargers: int = 2) -> ScenarioModel:
    """Zero charging cost, no arrivals, a single grid state: every cost on a
    rollout is a departure penalty.  The stage for studying penalties alone."""
    from .models import (DemandModel, GridModel, ScenarioModel, TableCost,
                         TabulatedArrivals)
    one = Fraction(1)
    e = penalty.max_units
    kernel = ((tuple((one,) for _ in range(num_chargers + 1))),)
    grid = GridModel(values=(0,), kernel=kernel,
                     cost=TableCost(((Fraction(0),),) * (num_chargers + 1)))
    demand = DemandModel(kernel=((one,),),
                         arrivals=(TabulatedArrivals(((one, ()),)),))
    return ScenarioModel(name="pure-penalty", num_chargers=num_chargers,
                         max_stay=max(e, 10), max_units=e,
                         grid=grid, demand=demand, penalty=penalty,
                         initial_grid=0, initial_demand=0)


def search_two_vehicle_counterexamples(penalty, n_instances: int,
                                       seed: int) -> list[dict]:
    """Randomized search over two-vehicle instances for a sample path where
    the interchange strictly increases cost; returns the first one found, or
    nothing.  Under a convex penalty this must come back empty; the
    non-convex negative control expects a hit."""
    import numpy as np
    sc = pure_penalty_scenario(penalty)
    e = penalty.max_units
    b = sc.max_stay
    rng = np.random.default_rng(seed)
    for case in range(n_instances):
        li = int(rng.integers(1, b + 1))
        gi = int(rng.integers(1, e + 1))
        lj = int(rng.integers(1, b + 1))
        gj = int(rng.integers(1, e + 1))
        vi, vj = VehicleState(li, gi), VehicleState(lj, gj)
        if not outranks(vj, vi):
            continue
        state = SystemState((vi, vj), 0, 0)
        w_len = max(li, lj) - 1
        script = {0: (1, 0)}
        # Random continuation: the base policy may charge either vehicle later.
        for k in range(1, w_len + 1):
            script[k] = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        policy = ScriptedPolicy(script)
        wrapped = wrap_interchange(policy, state, 0, 1, 0)
        roll = coupled_rollout(sc, policy, wrapped, state, w_len, seed + case)
        if roll.swapped_total > roll.base_total:
            return [_bundle(case, seed, 0, state, (0, 1), roll)]
    return []
