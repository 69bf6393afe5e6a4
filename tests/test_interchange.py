import itertools
from fractions import Fraction

import pytest

from chargesched.core import (ActionVector, PenaltyFunction, SystemState,
                              VehicleState)
from chargesched.interchange import (AggregateMismatchError, ScriptedPolicy,
                                     certify_dominance, coupled_rollout,
                                     find_violation,
                                     search_two_vehicle_counterexamples,
                                     wrap_interchange)
from chargesched.models import (DemandModel, FixedCountArrivals, GridModel,
                                ScenarioModel, TableCost, TabulatedArrivals,
                                capacity_scenario)
from chargesched.policies import make_policy

ONE = Fraction(1)


def _no_arrival_scenario(penalty, n=2, prices=(0,)):
    """Deterministic price cycle, no arrivals: pure two-vehicle dynamics."""
    ns = len(prices)
    kernel = tuple(
        tuple(tuple(ONE if s2 == (s + 1) % ns else Fraction(0) for s2 in range(ns))
              for _ in range(n + 1))
        for s in range(ns))
    cost = TableCost(tuple(tuple(Fraction(a * prices[s]) for s in range(ns))
                           for a in range(n + 1)))
    grid = GridModel(values=tuple(range(ns)), kernel=kernel, cost=cost)
    demand = DemandModel(kernel=((ONE,),), arrivals=(TabulatedArrivals(((ONE, ()),)),))
    return ScenarioModel(name="no-arrivals", num_chargers=n,
                         max_stay=max(10, penalty.max_units),
                         max_units=penalty.max_units, grid=grid, demand=demand,
                         penalty=penalty, initial_grid=0, initial_demand=0)


def test_find_violation_and_wrap_validation():
    sc = capacity_scenario(5, num_chargers=4, capacity_range=(1, 1))
    pol = make_policy("edf", sc)
    state = SystemState((VehicleState(1, 1), VehicleState(2, 2),
                         VehicleState(0, 0), VehicleState(0, 0)), 0, 0)
    pair = find_violation(pol, state, 0, sc.max_stay)
    assert pair == (0, 1)
    lll = make_policy("lllp", sc)
    assert find_violation(lll, state, 0, sc.max_stay) is None
    with pytest.raises(ValueError):
        wrap_interchange(lll, state, 0, 1, 0, sc.max_stay)  # not a violation
    with pytest.raises(ValueError):
        # charges i but j does not have priority over i
        bad = SystemState((VehicleState(1, 1), VehicleState(5, 1),
                           VehicleState(0, 0), VehicleState(0, 0)), 0, 0)
        wrap_interchange(pol, bad, 0, 1, 0, sc.max_stay)


def test_no_violation_when_everyone_charged():
    sc = capacity_scenario(5, num_chargers=4, capacity_range=(160, 160))
    pol = make_policy("edf", sc)
    state = SystemState((VehicleState(1, 1), VehicleState(2, 2),
                         VehicleState(3, 1), VehicleState(0, 0)), 0, 0)
    assert find_violation(pol, state, 0, sc.max_stay) is None


def test_price_cycle_interchange_swaps_back_with_equal_cost():
    # vehicles (2,1) and (3,2); per-stage unit prices 1, 0, 2; base policy
    # charges vehicle 0 then vehicle 1 twice: both orderings cost exactly 3
    sc = _no_arrival_scenario(PenaltyFunction.linear(10), prices=(1, 0, 2))
    pol = ScriptedPolicy({0: (1, 0), 1: (0, 1), 2: (0, 1)})
    x0 = SystemState((VehicleState(2, 1), VehicleState(3, 2)), 0, 0)
    wrapped = wrap_interchange(pol, x0, 0, 1, 0, sc.max_stay)
    assert wrapped.window.length == 2
    roll = coupled_rollout(sc, pol, wrapped, x0, wrapped.window.length, seed=0)
    assert roll.swap_back_at == 1
    assert roll.g_empty is False
    assert roll.base_total == roll.swapped_total == 3
    assert roll.aggregates == (1, 1, 1)


def _two_vehicle_outcomes(penalty, x0, script, prices):
    """Oracle: exhaustively replay the scripted decisions, tracking both the
    base order and the interchanged order by brute-force state stepping."""
    sc = _no_arrival_scenario(penalty, prices=prices)
    pol = ScriptedPolicy(script)
    wrapped = wrap_interchange(pol, x0, 0, 1, 0, sc.max_stay)
    return sc, pol, wrapped


def test_quadratic_two_stage_example():
    # i=(1,1), j=(2,3): base serves i then j leaving shortfalls (0, 2), cost 4;
    # the interchange serves j twice leaving (1, 1), cost 2
    q = PenaltyFunction.quadratic(10)
    x0 = SystemState((VehicleState(1, 1), VehicleState(2, 3)), 0, 0)
    sc, pol, wrapped = _two_vehicle_outcomes(q, x0, {0: (1, 0), 1: (0, 1)}, (0,))
    roll = coupled_rollout(sc, pol, wrapped, x0, wrapped.window.length, seed=0)
    assert roll.g_empty is True
    assert roll.base_total == 4 and roll.swapped_total == 2
    assert (roll.base_shortfalls.rho_i, roll.base_shortfalls.rho_j) == (0, 2)
    assert (roll.swapped_shortfalls.rho_i, roll.swapped_shortfalls.rho_j) == (1, 1)
    # independent check: enumerate every feasible schedule of this instance
    # (one charge per stage) and confirm those are the only two outcomes
    totals = set()
    for bits0, bits1 in itertools.product([(1, 0), (0, 1)], repeat=2):
        v0, v1 = x0.vehicles
        pen = Fraction(0)
        for t, bits in enumerate((bits0, bits1)):
            a0 = bits[0] if v0.need > 0 and v0.stay > 0 else 0
            a1 = bits[1] if v1.need > 0 and v1.stay > 0 else 0
            if v0.stay == 1:
                pen += q(v0.need - a0)
            if v1.stay == 1:
                pen += q(v1.need - a1)
            v0 = VehicleState(max(v0.stay - 1, 0), v0.need - a0 if v0.stay > 1 else 0)
            v1 = VehicleState(max(v1.stay - 1, 0), v1.need - a1 if v1.stay > 1 else 0)
        totals.add(pen)
    assert roll.base_total in totals and roll.swapped_total in totals
    assert min(totals) == roll.swapped_total


def test_identity_pair_has_identical_traces():
    sc = capacity_scenario(6, num_chargers=20, capacity_range=(2, 5))
    pol = make_policy("edf", sc)
    from chargesched.models import draw_initial
    from chargesched import streams
    state = draw_initial(sc, streams.philox_key(3), 0)
    roll = coupled_rollout(sc, pol, pol, state, 15, seed=3)
    assert roll.base_stage_costs == roll.swapped_stage_costs
    assert roll.window is None and roll.g_empty is None


class _ChargeEnds:
    """Charges exactly count(stage) vehicles from one end of the charger row."""

    name = "charge-ends"

    def __init__(self, counts, from_front):
        self.counts = counts
        self.from_front = from_front

    def decide(self, state, stage):
        k = self.counts(stage)
        idxs = state.unfinished
        chosen = idxs[:k] if self.from_front else idxs[-k:] if k else []
        bits = [0] * len(state.vehicles)
        for i in chosen:
            bits[i] = 1
        return ActionVector(tuple(bits))


def _paired_arrival_scenario():
    # three identical (2,2) vehicles arrive every stage; chargers never fill
    demand = DemandModel(
        kernel=((ONE,),),
        arrivals=(TabulatedArrivals(((ONE, (VehicleState(2, 2),) * 3),)),))
    base = capacity_scenario(0, num_chargers=30, capacity_range=(3, 9))
    return ScenarioModel(name="coupling", num_chargers=30, max_stay=10,
                         max_units=10, grid=base.grid, demand=demand,
                         penalty=base.penalty)


def test_coupling_equal_aggregates_give_equal_exogenous_paths():
    sc = _paired_arrival_scenario()
    counts = lambda t: min(t, 3)
    front = _ChargeEnds(counts, True)
    back = _ChargeEnds(counts, False)
    from chargesched.models import draw_initial
    from chargesched import streams
    for seed in range(25):
        state = draw_initial(sc, streams.philox_key(seed), 0)
        # no exception means aggregates matched and exogenous paths coincided
        roll = coupled_rollout(sc, front, back, state, 20, seed=seed)
        assert roll.aggregates == tuple(counts(t) for t in range(21))


def test_aggregate_mismatch_is_hard_failure():
    sc = _paired_arrival_scenario()
    front = _ChargeEnds(lambda t: min(t, 3), True)
    fewer = _ChargeEnds(lambda t: min(t, 2), True)
    from chargesched.models import draw_initial
    from chargesched import streams
    state = draw_initial(sc, streams.philox_key(0), 0)
    with pytest.raises(AggregateMismatchError):
        coupled_rollout(sc, front, fewer, state, 10, seed=0)


def test_diverged_exogenous_paths_are_hard_failure(monkeypatch):
    # the swapped rollout draws trajectory 1's randomness instead of 0's
    import chargesched.interchange as interchange
    from chargesched.models import draw_initial
    from chargesched import streams
    real = interchange.advance_stage
    calls = []

    def skewed(scenario, state, action, stage, key, traj):
        calls.append(stage)
        return real(scenario, state, action, stage, key, traj + len(calls) % 2 - 1)

    sc = capacity_scenario(5, num_chargers=4)
    pol = make_policy("edf", sc)
    state = draw_initial(sc, streams.philox_key(0), 1)
    monkeypatch.setattr(interchange, "advance_stage", skewed)
    with pytest.raises(AggregateMismatchError, match="diverged"):
        coupled_rollout(sc, pol, pol, state, 40, seed=0, traj=1)


def test_certify_dominance_small_runs():
    sc = capacity_scenario(20, "linear")
    for name in ("edf", "llsp"):
        rep = certify_dominance(sc, make_policy(name, sc), n_cases=40, seed=9)
        assert rep.ok
        assert rep.strict + rep.equal == 40
        assert rep.g_empty_cases + rep.g_nonempty_cases == 40
    doc = rep.to_json()
    for key in ("policy", "cases", "strict", "equal", "counterexamples", "seed"):
        assert key in doc


def test_certify_quadratic_classifies_cases():
    sc = capacity_scenario(20, "quadratic")
    rep = certify_dominance(sc, make_policy("edf", sc), n_cases=60, seed=2)
    assert rep.ok
    assert rep.strict + rep.equal == 60
    # strict improvements only ever come from the no-swap-back branch
    assert rep.strict <= rep.g_empty_cases


def test_negative_control_search():
    concave = PenaltyFunction([0, 2, 3, Fraction(7, 2), Fraction(15, 4),
                               Fraction(31, 8)], require_convex=False)
    hits = search_two_vehicle_counterexamples(concave, 10_000, seed=1)
    assert hits, "concave penalty must admit a strict counterexample"
    assert Fraction(hits[0]["swapped_total"]) > Fraction(hits[0]["base_total"])


def test_convex_search_finds_nothing():
    assert search_two_vehicle_counterexamples(
        PenaltyFunction.quadratic(6), 2_000, seed=1) == []
