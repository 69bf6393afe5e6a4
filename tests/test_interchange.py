import dataclasses
import itertools
import json
import os
import sys
import threading
from fractions import Fraction

import pytest

from chargesched import interchange, montecarlo, streams
from chargesched.cli import main
from chargesched.core import (ActionVector, PenaltyFunction, SystemState,
                              VehicleState, vehicle_type)
from chargesched.interchange import (AggregateMismatchError, DominanceReport,
                                     InterchangeWindow, ScriptedPolicy,
                                     certify_dominance, coupled_rollout,
                                     find_violation, pure_penalty_scenario,
                                     search_two_vehicle_counterexamples,
                                     wrap_interchange)
from chargesched.models import (DemandModel, FixedCountArrivals, GridModel,
                                ScenarioModel, TableCost, TabulatedArrivals,
                                capacity_scenario, draw_initial, penalty_json,
                                scenario_to_json)
from chargesched.montecarlo import advance_stage, stage_outcome
from chargesched.policies import make_policy
from test_montecarlo import _narrow_and_wide, _ones_at

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
    pair = find_violation(pol, state, 0)
    assert pair == (0, 1)
    lll = make_policy("lllp", sc)
    assert find_violation(lll, state, 0) is None
    with pytest.raises(ValueError):
        wrap_interchange(lll, state, 0, 1, 0)  # not a violation
    with pytest.raises(ValueError):
        # charges i but j does not have priority over i
        bad = SystemState((VehicleState(1, 1), VehicleState(5, 1),
                           VehicleState(0, 0), VehicleState(0, 0)), 0, 0)
        wrap_interchange(pol, bad, 0, 1, 0)


def test_no_violation_when_everyone_charged():
    sc = capacity_scenario(5, num_chargers=4, capacity_range=(160, 160))
    pol = make_policy("edf", sc)
    state = SystemState((VehicleState(1, 1), VehicleState(2, 2),
                         VehicleState(3, 1), VehicleState(0, 0)), 0, 0)
    assert find_violation(pol, state, 0) is None


def test_price_cycle_interchange_swaps_back_with_equal_cost():
    # vehicles (2,1) and (3,2); per-stage unit prices 1, 0, 2; base policy
    # charges vehicle 0 then vehicle 1 twice: both orderings cost exactly 3
    # over the window.  The sides meet after the swap-back at stage 1, so the
    # rollout stops there, short of stage 2, which costs 2 on either side.
    sc = _no_arrival_scenario(PenaltyFunction.linear(10), prices=(1, 0, 2))
    pol = ScriptedPolicy({0: (1, 0), 1: (0, 1), 2: (0, 1)})
    x0 = SystemState((VehicleState(2, 1), VehicleState(3, 2)), 0, 0)
    wrapped = wrap_interchange(pol, x0, 0, 1, 0)
    assert wrapped.length == 2
    full, _ = _apart(sc, pol, wrapped, x0, wrapped.length, seed=0)
    assert full.base_total == full.swapped_total == 3
    assert full.base_stage_costs[2] == full.swapped_stage_costs[2] == 2
    roll = coupled_rollout(sc, pol, wrapped, x0, wrapped.length, seed=0)
    assert roll.swap_back_at == 1
    assert roll.g_empty is False
    assert roll.base_total == roll.swapped_total == full.base_total - 2 == 1
    assert roll.aggregates == (1, 1)
    # A longer horizon rolls out no further.
    assert coupled_rollout(sc, pol, wrapped, x0, wrapped.length + 5, seed=0) == roll


def test_a_window_rollout_refuses_a_short_horizon_or_a_late_start():
    sc = _no_arrival_scenario(PenaltyFunction.linear(10), prices=(1, 0, 2))
    pol = ScriptedPolicy({0: (1, 0), 1: (0, 1), 2: (0, 1)})
    x0 = SystemState((VehicleState(2, 1), VehicleState(3, 2)), 0, 0)
    wrapped = wrap_interchange(pol, x0, 0, 1, 0)
    with pytest.raises(ValueError, match="horizon must cover the interchange window"):
        coupled_rollout(sc, pol, wrapped, x0, wrapped.length - 1, seed=0)
    with pytest.raises(ValueError, match="rollout must start at the window's opening stage"):
        coupled_rollout(sc, pol, wrapped, x0, wrapped.length, seed=0, stage_offset=1)


def test_certify_dominance_needs_a_case():
    sc = capacity_scenario(5, num_chargers=4)
    with pytest.raises(ValueError, match="need at least one case"):
        certify_dominance(sc, make_policy("edf", sc), n_cases=0, seed=0)


def _two_vehicle_outcomes(penalty, x0, script, prices):
    """Oracle: exhaustively replay the scripted decisions, tracking both the
    base order and the interchanged order by brute-force state stepping."""
    sc = _no_arrival_scenario(penalty, prices=prices)
    pol = ScriptedPolicy(script)
    wrapped = wrap_interchange(pol, x0, 0, 1, 0)
    return sc, pol, wrapped


def test_quadratic_two_stage_example():
    # i=(1,1), j=(2,3): base serves i then j leaving shortfalls (0, 2), cost 4;
    # the interchange serves j twice leaving (1, 1), cost 2
    q = PenaltyFunction.quadratic(10)
    x0 = SystemState((VehicleState(1, 1), VehicleState(2, 3)), 0, 0)
    sc, pol, wrapped = _two_vehicle_outcomes(q, x0, {0: (1, 0), 1: (0, 1)}, (0,))
    roll = coupled_rollout(sc, pol, wrapped, x0, wrapped.length, seed=0)
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
    # the swapped rollout's grid uniform moves by one half, so on this iid
    # grid it takes another next grid state
    import chargesched.interchange as interchange
    from chargesched.models import draw_initial
    from chargesched import streams
    real = interchange.advance_stage
    calls = []

    def skewed(scenario, state, action, outcome):
        calls.append(outcome)
        if len(calls) % 2 == 0:
            outcome = ((outcome[0] + 0.5) % 1.0, *outcome[1:])
        return real(scenario, state, action, outcome)

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


class _FirstStates:
    """A policy that records the state each case starts from: the one it
    decides on at stage 0."""

    def __init__(self, policy):
        self.policy, self.name, self.starts = policy, policy.name, []

    def decide(self, state, stage):
        if stage == 0:
            self.starts.append(state)
        return self.policy.decide(state, stage)


def test_certify_starts_each_case_from_its_initial_draw():
    sc = capacity_scenario(20, "linear")
    pol = _FirstStates(make_policy("edf", sc))
    rep = certify_dominance(sc, pol, n_cases=6, seed=11)
    key = streams.philox_key(11)
    assert pol.starts == [draw_initial(sc, key, case) for case in range(6)]
    assert len({x.grid for x in pol.starts}) > 1
    assert rep.penalty == "linear" == rep.to_json()["penalty"]


def test_report_penalty_is_written_as_the_scenario_file_writes_it():
    sc = pure_penalty_scenario(PenaltyFunction((0, 1, 3, 6)))
    report = DominanceReport(policy="scripted", scenario=sc.name,
                             penalty=penalty_json(sc.penalty), n_cases=1)
    assert report.to_json()["penalty"] == [0, 1, 3, 6] == scenario_to_json(sc)["penalty"]


class _RebuiltWindow(InterchangeWindow):
    """The window whose map_action builds a new action at every stage."""

    def map_action(self, base_action, stage, swap_back_at):
        return ActionVector(tuple(super().map_action(base_action, stage, swap_back_at).bits))


def test_map_action_keeps_the_base_action_where_nothing_swaps():
    sc = capacity_scenario(20, "quadratic")
    pol = make_policy("edf", sc)
    key = streams.philox_key(4)
    state, draws = draw_initial(sc, key, 0), streams.Substream(key, 0)
    for t in range(400):
        action = pol.decide(state, t)
        pair = find_violation(pol, state, t) if t >= 3 else None
        if pair is not None:
            break
        state, _ = advance_stage(sc, state, action, stage_outcome(sc, state.demand, t, draws))
    win = wrap_interchange(pol, state, *pair, t)
    base = pol.decide(state, t + 1)
    assert win.map_action(base, t + 1, None) is base
    assert win.map_action(base, t + 1, t + 2) is base
    assert win.map_action(base, t, None).bits != base.bits
    roll = coupled_rollout(sc, pol, win, state, win.length, seed=4, stage_offset=t)
    rebuilt = _RebuiltWindow(**dataclasses.asdict(win))
    again = coupled_rollout(sc, pol, rebuilt, state, win.length, seed=4, stage_offset=t)
    assert ((roll.base_total, roll.swapped_total, roll.base_stage_costs,
             roll.swapped_stage_costs, roll.swap_back_at)
            == (again.base_total, again.swapped_total, again.base_stage_costs,
                again.swapped_stage_costs, again.swap_back_at))


def test_certify_counts_identity_and_equality_failures(monkeypatch, tmp_path):
    # Alter the first g-empty case's shortfalls, so the identity rho' = rho
    # + (1, -1) fails, and the first g-nonempty case's swapped total, so the
    # totals differ although the window swapped back.  Every case reaches
    # its rollout (asserted below), so the k-th rollout is case k's.
    real, altered, cases = interchange._coupled, {}, itertools.count()

    def tampered(*args):
        roll, case = real(*args), next(cases)
        if roll.g_empty and True not in altered:
            altered[True] = case
            return dataclasses.replace(roll, swapped_shortfalls=roll.base_shortfalls)
        if roll.g_empty is False and False not in altered:
            altered[False] = case
            return dataclasses.replace(roll, swapped_total=roll.base_total - 1)
        return roll

    monkeypatch.setattr(interchange, "_coupled", tampered)
    sc = capacity_scenario(20, "linear")
    rep = certify_dominance(sc, make_policy("edf", sc), n_cases=6, seed=9)
    assert (rep.shortfall_identity_failures, rep.equality_failures) == (1, 1)
    assert not rep.ok
    assert rep.strict + rep.equal == 4 and rep.g_empty_cases + rep.g_nonempty_cases == 6
    bundles = {b["case"]: b for b in rep.counterexamples}
    assert sorted(bundles) == sorted(altered.values())
    unequal = bundles[altered[False]]
    assert Fraction(unequal["base_total"]) - Fraction(unequal["swapped_total"]) == 1
    altered.clear()
    out = tmp_path / "report.json"
    scenario = os.path.join(os.path.dirname(__file__), "..", "scenarios",
                            "capacity_benchmark.json")
    assert main(["verify-dominance", "--scenario", scenario, "--cases", "6",
                 "--seed", "9", "--out", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert (doc["shortfall_identity_failures"], doc["equality_failures"]) == (1, 1)


def test_certify_records_a_costlier_interchange_as_a_counterexample_only(monkeypatch):
    # A case whose interchange costs more is a counterexample and nothing
    # else: it counts toward neither branch of the window nor its checks.
    # Every case reaches its rollout (asserted below), so the k-th rollout is
    # case k's.
    real, altered, cases = interchange._coupled, [], itertools.count()

    def costlier(*args):
        roll, case = real(*args), next(cases)
        if not altered:
            altered.append(case)
            return dataclasses.replace(roll, swapped_total=roll.base_total + 1)
        return roll

    monkeypatch.setattr(interchange, "_coupled", costlier)
    sc = capacity_scenario(20, "linear")
    rep = certify_dominance(sc, make_policy("edf", sc), n_cases=4, seed=9)
    assert [b["case"] for b in rep.counterexamples] == altered == [0]
    assert (rep.shortfall_identity_failures, rep.equality_failures) == (0, 0)
    assert rep.strict + rep.equal == 3 and rep.g_empty_cases + rep.g_nonempty_cases == 3
    assert not rep.ok


def test_report_json_lists_the_fields_in_order(tmp_path):
    keys = ["policy", "scenario", "penalty", "cases", "strict", "equal", "g_empty_cases",
            "g_nonempty_cases", "shortfall_identity_failures", "equality_failures",
            "counterexamples", "seed"]
    # `unreached` follows `equal`, and is written only when a case was unreached.
    assert keys[:6] + ["unreached"] + keys[6:] == [
        "cases" if f.name == "n_cases" else f.name for f in dataclasses.fields(DominanceReport)]
    sc = capacity_scenario(20, "linear")
    rep = certify_dominance(sc, make_policy("edf", sc), n_cases=3, seed=1)
    assert rep.unreached == 0
    assert list(rep.to_json()) == keys
    assert rep.to_json()["cases"] == rep.n_cases == 3
    out = tmp_path / "report.json"
    interchange.save_report(rep, out)
    assert list(json.loads(out.read_text())) == keys


def test_certify_quadratic_classifies_cases():
    sc = capacity_scenario(20, "quadratic")
    rep = certify_dominance(sc, make_policy("edf", sc), n_cases=60, seed=2)
    assert rep.ok
    assert rep.strict + rep.equal == 60
    # strict improvements only ever come from the no-swap-back branch
    assert rep.strict <= rep.g_empty_cases


def test_certify_from_threads_matches_single_thread():
    """Threads share the `vehicle_type` cache; a report must not depend on
    how they interleave while filling it."""
    sc = capacity_scenario(20, "linear")
    pol = make_policy("llsp", sc)
    vehicle_type.cache_clear()
    expected = certify_dominance(sc, pol, 20, 5).to_json()
    vehicle_type.cache_clear()
    reports = [None] * 4

    def run(k):
        reports[k] = certify_dominance(sc, pol, 20, 5).to_json()

    threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert reports == [expected] * 4


def test_threads_certifying_different_seeds_give_the_single_thread_reports():
    # Each thread opens its own stage table; 30 cases span two table blocks.
    sc = capacity_scenario(20, "quadratic")
    pol = make_policy("edf", sc)
    expected = {seed: certify_dominance(sc, pol, 30, seed).to_json() for seed in (6, 7)}
    got = {}

    def run(seed):
        got[seed] = certify_dominance(sc, pol, 30, seed).to_json()

    threads = [threading.Thread(target=run, args=(seed,)) for seed in expected]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == expected


class _AddressedTable(montecarlo.StageTable):
    """A `StageTable` whose rows are the addressed `stage_outcome` draws."""

    def outcome(self, traj, demand, stage):
        return stage_outcome(self.scenario, demand, stage, streams.Substream(self.key, traj))


@pytest.mark.parametrize("source", [streams.STAY, streams.REQUEST], ids=["STAY", "REQUEST"])
def test_a_unit_arrival_uniform_certifies_alike_on_table_and_draws(
        monkeypatch, source):
    # Every case reads stages 3 on, where each first arrival's uniform is
    # 1.0.  30 cases span two table blocks.
    _ones_at(monkeypatch, set(range(3, interchange.MAX_SCAN)), {source})
    for sc in _narrow_and_wide():
        pol = make_policy("edf", sc)
        tabled = certify_dominance(sc, pol, 30, seed=4)
        with monkeypatch.context() as patch:
            patch.setattr(interchange, "StageTable", _AddressedTable)
            addressed = certify_dominance(sc, pol, 30, seed=4)
        assert tabled.to_json() == addressed.to_json()
        assert tabled.ok and tabled.strict + tabled.equal == 30


def test_negative_control_search():
    concave = PenaltyFunction([0, 2, 3, Fraction(7, 2), Fraction(15, 4),
                               Fraction(31, 8)], require_convex=False)
    hits = search_two_vehicle_counterexamples(concave, 10_000, seed=1)
    assert hits, "concave penalty must admit a strict counterexample"
    assert Fraction(hits[0]["swapped_total"]) > Fraction(hits[0]["base_total"])


def test_convex_search_finds_nothing():
    assert search_two_vehicle_counterexamples(
        PenaltyFunction.quadratic(6), 2_000, seed=1) == []


def _apart(scenario, base, other, state0, horizon, seed, traj=0, stage_offset=0):
    """`coupled_rollout` written out with two `advance_stage` calls a stage,
    one per side, each on its own `stage_outcome` draw, whatever their states
    and actions, over the whole horizon
    even for a window; with it, for each stage, whether the two sides' states
    or actions differ there."""
    win = other if isinstance(other, InterchangeWindow) else None
    draws = streams.Substream(streams.philox_key(seed), traj)
    x = xh = state0
    swap_back_at = None
    costs, costs_h, aggs, apart = [], [], [], []
    rho, rho_h = {}, {}
    for stage in range(stage_offset, stage_offset + horizon + 1):
        a = base.decide(x, stage)
        if win is None:
            ah = other.decide(xh, stage)
        else:
            if (swap_back_at is None and win.t0 < stage < min(win.depart_i, win.depart_j)
                    and (a.bits[win.i], a.bits[win.j]) == (0, 1)):
                swap_back_at = stage
            ah = win.map_action(a, stage, swap_back_at)
            for shortfalls, state, action in ((rho, x, a), (rho_h, xh, ah)):
                for idx, depart in ((win.i, win.depart_i), (win.j, win.depart_j)):
                    if stage == depart - 1:
                        shortfalls[idx] = state.vehicles[idx].need - action.bits[idx]
        apart.append((x, a) != (xh, ah))
        x, bill = advance_stage(scenario, x, a,
                                stage_outcome(scenario, x.demand, stage, draws))
        xh, bill_h = advance_stage(scenario, xh, ah,
                                   stage_outcome(scenario, xh.demand, stage, draws))
        costs.append(Fraction(bill.charging + bill.penalty, scenario.prices.unit))
        costs_h.append(Fraction(bill_h.charging + bill_h.penalty, scenario.prices.unit))
        aggs.append(a.aggregate)
    assert win is None or x == xh

    def pair(shortfalls):
        return (interchange.ShortfallPair(shortfalls[win.i], shortfalls[win.j])
                if len(shortfalls) == 2 else None)

    return interchange.CoupledRollout(
        window=win, swap_back_at=swap_back_at,
        g_empty=None if win is None else swap_back_at is None,
        base_total=sum(costs, Fraction(0)), swapped_total=sum(costs_h, Fraction(0)),
        base_stage_costs=tuple(costs), swapped_stage_costs=tuple(costs_h),
        aggregates=tuple(aggs),
        base_shortfalls=None if win is None else pair(rho),
        swapped_shortfalls=None if win is None else pair(rho_h)), tuple(apart)


def _first_stages(roll, n):
    """``roll`` cut to its first n stages: a window's shortfall pairs stay
    only when both of its vehicles depart within them."""
    base, swapped = roll.base_stage_costs[:n], roll.swapped_stage_costs[:n]
    win = roll.window
    departed = win is None or max(win.depart_i, win.depart_j) <= win.t0 + n
    return dataclasses.replace(
        roll, base_total=sum(base, Fraction(0)), swapped_total=sum(swapped, Fraction(0)),
        base_stage_costs=base, swapped_stage_costs=swapped, aggregates=roll.aggregates[:n],
        base_shortfalls=roll.base_shortfalls if departed else None,
        swapped_shortfalls=roll.swapped_shortfalls if departed else None)


def _first_violation(scenario, policy, seed, case):
    """The stage, state and pair where `certify_dominance`'s scan of ``case``
    stops."""
    key = streams.philox_key(seed)
    state, draws = draw_initial(scenario, key, case), streams.Substream(key, case)
    for t in range(interchange.MAX_SCAN):
        action = policy.decide(state, t)
        if t >= interchange.MIN_STAGE and (pair := find_violation(policy, state, t)):
            return t, state, pair
        state, _ = advance_stage(scenario, state, action,
                                 stage_outcome(scenario, state.demand, t, draws))
    raise AssertionError(f"case {case}: no violation")


def _assert_fields_equal(roll, want):
    for f in dataclasses.fields(interchange.CoupledRollout):
        assert getattr(roll, f.name) == getattr(want, f.name), f.name


@pytest.mark.parametrize("penalty", ["linear", "quadratic"])
def test_coupled_rollout_equals_two_rollouts_stepped_apart(penalty, monkeypatch):
    sc = capacity_scenario(20, penalty)
    calls, reads = _count_calls(monkeypatch, interchange, "advance_stage", "stage_outcome")
    kinds = set()
    for name in ("edf", "llsp"):
        pol = make_policy(name, sc)
        for case in range(8):
            t0, x0, (i, j) = _first_violation(sc, pol, 3, case)
            win = wrap_interchange(pol, x0, i, j, t0)
            want, apart = _apart(sc, pol, win, x0, win.length, 3, traj=case,
                                 stage_offset=t0)
            calls.clear()
            reads.clear()
            roll = coupled_rollout(sc, pol, win, x0, win.length, 3, traj=case,
                                   stage_offset=t0)
            n = len(roll.aggregates)
            _assert_fields_equal(roll, _first_stages(want, n))
            # Past the stage where the sides meet, each stage costs both the same.
            assert want.base_stage_costs[n:] == want.swapped_stage_costs[n:]
            # That stage is the swap-back, or the window's last stage.
            assert t0 + n - 1 == (t0 + win.length if roll.g_empty else roll.swap_back_at)
            # One outcome read and one step a stage, and one more step for
            # each stage whose sides differ.
            assert len(reads) == n
            assert len(calls) == n + sum(apart[:n])
            if roll.swap_back_at is not None and roll.swap_back_at < t0 + win.length:
                kinds.add("early swap-back")
                assert n < win.length + 1
            if roll.g_empty:
                kinds.add("g empty")
    assert kinds == {"early swap-back", "g empty"}
    # A plain second policy: the same heuristic as another object, and two
    # rules that charge equal counts from opposite ends of the charger row.
    key = streams.philox_key(5)
    for case in range(3):
        state = draw_initial(sc, key, case)
        args = (sc, make_policy("edf", sc), make_policy("edf", sc), state, 30, 5, case)
        _assert_fields_equal(coupled_rollout(*args), _apart(*args)[0])
    paired = _paired_arrival_scenario()
    counts = lambda t: min(t, 3)
    state = draw_initial(paired, streams.philox_key(2), 0)
    args = (paired, _ChargeEnds(counts, True), _ChargeEnds(counts, False), state, 20, 2)
    _assert_fields_equal(coupled_rollout(*args), _apart(*args)[0])


def test_certificate_counts_are_pinned():
    # 25 cases at seed 3 under the quadratic penalty: the counts of the
    # rollout that steps each side apart at every stage.
    sc = capacity_scenario(20, "quadratic")
    got = {name: certify_dominance(sc, make_policy(name, sc), 25, 3)
           for name in ("edf", "llsp")}
    assert {name: (r.strict, r.equal, r.g_empty_cases) for name, r in got.items()} == {
        "edf": (2, 23, 10), "llsp": (0, 25, 0)}
    assert all(r.ok for r in got.values())


def _count_calls(monkeypatch, owner, *names):
    """Replace each named attribute of ``owner`` by a wrapper that records
    its calls' arguments; return one list of them per name."""
    lists = []
    for name in names:
        real, calls = getattr(owner, name), []
        lists.append(calls)

        def counted(*args, real=real, calls=calls):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
    return lists


def test_certificate_stage_count_is_pinned(monkeypatch):
    # The `advance_stage` calls of the certificates above: each case's scan
    # and both sides of its rollout up to the stage where they meet.  Stepping
    # the common tail past that stage made 639 and 548.  Its table reads: one
    # a scan stage and one a rollout stage, for both sides; reading one per
    # side made as many reads as steps.
    sc = capacity_scenario(20, "quadratic")
    calls, = _count_calls(monkeypatch, interchange, "advance_stage")
    reads, = _count_calls(monkeypatch, montecarlo.StageTable, "outcome")
    counts = {}
    for name in ("edf", "llsp"):
        calls.clear()
        reads.clear()
        certify_dominance(sc, make_policy(name, sc), 25, 3)
        counts[name] = len(calls), len(reads)
    assert counts == {"edf": (557, 421), "llsp": (425, 358)}
