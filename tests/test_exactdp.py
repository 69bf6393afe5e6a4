import dataclasses
import hashlib
import itertools
import math
import re
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargesched import exactdp, linalg
from chargesched.core import (EMPTY, ActionVector, PenaltyFunction, SystemState,
                              VehicleState, settle_stage, step_tables)
from chargesched.exactdp import (BRUTE_FORCE_LIMIT, BruteForceResult, DPSolution,
                                 EnumeratedMDP, NonConvergenceError,
                                 ProjectionError, StateCeilingExceeded,
                                 TabularPolicy, _greedy_from_q, _integer_row,
                                 brute_force_optimal_gain,
                                 compliance_violations, enumerate_mdp,
                                 exact_policy_gain, export_solution,
                                 lllp_projection, policy_closure,
                                 reachable_closure, recurrent_classes,
                                 relative_value_iteration, verify_constant_gain)
from chargesched.models import (DemandModel, GridModel, ScenarioModel,
                                TableCost, TabulatedArrivals, admit,
                                capacity_scenario, multichain_fixture,
                                two_charger_scenario)

ONE, HALF = Fraction(1), Fraction(1, 2)


def _single_charger_scenario(arrival_prob=HALF):
    grid = GridModel(values=(0,), kernel=(((ONE,), (ONE,)),),
                     cost=TableCost(((Fraction(0),), (Fraction(0),))))
    demand = DemandModel(
        kernel=((ONE,),),
        arrivals=(TabulatedArrivals(((1 - arrival_prob, ()),
                                     (arrival_prob, (VehicleState(1, 1),)))),))
    return ScenarioModel(name="single", num_chargers=1, max_stay=1, max_units=1,
                         grid=grid, demand=demand,
                         penalty=PenaltyFunction.linear(1),
                         initial_grid=0, initial_demand=0)


def test_lattice_examples():
    # A (1, 1) arrival leaves after one stage, so (1, 0) is never reached.
    mdp = enumerate_mdp(_single_charger_scenario())
    assert [x.vehicles for x in mdp.states] == [(EMPTY,), (VehicleState(1, 1),)]
    assert enumerate_mdp(multichain_fixture()).n_states == 2  # S x D only


def test_state_ceiling():
    with pytest.raises(StateCeilingExceeded, match="exceed the ceiling of 5"):
        enumerate_mdp(two_charger_scenario(), ceiling=5)
    assert enumerate_mdp(two_charger_scenario(), ceiling=12).n_states == 12
    with pytest.raises(ValueError, match="tabulated arrival laws"):
        # fixed-count arrivals cannot be enumerated exactly
        enumerate_mdp(capacity_scenario(5))


def test_transition_rows_are_exact():
    mdp = enumerate_mdp(two_charger_scenario())
    assert mdp.n_states == 12
    assert sum(len(acts) for acts in mdp.actions) == 34
    assert _digest(mdp) == "5e6aeb90ea7e42208dca1feffda94783a947d64b32f1797734966578ceaf2709"
    for per_action in mdp.transitions:
        for row in per_action:
            assert sum(p for _, p in row) == 1


def test_rvi_constant_cost_no_chargers():
    grid = GridModel(values=(0, 1), kernel=(((HALF, HALF),), ((HALF, HALF),)),
                     cost=TableCost(((Fraction(3), Fraction(3)),)))
    demand = DemandModel(kernel=((ONE,),), arrivals=(TabulatedArrivals(((ONE, ()),)),))
    sc = ScenarioModel(name="flat", num_chargers=0, max_stay=1, max_units=1,
                       grid=grid, demand=demand, penalty=PenaltyFunction.linear(1),
                       initial_grid=0, initial_demand=0)
    mdp = enumerate_mdp(sc)
    sol = relative_value_iteration(mdp)
    assert abs(sol.gain - 3.0) < 1e-12
    assert np.abs(sol.h).max() < 1e-12
    # ergodic chargerless grid: gain trivially constant across starts
    assert verify_constant_gain(mdp, sol, tol=1e-10).ok


def test_rvi_zero_arrivals_gain_matches_stationary_average():
    # no vehicles ever arrive: gain = stationary average of C(0, s)
    grid = GridModel(values=(0, 1),
                     kernel=(((Fraction(1, 4), Fraction(3, 4)),) * 3,
                             ((Fraction(2, 3), Fraction(1, 3)),) * 3),
                     cost=TableCost(((Fraction(0), Fraction(6)),
                                     (Fraction(0), Fraction(6)),
                                     (Fraction(0), Fraction(6)))))
    demand = DemandModel(kernel=((ONE,),), arrivals=(TabulatedArrivals(((ONE, ()),)),))
    sc = ScenarioModel(name="empty-fleet", num_chargers=2, max_stay=2, max_units=2,
                       grid=grid, demand=demand, penalty=PenaltyFunction.linear(2),
                       initial_grid=0, initial_demand=0)
    sol = relative_value_iteration(enumerate_mdp(sc))
    # pi P = pi for P = [[1/4, 3/4], [2/3, 1/3]]
    pi = (Fraction(8, 17), Fraction(9, 17))
    expected = float(pi[1] * 6)
    assert abs(sol.gain - expected) < 1e-10


def _build_nothing_dense(mp):
    def built(*args):
        raise AssertionError("built a dense set")

    for name in ("dense", "_equations", "chain_ratios"):
        mp.setattr(linalg, name, built)


@pytest.fixture
def sparse_only(monkeypatch):
    """Exact policy gains with no dense rows and no sweep: every set is
    lifted from its nonzeros."""
    _build_nothing_dense(monkeypatch)


@pytest.fixture(scope="module")
def tiny_solution():
    sc = two_charger_scenario()
    mdp = enumerate_mdp(sc)
    sol = relative_value_iteration(mdp)
    return sc, mdp, sol


def test_rvi_residual_and_constant_gain(tiny_solution):
    _, mdp, sol = tiny_solution
    assert sol.residual <= 1e-10
    findings = verify_constant_gain(mdp, sol, tol=1e-10)
    assert findings.ok
    assert findings.n_recurrent_classes == 1


def test_exact_gain_matches_brute_force(tiny_solution):
    _, mdp, sol = tiny_solution
    with pytest.MonkeyPatch.context() as mp:
        _build_nothing_dense(mp)
        exact = exact_policy_gain(mdp, sol.policy)
    bf = brute_force_optimal_gain(mdp)
    assert bf.gain == exact
    assert abs(float(exact) - sol.gain) < 1e-10
    assert bf.n_policies == 65536
    # Reference figures: the search visits the same closed sets and keeps the
    # first optimal policy in lexicographic order.
    assert bf.gain == Fraction(35, 104)
    assert bf.n_evaluations == 1096
    assert _policy_digest(mdp, bf.policy) == (
        "b917793dde668833d28c1dd24816866c7ac5eb4560b96223f670047a3992c9e5")


def _reference_brute_force(mdp):
    """Brute force as it stood with closed sets as (position, action) tuples:
    the same depth-first search, each size's sets unpacked with np.moveaxis,
    and the optimum and its tie-break found by comparing Fractions."""
    reach = reachable_closure(mdp, mdp.special_state)
    pos = {s: k for k, s in enumerate(reach)}
    n = len(reach)
    succ_masks = [[sum(1 << pos[y] for y, _ in row) for row in mdp.transitions[s]]
                  for s in reach]
    counts = [len(mdp.actions[s]) for s in reach]
    total = math.prod(counts)
    if total > BRUTE_FORCE_LIMIT:
        raise StateCeilingExceeded(f"policy space exceeds {BRUTE_FORCE_LIMIT}; "
                                   "instance too large for brute force")
    first = np.cumsum([0] + counts[:-1])
    table = linalg.dense([(s, _integer_row(mdp, s, a)) for s, c in zip(reach, counts)
                          for a in range(c)], pos)
    closed = {}
    stack = [((), 1 << pos[mdp.special_state], 0)]
    while stack:
        fixed, reached, fixed_mask = stack.pop()
        open_mask = reached & ~fixed_mask
        if open_mask:
            k = (open_mask & -open_mask).bit_length() - 1
            for a in range(counts[k]):
                stack.append((fixed + ((k, a),), reached | succ_masks[k][a],
                              fixed_mask | 1 << k))
            continue
        closed.setdefault(len(fixed), []).append(fixed)
    evaluated = []
    for sets in closed.values():
        at, acts = np.moveaxis(np.array(sets), 2, 0)
        pairs = first[at] + acts
        gains = [Fraction(*q) for q in linalg.chain_ratios(linalg.DenseRows(
            table.scale[pairs], table.weight[pairs[:, :, None], at[:, None, :]],
            table.cost[pairs]))]
        evaluated += zip(gains, sets)

    def assignment(fixed):
        actions = [0] * n
        for k, a in fixed:
            actions[k] = a
        return actions

    gain = min(g for g, _ in evaluated)
    best = min(assignment(fixed) for g, fixed in evaluated if g == gain)
    return BruteForceResult(gain=gain, policy={s: a for s, a in zip(reach, best)},
                            n_policies=total, n_evaluations=len(evaluated))


def test_brute_force_matches_the_reference_on_two_chargers(tiny_solution):
    _, mdp, _ = tiny_solution
    assert brute_force_optimal_gain(mdp) == _reference_brute_force(mdp)


def _alternating_grid_scenario():
    """No chargers and a grid that alternates between states costing 0 and
    1: a periodic chain, on which plain value iteration never settles."""
    zero = Fraction(0)
    grid = GridModel(values=(0, 1), kernel=(((zero, ONE),), ((ONE, zero),)),
                     cost=TableCost(((zero, ONE),)))
    demand = DemandModel(kernel=((ONE,),), arrivals=(TabulatedArrivals(((ONE, ()),)),))
    return ScenarioModel(name="alternating", num_chargers=0, max_stay=1, max_units=1,
                         grid=grid, demand=demand, penalty=PenaltyFunction.linear(1),
                         initial_grid=0, initial_demand=0)


def test_value_iteration_damps_a_periodic_chain():
    # The damped sweep, which starts after half the budget of 200,000
    # sweeps, converges.
    mdp = enumerate_mdp(_alternating_grid_scenario())
    sol = relative_value_iteration(mdp)
    assert sol.iterations == 113_805
    assert exact_policy_gain(mdp, sol.policy) == HALF
    assert verify_constant_gain(mdp, sol).ok
    with pytest.raises(NonConvergenceError, match="within 2000 sweeps"):
        relative_value_iteration(mdp, max_iter=2000)


def test_multichain_fixture_fails_checks():
    mdp = enumerate_mdp(multichain_fixture())
    with pytest.raises(NonConvergenceError):
        relative_value_iteration(mdp, max_iter=2000)
    policy = np.zeros(mdp.n_states, dtype=np.int64)
    classes = recurrent_classes(mdp, policy)
    assert len(classes) == 2
    fake = DPSolution(gain=0.0, h=np.zeros(mdp.n_states), policy=policy,
                      residual=0.0, iterations=0)
    findings = verify_constant_gain(mdp, fake, tol=1e-10)
    assert not findings.constant_gain
    assert sorted(float(g) for g in findings.class_gains) == [0.0, 1.0]


def _near_multichain_fixture():
    """`multichain_fixture` with grid costs 1 and 1 + 10**-13: two recurrent
    classes whose gains differ by less than any float tolerance."""
    sc = multichain_fixture()
    cost = TableCost(((ONE, 1 + Fraction(1, 10**13)),))
    return dataclasses.replace(sc, grid=dataclasses.replace(sc.grid, cost=cost))


def test_constant_gain_check_is_exact_across_classes(tiny_solution):
    mdp = enumerate_mdp(_near_multichain_fixture())
    sol = relative_value_iteration(mdp)    # the span meets 1e-12 at once
    findings = verify_constant_gain(mdp, sol, tol=1e-10)
    assert findings.residual_ok and findings.n_recurrent_classes == 2
    assert not findings.constant_gain and not findings.ok
    assert sorted(findings.class_gains) == [1, Fraction(10000000000001, 10000000000000)]
    assert all(type(g) is Fraction for g in findings.class_gains)
    # One recurrent class: constant by structure, with no class gain solved.
    _, mdp, sol = tiny_solution
    findings = verify_constant_gain(mdp, sol, tol=1e-10)
    assert (findings.class_gains, findings.constant_gain) == ([], True)


def test_projection_on_compliant_policy_is_identity(tiny_solution):
    _, mdp, sol = tiny_solution
    assert compliance_violations(mdp, sol.policy) == 0
    proj = lllp_projection(mdp, sol)
    assert proj.swaps == 0
    assert np.array_equal(proj.policy, sol.policy)


def test_projection_repairs_tampered_policy(tiny_solution):
    _, mdp, sol = tiny_solution
    tampered = sol.policy.copy()
    flipped = []
    for k in range(mdp.n_states):
        for a_idx, act in enumerate(mdp.actions[k]):
            from chargesched.policies import check_lllp_compliance
            if check_lllp_compliance(mdp.states[k], act) is not None:
                tampered[k] = a_idx
                flipped.append(k)
                break
    assert flipped, "expected at least one violating action in the lattice"
    fake = DPSolution(gain=sol.gain, h=sol.h, policy=tampered,
                      residual=sol.residual, iterations=sol.iterations)
    proj = lllp_projection(mdp, fake, tol=np.inf)
    assert proj.swaps >= len(flipped)
    assert compliance_violations(mdp, proj.policy) == 0


def test_projection_swap_never_raises_q(tiny_solution):
    # Interchange inequality at the Q level: swapping toward priority cannot
    # raise the one-step lookahead value, so tol=0 must hold on tampered
    # violating actions too.
    _, mdp, sol = tiny_solution
    tampered = sol.policy.copy()
    from chargesched.policies import check_lllp_compliance
    for k in range(mdp.n_states):
        for a_idx, act in enumerate(mdp.actions[k]):
            if check_lllp_compliance(mdp.states[k], act) is not None:
                tampered[k] = a_idx
                break
    fake = DPSolution(gain=sol.gain, h=sol.h, policy=tampered,
                      residual=sol.residual, iterations=sol.iterations)
    proj = lllp_projection(mdp, fake, tol=1e-9)
    assert compliance_violations(mdp, proj.policy) == 0


def test_projection_keeps_gain(tiny_solution):
    _, mdp, sol = tiny_solution
    proj = lllp_projection(mdp, sol)
    assert exact_policy_gain(mdp, proj.policy) == exact_policy_gain(mdp, sol.policy)


def test_projection_with_real_swaps_on_linear_variant():
    from chargesched.models import with_penalty
    sc = with_penalty(two_charger_scenario(), "linear")
    mdp = enumerate_mdp(sc)
    sol = relative_value_iteration(mdp)
    proj = lllp_projection(mdp, sol)
    assert compliance_violations(mdp, proj.policy) == 0
    assert exact_policy_gain(mdp, proj.policy) == exact_policy_gain(mdp, sol.policy)


def test_tabular_policy_simulation_consistency(tiny_solution):
    from chargesched.montecarlo import run_trajectory
    sc, mdp, sol = tiny_solution
    policy = TabularPolicy(mdp, sol.policy)
    tr = run_trajectory(sc, policy, stages=60_000, seed=17, warmup=200,
                        record_stages=False)
    assert abs(tr.time_average - sol.gain) / sol.gain < 0.05


def test_tabular_policy_names_an_unknown_state(tiny_solution):
    _, mdp, sol = tiny_solution
    policy = TabularPolicy(mdp, sol.policy)
    unreachable = SystemState((VehicleState(1, 0), EMPTY), 0, 0)
    with pytest.raises(ValueError, match=r"VehicleState\(stay=1, need=0\)"):
        policy.decide(unreachable)
    assert policy.decide(mdp.states[0]) == mdp.actions[0][sol.policy[0]]


def test_export_schema(tiny_solution, tmp_path):
    import json
    _, mdp, sol = tiny_solution
    path = tmp_path / "sol.json"
    export_solution(mdp, sol, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"gain", "h", "policy", "residual", "iterations"}
    assert len(doc["h"]) == mdp.n_states
    assert len(doc["policy"]) == mdp.n_states


def test_brute_force_refuses_several_closed_classes():
    # The anchor (state 0) moves to absorbing state 1 or 2 with equal
    # probability, so its long-run cost is 1 or 2 depending on the path.
    half = Fraction(1, 2)
    idle = [ActionVector(())]
    mdp = EnumeratedMDP(
        scenario=None, states=[SystemState((), s, 0) for s in range(3)], index={},
        actions=[idle, idle, idle],
        costs=[[Fraction(0)], [Fraction(1)], [Fraction(2)]],
        transitions=[[[(1, half), (2, half)]], [[(1, Fraction(1))]], [[(2, Fraction(1))]]],
        special_state=0)
    with pytest.raises(ValueError, match="2 closed classes"):
        brute_force_optimal_gain(mdp)
    # The one policy's closure is the same set, refused the same way.
    with pytest.raises(ValueError, match="2 closed classes"):
        exact_policy_gain(mdp, [0, 0, 0])


def _later_singular_mdp():
    # The anchor's last action keeps it in place, its second leads into the
    # cycle 3 <-> 4 and its first to absorbing state 1 or 2: the search
    # evaluates {0}, then {0, 3, 4}, and only then the set with two closed
    # classes, which is not the first of its size either.
    half, one = Fraction(1, 2), Fraction(1)
    idle = [ActionVector(())]
    return EnumeratedMDP(
        scenario=None, states=[SystemState((), s, 0) for s in range(5)], index={},
        actions=[idle * 3] + [idle] * 4,
        costs=[[Fraction(0)] * 3] + [[Fraction(s)] for s in range(1, 5)],
        transitions=[[[(1, half), (2, half)], [(3, one)], [(0, one)]],
                     [[(1, one)]], [[(2, one)]], [[(4, one)]], [[(3, one)]]],
        special_state=0)


def test_brute_force_names_the_classes_of_a_later_closed_set():
    with pytest.raises(ValueError, match="2 closed classes"):
        brute_force_optimal_gain(_later_singular_mdp())


@pytest.mark.parametrize("entries", [320, 1])
def test_brute_force_in_small_chunks_gives_the_same_answer(tiny_solution, monkeypatch,
                                                          entries):
    _, mdp, _ = tiny_solution
    whole = brute_force_optimal_gain(mdp)
    with pytest.raises(linalg.SingularSystem) as one_call:
        brute_force_optimal_gain(_later_singular_mdp())
    calls = []
    real = linalg.chain_ratios
    monkeypatch.setattr(linalg, "chain_ratios",
                        lambda rows, names: calls.append(rows.weight.shape) or real(rows, names))
    monkeypatch.setattr(exactdp, "_GATHER_ENTRIES", entries)
    chunked = brute_force_optimal_gain(mdp)
    assert chunked == whole    # gain, policy dict and counts
    assert (chunked.gain, chunked.n_policies, chunked.n_evaluations) == (
        Fraction(35, 104), 65536, 1096)
    # Each call gathers at most the budget, or one set where a set exceeds
    # it, and some size takes several calls.
    assert all(k * n * n <= max(entries, n * n) for k, n, _ in calls)
    assert len(calls) > len({n for _, n, _ in calls})
    # A singular set is still named by its index among the sets of its size.
    with pytest.raises(linalg.SingularSystem) as chunked_call:
        brute_force_optimal_gain(_later_singular_mdp())
    assert str(chunked_call.value) == str(one_call.value)


def test_brute_force_makes_fractions_of_tied_sets_only(tiny_solution, monkeypatch):
    # Brute force ranks its 1,096 sets by their integer gain pairs; only the
    # sets that share the least float become Fractions, in either module.
    _, mdp, _ = tiny_solution
    made = []
    for module in (exactdp, linalg):
        monkeypatch.setattr(module, "Fraction", lambda *q: made.append(q) or Fraction(*q))
    bf = brute_force_optimal_gain(mdp)
    assert (bf.gain, bf.n_policies, bf.n_evaluations) == (Fraction(35, 104), 65536, 1096)
    assert 1 <= len(made) < 10


@given(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=5), min_size=1, max_size=8))
def test_greedy_from_q_matches_a_per_state_loop(segments):
    # The tie rule: the lowest minimizing action index.  No state of the
    # pinned instances has two actions with equal Q values, so their policy
    # pins cannot see it; small integer Q values tie in most states here.
    q = np.array([v for seg in segments for v in seg], dtype=float)
    starts = np.cumsum([0] + [len(seg) for seg in segments])
    t_h = np.minimum.reduceat(q, starts[:-1])
    expected = [int(np.argmin(seg)) for seg in segments]   # first minimizer
    assert _greedy_from_q(q, starts, t_h).tolist() == expected


def _generated_scenario(num_chargers, units=2):
    """B = E = `units` (2 or 3), two grid states whose kernel tilts toward the
    expensive state as more vehicles charge, and an arrival law with no
    arrival half the time and one of two small batches otherwise."""
    rows = []
    for a in range(num_chargers + 1):
        p_high = Fraction(1, 5) + Fraction(3, 5) * Fraction(a, num_chargers)
        rows.append((1 - p_high, p_high))
    cost = TableCost(tuple((Fraction(0), Fraction(a)) for a in range(num_chargers + 1)))
    grid = GridModel(values=(0, 1), kernel=(tuple(rows), tuple(rows)), cost=cost)
    batches = {2: ((VehicleState(2, 1),), (VehicleState(2, 2), VehicleState(1, 1))),
               3: ((VehicleState(3, 1), VehicleState(2, 2)),
                   (VehicleState(3, 3), VehicleState(1, 1)))}[units]
    arrivals = TabulatedArrivals(((HALF, ()), (Fraction(1, 4), batches[0]),
                                  (Fraction(1, 4), batches[1])))
    return ScenarioModel(
        name=f"generated-{num_chargers}", num_chargers=num_chargers, max_stay=units,
        max_units=units, grid=grid, demand=DemandModel(kernel=((ONE,),), arrivals=(arrivals,)),
        penalty=PenaltyFunction.quadratic(units), initial_grid=0, initial_demand=0)


def _content(x):
    return x.vehicles, x.grid, x.demand


def _found(mdp):
    """The states whose fleet is discovered from the empty fleet: every fleet
    that a transition row of a found fleet leads to.  On an MDP enumerated
    over a larger set, this picks out the same states by their content."""
    by_fleet = defaultdict(list)
    for k, x in enumerate(mdp.states):
        by_fleet[x.vehicles].append(k)
    fleets = [(EMPTY,) * mdp.scenario.num_chargers]
    for fleet in fleets:
        for k in by_fleet[fleet]:
            for row in mdp.transitions[k]:
                for y, _ in row:
                    if mdp.states[y].vehicles not in fleets:
                        fleets.append(mdp.states[y].vehicles)
    return [k for fleet in fleets for k in by_fleet[fleet]]


def _digest(mdp):
    # Keyed by state content, so the pin does not depend on state order.
    states = mdp.states
    doc = sorted((_content(states[k]),
                  [(a.bits, c, sorted((_content(states[y]), p) for y, p in row))
                   for a, c, row in zip(mdp.actions[k], mdp.costs[k], mdp.transitions[k])])
                 for k in _found(mdp))
    return hashlib.sha256(repr(doc).encode()).hexdigest()


def _policy_digest(mdp, policy):
    # Pins the policy itself, keyed by state content: the gain pins would not
    # notice another optimal policy.
    doc = sorted((_content(mdp.states[k]), mdp.actions[k][policy[k]].bits)
                 for k in _found(mdp) if k in policy)
    return hashlib.sha256(repr(doc).encode()).hexdigest()


def test_generated_three_charger_pipeline_is_pinned(sparse_only):
    # Reference figures: any change to the enumerated MDP or the exact gains
    # of the value-iteration policy and its projection shows here.
    mdp = enumerate_mdp(_generated_scenario(3))
    assert mdp.n_states == 42
    assert sum(len(acts) for acts in mdp.actions) == 154
    assert _digest(mdp) == "896ebb9a9204805d559bc5bd5b6d4072992f6160430351bf456b8c4d8bf688fe"
    sol = relative_value_iteration(mdp)
    assert _policy_digest(mdp, dict(enumerate(sol.policy))) == (
        "f7649019dfff7f13098bc8a84fcadc89aa082618d565e4de86469d6a09f50aef")
    assert exact_policy_gain(mdp, sol.policy) == Fraction(544, 1729)
    proj = lllp_projection(mdp, sol)
    assert exact_policy_gain(mdp, proj.policy) == Fraction(544, 1729)


def _two_demand_scenario():
    """N = 2, B = E = 2: two grid states whose kernel and cost depend on the
    aggregate action, and two demand states with different arrival laws; the
    second law's three-vehicle batch overflows the two chargers."""
    third = Fraction(1, 3)
    grid = GridModel(
        values=(0, 1),
        kernel=(((Fraction(3, 4), Fraction(1, 4)), (HALF, HALF), (Fraction(1, 4), Fraction(3, 4))),
                ((Fraction(2, 3), third), (third, Fraction(2, 3)), (Fraction(0), ONE))),
        cost=TableCost(((Fraction(0), Fraction(0)), (ONE, Fraction(2)),
                        (Fraction(5, 2), Fraction(5)))))
    demand = DemandModel(
        kernel=((Fraction(2, 3), third), (HALF, HALF)),
        arrivals=(TabulatedArrivals(((HALF, ()), (HALF, (VehicleState(2, 1),)))),
                  TabulatedArrivals(((third, ()),
                                     (third, (VehicleState(1, 1), VehicleState(2, 2))),
                                     (third, (VehicleState(2, 1), VehicleState(1, 2),
                                              VehicleState(2, 2)))))))
    return ScenarioModel(name="two-demand", num_chargers=2, max_stay=2, max_units=2,
                         grid=grid, demand=demand, penalty=PenaltyFunction((0, 1, 3)),
                         initial_grid=0, initial_demand=0)


def test_two_grid_two_demand_enumeration_is_pinned(sparse_only):
    # Every other pinned instance has one demand state; this one fixes the
    # order of grid and demand states within a fleet, and an overflowing batch.
    mdp = enumerate_mdp(_two_demand_scenario())
    assert mdp.n_states == 68
    assert sum(len(acts) for acts in mdp.actions) == 172
    assert _digest(mdp) == "89b56e1e49124824e3052f83bf8695330cb9ccb7b4c34ff29dfef7a46d82cbc9"
    sol = relative_value_iteration(mdp)
    assert exact_policy_gain(mdp, sol.policy) == Fraction(4354363, 5073930)
    assert exact_policy_gain(mdp, lllp_projection(mdp, sol).policy) == Fraction(4354363, 5073930)


def test_generated_four_charger_enumeration_is_pinned(sparse_only):
    mdp = enumerate_mdp(_generated_scenario(4))
    assert mdp.n_states == 42
    assert sum(len(acts) for acts in mdp.actions) == 154
    assert _digest(mdp) == "7de2eb90fd4cc01057506ee7fd12c1abec919834bc22e9d45f257f283228f7f6"
    sol = relative_value_iteration(mdp)
    assert _policy_digest(mdp, dict(enumerate(sol.policy))) == (
        "abab836c97bd5c66b01d2ac4c037143c0141cb035faa3a2024eba38317dfccf5")
    assert exact_policy_gain(mdp, sol.policy) == Fraction(30631, 108955)


def test_six_chargers_enumerate_far_below_the_lattice(sparse_only):
    # The lattice of this instance holds 13**6 * 2 = 9.65M states, over the
    # default ceiling; discovery from the empty fleet finds 1,764.
    mdp = enumerate_mdp(_generated_scenario(6, units=3))
    assert mdp.n_states == 1764
    assert sum(len(acts) for acts in mdp.actions) == 22818
    sol = relative_value_iteration(mdp)
    assert verify_constant_gain(mdp, sol).ok
    # The policy's closure holds 832 states; the Python-int Bareiss sweep
    # that lifting replaced gave the same gain in about 6 minutes.
    assert exact_policy_gain(mdp, sol.policy) == Fraction(1233304922473, 2292540853916)


def test_three_chargers_with_three_units_have_an_exact_gain(sparse_only):
    # The value-iteration policy's closure holds 500 states; its equations
    # would leave an int64 sweep at column 6.
    mdp = enumerate_mdp(_generated_scenario(3, units=3))
    sol = relative_value_iteration(mdp)
    assert len(policy_closure(mdp, sol.policy, mdp.special_state)) == 500
    assert exact_policy_gain(mdp, sol.policy) == Fraction(
        479638327333388540993, 901027208327604496900)


def test_four_chargers_with_three_units_have_an_exact_gain(sparse_only):
    # The value-iteration policy's closure holds 898 of 1,524 states.  The
    # p-adic lifting this solver replaced gave the same gain.
    mdp = enumerate_mdp(_generated_scenario(4, units=3))
    assert mdp.n_states == 1524
    sol = relative_value_iteration(mdp)
    assert len(policy_closure(mdp, sol.policy, mdp.special_state)) == 898
    assert exact_policy_gain(mdp, sol.policy) == Fraction(
        862070018456509307789380797, 1460750668588582915939472600)


def _heavy_scenario(num_chargers):
    """`_generated_scenario(num_chargers, units=3)` under a heavier arrival
    law: a quarter each of no arrival and batches of two, three and four."""
    q = Fraction(1, 4)
    law = TabulatedArrivals((
        (q, ()),
        (q, (VehicleState(3, 1), VehicleState(2, 2))),
        (q, (VehicleState(3, 3), VehicleState(1, 1), VehicleState(3, 2))),
        (q, (VehicleState(2, 1), VehicleState(3, 3), VehicleState(3, 2), VehicleState(1, 1)))))
    return dataclasses.replace(_generated_scenario(num_chargers, units=3),
                               demand=DemandModel(kernel=((ONE,),), arrivals=(law,)))


def test_a_heavy_law_closure_past_3000_states_has_an_exact_gain(sparse_only):
    # Past the reach of the pinned closures above; the dense LU solver gave
    # the same gain.
    mdp = enumerate_mdp(_heavy_scenario(4))
    assert mdp.n_states == 6826
    sol = relative_value_iteration(mdp)
    assert len(policy_closure(mdp, sol.policy, mdp.special_state)) == 3044
    assert exact_policy_gain(mdp, sol.policy) == Fraction(
        35265489049755044465241317782071998659212879334274752188415138148122350751681,
        37054557548387074838200630036794613678939380365805428924632992302353474598336)


@st.composite
def _law_rows(draw, n):
    """A probability row of length n, zeros allowed."""
    weights = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)
                   .filter(lambda w: sum(w) > 0))
    return tuple(Fraction(w, sum(weights)) for w in weights)


@st.composite
def small_scenarios(draw):
    n, b, e = draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.integers(1, 2))
    n_grid, n_demand = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    increments = sorted(draw(st.lists(st.integers(0, 3), min_size=e, max_size=e)))
    grid = GridModel(
        values=tuple(range(n_grid)),
        kernel=tuple(tuple(draw(_law_rows(n_grid)) for _ in range(n + 1))
                     for _ in range(n_grid)),
        cost=TableCost(tuple(tuple(Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 3)))
                                   for _ in range(n_grid)) for _ in range(n + 1))))
    vehicles = st.builds(VehicleState, st.integers(1, b), st.integers(0, e))
    laws = []
    for _ in range(n_demand):
        batches = draw(st.lists(st.lists(vehicles, max_size=3).map(tuple),
                                min_size=1, max_size=3))
        laws.append(TabulatedArrivals(tuple(zip(draw(_law_rows(len(batches))), batches))))
    demand = DemandModel(kernel=tuple(draw(_law_rows(n_demand)) for _ in range(n_demand)),
                         arrivals=tuple(laws))
    return ScenarioModel(
        name="hypothesis", num_chargers=n, max_stay=b, max_units=e, grid=grid,
        demand=demand, penalty=PenaltyFunction(list(itertools.accumulate([0] + increments))),
        initial_grid=0, initial_demand=0)


@settings(deadline=None, max_examples=60)
@given(small_scenarios())
def test_enumeration_matches_direct_per_state_computation(sc):
    mdp = enumerate_mdp(sc)
    assert all(mdp.index[x] == k for k, x in enumerate(mdp.states))
    # The states hold every empty start state, and every fleet is one that the
    # rows of the fleets found before it lead to; the row oracle below looks
    # every transition target up in mdp.index, so the set is closed.  A state
    # need not be reachable itself: each found fleet is paired with every grid
    # and demand state, and a grid kernel that never returns to state 0 leaves
    # the nonempty fleets' grid-0 states unreached.
    n_exo = sc.grid.state_count * sc.demand.state_count
    assert mdp.states[:n_exo] == [sc.empty_state(s, d) for s in range(sc.grid.state_count)
                                  for d in range(sc.demand.state_count)]
    assert sorted(_found(mdp)) == list(range(mdp.n_states))
    for k, x in enumerate(mdp.states):
        choices = [(0, 1) if v.need > 0 else (0,) for v in x.vehicles]
        assert mdp.actions[k] == [ActionVector(bits) for bits in itertools.product(*choices)]
        for a, cost, row in zip(mdp.actions[k], mdp.costs[k], mdp.transitions[k], strict=True):
            penalty, stepped, _ = settle_stage(x, a, step_tables(sc.penalty.values))
            assert type(cost) is Fraction and cost == sc.grid.cost(a.aggregate, x.grid) + penalty
            dist = defaultdict(Fraction)
            for p_arr, batch in sc.demand.arrivals[x.demand].outcomes:
                fleet = list(stepped)
                admit(fleet, batch)
                fleet = tuple(fleet)
                for s2, p_grid in enumerate(sc.grid.row(x.grid, a.aggregate)):
                    for d2, p_demand in enumerate(sc.demand.kernel[x.demand]):
                        if p_arr * p_grid * p_demand:
                            y = mdp.index[SystemState(fleet, s2, d2)]
                            dist[y] += p_arr * p_grid * p_demand
            assert row == sorted(dist.items())
            assert all(type(y) is int and type(p) is Fraction for y, p in row)


@settings(deadline=None, max_examples=40)
@given(small_scenarios())
def test_brute_force_matches_the_reference(sc):
    mdp = enumerate_mdp(sc)
    # Past about 20,000 policies the closed sets of one size take too much
    # memory to evaluate twice in a test.
    if math.prod(len(mdp.actions[s])
                 for s in reachable_closure(mdp, mdp.special_state)) > 20_000:
        return
    try:
        expected = _reference_brute_force(mdp)
    except ValueError as err:    # several closed classes in one set
        with pytest.raises(type(err), match=re.escape(str(err))):
            brute_force_optimal_gain(mdp)
        return
    assert brute_force_optimal_gain(mdp) == expected


def test_iid_uniform_grid_matches_its_explicit_uniform_kernel():
    # The iid grid has no kernel: GridModel.row, special_state and
    # initial_distribution each answer without one.
    sc = two_charger_scenario()
    uniform = ((HALF, HALF),) * (sc.num_chargers + 1)
    mdps, gains = [], []
    for grid in (GridModel(values=sc.grid.values, kernel=None, cost=sc.grid.cost,
                           iid_uniform=True),
                 GridModel(values=sc.grid.values, kernel=(uniform,) * 2,
                           cost=sc.grid.cost)):
        assert grid.special_state() == 0
        assert grid.initial_distribution == (HALF, HALF)
        mdp = enumerate_mdp(dataclasses.replace(sc, grid=grid, initial_grid=None))
        sol = relative_value_iteration(mdp)
        gains.append((exact_policy_gain(mdp, sol.policy),
                      brute_force_optimal_gain(mdp).gain))
        mdps.append(mdp)
    iid, explicit = mdps
    assert iid.n_states == 12 and iid.special_state == explicit.special_state == 0
    assert (iid.states, iid.actions, iid.costs, iid.transitions) == (
        explicit.states, explicit.actions, explicit.costs, explicit.transitions)
    assert gains == [(Fraction(5, 12),) * 2] * 2


def test_enumeration_finds_the_special_state_once(monkeypatch):
    calls = []
    real = GridModel.special_state
    monkeypatch.setattr(GridModel, "special_state",
                        lambda grid: calls.append(grid) or real(grid))
    mdp = enumerate_mdp(_two_demand_scenario())
    assert len(calls) == 1
    assert mdp.assumption_notes == []
