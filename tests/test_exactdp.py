import hashlib
import itertools
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargesched.core import (ActionVector, PenaltyFunction, SystemState,
                              VehicleState, settle_stage, step_tables)
from chargesched.exactdp import (DPSolution, EnumeratedMDP, NonConvergenceError,
                                 ProjectionError, StateCeilingExceeded,
                                 TabularPolicy, _greedy_from_q,
                                 brute_force_optimal_gain,
                                 compliance_violations, enumerate_mdp,
                                 exact_policy_gain, export_solution,
                                 lattice_size, lllp_projection,
                                 recurrent_classes, relative_value_iteration,
                                 verify_constant_gain)
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
    sc = _single_charger_scenario()
    mdp = enumerate_mdp(sc)
    vehicles = sorted(x.vehicles for x in mdp.states)
    assert vehicles == [((VehicleState(0, 0),)), ((VehicleState(1, 0),)),
                        ((VehicleState(1, 1),))]
    assert mdp.n_states == 3
    assert enumerate_mdp(multichain_fixture()).n_states == 2  # S x D only


def test_lattice_count_matches_recursive_oracle():
    sc = two_charger_scenario()

    def count(n_chargers):
        # independent recursion: each charger contributes the empty sentinel
        # plus stay x need combinations
        if n_chargers == 0:
            return 1
        return count(n_chargers - 1) * (1 + sc.max_stay * (sc.max_units + 1))

    expected = count(sc.num_chargers) * 2 * 1
    assert lattice_size(sc) == expected == 98
    assert enumerate_mdp(sc).n_states == expected


def test_state_ceiling():
    sc = capacity_scenario(5)
    with pytest.raises(StateCeilingExceeded):
        enumerate_mdp(sc)
    with pytest.raises(ValueError):
        # fixed-count arrivals cannot be enumerated exactly
        enumerate_mdp(capacity_scenario(2, num_chargers=1, max_stay=1,
                                        penalty=PenaltyFunction.linear(1)),
                      ceiling=10**9)


def test_transition_rows_are_exact():
    mdp = enumerate_mdp(two_charger_scenario())
    for k in (0, 10, 50, 97):
        for row in mdp.transitions[k]:
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
    exact = exact_policy_gain(mdp, sol.policy)
    bf = brute_force_optimal_gain(mdp)
    assert bf.gain == exact
    assert abs(float(exact) - sol.gain) < 1e-10
    assert bf.n_policies == 65536
    # Reference figures: the search visits the same closed sets and keeps the
    # first optimal policy in lexicographic order.
    assert bf.gain == Fraction(35, 104)
    assert bf.n_evaluations == 1096
    digest = hashlib.sha256(repr(sorted(bf.policy.items())).encode()).hexdigest()
    assert digest == "c4a5953bd2cf48347daec767ff4529e13b48107ac97ba66205d479dedf31d255"


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


def _generated_scenario(num_chargers):
    """B = E = 2, two grid states whose kernel tilts toward the expensive
    state as more vehicles charge, and arrival batches of zero, one or two
    vehicles."""
    rows = []
    for a in range(num_chargers + 1):
        p_high = Fraction(1, 5) + Fraction(3, 5) * Fraction(a, num_chargers)
        rows.append((1 - p_high, p_high))
    cost = TableCost(tuple((Fraction(0), Fraction(a)) for a in range(num_chargers + 1)))
    grid = GridModel(values=(0, 1), kernel=(tuple(rows), tuple(rows)), cost=cost)
    arrivals = TabulatedArrivals((
        (HALF, ()),
        (Fraction(1, 4), (VehicleState(2, 1),)),
        (Fraction(1, 4), (VehicleState(2, 2), VehicleState(1, 1))),
    ))
    return ScenarioModel(
        name=f"generated-{num_chargers}", num_chargers=num_chargers, max_stay=2,
        max_units=2, grid=grid, demand=DemandModel(kernel=((ONE,),), arrivals=(arrivals,)),
        penalty=PenaltyFunction.quadratic(2), initial_grid=0, initial_demand=0)


def _digest(mdp):
    return hashlib.sha256(repr((mdp.costs, mdp.transitions)).encode()).hexdigest()


def _policy_digest(sol):
    # Pins the greedy policy vector itself: the gain pins would not notice
    # another optimal policy.
    return hashlib.sha256(sol.policy.tobytes()).hexdigest()


def test_generated_three_charger_pipeline_is_pinned():
    # Reference figures: any change to the enumerated MDP or the exact gains
    # of the value-iteration policy and its projection shows here.
    mdp = enumerate_mdp(_generated_scenario(3))
    assert mdp.n_states == 686
    assert sum(len(acts) for acts in mdp.actions) == 2662
    assert _digest(mdp) == "f45e77fae5e89747f0739dfec87a3e629b40994a66908560f0a13abf8da2a251"
    sol = relative_value_iteration(mdp)
    assert _policy_digest(sol) == "44d5ed03d4efa6320eb7336a3539d3e86bec0c21634743afc53c48af2a791f91"
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


def test_two_grid_two_demand_enumeration_is_pinned():
    # Every other pinned instance has one demand state; this one fixes the
    # order of grid and demand states within a fleet, and an overflowing batch.
    mdp = enumerate_mdp(_two_demand_scenario())
    assert mdp.n_states == 196
    assert sum(len(acts) for acts in mdp.actions) == 484
    assert _digest(mdp) == "a4155639e0d868261bc9cca2178593300369938b7562862467bf6f5b5675a70a"
    sol = relative_value_iteration(mdp)
    assert exact_policy_gain(mdp, sol.policy) == Fraction(4354363, 5073930)
    assert exact_policy_gain(mdp, lllp_projection(mdp, sol).policy) == Fraction(4354363, 5073930)


def test_generated_four_charger_enumeration_is_pinned():
    mdp = enumerate_mdp(_generated_scenario(4))
    assert mdp.n_states == 4802
    assert sum(len(acts) for acts in mdp.actions) == 29282
    assert _digest(mdp) == "e4b976a18509a76a6cb450309839dbe9158e95ea525efc0170ae33788f32dc4c"
    sol = relative_value_iteration(mdp)
    assert _policy_digest(sol) == "1fd30926209ff5d4f6a8bc9165b77417eecb2c3f541eeb6eae785fab6e1447c5"


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
    assert len(mdp.states) == lattice_size(sc)
    assert all(mdp.index[x] == k for k, x in enumerate(mdp.states))
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
