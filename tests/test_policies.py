import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargesched.core import ActionVector, InfeasibleActionError, SystemState, VehicleState
from chargesched.models import capacity_scenario
from chargesched.policies import (_KEYS, _RANKS, CapacityBudget, HeuristicPolicy,
                                  capacity_budget, check_lllp_compliance, make_policy)

E = VehicleState(0, 0)


def _state(*vehicles, grid=0, demand=0):
    return SystemState(tuple(vehicles), grid, demand)


def budget_of(m):
    return lambda state: min(m, state.unfinished_count)


def decide(name, state, budget):
    return HeuristicPolicy(name, budget).decide(state)


def test_edf_prefers_earliest_departure():
    state = _state(VehicleState(1, 1), VehicleState(2, 2))
    assert decide("edf", state, budget_of(1)).bits == (1, 0)
    assert decide("edf", state, budget_of(5)).bits == (1, 1)


def test_edf_deadline_tie_goes_to_less_laxity():
    state = _state(VehicleState(2, 1), VehicleState(2, 2))
    # laxities 1 and 0: the (2,2) vehicle is charged first
    assert decide("edf", state, budget_of(1)).bits == (0, 1)


def test_laxity_tie_rules():
    state = _state(VehicleState(1, 1), VehicleState(2, 2))  # both laxity 0
    assert decide("lllp", state, budget_of(1)).bits == (0, 1)   # longer remaining work
    assert decide("llsp", state, budget_of(1)).bits == (1, 0)   # shorter remaining work
    assert decide("lllp", state, budget_of(2)).bits == (1, 1)
    assert decide("llsp", state, budget_of(2)).bits == (1, 1)


def test_least_laxity_dominates_tiebreaks():
    state = _state(VehicleState(3, 1), VehicleState(2, 2))  # laxities 2 and 0
    assert decide("llsp", state, budget_of(1)).bits == (0, 1)
    assert decide("lllp", state, budget_of(1)).bits == (0, 1)


def test_index_tiebreak_is_deterministic():
    state = _state(VehicleState(4, 2), VehicleState(4, 2), VehicleState(4, 2))
    for name in ("edf", "llsp", "lllp"):
        assert decide(name, state, budget_of(2)).bits == (1, 1, 0)


def test_heuristics_charge_exactly_min_budget_v():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        vehicles = []
        for _ in range(n):
            if rng.random() < 0.3:
                vehicles.append(E)
            else:
                stay = int(rng.integers(1, 11))
                vehicles.append(VehicleState(stay, int(rng.integers(0, 11))))
        state = _state(*vehicles)
        m = int(rng.integers(0, n + 2))
        for name in ("edf", "llsp", "lllp"):
            act = decide(name, state, budget_of(m))
            assert act.aggregate == min(m, state.unfinished_count)


def test_determinism():
    sc = capacity_scenario(8, num_chargers=30)
    pol = make_policy("lllp", sc)
    state = _state(*([VehicleState(5, 3)] * 10 + [E] * 20), grid=3)
    assert pol.decide(state, 0) == pol.decide(state, 99)


def test_capacity_budget_uses_grid_value():
    sc = capacity_scenario(8, num_chargers=30, capacity_range=(2, 4))
    budget = capacity_budget(sc)
    assert budget == CapacityBudget((2, 3, 4))
    state = _state(*([VehicleState(5, 3)] * 10 + [E] * 20), grid=0)
    assert budget(state) == 2
    state_hi = _state(*([VehicleState(5, 3)] * 10 + [E] * 20), grid=2)
    assert budget(state_hi) == 4


def test_edf_violates_priority_rule():
    state = _state(VehicleState(1, 1), VehicleState(2, 2))
    act = decide("edf", state, budget_of(1))
    assert check_lllp_compliance(state, act) == (0, 1)


def test_compliance_none_cases():
    empty = _state(E, E)
    assert check_lllp_compliance(empty, decide("lllp", empty, budget_of(1))) is None
    state = _state(VehicleState(1, 1), VehicleState(2, 2))
    assert check_lllp_compliance(state, decide("lllp", state, budget_of(1))) is None


def test_lllp_compliance_randomized():
    rng = np.random.default_rng(42)
    for _ in range(2000):
        n = int(rng.integers(1, 14))
        vehicles = []
        for _ in range(n):
            if rng.random() < 0.25:
                vehicles.append(E)
            else:
                stay = int(rng.integers(1, 11))
                vehicles.append(VehicleState(stay, int(rng.integers(0, 11))))
        state = _state(*vehicles)
        m = int(rng.integers(0, n + 1))
        act = decide("lllp", state, budget_of(m))
        assert check_lllp_compliance(state, act) is None


def test_compliance_refuses_infeasible_actions():
    state = _state(VehicleState(3, 2), VehicleState(2, 0), E)
    for bits, charger in (((1, 1, 0), 1), ((0, 0, 1), 2)):
        with pytest.raises(InfeasibleActionError,
                           match=f"^charger {charger}: cannot charge a vehicle "
                                 "with no remaining request$"):
            check_lllp_compliance(state, ActionVector(bits))
    for bits in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError, match="^action length does not match charger count$") as exc:
            check_lllp_compliance(state, ActionVector(bits))
        assert exc.type is ValueError


def test_make_policy_validates_name():
    sc = capacity_scenario(5)
    with pytest.raises(ValueError):
        make_policy("lifo", sc)


def test_every_heuristic_key_is_injective():
    # The batch engine ranks vehicle types by key alone, so two types tied on
    # a key would need the charger index that type counts do not keep.
    # Injective on the largest box means injective on every B, E <= 12.
    types = [(s, g) for s in range(1, 13) for g in range(1, 13)]
    for name, key in _KEYS.items():
        assert len({key(s, g) for s, g in types}) == len(types), name


@st.composite
def _fleets_and_budgets(draw):
    """A fleet drawn from a few (stay, need) types, so many chargers share
    one, with empty and need-0 slots, stays past any scenario's B, and a
    budget that binds or covers every unfinished vehicle."""
    palette = draw(st.lists(st.builds(VehicleState, st.integers(1, 30), st.integers(0, 30)),
                            min_size=1, max_size=4))
    fleet = draw(st.lists(st.one_of(st.just(E), st.sampled_from(palette)),
                          min_size=1, max_size=60))
    state = _state(*fleet)
    v = state.unfinished_count
    m = draw(st.one_of(st.just(v), st.integers(0, v)))
    return state, m


@settings(deadline=None, max_examples=300)
@given(_fleets_and_budgets())
def test_decide_charges_the_first_m_in_key_order(case):
    state, m = case
    vehicles = state.vehicles
    for name, key in _KEYS.items():
        want = set(sorted(state.unfinished, key=lambda i: (*key(*vehicles[i]), i))[:m])
        bits = tuple(int(i in want) for i in range(len(vehicles)))
        assert decide(name, state, budget_of(m)).bits == bits, name


def test_ranking_holds_while_threads_meet_new_types():
    # Each decide reads one published rank table while other threads publish
    # re-ranked copies for the types they meet first; a lost re-rank would
    # leave a met type out of the final tables.
    def decide_many(seed):
        rng = random.Random(seed)
        met = set()
        for _ in range(150):
            state = _state(*(VehicleState(rng.randint(1, 40), rng.randint(1, 40))
                             for _ in range(6)))
            met.update(state.vehicles)
            for name, key in _KEYS.items():
                want = sorted(range(6), key=lambda i: (*key(*state.vehicles[i]), i))[:3]
                bits = tuple(int(i in want) for i in range(6))
                assert decide(name, state, budget_of(3)).bits == bits, name
        return met

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(decide_many, seed) for seed in range(8)]
            met = set().union(*(f.result(timeout=120) for f in futures))
    finally:
        sys.setswitchinterval(interval)
    for name, key in _KEYS.items():
        ranks = _RANKS[name]
        assert met <= ranks.keys(), name
        assert sorted(ranks, key=ranks.get) == sorted(ranks, key=lambda v: key(*v)), name
