import numpy as np
import pytest

from chargesched.core import ActionVector, InfeasibleActionError, SystemState, VehicleState
from chargesched.models import capacity_scenario
from chargesched.policies import (_KEYS, capacity_budget, check_lllp_compliance,
                                  edf, llsp, lllp, make_policy)

E = VehicleState(0, 0)


def _state(*vehicles, grid=0, demand=0):
    return SystemState(tuple(vehicles), grid, demand)


def budget_of(m):
    return lambda state: min(m, state.unfinished_count)


def test_edf_prefers_earliest_departure():
    state = _state(VehicleState(1, 1), VehicleState(2, 2))
    assert edf(state, budget_of(1)).bits == (1, 0)
    assert edf(state, budget_of(5)).bits == (1, 1)


def test_edf_deadline_tie_goes_to_less_laxity():
    state = _state(VehicleState(2, 1), VehicleState(2, 2))
    # laxities 1 and 0: the (2,2) vehicle is charged first
    assert edf(state, budget_of(1)).bits == (0, 1)


def test_laxity_tie_rules():
    state = _state(VehicleState(1, 1), VehicleState(2, 2))  # both laxity 0
    assert lllp(state, budget_of(1)).bits == (0, 1)   # longer remaining work
    assert llsp(state, budget_of(1)).bits == (1, 0)   # shorter remaining work
    assert lllp(state, budget_of(2)).bits == (1, 1)
    assert llsp(state, budget_of(2)).bits == (1, 1)


def test_least_laxity_dominates_tiebreaks():
    state = _state(VehicleState(3, 1), VehicleState(2, 2))  # laxities 2 and 0
    assert llsp(state, budget_of(1)).bits == (0, 1)
    assert lllp(state, budget_of(1)).bits == (0, 1)


def test_index_tiebreak_is_deterministic():
    state = _state(VehicleState(4, 2), VehicleState(4, 2), VehicleState(4, 2))
    for rule in (edf, llsp, lllp):
        assert rule(state, budget_of(2)).bits == (1, 1, 0)


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
        for rule in (edf, llsp, lllp):
            act = rule(state, budget_of(m))
            assert act.aggregate == min(m, state.unfinished_count)


def test_determinism():
    sc = capacity_scenario(8, num_chargers=30)
    pol = make_policy("lllp", sc)
    state = _state(*([VehicleState(5, 3)] * 10 + [E] * 20), grid=3)
    assert pol.decide(state, 0) == pol.decide(state, 99)


def test_capacity_budget_uses_grid_value():
    sc = capacity_scenario(8, num_chargers=30, capacity_range=(2, 4))
    budget = capacity_budget(sc)
    state = _state(*([VehicleState(5, 3)] * 10 + [E] * 20), grid=0)
    assert budget(state) == 2
    state_hi = _state(*([VehicleState(5, 3)] * 10 + [E] * 20), grid=2)
    assert budget(state_hi) == 4


def test_edf_violates_priority_rule():
    state = _state(VehicleState(1, 1), VehicleState(2, 2))
    act = edf(state, budget_of(1))
    assert check_lllp_compliance(state, act) == (0, 1)


def test_compliance_none_cases():
    empty = _state(E, E)
    assert check_lllp_compliance(empty, lllp(empty, budget_of(1))) is None
    state = _state(VehicleState(1, 1), VehicleState(2, 2))
    assert check_lllp_compliance(state, lllp(state, budget_of(1))) is None


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
        act = lllp(state, budget_of(m))
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
