import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargesched.core import (ActionVector, EMPTY, InfeasibleActionError,
                              PenaltyFunction, SystemState, VehicleState, laxity,
                              outranks, settle_stage, stage_cost, step_vehicles)


def test_laxity_values():
    assert laxity(VehicleState(8, 5)) == 3
    assert laxity(VehicleState(2, 0)) == 2
    assert laxity(VehicleState(1, 3)) == -2


def test_laxity_range_over_lattice():
    B, E = 10, 10
    for stay in range(1, B + 1):
        for need in range(E + 1):
            th = laxity(VehicleState(stay, need))
            if need > 0:
                assert 1 - E <= th <= B - 1
            else:
                assert th == stay


def test_laxity_monotonicity_under_idle_and_charge():
    B = 10
    for stay in range(2, B + 1):
        for need in range(1, stay + 1):
            v = VehicleState(stay, need)
            idled = VehicleState(stay - 1, need)
            assert laxity(idled) == laxity(v) - 1
            if need >= 2:  # still chargeable next stage
                charged = VehicleState(stay - 1, need - 1)
                assert laxity(charged) == laxity(v)


def test_priority_examples():
    assert outranks(VehicleState(3, 2), VehicleState(2, 1))
    assert not outranks(VehicleState(2, 1), VehicleState(3, 2))
    # Identical (laxity, need) pairs: neither is above the other.
    assert not outranks(VehicleState(3, 2), VehicleState(3, 2))
    # laxity 1 / need 2 against laxity 2 / need 3: the two criteria disagree
    assert not outranks(VehicleState(5, 3), VehicleState(3, 2))
    assert not outranks(VehicleState(3, 2), VehicleState(5, 3))
    # A vehicle that owes nothing has laxity = stay: (1, 1) has laxity 0 and
    # more work than (2, 0), whose laxity is 2.
    assert outranks(VehicleState(1, 1), VehicleState(2, 0))
    assert not outranks(VehicleState(2, 0), VehicleState(1, 1))


def test_priority_rejects_absent_vehicles():
    with pytest.raises(ValueError):
        outranks(EMPTY, VehicleState(2, 1))
    with pytest.raises(ValueError):
        outranks(VehicleState(2, 1), EMPTY)


def _lattice_arrays(B, E):
    stays, needs = [], []
    for stay in range(1, B + 1):
        for need in range(E + 1):
            stays.append(stay)
            needs.append(need)
    stays = np.array(stays)
    needs = np.array(needs)
    return stays, needs, stays - needs


def test_partial_order_laws_exhaustive():
    B = E = 10
    stays, needs, theta = _lattice_arrays(B, E)
    ti, tj = theta[:, None], theta[None, :]
    gi, gj = needs[:, None], needs[None, :]
    equal_key = (ti == tj) & (gi == gj)
    j_over_i = (ti >= tj) & (gi <= gj) & ~equal_key
    i_over_j = (tj >= ti) & (gj <= gi) & ~equal_key
    # Antisymmetry of the strict relation.
    assert not (j_over_i & i_over_j).any()
    # Irreflexivity: the diagonal is Equal, never strict.
    assert not j_over_i.diagonal().any()
    # Transitivity: (i < j) and (j < k) implies (i < k); check via boolean
    # matrix product (j_over_i[a, b] means b is above a).
    above = j_over_i
    composed = (above.astype(np.int64) @ above.astype(np.int64)) > 0
    assert not (composed & ~above & ~equal_key).any()
    # Agreement with outranks on every pair of the lattice.
    fleet = [VehicleState(int(s), int(g)) for s, g in zip(stays, needs)]
    got = np.array([[outranks(vj, vi) for vj in fleet] for vi in fleet])
    assert got.shape == (len(fleet),) * 2 == ((B * (E + 1)),) * 2
    assert (got == j_over_i).all()


def test_less_laxity_later_deadline_implies_priority():
    B = E = 10
    for si in range(1, B + 1):
        for gi in range(E + 1):
            for sj in range(1, B + 1):
                for gj in range(E + 1):
                    vi, vj = VehicleState(si, gi), VehicleState(sj, gj)
                    if laxity(vi) >= laxity(vj) and si <= sj:
                        # j has no more laxity and no less remaining work, so
                        # it is above i unless the two are identical.
                        assert outranks(vj, vi) is (vi != vj)
                        assert not outranks(vi, vj)


def test_penalty_construction():
    lin = PenaltyFunction.linear(10)
    quad = PenaltyFunction.quadratic(10)
    assert lin(10) == 10 and quad(10) == 100 and lin(0) == quad(0) == 0
    with pytest.raises(ValueError):
        PenaltyFunction([1, 2, 3])          # q(0) != 0
    with pytest.raises(ValueError):
        PenaltyFunction([0, -1, 0])         # negative increment
    with pytest.raises(ValueError):
        PenaltyFunction([0, 2, 3])          # decreasing increments
    concave = PenaltyFunction([0, 2, 3], require_convex=False)
    assert concave(2) == 3


def test_stage_cost_examples():
    q_lin = PenaltyFunction.linear(10)

    def capacity_cost(aggregate, grid_index):
        return Fraction(0) if aggregate <= 40 else Fraction(4000)

    vehicles = (VehicleState(1, 2), VehicleState(4, 3), VehicleState(5, 1))
    state = SystemState(vehicles, 0, 0)
    act = ActionVector((1, 1, 0))
    # A=2 within capacity, one departure with shortfall 2-1=1, linear penalty
    assert stage_cost(state, act, capacity_cost, q_lin) == 1

    def quad_cost(aggregate, grid_index):
        return Fraction((aggregate + 3) ** 2)

    state2 = SystemState((VehicleState(4, 3), VehicleState(5, 1)), 0, 0)
    assert stage_cost(state2, ActionVector((1, 1)), quad_cost, q_lin) == 25

    # departing vehicle fully served contributes nothing
    state3 = SystemState((VehicleState(1, 1),), 0, 0)
    assert stage_cost(state3, ActionVector((1,)), capacity_cost, q_lin) == 0


def test_stage_cost_is_exact_and_additive():
    q = PenaltyFunction.quadratic(10)

    def cost(aggregate, grid_index):
        return Fraction(aggregate, 3)

    vehicles = (VehicleState(1, 4), VehicleState(1, 2), VehicleState(3, 5))
    state = SystemState(vehicles, 0, 0)
    act = ActionVector((1, 0, 1))
    total = stage_cost(state, act, cost, q)
    assert isinstance(total, Fraction)
    # charging part depends only on (A, s); penalty only on departing vehicles
    assert total == Fraction(2, 3) + q(3) + q(2)


def test_stage_cost_rejects_infeasible():
    q = PenaltyFunction.linear(10)
    state = SystemState((VehicleState(3, 0),), 0, 0)
    with pytest.raises(InfeasibleActionError):
        stage_cost(state, ActionVector((1,)), lambda a, s: Fraction(0), q)


def test_step_vehicles():
    out = step_vehicles((VehicleState(8, 5),), ActionVector((1,)))
    assert out == (VehicleState(7, 4),)
    out = step_vehicles((VehicleState(1, 2),), ActionVector((1,)))
    assert out == (EMPTY,)
    out = step_vehicles((VehicleState(3, 0),), ActionVector((0,)))
    assert out == (VehicleState(2, 0),)
    out = step_vehicles((EMPTY,), ActionVector((0,)))
    assert out == (EMPTY,)


def test_action_vector_validation():
    for bits in ((0, 2), (2,), (0, 1, -1), (0.5,), ("1",), (None,)):
        with pytest.raises(ValueError, match="action bits must be 0 or 1"):
            ActionVector(bits)
    for bits, aggregate in (((1, 0, 1), 2), ((), 0), ((True, False, True), 2),
                            ((np.int64(1), np.int8(0), 1), 2)):
        act = ActionVector(bits)
        assert act.aggregate == aggregate and type(act.aggregate) is int
        assert act == ActionVector(tuple(map(int, bits)))
    assert repr(ActionVector((1, 0))) == "ActionVector(bits=(1, 0))"


def _settle_full_walk(state, action, penalty):
    """Reference stage: a comprehension over every slot, empty ones too.
    The penalty is summed as Fractions of the table; the kept chargers are
    those whose vehicle stays past this stage."""
    action.check_feasible(state.vehicles)
    pairs = list(zip(state.vehicles, action.bits))
    shortfall = sum([penalty(need - a) for (stay, need), a in pairs if stay == 1],
                    Fraction(0))
    stepped = [EMPTY if stay <= 1 else VehicleState(stay - 1, need - a)
               for (stay, need), a in pairs]
    kept = [i for i, (stay, _) in enumerate(state.vehicles) if stay > 1]
    return shortfall, stepped, kept


def _outcome(settle, state, action, penalty):
    try:
        return settle(state, action, penalty)
    except ValueError as exc:    # InfeasibleActionError is one
        return type(exc), str(exc)


_B, _E = 4, 3
_TABLES = (PenaltyFunction.linear(_E), PenaltyFunction.quadratic(_E),
           PenaltyFunction([0, Fraction(1, 3), Fraction(5, 6), Fraction(3, 2)]))
_SLOTS = st.one_of(st.just(EMPTY),
                   st.builds(VehicleState, st.integers(1, _B), st.integers(0, _E)))


@st.composite
def _stages(draw):
    """A fleet with empty slots, need-0 vehicles and stay-1 departures, and
    a feasible action, or one with a single fault."""
    vehicles = draw(st.lists(_SLOTS, min_size=1, max_size=12))
    bits = [draw(st.integers(0, 1)) if v.need else 0 for v in vehicles]
    fault = draw(st.sampled_from((None, "empty slot", "need 0", "length")))
    k = draw(st.integers(0, len(vehicles)))
    if fault == "empty slot":
        vehicles.insert(k, EMPTY)
        bits.insert(k, 1)
    elif fault == "need 0":
        vehicles.insert(k, VehicleState(draw(st.integers(1, _B)), 0))
        bits.insert(k, 1)
    elif fault == "length":
        bits = bits[:-1] if draw(st.booleans()) else bits + [0]
    return SystemState(tuple(vehicles), 0, 0), ActionVector(tuple(bits))


@settings(deadline=None, max_examples=300)
@given(_stages(), st.sampled_from(_TABLES))
def test_settle_stage_matches_a_full_walk(stage, penalty):
    state, action = stage
    vehicles = state.vehicles
    assert state.occupied == tuple(i for i, v in enumerate(vehicles) if v.stay > 0)
    assert state.unfinished == tuple(i for i, v in enumerate(vehicles) if v.need > 0)
    want = _outcome(_settle_full_walk, state, action, penalty)
    assert _outcome(settle_stage, state, action, penalty.values) == want
    # The same table as integers over its common denominator L, as the
    # engines sum it: each shortfall is the Fraction sum times L.
    unit = math.lcm(*(v.denominator for v in penalty.values))
    got = _outcome(settle_stage, state, action, [int(v * unit) for v in penalty.values])
    if isinstance(want[0], Fraction):
        assert type(got[0]) is int and got[0] == want[0] * unit
        assert got[1:] == want[1:]
    else:
        assert got == want
