import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from chargesched import models, streams
from chargesched.core import PenaltyFunction, VehicleState
from chargesched.models import (DemandModel, FixedCountArrivals, GridModel,
                                ScenarioModel, TableCost, TabulatedArrivals,
                                admit, capacity_scenario, load_scenario,
                                multichain_fixture, sample_demand, sample_grid,
                                save_scenario, scenario_from_json,
                                scenario_to_json, two_charger_scenario,
                                with_arrival_rate, with_penalty)
from chargesched.exactdp import validate_unichain_assumptions

ONE = Fraction(1)


def _point_mass_grid(n_actions=2):
    # two states; state s always moves to state 1 regardless of action
    kernel = tuple(
        tuple((Fraction(0), ONE) for _ in range(n_actions)) for _ in range(2))
    return GridModel(values=(0, 1), kernel=kernel,
                     cost=TableCost(tuple((Fraction(0), Fraction(0))
                                          for _ in range(n_actions))))


def test_kernel_row_validation():
    with pytest.raises(ValueError):
        GridModel(values=(0, 1),
                  kernel=(((Fraction(1, 2), Fraction(1, 3)),) * 2,) * 2,
                  cost=TableCost(((Fraction(0), Fraction(0)),) * 2))
    # tiny decimal error is repaired, larger is rejected
    ok = GridModel(values=(0, 1),
                   kernel=(((0.5, 0.5 + 1e-14), (0.5, 0.5)),) * 2,
                   cost=TableCost(((Fraction(0), Fraction(0)),) * 2))
    assert sum(ok.kernel[0][0]) == 1
    with pytest.raises(ValueError):
        GridModel(values=(0, 1),
                  kernel=(((0.5, 0.51), (0.5, 0.5)),) * 2,
                  cost=TableCost(((Fraction(0), Fraction(0)),) * 2))


def test_sample_grid_point_mass_and_reproducibility():
    grid = _point_mass_grid()
    key = streams.philox_key(1)
    for stage in range(5):
        assert sample_grid(grid, 0, 1, key, 0, stage) == 1
    a = sample_grid(grid, 0, 0, key, 3, 7)
    b = sample_grid(grid, 0, 0, key, 3, 7)
    assert a == b


def test_sample_grid_iid_uniform_ignores_inputs():
    sc = capacity_scenario(5)
    key = streams.philox_key(9)
    draws = {sample_grid(sc.grid, s, a, key, 0, 4)
             for s in (0, 50) for a in (0, 3)}
    assert len(draws) == 1  # same (traj, stage) cell: same draw no matter (s, A)
    vals = [sample_grid(sc.grid, 0, 0, key, 0, t) for t in range(200)]
    assert min(vals) >= 0 and max(vals) < sc.grid.state_count


def test_sample_demand_fixed_count_law():
    sc = capacity_scenario(6)
    key = streams.philox_key(4)
    d, arrivals = sample_demand(sc.demand, 0, key, 0, 11, sc.max_stay)
    assert d == 0 and len(arrivals) == 6
    for v in arrivals:
        assert 1 <= v.stay <= sc.max_stay
        assert 1 <= v.need <= v.stay


def test_sample_demand_zero_and_degenerate():
    zero = capacity_scenario(0)
    key = streams.philox_key(4)
    _, arrivals = sample_demand(zero.demand, 0, key, 0, 0, zero.max_stay)
    assert arrivals == []
    tiny = capacity_scenario(1, max_stay=1, penalty=PenaltyFunction.linear(1))
    _, arrivals = sample_demand(tiny.demand, 0, key, 0, 0, tiny.max_stay)
    assert arrivals == [VehicleState(1, 1)]


def test_admit_examples():
    e = VehicleState(0, 0)
    a, b, c = VehicleState(3, 1), VehicleState(2, 2), VehicleState(5, 5)
    out = [e, e, e, e]
    assert admit(out, [a, b, c]) == [0, 1, 2]
    assert out == [a, b, c, e]
    full = [a, b, c, a]
    out = list(full)
    assert admit(out, [b, c]) == []
    assert out == full
    out = [a, b, c, a, b, e]
    assert admit(out, [c, a]) == [5]
    assert out == [a, b, c, a, b, c]
    assert admit(out, []) == []


def test_admit_permutation_stability():
    rng = np.random.default_rng(3)
    pool = [VehicleState(int(s), int(g)) for s in range(1, 5) for g in range(0, s + 1)]
    for _ in range(100):
        n = int(rng.integers(3, 9))
        occupied = [pool[int(rng.integers(len(pool)))] if rng.random() < 0.5
                    else VehicleState(0, 0) for _ in range(n)]
        arrivals = [pool[int(rng.integers(len(pool)))]
                    for _ in range(int(rng.integers(0, 4)))]
        empties = [k for k, v in enumerate(occupied) if v.stay == 0]
        out1 = list(occupied)
        filled1 = admit(out1, arrivals)
        # The lowest-index empty chargers, one per arrival while they last.
        assert filled1 == empties[:len(arrivals)]
        assert [out1[k] for k in filled1] == arrivals[:len(filled1)]
        assert all(out1[k] == occupied[k] for k in range(n) if k not in filled1)
        perm = rng.permutation(n)
        out2 = [occupied[k] for k in perm]
        filled2 = admit(out2, arrivals)
        assert len(filled1) == len(filled2)
        assert sorted(out1) == sorted(out2)


def test_capacity_scenario_parameters():
    lin = capacity_scenario(20, "linear")
    assert (lin.num_chargers, lin.max_stay, lin.max_units) == (400, 10, 10)
    assert lin.grid.values[0] == 40 and lin.grid.values[-1] == 160
    assert lin.prices.ceiling == 4000 and lin.prices.unit == 1
    quad = capacity_scenario(20, "quadratic")
    assert quad.prices.ceiling == 40000 and quad.prices.unit == 1
    with pytest.raises(ValueError):
        capacity_scenario(-1)


def test_scenario_cross_field_validation():
    sc = two_charger_scenario()
    with pytest.raises(ValueError):
        ScenarioModel(name="bad", num_chargers=3, max_stay=2, max_units=2,
                      grid=sc.grid, demand=sc.demand, penalty=sc.penalty)
    with pytest.raises(ValueError):
        ScenarioModel(name="bad", num_chargers=2, max_stay=2, max_units=3,
                      grid=sc.grid, demand=sc.demand, penalty=sc.penalty)

    class PoissonArrivals:      # an arrival law of neither supported type
        def sample(self, key, traj, stage, max_stay):
            return []

    demand = DemandModel(kernel=((ONE,),), arrivals=(PoissonArrivals(),))
    with pytest.raises(ValueError, match="arrival law PoissonArrivals is neither "
                                         "FixedCountArrivals nor TabulatedArrivals"):
        ScenarioModel(name="bad", num_chargers=2, max_stay=2, max_units=2,
                      grid=sc.grid, demand=demand, penalty=sc.penalty)


@pytest.mark.parametrize("vehicle", [(5, 4), (3, 1), (2, 3), (0, 0), (1, -1)])
def test_arrivals_outside_the_type_grid_are_rejected(vehicle):
    doc = scenario_to_json(two_charger_scenario())   # B = E = 2
    outcome = doc["arrival"]["per_state"][0]["outcomes"][1]
    outcome["vehicles"] = [[1, 0], [2, 2]]
    scenario_from_json(doc)
    outcome["vehicles"] = [[2, 1], list(vehicle)]
    with pytest.raises(ValueError, match="outside 1 <= stay <= B = 2"):
        scenario_from_json(doc)


def test_fixed_count_requests_beyond_e_are_rejected():
    doc = scenario_to_json(capacity_scenario(5, num_chargers=4, max_stay=3))
    doc["E"], doc["penalty"] = 2, "linear"
    with pytest.raises(ValueError, match="up to B = 3 units, above E = 2"):
        scenario_from_json(doc)
    doc["arrival"]["per_state"][0]["count"] = 0
    scenario_from_json(doc)


@pytest.mark.parametrize("what, value", [("grid", 2), ("grid", -1), ("demand", 1)])
def test_initial_state_outside_its_chain_is_rejected(what, value):
    doc = scenario_to_json(two_charger_scenario())   # G = 2, D = 1
    doc["initial"] = {"grid": 1, "demand": 0}
    scenario_from_json(doc)
    doc["initial"][what] = value
    with pytest.raises(ValueError, match=f"initial {what} state {value} is outside"):
        scenario_from_json(doc)


def test_cost_table_needs_n_plus_one_rows_of_g_entries():
    doc = scenario_to_json(two_charger_scenario())   # N = 2, G = 2
    table = doc["grid"]["cost"]
    for bad in (table[:2], [row[:1] for row in table], table + [[0, 3]],
                table[:2] + [[0, 2, 4]]):
        doc["grid"]["cost"] = bad
        with pytest.raises(ValueError, match=r"N \+ 1 = 3 rows of G = 2 entries"):
            scenario_from_json(doc)


def test_demand_kernel_rows_need_d_entries():
    doc = scenario_to_json(two_charger_scenario())   # D = 1
    doc["demand"]["kernel"] = [["1/2", "1/2"]]
    with pytest.raises(ValueError, match="demand kernel row 0 has 2 entries, not D = 1"):
        scenario_from_json(doc)
    law = TabulatedArrivals(((ONE, ()),))
    with pytest.raises(ValueError, match="demand kernel row 1 has 1 entries, not D = 2"):
        DemandModel(kernel=((Fraction(1, 2), Fraction(1, 2)), (ONE,)), arrivals=(law, law))


def test_unichain_assumption_checks():
    assert validate_unichain_assumptions(two_charger_scenario()) == []
    notes = validate_unichain_assumptions(multichain_fixture())
    assert any("zero charging" in n for n in notes)
    no_idle = DemandModel(
        kernel=((ONE,),),
        arrivals=(TabulatedArrivals(((ONE, (VehicleState(1, 1),)),)),))
    sc = two_charger_scenario()
    bad = ScenarioModel(name="always-arrive", num_chargers=2, max_stay=2,
                        max_units=2, grid=sc.grid, demand=no_idle,
                        penalty=sc.penalty)
    assert any("zero-arrival" in n for n in validate_unichain_assumptions(bad))


def _cycle(n, extra=()):
    """Kernel of the n-cycle 0 -> 1 -> ... -> n - 1 -> 0, with each (s, s2)
    in ``extra`` sharing row s's mass."""
    rows = []
    for s in range(n):
        targets = [(s + 1) % n] + [b for a, b in extra if a == s]
        rows.append(tuple(Fraction(targets.count(t), len(targets)) for t in range(n)))
    return tuple(rows)


@pytest.mark.parametrize("kernel, period", [
    (_cycle(1), 1),
    (_cycle(3, extra=[(0, 0)]), 1),                 # a self-loop breaks the cycle
    (_cycle(5, extra=[(2, 0)]), 1),                 # cycles of 3 and 5
    (_cycle(2), 2),
    (_cycle(4, extra=[(3, 2), (1, 0)]), 2),         # cycles of 2 and 4
    (_cycle(3), 3),
    (_cycle(6, extra=[(2, 0)]), 3),                 # cycles of 3 and 6
    (((ONE, Fraction(0)), (Fraction(1, 2), Fraction(1, 2))), None),   # reducible
    (((Fraction(0), ONE), (Fraction(0), ONE)), None),                 # 0 is transient
])
def test_demand_ergodicity_pins_the_period(kernel, period):
    law = TabulatedArrivals(((ONE, ()),))
    demand = DemandModel(kernel=kernel, arrivals=(law,) * len(kernel))
    assert demand.is_ergodic() == (period == 1)
    if period is not None:
        assert models._period([list(r) for r in kernel]) == period


def test_json_roundtrip(tmp_path):
    for sc in (capacity_scenario(13, "quadratic"), two_charger_scenario(),
               multichain_fixture()):
        path = tmp_path / "sc.json"
        save_scenario(sc, path)
        back = load_scenario(path)
        assert back.num_chargers == sc.num_chargers
        assert back.grid.values == sc.grid.values
        assert back.grid.kernel == sc.grid.kernel
        assert back.demand.kernel == sc.demand.kernel
        assert back.penalty.values == sc.penalty.values
        assert back.demand.arrivals == sc.demand.arrivals


def test_json_missing_key_rejected():
    doc = scenario_to_json(two_charger_scenario())
    del doc["grid"]
    with pytest.raises(ValueError):
        scenario_from_json(doc)


def test_nonconvex_penalty_needs_opt_in():
    doc = scenario_to_json(two_charger_scenario())
    doc["penalty"] = [0, 2, 3]
    with pytest.raises(ValueError):
        scenario_from_json(doc)
    doc["penalty"] = {"values": [0, 2, 3], "allow_nonconvex": True}
    sc = scenario_from_json(doc)
    assert sc.penalty(2) == 3


def test_with_penalty_rebuilds_capacity_ceiling():
    lin = capacity_scenario(10, "linear")
    quad = with_penalty(lin, "quadratic")
    assert quad.prices.ceiling == 40000 and quad.prices.unit == 1
    r2 = with_arrival_rate(lin, 25)
    assert r2.demand.arrivals[0] == FixedCountArrivals(25)


def test_capacity_ceiling_follows_the_penalty():
    # The ceiling beyond capacity is N * q(E) of the scenario's own penalty,
    # however that penalty was set.
    lin = capacity_scenario(20, "linear")
    replaced = dataclasses.replace(lin, penalty=PenaltyFunction.quadratic(10))
    assert replaced.prices[300, 0] == with_penalty(lin, "quadratic").prices[300, 0] == 40000
    assert replaced.prices[40, 0] == 0
    assert replaced.prices.table()[300, 0] == 40000
