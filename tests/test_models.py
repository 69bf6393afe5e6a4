import collections
import dataclasses
import itertools
import json
import os
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargesched import models, streams
from chargesched.core import (ActionVector, PenaltyFunction, SystemState, VehicleState,
                              step_vehicles)
from chargesched.models import (DemandModel, FixedCountArrivals, GridModel,
                                QuadraticLoadCost, ScenarioModel, TableCost,
                                TabulatedArrivals, admit, capacity_scenario,
                                draw_initial, initial_states, load_scenario,
                                multichain_fixture, sample_demand, sample_grid,
                                sample_index, save_scenario, scenario_from_json,
                                scenario_to_json, two_charger_scenario,
                                with_arrival_rate, with_penalty)
from chargesched.exactdp import validate_unichain_assumptions
from chargesched.montecarlo import _TypeCounts
from chargesched.policies import make_policy
from test_exactdp import _law_rows, _two_demand_scenario

ONE = Fraction(1)
SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


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


def test_a_state_refuses_a_stay_zero_vehicle_other_than_empty():
    # Admission fills the chargers holding EMPTY, so a fleet whose stay-0
    # charger holds anything else never reaches it: the state refuses it.
    with pytest.raises(ValueError, match=r"^charger 1: VehicleState\(stay=0, need=2\) "
                                         "has stay 0 but is not the empty charger"):
        SystemState((VehicleState(2, 1), VehicleState(0, 2), VehicleState(0, 0)), 0, 0)
    with pytest.raises(ValueError, match="^charger 0: "):
        step_vehicles([VehicleState(0, 1)], ActionVector((0,)))
    out = list(SystemState((VehicleState(2, 1), VehicleState(0, 0)), 0, 0).vehicles)
    assert admit(out, [VehicleState(3, 3)]) == [1]


def _arrival_scenario(count, max_stay, max_units):
    """A small capacity scenario with a fixed count, stays 1..B and E >= B."""
    sc = capacity_scenario(count, num_chargers=8, max_stay=max_stay, capacity_range=(1, 4))
    return dataclasses.replace(sc, max_units=max_units,
                               penalty=PenaltyFunction.linear(max_units))


def _batch_cells(sc, seed, traj, stage):
    """The batch engine's arrival cells for one trajectory and stage."""
    block = _TypeCounts(sc, make_policy("edf", sc), 1, seed, traj)
    return block._arrivals(block.laws[0], stage)[0][0].tolist()


@settings(max_examples=40, deadline=None)
@given(max_stay=st.integers(1, 12), extra=st.integers(0, 3),
       count=st.integers(1, streams.MAX_ARRIVALS_PER_STAGE), seed=st.integers(0, 2 ** 32),
       traj=st.integers(0, 10 ** 6), stage=st.integers(0, 10 ** 4))
def test_scalar_arrival_types_are_the_batch_engines_cells(max_stay, extra, count, seed,
                                                           traj, stage):
    sc = _arrival_scenario(count, max_stay, max_stay + extra)
    width = sc.max_units + 1
    _, types = sample_demand(sc.demand, 0, streams.philox_key(seed), traj, stage, max_stay)
    assert [(v.stay - 1) * width + v.need for v in types] == _batch_cells(sc, seed, traj,
                                                                          stage)
    assert all(type(v) is VehicleState for v in types)


def _around(x):
    """x and its two float neighbours, kept inside [0, 1)."""
    return [u for u in (np.nextafter(x, -1.0), x, np.nextafter(x, 2.0)) if 0 <= u < 1]


@pytest.mark.parametrize("max_stay, max_units", [(7, 7), (5, 9), (10, 10)])
def test_arrival_types_on_the_rounding_boundaries(monkeypatch, max_stay, max_units):
    # Uniforms one ulp either side of every stay boundary k / B and every
    # need boundary j / stay.  Each is a word times 2**-64, as every float
    # of [2**-12, 1) is one.
    pairs = []
    for k in range(max_stay + 1):
        for u_stay in _around(k / max_stay):
            stay = int(u_stay * max_stay) + 1
            pairs += [(u_stay, u_req) for j in range(stay + 1)
                      for u_req in _around(j / stay)]
    # The rule both engines share, in Python floats, read straight off the law.
    want = [(int(a * max_stay) + 1, int(b * (int(a * max_stay) + 1)) + 1) for a, b in pairs]
    sc = _arrival_scenario(1, max_stay, max_units)
    width = max_units + 1
    drawn = {}
    real = streams.uniforms_batch
    monkeypatch.setattr(streams, "uniforms",
                        lambda key, traj, stage, source, n: drawn[source].copy())
    monkeypatch.setattr(streams, "uniforms_batch",
                        lambda key, n_traj, stage, source, n_per, start=0:
                        drawn[source][None, :].copy() if source in drawn
                        else real(key, n_traj, stage, source, n_per, start))
    for at in range(0, len(pairs), streams.MAX_ARRIVALS_PER_STAGE):
        chunk = pairs[at:at + streams.MAX_ARRIVALS_PER_STAGE]
        drawn[streams.STAY] = np.array([a for a, _ in chunk])
        drawn[streams.REQUEST] = np.array([b for _, b in chunk])
        law = FixedCountArrivals(len(chunk))
        types = law.sample(streams.philox_key(0), 0, 0, max_stay)
        assert types == want[at:at + len(chunk)]
        scenario = dataclasses.replace(sc, demand=DemandModel(kernel=((ONE,),),
                                                              arrivals=(law,)))
        assert _batch_cells(scenario, 0, 0, 0) == [(s - 1) * width + g
                                                   for s, g in types]


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


def _quadratic_load_scenario():
    sc = two_charger_scenario()
    return dataclasses.replace(sc, grid=dataclasses.replace(sc.grid, cost=QuadraticLoadCost()))


def test_json_roundtrip(tmp_path):
    for sc in (capacity_scenario(13, "quadratic"), two_charger_scenario(),
               multichain_fixture(), _quadratic_load_scenario()):
        path = tmp_path / "sc.json"
        save_scenario(sc, path)
        back = load_scenario(path)
        assert back.num_chargers == sc.num_chargers
        assert back.grid.values == sc.grid.values
        assert back.grid.kernel == sc.grid.kernel
        assert back.grid.cost == sc.grid.cost
        assert back.demand.kernel == sc.demand.kernel
        assert back.penalty.values == sc.penalty.values
        assert back.demand.arrivals == sc.demand.arrivals


@st.composite
def saved_scenarios(draw):
    """Scenarios of every form a scenario file writes: iid grids on any
    values, kernel grids, capacity, quadratic-load and table costs,
    fixed-count and tabulated laws, one or two demand states, and pinned or
    drawn initial states."""
    n, b = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    e = draw(st.integers(b, 3))    # fixed-count arrivals request up to B <= E units
    values = tuple(draw(st.lists(st.integers(0, 9), min_size=1, max_size=4)))
    g = len(values)
    iid = draw(st.booleans())
    kernel = None if iid else tuple(tuple(draw(_law_rows(g)) for _ in range(n + 1))
                                    for _ in range(g))
    cost = draw(st.sampled_from([models.CapacityCost(), QuadraticLoadCost(), TableCost(
        tuple(tuple(Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 3)))
                    for _ in range(g)) for _ in range(n + 1)))]))
    vehicles = st.builds(VehicleState, st.integers(1, b), st.integers(0, e))
    tabulated = st.lists(st.lists(vehicles, max_size=2).map(tuple), min_size=1, max_size=3
                         ).flatmap(lambda batches: _law_rows(len(batches)).map(
                             lambda probs: TabulatedArrivals(tuple(zip(probs, batches)))))
    d = draw(st.integers(1, 2))
    laws = tuple(draw(st.one_of(st.builds(FixedCountArrivals, st.integers(0, 3)), tabulated))
                 for _ in range(d))
    increments = sorted(draw(st.lists(st.integers(0, 3), min_size=e, max_size=e)))
    penalty = draw(st.sampled_from([
        PenaltyFunction.linear(e), PenaltyFunction.quadratic(e),
        PenaltyFunction(list(itertools.accumulate([0] + increments))),
        PenaltyFunction(list(itertools.accumulate([0] + increments[::-1])),
                        require_convex=False)]))
    return ScenarioModel(
        name=draw(st.text("ab-_ 1", max_size=6)), num_chargers=n, max_stay=b, max_units=e,
        grid=GridModel(values=values, kernel=kernel, cost=cost, iid_uniform=iid),
        demand=DemandModel(kernel=tuple(draw(_law_rows(d)) for _ in range(d)), arrivals=laws),
        penalty=penalty, initial_grid=draw(st.none() | st.integers(0, g - 1)),
        initial_demand=draw(st.none() | st.integers(0, d - 1)))


def _saved_and_loaded(sc, path):
    save_scenario(sc, path)
    return load_scenario(path)


@settings(deadline=None, max_examples=150)
@given(saved_scenarios())
def test_a_saved_scenario_loads_back_unchanged(tmp_path_factory, sc):
    assert _saved_and_loaded(sc, tmp_path_factory.mktemp("sc") / "sc.json") == sc


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SCENARIOS) if f.endswith(".json")))
def test_every_scenario_file_loads_saves_and_loads_back_equal(tmp_path, name):
    sc = load_scenario(os.path.join(SCENARIOS, name))
    assert _saved_and_loaded(sc, tmp_path / name) == sc


def test_an_iid_grid_states_its_values_once():
    # Values (2, 4, 9), not the range 2..9; a quadratic-load price reads them.
    sc = dataclasses.replace(two_charger_scenario(), grid=GridModel(
        values=(2, 4, 9), kernel=None, cost=QuadraticLoadCost(), iid_uniform=True))
    doc = scenario_to_json(sc)
    assert doc["grid"] == {"states": [2, 4, 9], "iid_uniform": True, "cost": "quadratic"}
    assert scenario_from_json(doc) == sc
    assert [sc.prices[2, s] for s in range(3)] == [16, 36, 121]
    # The older [lo, hi] form loads to the same scenario, with or without
    # the states; a range that disagrees with them is refused.
    contiguous = capacity_scenario(5, num_chargers=4, max_stay=3, capacity_range=(3, 6))
    doc = scenario_to_json(contiguous)
    for grid in ({"states": [3, 4, 5, 6], "iid_uniform": [3, 6]}, {"iid_uniform": [3, 6]}):
        doc["grid"] = {**grid, "cost": "capacity"}
        assert scenario_from_json(doc) == contiguous
    doc["grid"] = {"states": [3, 5, 6], "iid_uniform": [3, 6], "cost": "capacity"}
    with pytest.raises(ValueError, match=re.escape(
            "grid iid_uniform = [3, 6] names the states 3..6, but grid states = [3, 5, 6]")):
        scenario_from_json(doc)
    doc["grid"]["iid_uniform"] = "yes"
    with pytest.raises(ValueError, match="grid iid_uniform = 'yes' is neither a flag"):
        scenario_from_json(doc)


class _CountingCost(models.ChargingCost):
    """A table cost that counts its calls by entry."""

    def __init__(self, table):
        self.table, self.calls = table, collections.Counter()

    def __call__(self, aggregate, grid_index):
        self.calls[aggregate, grid_index] += 1
        return self.table[aggregate][grid_index]


def test_stage_prices_call_a_cost_form_once_per_entry():
    sc = two_charger_scenario()    # N = 2, G = 2
    cost = _CountingCost(sc.grid.cost.table)
    sc = dataclasses.replace(sc, grid=dataclasses.replace(sc.grid, cost=cost))
    prices = sc.prices
    table = prices.table()
    assert table.tolist() == [[0, 0], [0, 1], [0, 2]]
    assert [prices[a, s] for a in range(3) for s in range(2)] == table.ravel().tolist()
    assert cost.calls == {(a, s): 1 for a in range(3) for s in range(2)}
    with pytest.raises(KeyError):
        prices[3, 0]


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


def _float_cdf(distribution):
    """The cumulative float sums `sample_index` reads, one entry at a time."""
    return list(itertools.accumulate(map(float, distribution)))


def _unpinned(scenario):
    return dataclasses.replace(scenario, initial_grid=None, initial_demand=None)


@pytest.mark.parametrize("build", [
    two_charger_scenario,                                 # both states pinned
    lambda: capacity_scenario(20),                        # iid-uniform grid
    lambda: _unpinned(two_charger_scenario()),            # grid drawn by its cdf
    lambda: _unpinned(_two_demand_scenario()),            # two demand states
], ids=["pinned", "iid-grid", "two-charger", "two-demand"])
def test_draw_initial_is_one_row_of_initial_states(build):
    sc = build()
    key, start, n = streams.philox_key(11), 7, 50
    grid, demand = initial_states(sc, key, n, start)
    assert grid.dtype == demand.dtype == np.int64 and grid.shape == demand.shape == (n,)
    for t in range(start, start + n):
        state = draw_initial(sc, key, t)
        assert (state.grid, state.demand) == (grid[t - start], demand[t - start])
        # The scalar rule, one uniform per unpinned state from its own stream.
        u_grid = streams.uniform(key, t, 0, streams.INIT_GRID)
        u_demand = streams.uniform(key, t, 0, streams.INIT_DEMAND)
        expected_grid = (sc.initial_grid if sc.initial_grid is not None
                         else int(u_grid * sc.grid.state_count) if sc.grid.iid_uniform
                         else sample_index(_float_cdf(sc.grid.initial_distribution), u_grid))
        expected_demand = (sc.initial_demand if sc.initial_demand is not None
                           else sample_index(_float_cdf(sc.demand.initial_distribution),
                                             u_demand))
        assert (state.grid, state.demand) == (expected_grid, expected_demand)
    # Each drawn chain of several states is seen in more than one state.
    for drawn, pinned, count in ((grid, sc.initial_grid, sc.grid.state_count),
                                 (demand, sc.initial_demand, sc.demand.state_count)):
        if pinned is None and count > 1:
            assert len(set(drawn.tolist())) > 1
