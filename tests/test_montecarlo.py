import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargesched import montecarlo, streams
from chargesched.core import (EMPTY, ActionVector, PenaltyFunction, SystemState,
                              VehicleState, settle_stage, step_tables)
from chargesched.interchange import coupled_rollout, wrap_interchange
from chargesched.models import (ChargingCost, DemandModel, FixedCountArrivals,
                                GridModel, QuadraticLoadCost, ScenarioModel, TableCost,
                                TabulatedArrivals, admit, capacity_scenario,
                                draw_initial, initial_states, multichain_fixture,
                                sample_demand, sample_grid, two_charger_scenario)
from chargesched.montecarlo import (CSV_COLUMNS, advance_stage, figure_experiment,
                                    monte_carlo, run_trajectory, stage_outcome)
from chargesched.policies import HeuristicPolicy, check_lllp_compliance, make_policy
from test_exactdp import _two_demand_scenario


def test_zero_arrivals_zero_cost():
    sc = capacity_scenario(0, num_chargers=10)
    tr = run_trajectory(sc, make_policy("lllp", sc), stages=50, seed=1)
    assert tr.total_cost == 0
    assert tr.rejected_arrivals == 0


def test_trajectory_determinism_and_accounting():
    sc = capacity_scenario(4, num_chargers=25, capacity_range=(1, 6),
                           penalty="quadratic")
    pol = make_policy("edf", sc)
    a = run_trajectory(sc, pol, stages=80, seed=5)
    b = run_trajectory(sc, pol, stages=80, seed=5)
    assert a == b
    assert a.total_cost == a.charging_total + a.penalty_total
    assert a.total_cost == sum(a.stage_charging) + sum(a.stage_penalty)
    assert isinstance(a.total_cost, Fraction)
    assert a.time_average_raw == float(a.total_cost) / a.stages
    tail = sum(a.stage_charging[a.warmup:]) + sum(a.stage_penalty[a.warmup:])
    assert a.time_average == float(tail) / (a.stages - a.warmup)


def test_benchmark_cost_is_penalty_only():
    # policies never exceed capacity, so the charging component stays zero
    sc = capacity_scenario(25)
    for name in ("edf", "llsp", "lllp"):
        tr = run_trajectory(sc, make_policy(name, sc), stages=60, seed=3)
        assert tr.charging_total == 0
        assert tr.total_cost == tr.penalty_total


def test_batched_equals_scalar_per_trajectory():
    sc = capacity_scenario(4, num_chargers=25, capacity_range=(1, 6))
    for name in ("edf", "llsp", "lllp"):
        pol = make_policy(name, sc)
        res = monte_carlo(sc, pol, stages=60, n_traj=10, base_seed=11)
        for i in range(10):
            tr = run_trajectory(sc, pol, 60, seed=11, traj=i, record_stages=False)
            assert tr.time_average == pytest.approx(res.per_traj[i], abs=1e-12)


def test_batched_equals_scalar_with_tabulated_arrivals():
    sc = two_charger_scenario()
    pol = make_policy("lllp", sc)
    res = monte_carlo(sc, pol, stages=40, n_traj=8, base_seed=2)
    for i in range(8):
        tr = run_trajectory(sc, pol, 40, seed=2, traj=i, record_stages=False)
        assert tr.time_average == pytest.approx(res.per_traj[i], abs=1e-12)


_NOTHING = TabulatedArrivals(((Fraction(1, 2), ()), (Fraction(1, 2), ())))
_BATCH = TabulatedArrivals(((Fraction(1, 3), ()), (Fraction(2, 3), (
    VehicleState(3, 2), VehicleState(1, 1), VehicleState(2, 3)))))


def _two_demand_state_scenario(cost=lambda a: (Fraction(0), Fraction(a, 3)),
                               penalty=PenaltyFunction.quadratic(3),
                               fixed=FixedCountArrivals(2), table=_BATCH):
    """Fixed-count arrivals in one demand state, a tabulated batch in the
    other; the grid tilts toward the expensive state as more vehicles charge
    and charging costs thirds."""
    n = 6
    tilt = tuple((Fraction(n + 1 - a, n + 2), Fraction(a + 1, n + 2)) for a in range(n + 1))
    grid = GridModel(values=(2, 4), kernel=(tilt, tilt),
                     cost=TableCost(tuple(cost(a) for a in range(n + 1))))
    demand = DemandModel(
        kernel=((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 4), Fraction(3, 4))),
        arrivals=(fixed, table))
    return ScenarioModel(name="two-demand-states", num_chargers=n, max_stay=3,
                         max_units=3, grid=grid, demand=demand, penalty=penalty)


@pytest.mark.parametrize("scenario, stages, n_traj, budget_from", [
    (capacity_scenario(9, num_chargers=12, capacity_range=(1, 6)), 60, 20, None),
    (two_charger_scenario(), 40, 8, None),
    (capacity_scenario(6, PenaltyFunction([Fraction(n * n, 3) + Fraction(n, 7)
                                           for n in range(11)]),
                       num_chargers=30, capacity_range=(1, 8)), 60, 20, None),
    (_two_demand_state_scenario(), 80, 30, None),
    (capacity_scenario(30, num_chargers=12, capacity_range=(1, 6)), 60, 20, None),
    # The capacities of another scenario: both engines run the capacities
    # the policy carries, not the ones the grid holds.
    (capacity_scenario(6, "linear", num_chargers=40, max_stay=4, capacity_range=(5, 10)),
     50, 4, capacity_scenario(6, "linear", num_chargers=40, max_stay=4,
                              capacity_range=(1, 6))),
    # Laws that bring no vehicle: the batch engine skips their draws.
    (capacity_scenario(0, num_chargers=12, capacity_range=(1, 6)), 30, 5, None),
    (dataclasses.replace(two_charger_scenario(), demand=DemandModel(
        kernel=((Fraction(1),),), arrivals=(_NOTHING,))), 30, 5, None),
    (_two_demand_state_scenario(fixed=FixedCountArrivals(0)), 80, 30, None),
    (_two_demand_state_scenario(table=_NOTHING), 80, 30, None),
], ids=["capacity", "two-charger", "fractional-penalty", "two-demand-states",
        "chargers-full", "foreign-budget", "rate-0", "all-empty-table",
        "two-demand-states-count-0", "two-demand-states-all-empty"])
def test_batched_equals_scalar_bitwise(scenario, stages, n_traj, budget_from):
    for name in ("edf", "llsp", "lllp"):
        pol = HeuristicPolicy(name, (budget_from or scenario).grid.values)
        res = monte_carlo(scenario, pol, stages, n_traj, base_seed=3)
        assert res.engine == "batch", res.fallback
        rejected = []
        for i in range(n_traj):
            tr = run_trajectory(scenario, pol, stages, seed=3, traj=i,
                                record_stages=False)
            assert (np.float64(tr.time_average).tobytes()
                    == np.float64(res.per_traj[i]).tobytes()), (name, i)
            rejected.append(tr.rejected_arrivals)
        assert res.rejected_mean == np.mean(rejected)


@pytest.mark.parametrize("scenario", [
    capacity_scenario(9, num_chargers=12, capacity_range=(1, 6)),
    _two_demand_state_scenario(),
], ids=["capacity", "two-demand-states"])
def test_trajectory_blocks_change_no_value(scenario, monkeypatch):
    pol = make_policy("lllp", scenario)
    whole = monte_carlo(scenario, pol, 40, 23, base_seed=6)
    monkeypatch.setattr(montecarlo, "TRAJ_BLOCK", 5)    # blocks of 5, 5, 5, 5 and 3
    blocked = monte_carlo(scenario, pol, 40, 23, base_seed=6)
    assert blocked.engine == whole.engine == "batch"
    assert blocked.per_traj.tobytes() == whole.per_traj.tobytes()
    assert (blocked.mean, blocked.stderr, blocked.mean_raw, blocked.rejected_mean) == (
        whole.mean, whole.stderr, whole.mean_raw, whole.rejected_mean)
    for i in (5, 22):
        tr = run_trajectory(scenario, pol, 40, seed=6, traj=i, record_stages=False)
        assert tr.time_average == blocked.per_traj[i]


@st.composite
def _ranked_budgets(draw):
    """Type counts per rank (outer) and trajectory, with all-zero columns,
    and a budget per trajectory in 0..unfinished that often ties a prefix
    boundary; sometimes every budget covers every vehicle."""
    ranks, cols = draw(st.integers(1, 12)), draw(st.integers(1, 6))
    counts = [[0] * ranks if draw(st.booleans()) else
              draw(st.lists(st.integers(0, 40), min_size=ranks, max_size=ranks))
              for _ in range(cols)]
    if draw(st.booleans()):
        return counts, [sum(c) for c in counts]
    budgets = []
    for c in counts:
        prefixes = [sum(c[:k]) for k in range(ranks + 1)]
        budgets.append(draw(st.sampled_from(prefixes) | st.integers(0, sum(c))))
    return counts, budgets


@settings(deadline=None, max_examples=300)
@given(_ranked_budgets())
def test_charge_split_charges_the_first_vehicles_in_rank_order(case):
    counts, budgets = case
    ranked = np.array(counts, dtype=np.int16).T.copy()
    split = montecarlo._charge_split(ranked, np.array(budgets, dtype=np.int16),
                                     ranked.sum(0, dtype=np.int16), np.empty_like(ranked))
    for j, (column, m) in enumerate(zip(counts, budgets)):
        greedy = []
        for c in column:
            greedy.append(min(c, m))
            m -= greedy[-1]
        assert split[:, j].tolist() == greedy, j


def _rational_scenario(scale):
    """Charging costs in sevenths and thirds times `scale`, and a penalty in
    sixths: L = 42 units per cost unit."""
    return _two_demand_state_scenario(
        cost=lambda a: (Fraction(a * scale, 7), Fraction((a + 1) * scale, 3)),
        penalty=PenaltyFunction([0, Fraction(1, 3), Fraction(5, 6), Fraction(3, 2)]))


def _fraction_costs(sc, state, action):
    """One stage's charging cost and penalty, summed as Fractions of the tables."""
    departing = [sc.penalty(v.need - b) for v, b in zip(state.vehicles, action.bits)
                 if v.stay == 1]
    return Fraction(sc.grid.cost(action.aggregate, state.grid)), sum(departing, Fraction(0))


def _fraction_walk(sc, decide, state, stages, seed, traj, offset=0):
    """Stage costs of a rollout replayed outside `run_trajectory`, each priced
    with `_fraction_costs`; ``decide(state, stage)`` picks the action."""
    draws = streams.Substream(streams.philox_key(seed), traj)
    costs = []
    for t in range(offset, offset + stages):
        action = decide(state, t)
        costs.append(_fraction_costs(sc, state, action))
        state, _ = advance_stage(sc, state, action, stage_outcome(sc, state.demand, t, draws))
    return costs


@pytest.mark.parametrize("scale", [1, 2 ** 62], ids=["L=42", "past-2**63"])
def test_integer_cost_units_match_a_fraction_sum(scale):
    sc = _rational_scenario(scale)
    assert sc.prices.unit == 42
    stages, warmup = 150, 20        # long enough for stage blocks
    for name in ("edf", "lllp"):
        pol = make_policy(name, sc)
        costs = _fraction_walk(sc, pol.decide, draw_initial(sc, streams.philox_key(5), 2),
                               stages, seed=5, traj=2)
        charging, penalty = (list(c) for c in zip(*costs))
        tr = run_trajectory(sc, pol, stages, seed=5, traj=2, warmup=warmup)
        assert tr.stage_charging == tuple(charging) and tr.stage_penalty == tuple(penalty)
        assert all(type(c) is Fraction for c in tr.stage_charging + tr.stage_penalty)
        assert tr.charging_total == sum(charging) and tr.penalty_total == sum(penalty)
        assert tr.total_cost == sum(charging) + sum(penalty)
        tail = sum(charging[warmup:]) + sum(penalty[warmup:])
        assert tr.time_average == float(tail) / (stages - warmup)
        assert tr.time_average_raw == float(tr.total_cost) / stages
        bare = run_trajectory(sc, pol, stages, seed=5, traj=2, warmup=warmup,
                              record_stages=False)
        assert bare == dataclasses.replace(tr, stage_charging=None, stage_penalty=None)
        if scale > 1:       # the sum in units of 1/L is past any int64
            assert tr.charging_total * sc.prices.unit > 2 ** 63
            res = monte_carlo(sc, pol, stages, 2, base_seed=5, warmup=warmup)
            assert res.engine == "scalar"
            assert res.per_traj[0] == run_trajectory(sc, pol, stages, seed=5, traj=0,
                                                     warmup=warmup).time_average


@pytest.mark.parametrize("scale", [1, 2 ** 62], ids=["L=42", "past-2**63"])
def test_coupled_rollout_totals_match_a_fraction_sum(scale):
    sc = _rational_scenario(scale)
    pol = make_policy("edf", sc)
    key, found = streams.philox_key(8), 0
    for case in range(40):
        state, draws = draw_initial(sc, key, case), streams.Substream(key, case)
        for t in range(60):
            action = pol.decide(state, t)
            pair = check_lllp_compliance(state, action) if t >= 3 else None
            if pair is not None:
                break
            state, _ = advance_stage(sc, state, action,
                                     stage_outcome(sc, state.demand, t, draws))
        if pair is None:
            continue
        found += 1
        wrapped = wrap_interchange(pol, state, *pair, t)
        horizon = wrapped.length
        roll = coupled_rollout(sc, pol, wrapped, state, horizon, seed=8, traj=case,
                               stage_offset=t)
        base_actions = {}

        def base(x, stage):
            base_actions[stage] = pol.decide(x, stage)
            return base_actions[stage]

        def swapped(x, stage):
            return wrapped.map_action(base_actions[stage], stage, roll.swap_back_at)

        for decide, stage_costs, total in ((base, roll.base_stage_costs, roll.base_total),
                                           (swapped, roll.swapped_stage_costs,
                                            roll.swapped_total)):
            want = [c + p for c, p in _fraction_walk(sc, decide, state, len(roll.aggregates),
                                                     seed=8, traj=case, offset=t)]
            assert stage_costs == tuple(want)
            assert all(type(c) is Fraction for c in stage_costs)
            assert type(total) is Fraction and total == sum(want)
    assert found >= 5


def _quadratic_scenario():
    # The base loads are the grid values, here not in increasing order.
    sc = capacity_scenario(3, num_chargers=12, capacity_range=(1, 6))
    return dataclasses.replace(sc, grid=dataclasses.replace(
        sc.grid, values=(0, 3, 5, 8, 4, 7), cost=QuadraticLoadCost()))


class _StepCost(ChargingCost):
    """A charging-cost form other than the three named ones."""

    def __call__(self, aggregate, grid_index):
        return Fraction(aggregate > 2)


def _step_cost_scenario():
    sc = capacity_scenario(4, num_chargers=5, max_stay=2, capacity_range=(1, 3))
    return dataclasses.replace(sc, grid=dataclasses.replace(sc.grid, cost=_StepCost()))


@pytest.mark.parametrize("scenario", [
    capacity_scenario(3, num_chargers=12, capacity_range=(1, 6)),
    _quadratic_scenario(),
    _rational_scenario(1),
    _step_cost_scenario(),
], ids=["capacity", "quadratic", "table", "step"])
def test_charge_table_equals_stage_prices(scenario):
    prices = scenario.prices
    table = prices.table()
    assert table.shape == (scenario.num_chargers + 1, scenario.grid.state_count)
    for a in range(scenario.num_chargers + 1):
        for s in range(scenario.grid.state_count):
            assert table[a, s] == prices[a, s], (a, s)


def test_single_trajectory_stderr_convention():
    sc = capacity_scenario(3, num_chargers=12)
    res = monte_carlo(sc, make_policy("edf", sc), stages=30, n_traj=1, base_seed=4)
    assert res.stderr == 0.0


def test_monte_carlo_input_validation():
    sc = capacity_scenario(3, num_chargers=12)
    with pytest.raises(ValueError):
        monte_carlo(sc, make_policy("edf", sc), stages=30, n_traj=0, base_seed=4)
    with pytest.raises(ValueError):
        monte_carlo(sc, make_policy("edf", sc), stages=0, n_traj=2, base_seed=4)
    with pytest.raises(ValueError, match="warm-up"):
        monte_carlo(sc, make_policy("edf", sc), stages=30, n_traj=2, base_seed=4, warmup=-5)
    with pytest.raises(ValueError, match="warm-up"):
        run_trajectory(sc, make_policy("edf", sc), stages=30, seed=4, warmup=-1)


_TYPES = st.builds(VehicleState, st.integers(1, 3), st.integers(0, 3))


@st.composite
def _fleets(draw):
    """A scenario on at most 8 chargers and a starting fleet with empty slots
    and need-0 vehicles."""
    n = draw(st.integers(1, 8))
    sc = capacity_scenario(0, num_chargers=n, max_stay=3, capacity_range=(0, n))
    fleet = draw(st.lists(st.one_of(st.just(EMPTY), _TYPES), min_size=n, max_size=n))
    return sc, SystemState(tuple(fleet), 0, 0)


def _no_draw(*args):
    raise AssertionError("a stage drew from the streams")


@settings(deadline=None, max_examples=200)
@given(_fleets(), st.data())
def test_advance_stage_carries_the_occupied_chargers(case, data):
    # Every stage applies a hand-built outcome with every draw refused: a
    # grid uniform and an arrival batch that holds need-0 vehicles and, at
    # stage 0, more vehicles than there are chargers.
    sc, x = case
    n, unit = sc.num_chargers, sc.prices.unit
    with pytest.MonkeyPatch.context() as patch:
        for name in ("uniform", "uniforms", "uniforms_batch"):
            patch.setattr(streams, name, _no_draw)
        for t in range(10):
            bits = tuple(data.draw(st.integers(0, 1)) if v.need else 0 for v in x.vehicles)
            a = ActionVector(bits)
            u = data.draw(st.floats(0, 1))
            arrivals = tuple(data.draw(st.lists(_TYPES, min_size=n + 1 if t == 0 else 0,
                                                max_size=n + 3)))
            vehicles = settle_stage(x, a, step_tables(sc.penalty.values))[1]
            rejected = len(arrivals) - len(admit(vehicles, arrivals))
            # By hand: every stay drops by one, a charged vehicle owes one
            # unit less, stay-1 vehicles leave and pay for what they still
            # owe, and arrivals fill the empty chargers in index order.
            stepped = [EMPTY if v.stay <= 1 else VehicleState(v.stay - 1, v.need - b)
                       for v, b in zip(x.vehicles, bits)]
            free = [k for k, v in enumerate(stepped) if v == EMPTY]
            for k, v in zip(free, arrivals):
                stepped[k] = v
            due = sum((sc.penalty(v.need - b) for v, b in zip(x.vehicles, bits)
                       if v.stay == 1), Fraction(0))
            y, bill = advance_stage(sc, x, a, (u, 0, arrivals))
            assert (y.vehicles, bill.rejected) == (tuple(vehicles), rejected)
            assert y.vehicles == tuple(stepped)
            assert (y.grid, y.demand) == (sc.grid.next_state(x.grid, a.aggregate, u), 0)
            assert bill.rejected == max(len(arrivals) - len(free), 0)
            assert bill.rejected > 0 or t > 0
            # Charging is free up to the grid state's capacity, N q(E) past it.
            ceiling = n * sc.penalty(sc.max_units)
            assert Fraction(bill.charging, unit) == (
                0 if a.aggregate <= sc.grid.values[x.grid] else ceiling)
            assert Fraction(bill.penalty, unit) == due
            assert y.occupied == tuple(k for k, v in enumerate(y.vehicles) if v.stay)
            assert y.occupied == SystemState(y.vehicles, y.grid, y.demand).occupied
            x = y


@pytest.mark.parametrize("base", [None, capacity_scenario(2, num_chargers=30,
                                                          capacity_range=(1, 5))])
def test_figure_experiment_refuses_before_any_cell(base, monkeypatch):
    calls = []
    monkeypatch.setattr(montecarlo, "monte_carlo", lambda *args, **kw: calls.append(args))
    with pytest.raises(ValueError, match="arrival count 40 is outside 0..32"):
        figure_experiment("linear", rates=(30, 40), stages=30, n_traj=5, seed=0,
                          policies=("edf",), base_scenario=base)
    with pytest.raises(ValueError, match="unknown policy 'lifo'"):
        figure_experiment("linear", rates=(3,), stages=30, n_traj=5, seed=0,
                          policies=("edf", "lifo"), base_scenario=base)
    with pytest.raises(ValueError, match=r"repeated arrival rate in \(3, 3\)"):
        figure_experiment("linear", rates=(3, 3), stages=30, n_traj=5, seed=0,
                          policies=("edf",), base_scenario=base)
    with pytest.raises(ValueError, match=r"repeated policy in \('edf', 'lllp', 'edf'\)"):
        figure_experiment("linear", rates=(3,), stages=30, n_traj=5, seed=0,
                          policies=("edf", "lllp", "edf"), base_scenario=base)
    # A label that misnames the base scenario's penalty would head every row.
    quadratic = capacity_scenario(3, "quadratic", num_chargers=20, capacity_range=(1, 3))
    with pytest.raises(ValueError,
                       match="penalty 'linear' mislabels the base scenario's 'quadratic'"):
        figure_experiment("linear", (3,), 20, 4, 0, base_scenario=quadratic)
    assert calls == []


@pytest.fixture(scope="module")
def small_table():
    return figure_experiment("linear", rates=(2, 5), stages=40, n_traj=30,
                             seed=9, base_scenario=capacity_scenario(
                                 2, num_chargers=30, capacity_range=(1, 5)))


def test_comparison_table_rows_and_csv(small_table, tmp_path):
    rows = small_table.rows()
    assert len(rows) == 6
    assert tuple(rows[0]) == CSV_COLUMNS
    path = tmp_path / "out.csv"
    small_table.to_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == ",".join(CSV_COLUMNS)
    assert len(text) == 7


def test_rerun_is_byte_identical(small_table, tmp_path):
    again = figure_experiment("linear", rates=(2, 5), stages=40, n_traj=30,
                              seed=9, base_scenario=capacity_scenario(
                                  2, num_chargers=30, capacity_range=(1, 5)))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    small_table.to_csv(p1)
    again.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_thread_count_does_not_change_results(small_table, tmp_path):
    threaded = figure_experiment("linear", rates=(2, 5), stages=40, n_traj=30,
                                 seed=9, base_scenario=capacity_scenario(
                                     2, num_chargers=30, capacity_range=(1, 5)),
                                 threads=4)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    small_table.to_csv(p1)
    threaded.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_paired_gap_nonnegative(small_table):
    gap, se = small_table.paired_gap("lllp", "edf", 5)
    assert gap >= 0


def test_pathwise_dominance_fraction_on_benchmark():
    # under the benchmark scenario the laxity-first tie rule should win on
    # (nearly) every shared sample path, not just in the mean
    table = figure_experiment("linear", rates=(25,), stages=200, n_traj=400,
                              seed=5, policies=("llsp", "lllp"))
    assert table.paired_dominance_fraction("lllp", "llsp", 25) >= 0.95


def test_rate_monotonicity_under_shared_seeds():
    base = capacity_scenario(1, num_chargers=40, capacity_range=(2, 8))
    means = []
    for rate in (1, 3, 5, 8):
        from chargesched.models import with_arrival_rate
        sc = with_arrival_rate(base, rate)
        res = monte_carlo(sc, make_policy("lllp", sc), stages=60, n_traj=60,
                          base_seed=12)
        means.append(res.mean)
    assert all(a <= b + 1e-12 for a, b in zip(means, means[1:]))


def test_result_names_the_engine_that_ran():
    sc = capacity_scenario(4, num_chargers=25, capacity_range=(1, 6))
    heuristic = make_policy("lllp", sc)
    tagged = monte_carlo(sc, heuristic, stages=30, n_traj=4, base_seed=3)
    assert tagged.engine == "batch" and tagged.fallback is None

    class Wrapped:      # the same decisions from a policy that is not a heuristic
        def decide(self, state, stage=0):
            return heuristic.decide(state, stage)

    res = monte_carlo(sc, Wrapped(), stages=30, n_traj=4, base_seed=3)
    assert res.engine == "scalar"
    assert res.fallback == "the policy is not a heuristic"
    assert res.per_traj.tobytes() == tagged.per_traj.tobytes()
    assert res.rejected_mean == tagged.rejected_mean


def test_unknown_cost_form_runs_on_the_batch_engine():
    sc = _step_cost_scenario()
    pol = make_policy("edf", sc)
    res = monte_carlo(sc, pol, stages=30, n_traj=3, base_seed=4)
    assert (res.engine, res.fallback) == ("batch", None)
    scalar = [run_trajectory(sc, pol, 30, seed=4, traj=i).time_average for i in range(3)]
    assert res.per_traj.tobytes() == np.array(scalar).tobytes()


def test_a_long_trajectory_takes_its_staged_draws_from_blocks(monkeypatch):
    # A DP-vs-simulation rollout is 128 stages or more: the generator draws
    # none of its GRID and OUTCOME uniforms (the instance has one demand
    # state), and one stage block per source serves them all.
    sc = two_charger_scenario()
    real, real_block, keyed, blocks = streams._keyed, streams.stage_block, [], []
    monkeypatch.setattr(streams, "_keyed", lambda key, c0, stage, source:
                        keyed.append(source) or real(key, c0, stage, source))
    monkeypatch.setattr(streams, "stage_block", lambda key, traj, source, start, n:
                        blocks.append((source, start, n)) or
                        real_block(key, traj, source, start, n))
    run_trajectory(sc, make_policy("lllp", sc), 200, seed=3)
    assert not {streams.GRID, streams.DEMAND, streams.OUTCOME} & set(keyed)
    assert sorted(blocks) == [(streams.GRID, 0, 200), (streams.OUTCOME, 0, 200)]


def _ones_at(monkeypatch, stages, sources):
    """Make the first draw of every (stage, source) cell with a stage in
    ``stages`` and a source in ``sources`` exactly 1.0, in every trajectory
    and for every caller: addressed, batched or one at a time."""
    real_one, real, real_batch = streams.uniform, streams.uniforms, streams.uniforms_batch

    def forced(u, stage, source):
        if stage in stages and source in sources:
            u[..., 0] = 1.0
        return u

    monkeypatch.setattr(streams, "uniform", lambda key, traj, stage, source: 1.0
                        if stage in stages and source in sources
                        else real_one(key, traj, stage, source))
    monkeypatch.setattr(streams, "uniforms", lambda key, traj, stage, source, n:
                        forced(real(key, traj, stage, source, n), stage, source))
    monkeypatch.setattr(streams, "uniforms_batch", lambda *args:
                        forced(real_batch(*args), args[2], args[3]))


def _narrow_and_wide():
    """A capacity scenario with E = B, and the same with E > B, where a need
    of stay + 1 would still fit the batch engine's type grid."""
    narrow = capacity_scenario(5, num_chargers=10, max_stay=4, capacity_range=(1, 3))
    return narrow, dataclasses.replace(narrow, max_units=6, penalty=PenaltyFunction.linear(6))


@pytest.mark.parametrize("source", [streams.STAY, streams.REQUEST], ids=["STAY", "REQUEST"])
def test_a_unit_arrival_uniform_gives_one_run_on_both_engines(monkeypatch, source):
    # The 2**10 largest uint64 words round to a uniform of exactly 1.0.  As a
    # STAY draw it would scale to stay B + 1, and as a REQUEST draw to need
    # stay + 1; `arrival_cells` types it as stay B or need = stay instead.
    words = np.array([2 ** 64 - 2 ** 10, 2 ** 64 - 2 ** 10 - 1], dtype=np.uint64)
    assert np.multiply(words, 2.0 ** -64, dtype=np.float64).tolist() == [1.0, 1 - 2 ** -53]
    _ones_at(monkeypatch, {3}, {source})
    for sc in _narrow_and_wide():
        first = sc.demand.arrivals[0].sample(streams.Substream(streams.philox_key(1), 0), 3,
                                             sc.max_stay)[0]
        assert first.stay == sc.max_stay if source == streams.STAY else first.need == first.stay
        pol = make_policy("lllp", sc)
        scalar = [run_trajectory(sc, pol, 10, seed=1, traj=i, warmup=0).time_average
                  for i in range(3)]
        res = monte_carlo(sc, pol, 10, 3, base_seed=1, warmup=0)
        assert res.engine == "batch"
        assert res.per_traj.tobytes() == np.array(scalar).tobytes()


def test_a_grid_uniform_of_exactly_one_keeps_an_absorbing_state(monkeypatch):
    # Grid state 0 of the fixture is absorbing, with kernel row (1, 0).  A
    # uniform of 1.0 once took the row's last index, state 1, and its cost.
    sc = multichain_fixture()
    pol, key = make_policy("lllp", sc), streams.philox_key(1)
    _ones_at(monkeypatch, {3}, {streams.GRID})
    assert sample_grid(sc.grid, 0, 0, streams.Substream(key, 0), 3) == 0
    assert run_trajectory(sc, pol, 10, seed=1).total_cost == 0
    res = monte_carlo(sc, pol, 10, 3, base_seed=1)
    assert res.engine == "batch" and res.per_traj.tolist() == [0, 0, 0]


def test_outcome_and_demand_uniforms_of_one_take_the_last_positive_outcome(
        monkeypatch):
    # Demand row 0 is (1, 0) and each law's last outcome has probability 0:
    # a uniform of 1.0 takes demand state 0 and the one-vehicle outcome.
    sc = two_charger_scenario()
    half, zero = Fraction(1, 2), Fraction(0)
    one, two = (VehicleState(2, 1),), (VehicleState(1, 1),) * 2
    laws = tuple(TabulatedArrivals(((half, ()), (half, batch), (zero, two)))
                 for batch in (one, two[:1]))
    sc = dataclasses.replace(sc, initial_demand=0, demand=DemandModel(
        kernel=((Fraction(1), zero), (half, half)), arrivals=laws))
    key = streams.philox_key(2)
    _ones_at(monkeypatch, {3}, {streams.OUTCOME, streams.DEMAND})
    assert sample_demand(sc.demand, 0, streams.Substream(key, 0), 3,
                         sc.max_stay) == (0, list(one))
    assert montecarlo.StageTable(sc, key, 2).outcome(1, 0, 3)[1:] == (0, list(one))
    for name in ("edf", "lllp"):
        pol = make_policy(name, sc)
        scalar = [run_trajectory(sc, pol, 10, seed=2, traj=i, warmup=0).time_average
                  for i in range(3)]
        res = monte_carlo(sc, pol, 10, 3, base_seed=2, warmup=0)
        assert res.engine == "batch"
        assert res.per_traj.tobytes() == np.array(scalar).tobytes()


@pytest.mark.parametrize("source", [streams.GRID, streams.INIT_GRID], ids=["GRID", "INIT_GRID"])
def test_an_iid_grid_uniform_of_exactly_one_takes_the_last_state_in_both_engines(
        monkeypatch, source):
    # u * G would be G, one past the last state: every rule clamps it to
    # G - 1, the last state `sample_index` would take, and the engines agree
    # bit for bit.
    sc = capacity_scenario(5, num_chargers=10, max_stay=4, capacity_range=(1, 3))
    last, pol, key = sc.grid.state_count - 1, make_policy("lllp", sc), streams.philox_key(1)
    stage = 3 if source == streams.GRID else 0
    real, real_batch = streams.uniform, streams.uniforms_batch
    monkeypatch.setattr(streams, "uniform", lambda key, traj, t, drawn: 1.0
                        if (t, drawn) == (stage, source) else real(key, traj, t, drawn))
    monkeypatch.setattr(streams, "uniforms_batch", lambda *args: (
        np.ones_like(real_batch(*args)) if args[2:4] == (stage, source) else real_batch(*args)))
    if source == streams.INIT_GRID:
        assert initial_states(sc, key, 4)[0].tolist() == [last] * 4
        assert draw_initial(sc, key, 2).grid == last
    else:
        draws = streams.Substream(key, 0)
        assert sample_grid(sc.grid, 0, 0, draws, stage) == last
        state = draw_initial(sc, key, 0)
        action = make_policy("lllp", sc).decide(state)
        for outcome in (stage_outcome(sc, state.demand, stage, draws),
                        montecarlo.StageTable(sc, key, 1).outcome(0, state.demand, stage)):
            assert advance_stage(sc, state, action, outcome)[0].grid == last
    scalar = [run_trajectory(sc, pol, 10, seed=1, traj=i).time_average for i in range(3)]
    assert monte_carlo(sc, pol, 10, 3, base_seed=1).per_traj.tobytes() == \
        np.array(scalar).tobytes()


def _two_fixed_counts():
    """The two-charger grid (a kernel) with two demand states that bring one
    and three fixed-count arrivals."""
    sc = two_charger_scenario()
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    demand = DemandModel(kernel=((half, half), (quarter, 1 - quarter)),
                         arrivals=(FixedCountArrivals(1), FixedCountArrivals(3)))
    return dataclasses.replace(sc, demand=demand)


@pytest.mark.parametrize("build", [
    lambda: capacity_scenario(20),      # a fixed count, an iid grid, one demand state
    two_charger_scenario,               # a tabulated law and a kernel grid
    _two_fixed_counts,                  # two fixed counts, two demand states
    _two_demand_scenario,               # two tabulated laws, two demand states
], ids=["capacity", "two-charger", "two-fixed-counts", "two-demand"])
def test_a_stage_table_gives_the_addressed_outcomes_bit_for_bit(monkeypatch, build):
    sc = build()
    key, n = streams.philox_key(17), montecarlo.TABLE_BLOCK + 3
    # Every trajectory of two blocks, then one of the first block again.
    reads = [(traj, t, d) for traj in [*range(n), 1] for t in range(6)
             for d in range(sc.demand.state_count)]
    want = [stage_outcome(sc, d, t, streams.Substream(key, traj)) for traj, t, d in reads]

    def addressed(*args):
        raise AssertionError("an addressed draw from a stage table")

    table = montecarlo.StageTable(sc, key, n)
    with monkeypatch.context() as patch:
        for name in ("uniform", "uniforms"):
            patch.setattr(streams, name, addressed)
        got = [table.outcome(traj, d, t) for traj, t, d in reads]
    for (u, d_next, arrivals), (u_t, d_t, arrivals_t) in zip(want, got):
        assert np.float64(u).tobytes() == np.float64(u_t).tobytes()
        assert (d_next, list(arrivals)) == (d_t, list(arrivals_t))
        assert all(type(v) is VehicleState for v in arrivals_t)
    # A table changes no addressed draw, from any key object.
    assert (stage_outcome(sc, 0, 2, streams.Substream(key.copy(), 0))
            == want[2 * sc.demand.state_count])
