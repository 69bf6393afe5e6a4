from fractions import Fraction

import numpy as np
import pytest

from chargesched.core import PenaltyFunction, VehicleState
from chargesched.models import (DemandModel, FixedCountArrivals, GridModel,
                                ScenarioModel, TableCost, TabulatedArrivals,
                                capacity_scenario, two_charger_scenario)
from chargesched.montecarlo import (CSV_COLUMNS, figure_experiment, monte_carlo,
                                    run_trajectory)
from chargesched.policies import make_policy


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


def _two_demand_state_scenario():
    """Fixed-count arrivals in one demand state, a tabulated batch in the
    other; the grid tilts toward the expensive state as more vehicles charge
    and charging costs thirds."""
    n = 6
    tilt = tuple((Fraction(n + 1 - a, n + 2), Fraction(a + 1, n + 2)) for a in range(n + 1))
    grid = GridModel(values=(2, 4), kernel=(tilt, tilt),
                     cost=TableCost(tuple((Fraction(0), Fraction(a, 3)) for a in range(n + 1))))
    batch = (VehicleState(3, 2), VehicleState(1, 1), VehicleState(2, 3))
    demand = DemandModel(
        kernel=((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 4), Fraction(3, 4))),
        arrivals=(FixedCountArrivals(2),
                  TabulatedArrivals(((Fraction(1, 3), ()), (Fraction(2, 3), batch)))))
    return ScenarioModel(name="two-demand-states", num_chargers=n, max_stay=3,
                         max_units=3, grid=grid, demand=demand,
                         penalty=PenaltyFunction.quadratic(3))


@pytest.mark.parametrize("scenario, stages, n_traj", [
    (capacity_scenario(9, num_chargers=12, capacity_range=(1, 6)), 60, 20),
    (two_charger_scenario(), 40, 8),
    (capacity_scenario(6, PenaltyFunction([Fraction(n * n, 3) + Fraction(n, 7)
                                           for n in range(11)]),
                       num_chargers=30, capacity_range=(1, 8)), 60, 20),
    (_two_demand_state_scenario(), 80, 30),
], ids=["capacity", "two-charger", "fractional-penalty", "two-demand-states"])
def test_batched_equals_scalar_bitwise(scenario, stages, n_traj):
    for name in ("edf", "llsp", "lllp"):
        pol = make_policy(name, scenario)
        res = monte_carlo(scenario, pol, stages, n_traj, base_seed=3)
        rejected = []
        for i in range(n_traj):
            tr = run_trajectory(scenario, pol, stages, seed=3, traj=i,
                                record_stages=False)
            assert (np.float64(tr.time_average).tobytes()
                    == np.float64(res.per_traj[i]).tobytes()), (name, i)
            rejected.append(tr.rejected_arrivals)
        assert res.rejected_mean == np.mean(rejected)


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
    from chargesched.policies import HeuristicPolicy
    sc = capacity_scenario(4, num_chargers=25, capacity_range=(1, 6))
    tagged = monte_carlo(sc, make_policy("lllp", sc), stages=30, n_traj=4, base_seed=3)
    assert tagged.engine == "batch"
    # The same rule without the budget_kind tag cannot be recognized.
    untagged = HeuristicPolicy(
        "lllp", lambda x: min(sc.grid.values[x.grid], x.unfinished_count))
    res = monte_carlo(sc, untagged, stages=30, n_traj=4, base_seed=3)
    assert res.engine == "scalar"
    assert res.per_traj.tobytes() == tagged.per_traj.tobytes()
    assert res.rejected_mean == tagged.rejected_mean

