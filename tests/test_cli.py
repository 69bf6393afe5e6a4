import json
import os

import pytest

from chargesched.cli import main

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
BENCHMARK = os.path.join(SCENARIOS, "capacity_benchmark.json")
TINY = os.path.join(SCENARIOS, "two_charger_exact.json")
MULTICHAIN = os.path.join(SCENARIOS, "multichain_fixture.json")
CONCAVE = os.path.join(SCENARIOS, "concave_negative_control.json")


def test_simulate_row_count_and_reproducibility(tmp_path, capsys):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--scenario", BENCHMARK, "--policies", "edf,llsp,lllp",
            "--penalty", "linear", "--rates", "5:32", "--seed", "7",
            "--T", "6", "--n-traj", "2", "--warmup", "2"]
    assert main(args + ["--out", str(out1)]) == 0
    err = capsys.readouterr().err
    assert main(args + ["--out", str(out2)]) == 0
    lines = out1.read_text().splitlines()
    assert len(lines) == 1 + 3 * 28
    assert out1.read_bytes() == out2.read_bytes()
    # One engine line per cell, in CSV row order, on stderr only.
    cells = [line for line in err.splitlines() if line.startswith("cell ")]
    assert cells == [f"cell policy={p} rate={r} engine=batch"
                     for p in ("edf", "llsp", "lllp") for r in range(5, 33)]
    assert "engine" not in out1.read_text()


def test_simulate_names_why_a_cell_fell_back(tmp_path, capsys):
    # Penalties near 2**51 could carry the cost totals past 2**53, where the
    # batch engine's int64 sums stop converting to float exactly.
    doc = {"name": "huge-penalty", "N": 2, "B": 2, "E": 2,
           "grid": {"iid_uniform": [1, 2], "cost": "capacity"},
           "demand": {"states": 1, "kernel": [[1]]},
           "arrival": {"per_state": [{"kind": "fixed_count", "count": 1}]},
           "penalty": [0, 2 ** 50, 2 ** 51]}
    scenario, out = tmp_path / "huge.json", tmp_path / "x.csv"
    scenario.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(scenario), "--policies", "edf,lllp",
                 "--rates", "1", "--seed", "1", "--T", "5", "--n-traj", "2",
                 "--out", str(out)]) == 0
    cells = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("cell ")]
    assert cells == [f"cell policy={p} rate=1 engine=scalar reason=costs over 5 "
                     "stages could reach 2**53 units of 1/1" for p in ("edf", "lllp")]
    assert len(out.read_text().splitlines()) == 3


def test_simulate_single_trajectory_smoke(tmp_path):
    out = tmp_path / "smoke.csv"
    code = main(["simulate", "--scenario", BENCHMARK, "--rates", "10",
                 "--seed", "1", "--T", "5", "--n-traj", "1", "--out", str(out)])
    assert code == 0
    assert out.exists()


def test_simulate_usage_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["simulate", "--scenario", "/does/not/exist.json",
                 "--seed", "1", "--out", out]) == 2
    assert main(["simulate", "--scenario", BENCHMARK, "--policies", "magic",
                 "--seed", "1", "--out", out]) == 2
    assert main(["simulate", "--scenario", BENCHMARK, "--n-traj", "0",
                 "--seed", "1", "--out", out]) == 2
    assert main(["simulate", "--scenario", BENCHMARK, "--rates", "9:3",
                 "--seed", "1", "--out", out]) == 2


@pytest.mark.parametrize("extra, reason", [
    (["--warmup", "-5"], "--warmup must be >= 0"),
    (["--rates", "5:x"], "bad --rates '5:x'"),
    (["--rates", "5,x"], "bad --rates '5,x'"),
    (["--rates", ","], "--rates ',' selects no arrival rate"),
    (["--policies", ","], "--policies ',' selects no policy"),
    # More arrivals a stage than the random streams address.
    (["--rates", "5,40"], "arrival count 40 is outside 0..32"),
])
def test_simulate_bad_option_exits_2(tmp_path, capsys, extra, reason):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--scenario", BENCHMARK, "--seed", "1", "--T", "5",
                 "--n-traj", "2", "--out", str(out)] + extra) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_simulate_refuses_rates_without_fixed_count_law(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["simulate", "--scenario", TINY, "--rates", "1,9", "--seed", "1",
                 "--T", "5", "--n-traj", "2", "--out", str(out)]) == 2
    assert "no fixed-count arrival law" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_penalty_defaults_to_scenario_table(tmp_path):
    args = ["simulate", "--scenario", CONCAVE, "--policies", "edf", "--rates", "30",
            "--seed", "2", "--T", "30", "--n-traj", "4", "--warmup", "5"]
    own, linear = tmp_path / "own.csv", tmp_path / "linear.csv"
    assert main(args + ["--out", str(own)]) == 0
    assert main(args + ["--penalty", "linear", "--out", str(linear)]) == 0
    own_row = own.read_text().splitlines()[1].split(",")
    linear_row = linear.read_text().splitlines()[1].split(",")
    assert own_row[1] == "nonconvex"
    assert linear_row[1] == "linear"
    assert own_row[5] != linear_row[5]


def test_verify_dominance_ok_and_report(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify-dominance", "--scenario", BENCHMARK, "--policy", "edf",
                 "--cases", "25", "--seed", "3", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["cases"] == 25
    assert doc["counterexamples"] == []
    assert doc["strict"] + doc["equal"] == 25


def test_verify_dominance_negative_control_exits_1(tmp_path):
    out = tmp_path / "report.json"
    code = main(["verify-dominance", "--scenario", CONCAVE, "--policy", "edf",
                 "--cases", "40", "--seed", "3", "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["counterexamples"]
    bundle = doc["counterexamples"][0]
    for key in ("seed", "stage", "state", "i", "j", "window_length"):
        assert key in bundle


def test_verify_dominance_zero_cases(tmp_path):
    assert main(["verify-dominance", "--scenario", BENCHMARK, "--cases", "0",
                 "--seed", "1", "--out", str(tmp_path / "r.json")]) == 2


def test_solve_exact_tiny(tmp_path):
    out = tmp_path / "sol.json"
    code = main(["solve-exact", "--scenario", TINY, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["residual"] <= 1e-10
    assert set(doc) == {"gain", "h", "policy", "residual", "iterations"}
    compliant = tmp_path / "sol.lllp.json"
    assert compliant.exists()


@pytest.mark.parametrize("extra, reason", [
    (["--max-iter", "0"], "--max-iter must be >= 1"),
    (["--max-iter", "-3"], "--max-iter must be >= 1"),
    (["--tol", "0"], "--tol must be > 0"),
    (["--tol=-1e-12"], "--tol must be > 0"),
    (["--tol", "nan"], "--tol must be > 0"),
])
def test_solve_exact_bad_option_exits_2(tmp_path, capsys, extra, reason):
    out = tmp_path / "s.json"
    assert main(["solve-exact", "--scenario", TINY, "--out", str(out)] + extra) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()


def test_solve_exact_too_large(tmp_path):
    assert main(["solve-exact", "--scenario", BENCHMARK,
                 "--out", str(tmp_path / "s.json")]) == 2


def test_arrival_outside_the_type_grid_exits_2(tmp_path, capsys):
    with open(TINY) as fh:
        doc = json.load(fh)
    doc["arrival"]["per_state"][0]["outcomes"][1]["vehicles"] = [[5, 4]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["simulate", "--scenario", str(bad), "--seed", "1", "--T", "30",
                 "--n-traj", "1", "--out", str(tmp_path / "x.csv")]) == 2
    assert "arrival (stay 5, need 4) is outside" in capsys.readouterr().err
    assert main(["solve-exact", "--scenario", str(bad),
                 "--out", str(tmp_path / "s.json")]) == 2
    assert "arrival (stay 5, need 4) is outside" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, reason", [
    (("initial", "grid"), 5, "initial grid state 5 is outside 0..1"),
    (("grid", "cost"), [[0, 0], [0, 1]], "cost table must have N + 1 = 3 rows of G = 2"),
    (("grid", "cost"), [[0], [0], [0]], "cost table must have N + 1 = 3 rows of G = 2"),
    (("demand", "kernel"), [["1/2", "1/2"]], "demand kernel row 0 has 2 entries, not D = 1"),
    # Wrong value types: the TypeError's own message is the reason.
    (("initial", "grid"), "0", "'<=' not supported between instances of 'int' and 'str'"),
    (("grid", "kernel"), 5, "'int' object is not iterable"),
    (("grid", "states"), [-1, 1], "grid value -1 is negative"),
    (("demand", "states"), 3, "demand states = 3, but the demand kernel has 1 rows"),
])
def test_scenario_shape_errors_exit_2(tmp_path, capsys, key, value, reason):
    with open(TINY) as fh:
        doc = json.load(fh)
    doc[key[0]][key[1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    for command in (["solve-exact"], ["verify-dominance", "--cases", "2", "--seed", "1"]):
        assert main(command + ["--scenario", str(bad), "--out", str(out)]) == 2
        assert reason in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("path, section, change", [
    (BENCHMARK, None, {"N": -1}),
    (BENCHMARK, None, {"B": 0}),
    (BENCHMARK, None, {"B": -1}),
    (BENCHMARK, None, {"B": -2}),
    (BENCHMARK, "grid", {"iid_uniform": [5, 4]}),
    (TINY, "grid", {"states": [], "kernel": []}),
    (BENCHMARK, None, {"penalty": [0, 1]}),
    (BENCHMARK, None, {"penalty": {"values": [0, 1]}}),
], ids=["N=-1", "B=0", "B=-1", "B=-2", "iid-grid-5..4", "empty-grid",
        "penalty-list-short", "penalty-values-short"])
def test_scenario_sizes_out_of_range_exit_2(tmp_path, capsys, path, section, change):
    with open(path) as fh:
        doc = json.load(fh)
    (doc if section is None else doc[section]).update(change)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    if section:
        reason = "the grid has no states"
    elif "penalty" in change:
        reason = "penalty table length must be E + 1"
    else:
        reason = "a scenario needs N >= 0 chargers and stays of B >= 1 stages"
    out = tmp_path / "out"
    for command in (["simulate", "--T", "5", "--n-traj", "1"],
                    ["verify-dominance", "--cases", "2"]):
        assert main(command + ["--scenario", str(bad), "--seed", "1",
                               "--out", str(out)]) == 2
        assert reason in capsys.readouterr().err
    assert not out.exists()


def test_solve_exact_multichain(tmp_path):
    code = main(["solve-exact", "--scenario", MULTICHAIN, "--max-iter", "2000",
                 "--out", str(tmp_path / "s.json")])
    assert code == 1
