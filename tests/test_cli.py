import json
import os

import pytest
import scipy.sparse.linalg as spla

from chargesched import linalg
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
    # A repeated cell would run twice and write the same CSV row twice.
    (["--rates", "5,5"], "repeated arrival rate in (5, 5)"),
    (["--policies", "edf,edf"], "repeated policy in ('edf', 'edf')"),
    (["--T", "0"], "--T must be >= 1"),
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


def test_verify_dominance_report_names_its_penalty(tmp_path):
    docs = {}
    for penalty in ("linear", "quadratic"):
        out = tmp_path / f"{penalty}.json"
        assert main(["verify-dominance", "--scenario", BENCHMARK, "--policy", "edf",
                     "--penalty", penalty, "--cases", "5", "--seed", "2",
                     "--out", str(out)]) == 0
        docs[penalty] = json.loads(out.read_text())
    assert docs["linear"]["scenario"] == docs["quadratic"]["scenario"]
    assert (docs["linear"]["penalty"], docs["quadratic"]["penalty"]) == ("linear", "quadratic")


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


def test_verify_dominance_counts_the_cases_without_a_violation(tmp_path, capsys):
    # LLLP keeps the priority rule, so no case meets a violation to wrap.
    out = tmp_path / "report.json"
    assert main(["verify-dominance", "--scenario", BENCHMARK, "--policy", "lllp",
                 "--cases", "2", "--seed", "1", "--out", str(out)]) == 0
    assert (f"2 cases: 0 strict, 0 equal, 2 unreached, 0 counterexamples -> {out}"
            in capsys.readouterr().out)
    doc = json.loads(out.read_text())
    assert (doc["strict"], doc["equal"], doc["unreached"], doc["cases"]) == (0, 0, 2, 2)
    keys = list(doc)
    assert keys[keys.index("equal") + 1] == "unreached"


def test_verify_dominance_zero_cases(tmp_path):
    assert main(["verify-dominance", "--scenario", BENCHMARK, "--cases", "0",
                 "--seed", "1", "--out", str(tmp_path / "r.json")]) == 2


def test_verify_dominance_unknown_policy_exits_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["verify-dominance", "--scenario", BENCHMARK, "--policy", "lifo",
                 "--cases", "2", "--seed", "1", "--out", str(out)]) == 2
    assert "error: unknown policy 'lifo'" in capsys.readouterr().err
    assert not out.exists()


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


def test_solve_exact_ceiling_exits_2(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["solve-exact", "--scenario", TINY, "--ceiling", "5",
                 "--out", str(out)]) == 2
    assert "reachable states exceed the ceiling of 5" in capsys.readouterr().err
    assert not out.exists()


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
    # Wrong value types: a size or state that is not an integer is named,
    # and otherwise the TypeError's own message is the reason.
    (("initial", "grid"), "0", "initial grid = '0' is not an integer"),
    (("grid", "kernel"), 5, "'int' object is not iterable"),
    (("grid", "states"), [-1, 1], "grid value -1 is negative"),
    (("demand", "states"), 3, "demand states = 3, but the demand kernel has 1 rows"),
    (("initial", "grid"), 0.5, "initial grid = 0.5 is not an integer"),
    (("initial", "demand"), False, "initial demand = False is not an integer"),
    (("grid", "states"), [0, 1.5], "grid states = 1.5 is not an integer"),
    (("demand", "states"), 1.5, "demand states = 1.5 is not an integer"),
    (("arrival", "per_state"),
     [{"kind": "tabulated", "outcomes": [{"prob": 1, "vehicles": [[2.7, 1]]}]}],
     "vehicle stay = 2.7 is not an integer"),
    (("arrival", "per_state"),
     [{"kind": "tabulated", "outcomes": [{"prob": 1, "vehicles": [[2, True]]}]}],
     "vehicle need = True is not an integer"),
    # An iid range must name the states the file lists.
    (("grid", "iid_uniform"), [2, 9],
     "grid iid_uniform = [2, 9] names the states 2..9, but grid states = [0, 1]"),
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


SIZES = "a scenario needs N >= 0 chargers and stays of B >= 1 stages"
NO_STATES = "the grid has no states"
SHORT_PENALTY = "penalty table length must be E + 1"


@pytest.mark.parametrize("path, section, change, reason", [
    (BENCHMARK, None, {"N": -1}, SIZES),
    (BENCHMARK, None, {"B": 0}, SIZES),
    (BENCHMARK, None, {"B": -1}, SIZES),
    (BENCHMARK, None, {"B": -2}, SIZES),
    (BENCHMARK, "grid", {"iid_uniform": [5, 4]}, NO_STATES),
    (TINY, "grid", {"states": [], "kernel": []}, NO_STATES),
    (BENCHMARK, None, {"penalty": [0, 1]}, SHORT_PENALTY),
    (BENCHMARK, None, {"penalty": {"values": [0, 1]}}, SHORT_PENALTY),
    # Refused, not truncated to N = 2, B = 2 or grid state 0.
    (BENCHMARK, None, {"N": 2.9}, "N = 2.9 is not an integer"),
    (BENCHMARK, None, {"B": 2.5}, "B = 2.5 is not an integer"),
    (BENCHMARK, None, {"E": True}, "E = True is not an integer"),
    (BENCHMARK, None, {"initial": {"grid": 0.5}}, "initial grid = 0.5 is not an integer"),
    (BENCHMARK, "grid", {"iid_uniform": [40, 160.5]},
     "grid iid_uniform = 160.5 is not an integer"),
    (BENCHMARK, None, {"arrival": {"per_state": [{"kind": "fixed_count", "count": 2.5}]}},
     "arrival count = 2.5 is not an integer"),
    # A section that is no JSON object, and an initial state the file misnames.
    (BENCHMARK, None, {"grid": "x"}, "scenario JSON 'grid' must be an object, not str"),
    (BENCHMARK, None, {"grid": [1]}, "scenario JSON 'grid' must be an object, not list"),
    (BENCHMARK, None, {"initial": [0, 0]},
     "'initial' must be an object of 'grid' and 'demand' states, not [0, 0]"),
    (BENCHMARK, None, {"initial": {"grd": 1}},
     "'initial' must be an object of 'grid' and 'demand' states, not {'grd': 1}"),
], ids=["N=-1", "B=0", "B=-1", "B=-2", "iid-grid-5..4", "empty-grid",
        "penalty-list-short", "penalty-values-short", "N=2.9", "B=2.5", "E=true",
        "initial-grid-0.5", "iid-grid-40..160.5", "count-2.5", "grid-string", "grid-list",
        "initial-list", "initial-misnamed"])
def test_scenario_sizes_out_of_range_exit_2(tmp_path, capsys, path, section, change,
                                            reason):
    with open(path) as fh:
        doc = json.load(fh)
    (doc if section is None else doc[section]).update(change)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    for command in (["simulate", "--T", "5", "--n-traj", "1"],
                    ["verify-dominance", "--cases", "2"]):
        assert main(command + ["--scenario", str(bad), "--seed", "1",
                               "--out", str(out)]) == 2
        assert reason in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc", [[1], "x", 5], ids=["list", "string", "number"])
def test_a_document_that_is_no_object_exits_2(tmp_path, capsys, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "s.json"
    assert main(["solve-exact", "--scenario", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"scenario JSON 'document' must be an object, not {type(doc).__name__}" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("section, key", [("grid", "kernel"), ("grid", "cost"),
                                          ("demand", "kernel"), ("arrival", "per_state")])
def test_a_missing_key_names_its_section(tmp_path, capsys, section, key):
    with open(TINY) as fh:
        doc = json.load(fh)
    del doc[section][key]
    scenario = tmp_path / "missing.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "s.json"
    assert main(["solve-exact", "--scenario", str(scenario), "--out", str(out)]) == 2
    assert f"scenario JSON missing key {key!r} in {section!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc_path, at, key, section", [
    (TINY, ("arrival", "per_state", 0), "kind", "arrival.per_state[0]"),
    (TINY, ("arrival", "per_state", 0), "outcomes", "arrival.per_state[0]"),
    (TINY, ("arrival", "per_state", 0, "outcomes", 1), "prob",
     "arrival.per_state[0].outcomes[1]"),
    (TINY, ("arrival", "per_state", 0, "outcomes", 1), "vehicles",
     "arrival.per_state[0].outcomes[1]"),
    (BENCHMARK, ("arrival", "per_state", 0), "count", "arrival.per_state[0]"),
    (CONCAVE, ("penalty",), "values", "penalty"),
], ids=["kind", "outcomes", "prob", "vehicles", "count", "penalty-values"])
def test_a_missing_key_inside_a_law_names_its_place(tmp_path, capsys, doc_path, at,
                                                     key, section):
    with open(doc_path) as fh:
        doc = json.load(fh)
    inner = doc
    for step in at:
        inner = inner[step]
    del inner[key]
    scenario = tmp_path / "missing.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "s.json"
    assert main(["solve-exact", "--scenario", str(scenario), "--out", str(out)]) == 2
    assert f"scenario JSON missing key {key!r} in {section!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("doc_path, at, key, place", [
    (TINY, (), "intial", "document"),
    (BENCHMARK, ("grid",), "iid_unifrm", "grid"),
    (TINY, ("demand",), "sates", "demand"),
    (TINY, ("arrival",), "per_stage", "arrival"),
    (BENCHMARK, ("arrival", "per_state", 0), "outcomes", "arrival.per_state[0]"),
    (TINY, ("arrival", "per_state", 0), "count", "arrival.per_state[0]"),
    (TINY, ("arrival", "per_state", 0, "outcomes", 1), "probability",
     "arrival.per_state[0].outcomes[1]"),
    (CONCAVE, ("penalty",), "allow_non_convex", "penalty"),
], ids=["document", "grid", "demand", "arrival", "fixed-count-law", "tabulated-law",
        "outcome", "penalty"])
def test_an_unknown_key_is_refused_at_its_place(tmp_path, capsys, doc_path, at, key, place):
    # A misspelt optional key would otherwise be dropped in silence: "intial"
    # left both initial states unpinned, and "iid_unifrm" read as a grid
    # with no kernel.
    with open(doc_path) as fh:
        doc = json.load(fh)
    inner = doc
    for step in at:
        inner = inner[step]
    if key == "intial":
        inner[key] = inner.pop("initial")
    elif key == "iid_unifrm":
        inner[key] = inner.pop("iid_uniform")
    else:
        inner[key] = 1
    scenario = tmp_path / "unknown.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / "s.json"
    assert main(["verify-dominance", "--scenario", str(scenario), "--cases", "1",
                 "--seed", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"scenario JSON unknown key {key!r} in {place!r}" in err
    assert "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("command, work", [
    (["simulate", "--scenario", BENCHMARK, "--rates", "5", "--T", "5", "--n-traj", "2",
      "--seed", "1"], "chargesched.montecarlo.figure_experiment"),
    (["verify-dominance", "--scenario", BENCHMARK, "--cases", "2", "--seed", "1"],
     "chargesched.interchange.certify_dominance"),
    (["solve-exact", "--scenario", TINY], "chargesched.exactdp.enumerate_mdp"),
], ids=["simulate", "verify-dominance", "solve-exact"])
def test_an_out_in_a_missing_directory_exits_2_before_any_work(
        tmp_path, capsys, monkeypatch, command, work):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(work, refuse)
    out = tmp_path / "absent" / "out.json"
    assert main(command + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"no directory {out.parent}" in err and "Traceback" not in err
    assert not out.parent.exists() and list(tmp_path.iterdir()) == []


def test_solve_exact_multichain(tmp_path, capsys):
    code = main(["solve-exact", "--scenario", MULTICHAIN, "--max-iter", "2000",
                 "--out", str(tmp_path / "s.json")])
    assert code == 1
    assert "2 recurrent classes" in capsys.readouterr().err


def _near_multichain(tmp_path):
    # The multichain fixture with grid costs 1 and 1 + 10**-13: value
    # iteration converges at once, and only exact class gains differ.  The
    # scale 10**13 sends each class's equations to lifting.
    with open(MULTICHAIN) as fh:
        doc = json.load(fh)
    doc["grid"]["cost"] = [[1, "10000000000001/10000000000000"]]
    scenario = tmp_path / "near.json"
    scenario.write_text(json.dumps(doc))
    return str(scenario)


def test_solve_exact_refuses_classes_a_float_tolerance_cannot_tell_apart(tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["solve-exact", "--scenario", _near_multichain(tmp_path),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "constant-gain failure" in err
    assert "classes=2 gains=['1', '10000000000001/10000000000000']" in err
    assert not out.exists()


def test_solve_exact_reads_no_dense_limit(tmp_path, capsys, monkeypatch):
    # `solve-exact` lifts every set from its nonzeros and builds no dense
    # rows, so a dense limit of 8 bytes changes nothing: the run still ends
    # in the constant-gain failure, with both exact class gains.  Its
    # refusal of an instance too large to attempt, exit 2 with the reason,
    # is --ceiling (test_solve_exact_ceiling_exits_2).
    def built(*args):
        raise AssertionError("built a dense set")

    monkeypatch.setattr(linalg, "DENSE_LIMIT_BYTES", 8)
    monkeypatch.setattr(linalg, "dense", built)
    monkeypatch.setattr(linalg, "chain_ratios", built)
    out = tmp_path / "s.json"
    assert main(["solve-exact", "--scenario", _near_multichain(tmp_path),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "classes=2 gains=['1', '10000000000001/10000000000000']" in err
    assert not out.exists()


def test_solve_exact_reports_a_lift_that_does_not_converge(tmp_path, capsys, monkeypatch):
    # A factorisation of -m cannot contract: a failure, not a traceback.
    # Class 0 costs 1 and class 1 costs 1 + 10**-13; set 0 is lifted first.
    real = spla.splu
    monkeypatch.setattr(spla, "splu", lambda a: real(-a))
    out = tmp_path / "s.json"
    assert main(["solve-exact", "--scenario", _near_multichain(tmp_path),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "failure: set 0: one closed class, but dyadic lifting" in err
    assert not out.exists()
