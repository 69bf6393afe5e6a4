"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line per criterion (run with ``pytest -s`` to
watch them live).  The expensive Monte Carlo comparison is computed once per
session and shared by the ordering and band criteria.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from chargesched import exactdp
from chargesched.core import PenaltyFunction, VehicleState
from chargesched.interchange import (certify_dominance,
                                     search_two_vehicle_counterexamples)
from chargesched.models import capacity_scenario, two_charger_scenario
from chargesched.montecarlo import figure_experiment, run_trajectory
from chargesched.policies import HeuristicPolicy, check_lllp_compliance, make_policy

pytestmark = pytest.mark.acceptance

SEED = 20260808
ORDER_RATES = (5, 10, 15, 20, 25, 30)
QUAD_BAND_RATES = (30, 31, 32)


def _report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")


# ---------------------------------------------------------------------------
# Criterion: interchange dominance certificate
# ---------------------------------------------------------------------------

def test_dominance_certificate():
    t0 = time.time()
    failures = []
    details = []
    for penalty in ("linear", "quadratic"):
        scenario = capacity_scenario(20, penalty)
        for name in ("edf", "llsp"):
            rep = certify_dominance(scenario, make_policy(name, scenario),
                                    n_cases=1000, seed=SEED)
            details.append(f"{name}/{penalty}: strict={rep.strict} "
                           f"equal={rep.equal} g_empty={rep.g_empty_cases}")
            if not rep.ok:
                failures.append((name, penalty, rep.counterexamples[:1]))
            assert rep.strict + rep.equal == 1000
            assert rep.shortfall_identity_failures == 0
            assert rep.equality_failures == 0
    ok = not failures
    _report("dominance-certificate", ok,
            f"({time.time() - t0:.0f}s) " + "; ".join(details))
    assert ok, failures


# ---------------------------------------------------------------------------
# Criterion: negative control under a non-convex penalty
# ---------------------------------------------------------------------------

def test_negative_control_nonconvex_penalty():
    t0 = time.time()
    concave = PenaltyFunction(
        [Fraction(0), Fraction(2), Fraction(3), Fraction(7, 2),
         Fraction(15, 4), Fraction(31, 8), Fraction(63, 16),
         Fraction(127, 32), Fraction(255, 64), Fraction(511, 128),
         Fraction(1023, 256)],
        require_convex=False)
    hits = search_two_vehicle_counterexamples(concave, 10_000, seed=SEED)
    ok = len(hits) >= 1
    detail = ""
    if ok:
        h = hits[0]
        detail = (f"({time.time() - t0:.1f}s) strict counterexample at case "
                  f"{h['case']}: base {h['base_total']} < swapped {h['swapped_total']}")
        assert Fraction(h["swapped_total"]) > Fraction(h["base_total"])
    _report("negative-control", ok, detail)
    assert ok


# ---------------------------------------------------------------------------
# Criteria: policy ordering and quantitative bands (shared experiment)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def figure_tables():
    tables = {}
    t0 = time.time()
    tables["linear"] = figure_experiment("linear", ORDER_RATES, stages=200,
                                         n_traj=10_000, seed=SEED)
    quad_rates = tuple(sorted(set(ORDER_RATES) | set(QUAD_BAND_RATES)))
    tables["quadratic"] = figure_experiment("quadratic", quad_rates, stages=200,
                                            n_traj=10_000, seed=SEED)
    tables["elapsed"] = time.time() - t0
    return tables


def test_policy_ordering(figure_tables):
    problems = []
    for penalty in ("linear", "quadratic"):
        table = figure_tables[penalty]
        for rate in ORDER_RATES:
            for better, worse in (("llsp", "edf"), ("lllp", "llsp")):
                gap, se = table.paired_gap(better, worse, rate)
                if gap == 0:
                    continue  # identical costs on every paired trajectory
                if not (gap > 0 and gap > 2 * se):
                    problems.append(
                        f"{penalty} rate {rate}: mean({worse})-mean({better}) "
                        f"= {gap:.5g} (2se = {2 * se:.5g})")
    # shared seeds across rates: heavier load can never lower the mean cost
    for penalty in ("linear", "quadratic"):
        table = figure_tables[penalty]
        for pol in ("edf", "llsp", "lllp"):
            means = [table.mean(pol, r) for r in ORDER_RATES]
            if not all(a <= b + 1e-12 for a, b in zip(means, means[1:])):
                problems.append(f"{penalty}/{pol}: cost not monotone in rate")
    ok = not problems
    _report("policy-ordering", ok,
            f"(experiment {figure_tables['elapsed']:.0f}s) "
            + ("all nonzero gaps positive and > 2 paired SE" if ok
               else "; ".join(problems)))
    assert ok, problems


def _resolvable(cell_mean: float, cell_se: float) -> bool:
    """A cell carries band information only if its cost is resolved from
    Monte Carlo noise (20 standard errors above zero)."""
    return cell_mean > 0 and cell_mean > 20 * cell_se


def test_quantitative_bands(figure_tables):
    problems = []
    checked = []
    # Linear penalty, rates below 30: reduction within 15-35% +/- 10pp.
    lin = figure_tables["linear"]
    for rate in [r for r in ORDER_RATES if r < 30]:
        llsp = lin.cells[("llsp", rate)]
        if not _resolvable(llsp.mean, llsp.stderr):
            continue
        reduction = (llsp.mean - lin.mean("lllp", rate)) / llsp.mean
        checked.append(f"linear@{rate}: {reduction:.1%}")
        if not 0.05 <= reduction <= 0.45:
            problems.append(f"linear rate {rate}: reduction {reduction:.1%} "
                            "outside [5%, 45%]")
    # Quadratic penalty, rates 30..32: reduction at least 15% - 5pp.
    quad = figure_tables["quadratic"]
    for rate in QUAD_BAND_RATES:
        llsp = quad.cells[("llsp", rate)]
        reduction = (llsp.mean - quad.mean("lllp", rate)) / llsp.mean
        checked.append(f"quadratic@{rate}: {reduction:.1%}")
        if reduction < 0.10:
            problems.append(f"quadratic rate {rate}: reduction {reduction:.1%} "
                            "below 10%")
    ok = not problems and checked
    _report("quantitative-bands", bool(ok), "; ".join(checked) or "no resolvable cells")
    assert not problems, problems
    assert checked, "no cell was resolvable enough to carry band information"


# ---------------------------------------------------------------------------
# Criterion: exact DP on the tiny instance
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_dp():
    scenario = two_charger_scenario()
    mdp = exactdp.enumerate_mdp(scenario)
    solution = exactdp.relative_value_iteration(mdp)
    return scenario, mdp, solution


def test_exact_dp(tiny_dp):
    t0 = time.time()
    scenario, mdp, sol = tiny_dp
    law = scenario.demand.arrivals[0]
    assert law.zero_arrival_probability() >= Fraction(1, 2)
    residual_ok = sol.residual <= 1e-10
    findings = exactdp.verify_constant_gain(mdp, sol, tol=1e-10)
    exact_gain = exactdp.exact_policy_gain(mdp, sol.policy)
    bf = exactdp.brute_force_optimal_gain(mdp)
    proj = exactdp.lllp_projection(mdp, sol)
    proj_gain = exactdp.exact_policy_gain(mdp, proj.policy)
    proj_clean = exactdp.compliance_violations(mdp, proj.policy) == 0
    ok = (residual_ok and findings.ok and bf.gain == exact_gain
          and proj_clean and proj_gain == exact_gain)
    _report("exact-dp", ok,
            f"({time.time() - t0:.0f}s) residual={sol.residual:.2e}, "
            f"gain={exact_gain} over {bf.n_policies} policies, "
            f"classes={findings.n_recurrent_classes}, swaps={proj.swaps}")
    assert residual_ok
    assert findings.ok
    assert bf.gain == exact_gain
    assert proj_clean and proj_gain == exact_gain


def test_dp_simulation_consistency(tiny_dp):
    t0 = time.time()
    scenario, mdp, sol = tiny_dp
    policy = exactdp.TabularPolicy(mdp, sol.policy)
    tr = run_trajectory(scenario, policy, stages=1_000_000, seed=SEED,
                        warmup=1000, record_stages=False)
    rel = abs(tr.time_average - sol.gain) / sol.gain
    ok = rel <= 0.02
    _report("dp-simulation-consistency", ok,
            f"({time.time() - t0:.0f}s) simulated {tr.time_average:.6f} "
            f"vs gain {sol.gain:.6f} ({rel:.2%})")
    assert ok


# ---------------------------------------------------------------------------
# Criterion: property suites
# ---------------------------------------------------------------------------

def test_property_partial_order_exhaustive():
    B = E = 10
    stays, needs = [], []
    for stay in range(1, B + 1):
        for need in range(E + 1):
            stays.append(stay)
            needs.append(need)
    stays = np.array(stays)
    needs = np.array(needs)
    theta = np.where(needs > 0, stays - needs, B)
    ti, tj = theta[:, None], theta[None, :]
    gi, gj = needs[:, None], needs[None, :]
    equal_key = (ti == tj) & (gi == gj)
    above = (ti >= tj) & (gi <= gj) & ~equal_key
    antisymmetric = not (above & above.T).any()
    irreflexive = not above.diagonal().any()
    composed = (above.astype(np.int64) @ above.astype(np.int64)) > 0
    transitive = not (composed & ~above & ~equal_key).any()
    ok = antisymmetric and irreflexive and transitive
    _report("property-partial-order", ok,
            f"{len(stays)}^2 pairs, {len(stays)}^3 compositions, exact")
    assert ok


def test_property_lllp_compliance_randomized():
    rng = np.random.default_rng(SEED)
    checked = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 16))
        vehicles = []
        for _ in range(n):
            if rng.random() < 0.25:
                vehicles.append(VehicleState(0, 0))
            else:
                vehicles.append(VehicleState(int(rng.integers(1, 11)),
                                             int(rng.integers(0, 11))))
        from chargesched.core import SystemState
        state = SystemState(tuple(vehicles), 0, 0)
        m = int(rng.integers(0, n + 1))
        action = HeuristicPolicy("lllp", (m,)).decide(state)
        assert check_lllp_compliance(state, action) is None
        checked += 1
    _report("property-lllp-compliance", True, f">= {checked} random states, exact")


def test_property_coupling_soundness():
    from chargesched import streams
    from chargesched.core import ActionVector
    from chargesched.interchange import coupled_rollout
    from chargesched.models import (DemandModel, ScenarioModel,
                                    TabulatedArrivals, draw_initial)

    base = capacity_scenario(0, num_chargers=30, capacity_range=(3, 9))
    demand = DemandModel(
        kernel=((Fraction(1),),),
        arrivals=(TabulatedArrivals(((Fraction(1), (VehicleState(2, 2),) * 3),)),))
    scenario = ScenarioModel(name="coupling", num_chargers=30, max_stay=10,
                             max_units=10, grid=base.grid, demand=demand,
                             penalty=base.penalty)

    class ChargeEnds:
        name = "ends"

        def __init__(self, from_front):
            self.from_front = from_front

        def decide(self, state, stage):
            k = min(stage, 3)
            idxs = state.unfinished
            chosen = (idxs[:k] if self.from_front else idxs[-k:]) if k else []
            bits = [0] * len(state.vehicles)
            for i in chosen:
                bits[i] = 1
            return ActionVector(tuple(bits))

    front, back = ChargeEnds(True), ChargeEnds(False)
    t0 = time.time()
    for seed in range(1000):
        state = draw_initial(scenario, streams.philox_key(seed), 0)
        # raises AggregateMismatchError if the coupled exogenous paths diverge
        roll = coupled_rollout(scenario, front, back, state, 12, seed=seed)
        assert roll.aggregates == tuple(min(t, 3) for t in range(13))
    _report("property-coupling", True,
            f"({time.time() - t0:.0f}s) 1000 paired rollouts, "
            "equal aggregates -> identical exogenous paths, exact")
