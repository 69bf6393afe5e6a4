"""Exactness pins: digests of scalar-engine outputs recorded before the
scalar engine was optimized, so any speed-up that changes a certificate, a
stage cost or a trajectory total fails here."""

import hashlib
import json

import pytest

from chargesched.exactdp import TabularPolicy, enumerate_mdp, relative_value_iteration
from chargesched.interchange import certify_dominance
from chargesched.models import capacity_scenario, two_charger_scenario
from chargesched.montecarlo import run_trajectory
from chargesched.policies import make_policy


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


_CERTIFICATES = {
    ("linear", "edf"): ((0, 20, 2), "feb304c4c912981388f4cded911ab0102ff9418463ba84545a58d1ca45b90532"),
    ("linear", "llsp"): ((0, 20, 0), "afd44884b2887668a06de2645c6e7659560fea91bf434e69136e34711b4e61aa"),
    ("quadratic", "edf"): ((1, 19, 2), "5462e00645b86dcb7d532dc28c980f9b8c651f092048bbc327ae410259a964b5"),
    ("quadratic", "llsp"): ((0, 20, 0), "afd44884b2887668a06de2645c6e7659560fea91bf434e69136e34711b4e61aa"),
}


@pytest.mark.parametrize("penalty, policy", sorted(_CERTIFICATES))
def test_certificates_are_pinned(penalty, policy):
    sc = capacity_scenario(20, penalty)
    rep = certify_dominance(sc, make_policy(policy, sc), n_cases=20, seed=4)
    counts, digest = _CERTIFICATES[(penalty, policy)]
    assert (rep.strict, rep.equal, rep.g_empty_cases) == counts
    # The digests predate the report's penalty key, and pin everything else.
    doc = rep.to_json()
    assert doc.pop("penalty") == penalty
    assert _sha(json.dumps(doc, sort_keys=True)) == digest


@pytest.mark.parametrize("scenario, policy, total, digest", [
    (capacity_scenario(20, "quadratic"), "edf", 27,
     "aa1835f71dd66d119b972cf03239d050b5e395b926f11b3a69a3d36e464d6919"),
    (capacity_scenario(20, "quadratic"), "lllp", 0,
     "beb6e5a1dea09d9afc0adc16f9ef04130c5d16f1f393d38c1b824bc4818fe9e7"),
    # A small overloaded fleet: every stage has departures with unmet
    # requests and rejected arrivals.
    (capacity_scenario(30, "quadratic", num_chargers=60, capacity_range=(5, 20)), "edf",
     5041, "ac73fa5595f7f7f9e25593eea487a3a02d03c0627a0d8feee9c43371d4e62d24"),
    (capacity_scenario(30, "quadratic", num_chargers=60, capacity_range=(5, 20)), "llsp",
     3213, "21b01a0dbd4b9349f7575fd2d5b57addf4f1d0d881234ff98003789b3c40fdb4"),
    (capacity_scenario(30, "quadratic", num_chargers=60, capacity_range=(5, 20)), "lllp",
     3087, "458b85b7c92139976817b64b6b9dde20eaff7dc0d0b951ee22da451f29b876ac"),
], ids=["rate20-edf", "rate20-lllp", "overloaded-edf", "overloaded-llsp", "overloaded-lllp"])
def test_heuristic_trajectories_are_pinned(scenario, policy, total, digest):
    tr = run_trajectory(scenario, make_policy(policy, scenario), 60, seed=9, traj=2,
                        record_stages=True)
    assert tr.total_cost == total
    assert _sha(repr(tr)) == digest


def test_optimal_two_charger_trajectory_is_pinned():
    sc = two_charger_scenario()
    mdp = enumerate_mdp(sc)
    policy = TabularPolicy(mdp, relative_value_iteration(mdp).policy)
    tr = run_trajectory(sc, policy, 500, seed=9, traj=1, record_stages=True)
    assert tr.total_cost == 171
    assert _sha(repr(tr)) == "8c139c4af1ca22ffea8782e93b14e0f71cb0b879764751540adc9f0ed409a714"
