"""Deadline-constrained charging scheduling under stochastic cost.

A discrete-time fleet of chargers serves vehicles that each arrive with a
deadline and a charge request; the per-stage cost of charging depends on a
finite-state grid process, and unmet requests are penalized at departure.
The package provides:

* exact state arithmetic and the less-laxity / longer-remaining-work priority
  order (`core`);
* stochastic scenario models with reproducible, couplable random substreams
  (`models`, `streams`);
* the EDF / LLSP / LLLP ranking heuristics (`policies`);
* interchange policies that provably never cost more than the policy they
  wrap, with a sample-path dominance certifier (`interchange`);
* exact average-cost dynamic programming on enumerable instances, including
  brute-force cross-checks and a priority-compliant projection of optimal
  policies (`exactdp`);
* Monte Carlo comparison experiments (`montecarlo`) and a CLI (`cli`).
"""

from .core import (ActionVector, EMPTY, InfeasibleActionError, PenaltyFunction,
                   SystemState, VehicleState, laxity, outranks, stage_cost,
                   step_vehicles)
from .models import (CapacityCost, DemandModel, FixedCountArrivals, GridModel,
                     QuadraticLoadCost, ScenarioModel, TableCost,
                     TabulatedArrivals, admit, capacity_scenario, load_scenario,
                     multichain_fixture, sample_demand, sample_grid,
                     save_scenario, two_charger_scenario, with_arrival_rate,
                     with_penalty)
from .policies import check_lllp_compliance, make_policy
from .montecarlo import (ComparisonTable, MonteCarloResult, TrajectoryResult,
                         figure_experiment, monte_carlo, run_trajectory)
from .interchange import (CoupledRollout, DominanceReport, InterchangeWindow,
                          ScriptedPolicy, ShortfallPair, certify_dominance,
                          coupled_rollout, find_violation, pure_penalty_scenario,
                          search_two_vehicle_counterexamples, wrap_interchange)
from .exactdp import (DPSolution, EnumeratedMDP, TabularPolicy,
                      brute_force_optimal_gain, enumerate_mdp, exact_policy_gain,
                      lllp_projection, relative_value_iteration,
                      verify_constant_gain)

__version__ = "0.1.0"
