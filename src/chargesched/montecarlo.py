"""Trajectory simulation and policy comparison.

Two engines produce bit-identical results:

* a scalar reference engine (`run_trajectory`) that walks one trajectory with
  exact rational stage costs, used by the dominance certifier, the DP
  consistency check, and anywhere clarity beats speed;
* a vectorized engine that advances all Monte Carlo trajectories of a cell in
  lock step, each held as counts of vehicles per (stay, need) type, used by
  `monte_carlo` / `figure_experiment` at benchmark scale.  The heuristics,
  the costs and admission depend only on those counts, so the lumping is
  exact; costs are summed as integers in units of 1/L, L the least common
  denominator of the cost tables, which makes every per-trajectory average
  equal to the scalar engine's for any rational table.

Randomness is addressed by (seed, trajectory, stage, source), so runs couple
across policies and arrival rates, and results do not depend on execution
order or thread count.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import streams
from .core import ActionVector, SystemState, settle_stage
from .models import (CapacityCost, FixedCountArrivals, QuadraticLoadCost,
                     ScenarioModel, TabulatedArrivals, TableCost, admit,
                     capacity_scenario, draw_initial, sample_grid,
                     sample_demand, with_arrival_rate)
from .policies import HeuristicPolicy, make_policy


# ---------------------------------------------------------------------------
# Scalar engine
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StageBill:
    charging: Fraction
    penalty: Fraction
    aggregate: int
    rejected: int


def advance_stage(scenario: ScenarioModel, state: SystemState, action: ActionVector,
                  stage: int, key, traj: int) -> tuple[SystemState, StageBill]:
    """One stage-boundary step: pay the stage cost, process departures, then
    admit the next stage's arrivals and move the grid/demand chains."""
    charging, pen, vehicles = settle_stage(state, action, scenario.grid.cost,
                                           scenario.penalty)
    d_next, arrivals = sample_demand(scenario.demand, state.demand, key, traj,
                                     stage, scenario.max_stay)
    vehicles, rejected = admit(vehicles, arrivals)
    s_next = sample_grid(scenario.grid, state.grid, action.aggregate, key, traj, stage)
    return (SystemState(vehicles, s_next, d_next),
            StageBill(charging, pen, action.aggregate, rejected))


@dataclass(frozen=True)
class TrajectoryResult:
    total_cost: Fraction
    stages: int
    time_average: float          # warm-up excluded
    time_average_raw: float      # total / stages
    warmup: int
    charging_total: Fraction
    penalty_total: Fraction
    rejected_arrivals: int
    stage_charging: tuple[Fraction, ...] | None
    stage_penalty: tuple[Fraction, ...] | None


def run_trajectory(scenario: ScenarioModel, policy, stages: int, seed: int,
                   traj: int = 0, warmup: int = 20,
                   record_stages: bool = True) -> TrajectoryResult:
    """Simulate one trajectory from the all-empty state.  Deterministic in
    (scenario, policy, stages, seed, traj)."""
    if stages < 1:
        raise ValueError("need at least one stage")
    if warmup < 0:
        raise ValueError("warm-up must be >= 0")
    warmup = min(warmup, stages - 1)
    key = streams.philox_key(seed)
    state = draw_initial(scenario, key, traj)
    charging = Fraction(0)
    penalty = Fraction(0)
    head = Fraction(0)           # cost of the warm-up stages
    rejected = 0
    per_c: list[Fraction] = []
    per_p: list[Fraction] = []
    for t in range(stages):
        if t == warmup:
            head = charging + penalty
        action = policy.decide(state, t)
        state, bill = advance_stage(scenario, state, action, t, key, traj)
        charging += bill.charging
        penalty += bill.penalty
        rejected += bill.rejected
        if record_stages:
            per_c.append(bill.charging)
            per_p.append(bill.penalty)
    total = charging + penalty
    tail = total - head
    return TrajectoryResult(
        total_cost=total, stages=stages,
        time_average=float(tail) / (stages - warmup),
        time_average_raw=float(total) / stages,
        warmup=warmup, charging_total=charging, penalty_total=penalty,
        rejected_arrivals=rejected,
        stage_charging=tuple(per_c) if record_stages else None,
        stage_penalty=tuple(per_p) if record_stages else None)


# ---------------------------------------------------------------------------
# Vectorized engine
# ---------------------------------------------------------------------------

_FLOAT_EXACT = 2 ** 53      # integers up to this convert to float64 exactly


def _cost_unit(scenario: ScenarioModel, stages: int) -> int | None:
    """The smallest L that makes every stage cost a whole number of 1/L
    units, or None when a total over `stages` stages might reach 2**53 units
    (or L itself might), past which the int64 sums stop converting to float
    exactly."""
    cost = scenario.grid.cost
    if isinstance(cost, CapacityCost):
        charges = (cost.ceiling,)
    elif isinstance(cost, QuadraticLoadCost):
        worst_load = scenario.num_chargers + max(map(abs, cost.base_loads))
        charges = (Fraction(worst_load ** 2),)
    elif isinstance(cost, TableCost):
        charges = tuple(c for row in cost.table for c in row)
    else:
        return None
    q = scenario.penalty.values
    unit = math.lcm(*(v.denominator for v in charges + q))
    worst = stages * (max(map(abs, charges), default=0)
                      + scenario.num_chargers * max(map(abs, q)))
    if unit >= _FLOAT_EXACT or worst * unit >= _FLOAT_EXACT:
        return None
    return unit


def _batch_supported(scenario: ScenarioModel, policy, stages: int) -> bool:
    """Whether the type-count engine reproduces `run_trajectory` exactly."""
    if not (isinstance(policy, HeuristicPolicy)
            and getattr(policy.budget, "budget_kind", None) == "capacity"):
        return False
    B, E = scenario.max_stay, scenario.max_units
    # Two chargeable types tied on the key would be split by charger index.
    keys = {policy.sort_key(s, g) for s in range(1, B + 1) for g in range(1, E + 1)}
    if (len(keys) < B * E or scenario.num_chargers >= 2 ** 15
            or min(scenario.grid.values) < 0 or _cost_unit(scenario, stages) is None):
        return False
    # ScenarioModel has checked that every arrival is a type (stay 1..B,
    # need 0..E).
    for law in scenario.demand.arrivals:
        if isinstance(law, FixedCountArrivals):
            if law.count > streams.MAX_ARRIVALS_PER_STAGE:
                return False
        elif not isinstance(law, TabulatedArrivals):
            return False
    return True


class _TypeCounts:
    """All trajectories of one Monte Carlo cell, advanced in lock step.

    The state is a count of vehicles per (stay, need) type and trajectory,
    `counts[stay - 1, need, traj]`.  The heuristics rank vehicles by type and
    break ties by charger index, and costs and admission see only how many
    vehicles of each type are present, so which charger holds a vehicle never
    changes a cost: charging the first m vehicles in priority order charges
    the types in key order, the last one partly.  Costs are summed as int64
    multiples of 1/unit.
    """

    def __init__(self, scenario: ScenarioModel, policy: HeuristicPolicy,
                 n_traj: int, seed: int, unit: int):
        sc = self.sc = scenario
        self.n = n_traj
        self.key = streams.philox_key(seed)
        B, E, N = sc.max_stay, sc.max_units, sc.num_chargers
        self.B, self.width = B, E + 1
        self.counts = np.zeros((B, E + 1, n_traj), dtype=np.int16)
        # Work buffers; `charged` rows of need 0 stay zero.
        self.charged = np.zeros((B * (E + 1), n_traj), dtype=np.int16)
        self.after = np.empty_like(self.charged)
        ranked = sorted(((s, g) for s in range(1, B + 1) for g in range(1, E + 1)),
                        key=lambda sg: policy.sort_key(*sg))
        self.order = np.array([(s - 1) * (E + 1) + g for s, g in ranked])
        self.values = np.minimum(sc.grid.values, N).astype(np.int16)
        self.q = np.array([int(v * unit) for v in sc.penalty.values], dtype=np.int64)
        self.charge_cost = self._charge_cost_table(sc.grid.cost, N, unit)
        self.total = np.zeros(n_traj, dtype=np.int64)
        self.rejected = np.zeros(n_traj, dtype=np.int64)
        self.traj = np.arange(n_traj)
        self.laws = [self._law_table(law) for law in sc.demand.arrivals]
        self.batch_width = max(law if isinstance(law, int) else law[0].shape[1]
                               for law in self.laws)
        self._init_exogenous()

    @staticmethod
    def _charge_cost_table(cost, n_chargers: int, unit: int) -> np.ndarray:
        """Charging cost in units, indexed [aggregate, grid state]."""
        a = np.arange(n_chargers + 1)[:, None]
        if isinstance(cost, CapacityCost):
            return np.where(a <= np.asarray(cost.capacities), 0, int(cost.ceiling * unit))
        if isinstance(cost, QuadraticLoadCost):
            return (a + np.asarray(cost.base_loads)) ** 2 * unit
        return np.array([[int(c * unit) for c in row] for row in cost.table], dtype=np.int64)

    def _law_table(self, law):
        """A fixed count, or (type rows per outcome, batch sizes, cdf)."""
        if isinstance(law, FixedCountArrivals):
            return law.count
        sizes = np.array([len(vs) for _, vs in law.outcomes])
        types = np.zeros((len(sizes), max(sizes.max(initial=0), 1)), dtype=np.int64)
        for o, (_, vs) in enumerate(law.outcomes):
            types[o, :len(vs)] = [(v.stay - 1) * self.width + v.need for v in vs]
        return types, sizes, np.array(law.cdf)

    def _init_exogenous(self):
        sc, n = self.sc, self.n
        if sc.initial_grid is not None:
            self.s_idx = np.full(n, sc.initial_grid, dtype=np.int64)
        else:
            u = streams.uniforms_batch(self.key, n, 0, streams.INIT_GRID, 1)[:, 0]
            if sc.grid.iid_uniform:
                self.s_idx = (u * sc.grid.state_count).astype(np.int64)
            else:
                self.s_idx = _inverse_cdf(np.array(sc.grid.initial_cdf), u)
        if sc.initial_demand is not None:
            self.d_idx = np.full(n, sc.initial_demand, dtype=np.int64)
        else:
            u = streams.uniforms_batch(self.key, n, 0, streams.INIT_DEMAND, 1)[:, 0]
            self.d_idx = _inverse_cdf(np.array(sc.demand.initial_cdf), u)
        if sc.demand.state_count > 1:
            self.demand_cdf = np.array(sc.demand.kernel_cdf)

    def step(self, t: int):
        flat = self.counts.reshape(-1, self.n)
        # Decide: charge the first m chargeable vehicles in priority order;
        # when m covers them all, there is nothing to rank.
        ranked = flat[self.order]
        unfinished = ranked.sum(0, dtype=np.int16)
        aggregate = np.minimum(self.values[self.s_idx], unfinished)
        if (aggregate < unfinished).any():
            ranked = np.minimum(ranked.cumsum(0, dtype=np.int16), aggregate)
            ranked[1:] -= ranked[:-1]
        charged = self.charged
        charged[self.order] = ranked
        # A charged vehicle moves to the next lower need of its stay.
        after = np.subtract(flat, charged, out=self.after)
        after[:-1] += charged[1:]
        after = after.reshape(self.counts.shape)
        # Stage cost: charging plus the shortfall of the stay-1 vehicles.
        self.total += self.charge_cost[aggregate, self.s_idx] + self.q @ after[0]
        # Vehicle step: every stay drops by one and stay-1 vehicles depart.
        self.counts[:-1] = after[1:]
        self.counts[-1] = 0
        self._admit(t)
        if self.sc.demand.state_count > 1:
            u = streams.uniforms_batch(self.key, self.n, t, streams.DEMAND, 1)[:, 0]
            self.d_idx = _inverse_cdf(self.demand_cdf[self.d_idx], u)
        u = streams.uniforms_batch(self.key, self.n, t, streams.GRID, 1)[:, 0]
        if self.sc.grid.iid_uniform:
            self.s_idx = (u * self.sc.grid.state_count).astype(np.int64)
        else:
            self.s_idx = _inverse_cdf(self.sc.grid._cdf[self.s_idx, aggregate], u)

    def _arrivals(self, law, t: int):
        """Type rows of each trajectory's arrival batch, in arrival order,
        and the batch sizes; None when the law never brings a vehicle."""
        if isinstance(law, int):
            if law == 0:
                return None
            u_stay = streams.uniforms_batch(self.key, self.n, t, streams.STAY, law)
            u_req = streams.uniforms_batch(self.key, self.n, t, streams.REQUEST, law)
            stays = (u_stay * self.B).astype(np.int64) + 1
            reqs = (u_req * stays).astype(np.int64) + 1
            return (stays - 1) * self.width + reqs, np.full(self.n, law)
        types, sizes, cdf = law
        if sizes.max(initial=0) == 0:
            return None
        u = streams.uniforms_batch(self.key, self.n, t, streams.OUTCOME, 1)[:, 0]
        outcome = _inverse_cdf(cdf, u)
        return types[outcome], sizes[outcome]

    def _admit(self, t: int):
        """Add the first min(batch size, free chargers) arrivals of every
        trajectory; arrivals come from the law of its current demand state."""
        if len(self.laws) == 1:
            batch = self._arrivals(self.laws[0], t)
            if batch is None:
                return
            types, want = batch
        else:
            types = np.zeros((self.n, self.batch_width), dtype=np.int64)
            want = np.zeros(self.n, dtype=np.int64)
            for d, law in enumerate(self.laws):
                rows = np.flatnonzero(self.d_idx == d)
                batch = self._arrivals(law, t) if rows.size else None
                if batch is not None:
                    types[rows, :batch[0].shape[1]] = batch[0][rows]
                    want[rows] = batch[1][rows]
        flat = self.counts.reshape(-1, self.n)
        placed = np.minimum(want, self.sc.num_chargers - flat.sum(0, dtype=np.int16))
        self.rejected += want - placed
        slots = np.arange(types.shape[1]) < placed[:, None]
        cells = types * self.n + self.traj[:, None]
        flat += np.bincount(cells[slots], minlength=flat.size
                            ).reshape(flat.shape).astype(np.int16)


def _inverse_cdf(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise `sample_index`: the first index whose cdf entry exceeds u."""
    return np.minimum((cdf <= u[:, None]).sum(-1), cdf.shape[-1] - 1)


@dataclass(frozen=True)
class MonteCarloResult:
    mean: float
    stderr: float
    per_traj: np.ndarray          # warm-up-excluded per-trajectory averages
    mean_raw: float
    n_traj: int
    stages: int
    warmup: int
    seed: int
    rejected_mean: float
    engine: str                   # "batch" (type counts) or "scalar" (run_trajectory)


def _batch_averages(scenario, policy, stages, n_traj, seed, warmup):
    """Per-trajectory warm-up-excluded and raw averages, and rejections.
    Both sums are below 2**53 units (`_cost_unit`), so each average equals
    the scalar engine's float(Fraction) / stages bit for bit."""
    unit = _cost_unit(scenario, stages)
    bs = _TypeCounts(scenario, policy, n_traj, seed, unit)
    head = bs.total.copy()
    for t in range(stages):
        if t == warmup:
            head = bs.total.copy()
        bs.step(t)
    return ((bs.total - head) / unit / (stages - warmup),
            bs.total / unit / stages, bs.rejected)


def monte_carlo(scenario: ScenarioModel, policy, stages: int, n_traj: int,
                base_seed: int, warmup: int = 20) -> MonteCarloResult:
    """Mean and standard error of warm-up-excluded time-averaged cost over
    n_traj independent trajectories; trajectory i draws from substreams
    addressed by (base_seed, i).

    Both engines give the same numbers; ``engine`` on the result says which
    one ran.  The type-count engine needs a `HeuristicPolicy` whose budget
    carries ``budget_kind = "capacity"`` (see `_batch_supported`); anything
    else runs `run_trajectory` once per trajectory, which at benchmark scale
    is orders of magnitude slower."""
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    if stages < 1:
        raise ValueError("need at least one stage")
    if warmup < 0:
        raise ValueError("warm-up must be >= 0")
    warmup = min(warmup, stages - 1)
    engine = "batch" if _batch_supported(scenario, policy, stages) else "scalar"
    if engine == "batch":
        per, raw, rej = _batch_averages(scenario, policy, stages, n_traj,
                                        base_seed, warmup)
    else:
        per, raw, rej = np.empty(n_traj), np.empty(n_traj), np.empty(n_traj)
        for i in range(n_traj):
            tr = run_trajectory(scenario, policy, stages, base_seed, traj=i,
                                warmup=warmup, record_stages=False)
            per[i], raw[i], rej[i] = (tr.time_average, tr.time_average_raw,
                                      tr.rejected_arrivals)
    stderr = float(per.std(ddof=1) / np.sqrt(n_traj)) if n_traj > 1 else 0.0
    return MonteCarloResult(mean=float(per.mean()), stderr=stderr, per_traj=per,
                            mean_raw=float(raw.mean()), n_traj=n_traj,
                            stages=stages, warmup=warmup, seed=base_seed,
                            rejected_mean=float(rej.mean()), engine=engine)


# ---------------------------------------------------------------------------
# Comparison experiments
# ---------------------------------------------------------------------------

CSV_COLUMNS = ("policy", "penalty", "arrival_rate", "T", "n_traj",
               "mean_cost", "stderr", "seed")


@dataclass
class ComparisonTable:
    """Per (policy, arrival rate, penalty) cell statistics with shared seeds
    across policies, so gaps can be judged on paired trajectories."""
    penalty: str
    stages: int
    n_traj: int
    seed: int
    policies: tuple[str, ...]
    rates: tuple[int, ...]
    cells: dict = field(default_factory=dict)   # (policy, rate) -> MonteCarloResult

    def mean(self, policy: str, rate: int) -> float:
        return self.cells[(policy, rate)].mean

    def paired_gap(self, better: str, worse: str, rate: int) -> tuple[float, float]:
        """Mean and standard error of per-trajectory (worse - better) cost."""
        diffs = (self.cells[(worse, rate)].per_traj
                 - self.cells[(better, rate)].per_traj)
        se = float(diffs.std(ddof=1) / np.sqrt(len(diffs))) if len(diffs) > 1 else 0.0
        return float(diffs.mean()), se

    def paired_dominance_fraction(self, better: str, worse: str, rate: int) -> float:
        diffs = (self.cells[(worse, rate)].per_traj
                 - self.cells[(better, rate)].per_traj)
        return float((diffs >= 0).mean())

    def rows(self) -> list[dict]:
        out = []
        for policy in self.policies:
            for rate in self.rates:
                cell = self.cells[(policy, rate)]
                out.append({
                    "policy": policy, "penalty": self.penalty,
                    "arrival_rate": rate, "T": self.stages,
                    "n_traj": self.n_traj,
                    "mean_cost": f"{cell.mean:.12g}",
                    "stderr": f"{cell.stderr:.12g}",
                    "seed": self.seed,
                })
        return out

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            writer.writerows(self.rows())


def figure_experiment(penalty: str, rates: Sequence[int], stages: int,
                      n_traj: int, seed: int,
                      policies: Sequence[str] = ("edf", "llsp", "lllp"),
                      base_scenario: ScenarioModel | None = None,
                      warmup: int = 20, threads: int | None = None) -> ComparisonTable:
    """Paired-seed comparison of the heuristics over an arrival-rate grid."""
    rates = tuple(int(r) for r in rates)
    if any(r < 0 for r in rates):
        raise ValueError("arrival rates must be non-negative")
    table = ComparisonTable(penalty=penalty, stages=stages, n_traj=n_traj,
                            seed=seed, policies=tuple(policies), rates=rates)

    def cell(policy_name: str, rate: int):
        if base_scenario is None:
            sc = capacity_scenario(rate, penalty)
        else:
            sc = with_arrival_rate(base_scenario, rate)
        pol = make_policy(policy_name, sc)
        return (policy_name, rate), monte_carlo(sc, pol, stages, n_traj, seed,
                                                warmup=warmup)

    jobs = [(p, r) for p in table.policies for r in rates]
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            for key, res in ex.map(lambda pr: cell(*pr), jobs):
                table.cells[key] = res
    else:
        for p, r in jobs:
            key, res = cell(p, r)
            table.cells[key] = res
    return table
