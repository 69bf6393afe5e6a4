"""Trajectory simulation and policy comparison.

Two engines produce bit-identical results:

* a scalar reference engine (`run_trajectory`) that walks one trajectory
  state by state, used by the dominance certifier, the DP consistency check,
  and anywhere clarity beats speed;
* a vectorized engine that advances the Monte Carlo trajectories of a cell in
  lock step, in blocks of at most `TRAJ_BLOCK`, each held as counts of
  vehicles per (stay, need) type, used by `monte_carlo` / `figure_experiment`
  at benchmark scale.  The heuristics, the costs and admission depend only on
  those counts, so the lumping is exact.  A stage is a few whole-block numpy
  passes: a log-step prefix scan over the ranked types splits the charge, a
  fixed shift steps the vehicles, and a scatter-add admits the arrivals.

Both sum stage costs as integers in units of 1/L, L chosen only in
`ScenarioModel.prices`, and divide once at the end: its penalty table ``q``
goes to the vectorized sum, its ``steps`` tables to `core.settle_stage`, and
its charging costs are read per stage or as one [aggregate, grid state]
table, for any cost form.  The scalar engine sums in Python ints, which never
wrap, and the vectorized one in int64 where `_batch_supported` shows the
totals stay below 2**53.  So every per-trajectory average is the same exact
rational in both.

Randomness is addressed by (seed, trajectory, stage, source), so runs couple
across policies and arrival rates, and results do not depend on execution
order, thread count or block size.  Both engines draw their initial states
through `models.initial_states`, the scalar one a row at a time.
`run_trajectory` knows its horizon, so it opens a `streams.stage_window` and
takes its per-stage draws from vectorized stage blocks.
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from . import streams
from .core import ActionVector, SystemState, settle_stage
from .models import (FixedCountArrivals, ScenarioModel, admit, arrival_cells,
                     capacity_scenario, draw_initial, initial_states, penalty_kind,
                     sample_grid, sample_demand, sample_indices, with_arrival_rate)
from .policies import HeuristicPolicy, make_policy, type_ranks


# ---------------------------------------------------------------------------
# Scalar engine
# ---------------------------------------------------------------------------

class StageBill(NamedTuple):
    """One stage's costs in integer units of 1/L (`ScenarioModel.prices`)."""
    charging: int
    penalty: int
    rejected: int


def advance_stage(scenario: ScenarioModel, state: SystemState, action: ActionVector,
                  stage: int, key, traj: int) -> tuple[SystemState, StageBill]:
    """One stage-boundary step: pay the stage cost, process departures, then
    admit the next stage's arrivals and move the grid/demand chains.  The
    next state inherits its occupied chargers: those kept plus those filled."""
    prices = scenario.prices
    shortfall, vehicles, kept = settle_stage(state, action, prices.steps)
    charging = prices[action.aggregate, state.grid]
    d_next, arrivals = sample_demand(scenario.demand, state.demand, key, traj,
                                     stage, scenario.max_stay)
    filled = admit(vehicles, arrivals)
    s_next = sample_grid(scenario.grid, state.grid, action.aggregate, key, traj, stage)
    occupied = tuple(sorted(kept + filled) if filled else kept)
    return (SystemState.successor(tuple(vehicles), s_next, d_next, occupied),
            StageBill(charging, shortfall, len(arrivals) - len(filled)))


def as_fractions(units: Sequence[int], unit: int) -> tuple[Fraction, ...]:
    """Integer costs in units of 1/unit as Fractions, one per distinct value."""
    exact = {c: Fraction(c, unit) for c in set(units)}
    return tuple(map(exact.__getitem__, units))


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
    (scenario, policy, stages, seed, traj).  Costs are summed as Python ints
    in units of 1/L and made Fractions once, at the end."""
    if stages < 1:
        raise ValueError("need at least one stage")
    if warmup < 0:
        raise ValueError("warm-up must be >= 0")
    warmup = min(warmup, stages - 1)
    key = streams.philox_key(seed)
    state = draw_initial(scenario, key, traj)
    charging = penalty = rejected = 0
    head = 0                     # cost of the warm-up stages
    per_c: list[int] = []
    per_p: list[int] = []
    with streams.stage_window(key, traj, stages):
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
    unit = scenario.prices.unit
    total = charging + penalty
    return TrajectoryResult(
        total_cost=Fraction(total, unit), stages=stages,
        time_average=float(Fraction(total - head, unit)) / (stages - warmup),
        time_average_raw=float(Fraction(total, unit)) / stages,
        warmup=warmup, charging_total=Fraction(charging, unit),
        penalty_total=Fraction(penalty, unit), rejected_arrivals=rejected,
        stage_charging=as_fractions(per_c, unit) if record_stages else None,
        stage_penalty=as_fractions(per_p, unit) if record_stages else None)


# ---------------------------------------------------------------------------
# Vectorized engine
# ---------------------------------------------------------------------------

_FLOAT_EXACT = 2 ** 53      # integers up to this convert to float64 exactly


def _batch_supported(scenario: ScenarioModel, policy, stages: int) -> str | None:
    """Why the type-count engine cannot reproduce `run_trajectory` exactly,
    or None when it can.  It runs any `HeuristicPolicy`, on the capacities
    the policy carries."""
    if not isinstance(policy, HeuristicPolicy):
        return "the policy is not a heuristic"
    # Every heuristic's key is injective on (stay, need), so no two chargeable
    # types tie and the charger index never splits one (test_policies pins it).
    N = scenario.num_chargers
    if N >= 2 ** 15:
        return f"{N} chargers overflow the int16 type counts"
    # Past 2**53 units the int64 sums stop converting to float exactly.
    prices = scenario.prices
    worst = stages * (prices.bound + N * max(map(abs, prices.q)))
    if prices.unit >= _FLOAT_EXACT or worst >= _FLOAT_EXACT:
        return f"costs over {stages} stages could reach 2**53 units of 1/{prices.unit}"
    # ScenarioModel has checked that every arrival law is one the batch
    # engine samples and every arrival a type (stay 1..B, need 0..E), and
    # FixedCountArrivals that its count is one the streams address.
    return None


class _TypeCounts:
    """Trajectories start..start + n_traj - 1 of one Monte Carlo cell,
    advanced in lock step.

    The state is a count of vehicles per (stay, need) type and trajectory,
    `counts[stay - 1, need, traj]`.  The heuristics rank vehicles by type and
    break ties by charger index, and costs and admission see only how many
    vehicles of each type are present, so which charger holds a vehicle never
    changes a cost: charging the first m vehicles in priority order charges
    the types in key order, the last one partly (`_charge_split`, a log-step
    prefix scan down the ranked types).  Arrivals are scatter-added into
    their cells with `np.add.at`.  Costs are summed as int64 multiples of
    1/L, from the tables of `ScenarioModel.prices`.
    """

    def __init__(self, scenario: ScenarioModel, policy: HeuristicPolicy,
                 n_traj: int, seed: int, start: int):
        sc = self.sc = scenario
        self.n, self.start = n_traj, start
        self.key = streams.philox_key(seed)
        B, E, N = sc.max_stay, sc.max_units, sc.num_chargers
        self.B, self.width = B, E + 1
        self.counts = np.zeros((B, E + 1, n_traj), dtype=np.int16)
        # Work buffers; `charged` rows of need 0 stay zero.
        self.charged = np.zeros((B * (E + 1), n_traj), dtype=np.int16)
        self.after = np.empty_like(self.charged)
        self.scan = np.empty((B * E, n_traj), dtype=np.int16)
        types = [(s, g) for s in range(1, B + 1) for g in range(1, E + 1)]
        ranks = type_ranks(policy.name, types)
        self.order = np.array([(s - 1) * (E + 1) + g for s, g in sorted(types, key=ranks.get)])
        self.values = np.minimum(policy.capacities, N).astype(np.int16)
        self.q = np.array(sc.prices.q, dtype=np.int64)
        self.charge_cost = sc.prices.table()
        self.total = np.zeros(n_traj, dtype=np.int64)
        self.rejected = np.zeros(n_traj, dtype=np.int64)
        self.traj = np.arange(n_traj)
        self.laws = [self._law_table(law) for law in sc.demand.arrivals]
        self.batch_width = max(law if isinstance(law, int) else law[0].shape[1]
                               for law in self.laws)
        self.s_idx, self.d_idx = initial_states(sc, self.key, n_traj, start)
        self.demand_cdf = np.array(sc.demand.kernel_cdf)

    def _law_table(self, law):
        """A fixed count, or (type rows per outcome, batch sizes, cdf)."""
        if isinstance(law, FixedCountArrivals):
            return law.count
        sizes = np.array([len(vs) for _, vs in law.outcomes])
        types = np.zeros((len(sizes), max(sizes.max(initial=0), 1)), dtype=np.int64)
        for o, (_, vs) in enumerate(law.outcomes):
            types[o, :len(vs)] = [(v.stay - 1) * self.width + v.need for v in vs]
        return types, sizes, np.array(law.cdf)

    def _uniforms(self, t: int, source: int, n_per: int = 1) -> np.ndarray:
        """This block's (trajectory, n_per) draws of one (stage, source) cell."""
        return streams.uniforms_batch(self.key, self.n, t, source, n_per, self.start)

    def step(self, t: int):
        flat = self.counts.reshape(-1, self.n)
        # Decide: charge the first m chargeable vehicles in priority order.
        ranked = flat[self.order]
        unfinished = ranked.sum(0, dtype=np.int16)
        aggregate = np.minimum(self.values[self.s_idx], unfinished)
        charged = self.charged
        charged[self.order] = _charge_split(ranked, aggregate, unfinished, self.scan)
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
            u = self._uniforms(t, streams.DEMAND)[:, 0]
            self.d_idx = sample_indices(self.demand_cdf[self.d_idx], u)
        u = self._uniforms(t, streams.GRID)[:, 0]
        if self.sc.grid.iid_uniform:
            self.s_idx = (u * self.sc.grid.state_count).astype(np.int64)
        else:
            self.s_idx = sample_indices(self.sc.grid.cdf[self.s_idx, aggregate], u)

    def _arrivals(self, law, t: int):
        """Type rows of each trajectory's arrival batch, in arrival order,
        and the batch sizes; None when the law never brings a vehicle.  The
        rows are a new array, which the caller may overwrite."""
        if isinstance(law, int):
            if law == 0:
                return None
            rows = arrival_cells(self._uniforms(t, streams.STAY, law),
                                 self._uniforms(t, streams.REQUEST, law), self.B, self.width)
            return rows, np.full(self.n, law)
        types, sizes, cdf = law
        if sizes.max(initial=0) == 0:
            return None
        u = self._uniforms(t, streams.OUTCOME)[:, 0]
        outcome = sample_indices(cdf, u)
        return types[outcome], sizes[outcome]

    def _admit(self, t: int):
        """Add the first min(batch size, free chargers) arrivals of every
        trajectory; arrivals come from the law of its current demand state."""
        if len(self.laws) == 1:
            batch = self._arrivals(self.laws[0], t)
            if batch is None:
                return
            cells, want = batch
        else:
            cells = np.zeros((self.n, self.batch_width), dtype=np.int64)
            want = np.zeros(self.n, dtype=np.int64)
            for d, law in enumerate(self.laws):
                rows = np.flatnonzero(self.d_idx == d)
                batch = self._arrivals(law, t) if rows.size else None
                if batch is not None:
                    cells[rows, :batch[0].shape[1]] = batch[0][rows]
                    want[rows] = batch[1][rows]
        placed = np.minimum(want, self.sc.num_chargers
                            - self.counts.reshape(-1, self.n).sum(0, dtype=np.int16))
        self.rejected += want - placed
        cells *= self.n
        cells += self.traj[:, None]
        # Drop the slots left empty; building the mask costs more than the
        # scatter-add itself, so skip it when every slot is placed.
        if placed.min() < cells.shape[1]:
            cells = cells[np.arange(cells.shape[1]) < placed[:, None]]
        np.add.at(self.counts.reshape(-1), cells.ravel(), np.int16(1))


def _charge_split(ranked: np.ndarray, budget: np.ndarray, unfinished: np.ndarray,
                  spare: np.ndarray) -> np.ndarray:
    """Vehicles charged per rank (row) and trajectory (column) when each
    column charges its first budget[j] <= unfinished[j] vehicles in rank
    order: the inclusive prefix sum down the ranks, clipped at the budget and
    differenced.  Overwrites `ranked` and `spare` (same shape and dtype) and
    returns one of them.

    The prefix sum takes log2(ranks) shifted adds (Hillis & Steele, "Data
    parallel algorithms", CACM 1986), each pass from one buffer into the
    other: numpy's axis-0 cumsum does not vectorize across columns, and an
    in-place shifted add first copies its overlapping operand."""
    if not (budget < unfinished).any():
        return ranked                   # every chargeable vehicle charges
    a, b, span = ranked, spare, 1
    while span < len(a):
        np.add(a[span:], a[:-span], out=b[span:])
        b[:span] = a[:span]
        a, b, span = b, a, 2 * span
    np.minimum(a, budget, out=a)
    a[1:] -= a[:-1]
    return a


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
    fallback: str | None          # why the scalar engine ran; None for "batch"


# Trajectories per `_TypeCounts` block.  A stage's temporaries grow with the
# block; a rate-30 10k x 200 cell took a median 3.65, 4.00, 4.78 and 5.12 s of
# CPU at blocks of 1,000, 2,000, 5,000 and 10,000 (2-core host, 5 runs each).
TRAJ_BLOCK = 1000


def _batch_averages(scenario, policy, stages, n_traj, seed, warmup):
    """Per-trajectory warm-up-excluded and raw averages, and rejections, in
    blocks of at most `TRAJ_BLOCK` trajectories; every trajectory draws from
    its own substreams, so the blocking changes no value.  Both sums are
    below 2**53 units (`_batch_supported`), so each average equals the scalar
    engine's float(Fraction) / stages bit for bit."""
    unit = scenario.prices.unit
    blocks = []
    for start in range(0, n_traj, TRAJ_BLOCK):
        bs = _TypeCounts(scenario, policy, min(TRAJ_BLOCK, n_traj - start), seed, start)
        head = bs.total.copy()
        for t in range(stages):
            if t == warmup:
                head = bs.total.copy()
            bs.step(t)
        blocks.append(((bs.total - head) / unit / (stages - warmup),
                       bs.total / unit / stages, bs.rejected))
    return tuple(np.concatenate(parts) for parts in zip(*blocks))


def monte_carlo(scenario: ScenarioModel, policy, stages: int, n_traj: int,
                base_seed: int, warmup: int = 20) -> MonteCarloResult:
    """Mean and standard error of warm-up-excluded time-averaged cost over
    n_traj independent trajectories; trajectory i draws from substreams
    addressed by (base_seed, i).

    Both engines give the same numbers; ``engine`` on the result says which
    one ran, and ``fallback`` why it was the scalar one.  The type-count
    engine runs any `HeuristicPolicy` on the capacities it carries (see
    `_batch_supported`); any other policy runs `run_trajectory` once per
    trajectory, which at benchmark scale is orders of magnitude slower."""
    if n_traj < 1:
        raise ValueError("need at least one trajectory")
    if stages < 1:
        raise ValueError("need at least one stage")
    if warmup < 0:
        raise ValueError("warm-up must be >= 0")
    warmup = min(warmup, stages - 1)
    fallback = _batch_supported(scenario, policy, stages)
    engine = "scalar" if fallback else "batch"
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
                            rejected_mean=float(rej.mean()), engine=engine,
                            fallback=fallback)


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
    rates, policies = tuple(int(r) for r in rates), tuple(policies)
    if any(r < 0 for r in rates):
        raise ValueError("arrival rates must be non-negative")
    for what, items in (("arrival rate", rates), ("policy", policies)):
        if len(set(items)) < len(items):
            raise ValueError(f"repeated {what} in {items}: each cell would run twice")
    if base_scenario is not None and (kind := penalty_kind(base_scenario.penalty)) != penalty:
        raise ValueError(f"penalty {penalty!r} mislabels the base scenario's {kind!r} table")
    table = ComparisonTable(penalty=penalty, stages=stages, n_traj=n_traj,
                            seed=seed, policies=policies, rates=rates)

    # Build, and so check, every rate's scenario and policy before any cell.
    scenarios = {r: capacity_scenario(r, penalty) if base_scenario is None
                 else with_arrival_rate(base_scenario, r) for r in rates}
    jobs = [((p, r), scenarios[r], make_policy(p, scenarios[r]))
            for p in table.policies for r in rates]

    def cell(job):
        key, sc, pol = job
        return key, monte_carlo(sc, pol, stages, n_traj, seed, warmup=warmup)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            table.cells.update(ex.map(cell, jobs))
    else:
        table.cells.update(map(cell, jobs))
    return table
