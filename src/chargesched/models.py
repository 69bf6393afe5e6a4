"""Stochastic scenario definition: grid kernel, charging cost, demand chain,
arrival law, admission, and the scenario JSON schema.

Kernels and tabulated arrival probabilities are stored as exact Fractions
(decimal input is validated to 1e-12 row sums and converted); every sampler
consumes a fixed, documented number of uniforms from its own substream so that
rollouts sharing a seed can be coupled sample-path by sample-path.
`StagePrices` (``ScenarioModel.prices``) alone chooses L and prices every
stage, for all three engines, in integer units of 1/L.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import linalg, streams
from .core import (EMPTY, PenaltyFunction, SystemState, VehicleState, convexity_fault,
                   step_tables, vehicle_type)

ROW_SUM_TOL = 1e-12


def _to_fraction(x) -> Fraction:
    if isinstance(x, (str, int, Fraction)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10 ** 15)
    raise TypeError(f"cannot interpret {x!r} as a probability")


def _validate_row(row: Sequence[Fraction], what: str) -> tuple[Fraction, ...]:
    row = tuple(row)
    if any(p < 0 for p in row):
        raise ValueError(f"{what}: negative probability")
    s = sum(row)
    if s != 1 and abs(float(s) - 1.0) > ROW_SUM_TOL:
        raise ValueError(f"{what}: row sums to {float(s)}, not 1")
    if s != 1:
        # Decimal input within tolerance: renormalize exactly on the largest entry.
        k = max(range(len(row)), key=lambda i: row[i])
        row = tuple(p if i != k else p + (1 - s) for i, p in enumerate(row))
    return row


def sample_index(cdf_row: Sequence[float], u: float) -> int:
    """Inverse-CDF draw using exactly one uniform: the first index whose
    (non-decreasing) cdf entry exceeds u.  A `_float_cdf` row ends in +inf,
    so every u in [0, 1] has one."""
    return bisect.bisect_right(cdf_row, u)


def sample_indices(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Row-wise `sample_index`: the first index whose cdf entry exceeds u."""
    return (cdf <= u[:, None]).sum(-1)


def _iid_states(u: np.ndarray, count: int) -> np.ndarray:
    """States of a chain uniform on 0..count-1 from one uniform each, as
    int64: u * count rounded down, clamped to count - 1, since a uniform
    can be exactly 1.0: the last state, as `sample_indices` takes a row's
    last outcome of positive probability."""
    return np.minimum((u * count).astype(np.int64), count - 1)


def _float_cdf(probabilities) -> np.ndarray:
    """Float CDF of exact probability rows, along the last axis: the one
    rule behind every `sample_index` and `sample_indices` table.  The entry
    of a row's last outcome of positive probability, and every later one,
    is +inf, so no uniform in [0, 1] takes an outcome of probability 0: a
    float sum just below 1, or a uniform of exactly 1.0, takes that last
    outcome."""
    p = np.array(probabilities, dtype=float)
    cdf = np.cumsum(p, axis=-1)
    positive = p > 0
    cdf[positive.cumsum(-1) == positive.sum(-1, keepdims=True)] = np.inf
    return cdf


# ---------------------------------------------------------------------------
# Charging cost functions
# ---------------------------------------------------------------------------

class ChargingCost:
    """Maps (aggregate charge count A, grid state index) to an exact cost."""

    def __call__(self, aggregate: int, grid_index: int) -> Fraction:
        raise NotImplementedError


@dataclass(frozen=True)
class CapacityCost(ChargingCost):
    """Free while A stays within the grid state's value, its capacity, and a
    prohibitive ceiling N * q(E) beyond it: the largest penalty the whole
    fleet could ever incur, so no sane policy exceeds capacity.  It holds
    nothing; `StagePrices` prices it from the scenario's grid and penalty."""


@dataclass(frozen=True)
class QuadraticLoadCost(ChargingCost):
    """Generation cost (A + b)^2 of the total net load, b being the grid
    state's value, its base load.  It holds nothing; `StagePrices` prices it
    from the scenario's grid."""


@dataclass(frozen=True)
class TableCost(ChargingCost):
    """Explicit cost table indexed [A][grid state index]."""
    table: tuple[tuple[Fraction, ...], ...]

    def __call__(self, aggregate: int, grid_index: int) -> Fraction:
        return self.table[aggregate][grid_index]


# ---------------------------------------------------------------------------
# Grid model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridModel:
    """Finite grid-state chain whose transitions may depend on the aggregate
    action; ``values`` carries the interpretation of each state (for the
    capacity benchmark, the number of vehicles that can charge for free).

    The iid-uniform special case (next state uniform regardless of the
    current state and action) skips the explicit kernel entirely; the
    benchmark grid has 121 states and hundreds of aggregate levels, and a
    materialized kernel would be millions of identical entries.
    """
    values: tuple[int, ...]
    kernel: tuple[tuple[tuple[Fraction, ...], ...], ...] | None  # [s][A][s']
    cost: ChargingCost
    iid_uniform: bool = False  # transitions ignore (s, A): uniform over states
    cdf: np.ndarray | None = field(init=False, repr=False, compare=False)  # [s][A][s']

    def __post_init__(self):
        n = len(self.values)
        if not n:
            raise ValueError("the grid has no states")
        if min(self.values) < 0:
            raise ValueError(f"grid value {min(self.values)} is negative; "
                             "a grid value is a charging capacity")
        if self.iid_uniform:
            object.__setattr__(self, "kernel", None)
            object.__setattr__(self, "cdf", None)
            return
        if self.kernel is None:
            raise ValueError("non-iid grid requires an explicit kernel")
        if len(self.kernel) != n:
            raise ValueError("kernel first dimension must match state count")
        a_dim = len(self.kernel[0])
        rows = []
        for s, per_action in enumerate(self.kernel):
            if len(per_action) != a_dim:
                raise ValueError("kernel action dimension is ragged")
            for a, row in enumerate(per_action):
                if len(row) != n:
                    raise ValueError("kernel row length must match state count")
                rows.append(_validate_row(row, f"grid kernel row (s={s}, A={a})"))
        fixed = tuple(tuple(rows[s * a_dim + a] for a in range(a_dim)) for s in range(n))
        object.__setattr__(self, "kernel", fixed)
        object.__setattr__(self, "cdf", _float_cdf(fixed))

    @property
    def state_count(self) -> int:
        return len(self.values)

    @functools.cached_property
    def cdf_rows(self) -> list[list[list[float]]]:
        """The float CDF of every kernel row, [s][A], for scalar draws."""
        return self.cdf.tolist()

    def row(self, s: int, aggregate: int) -> tuple[Fraction, ...]:
        return self.initial_distribution if self.iid_uniform else self.kernel[s][aggregate]

    def next_state(self, s: int, aggregate: int, u: float) -> int:
        """The state after state s under aggregate action ``aggregate``, from
        one GRID uniform u: `sample_index` on the kernel row, or for an iid
        grid u * G rounded down, a u of exactly 1.0 taking state G - 1 as
        `sample_index` takes a row's last outcome of positive probability."""
        if self.iid_uniform:
            return min(int(u * len(self.values)), len(self.values) - 1)
        return sample_index(self.cdf_rows[s][aggregate], u)

    def next_states(self, s: np.ndarray, aggregate: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Row-wise `next_state`, as int64."""
        if self.iid_uniform:
            return _iid_states(u, len(self.values))
        return sample_indices(self.cdf[s, aggregate], u)

    def special_state(self) -> int | None:
        """The least state of the zero-action chain's closed class when it has
        one, else None: the states every initial state reaches are that
        class, and the anchor the constant-gain argument needs."""
        if self.iid_uniform:
            return 0
        closed = linalg.closed_classes(_positive_graph([pa[0] for pa in self.kernel]))
        return min(closed[0]) if len(closed) == 1 else None

    @functools.cached_property
    def initial_distribution(self) -> tuple[Fraction, ...]:
        """Stationary distribution of the zero-action chain when it is
        irreducible, else uniform.  Used to draw the starting grid state."""
        if self.iid_uniform:
            return tuple(Fraction(1, self.state_count) for _ in range(self.state_count))
        return _stationary_or_uniform([per_action[0] for per_action in self.kernel])


def _stationary_or_uniform(p: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """Exact stationary distribution of an irreducible chain, uniform otherwise.
    pi(i) is the long-run average of the cost that is 1 in state i and 0
    elsewhere, so `linalg.chain_average` is the one solver, called once on
    the n chains that differ only in that cost; a lone state needs none."""
    if len(p) == 1:
        return (Fraction(1),)
    if not _irreducible(p):
        return tuple(Fraction(1, len(p)) for _ in p)
    moves = [[(y, q) for y, q in enumerate(row) if q] for row in p]
    return tuple(linalg.chain_average([{s: linalg.integer_row(m, int(s == i))
                                        for s, m in enumerate(moves)}
                                       for i in range(len(p))]))


def _positive_graph(p: Sequence[Sequence[Fraction]]):
    """The positive entries of p as a sparse 0/1 adjacency matrix."""
    # Imported on first use: importing scipy.sparse at the top of this module
    # raised the peak resident set of a Monte Carlo run by about 1.6 MB
    # (Python 3.11, scipy 1.17).
    import scipy.sparse as sp
    return sp.csr_matrix([[q > 0 for q in row] for row in p])


def _irreducible(p: Sequence[Sequence[Fraction]]) -> bool:
    """Every state reaches every other along the positive entries of p: one
    closed class holds them all."""
    return len(linalg.closed_classes(_positive_graph(p))[0]) == len(p)


# ---------------------------------------------------------------------------
# Arrival laws and demand model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedCountArrivals:
    """A constant number of arrivals per stage; each arrival independently
    draws a stay uniform on {1..B} and a request uniform on {1..stay}."""
    count: int

    def __post_init__(self):
        if not 0 <= self.count <= streams.MAX_ARRIVALS_PER_STAGE:
            raise ValueError(f"arrival count {self.count} is outside "
                             f"0..{streams.MAX_ARRIVALS_PER_STAGE}, the arrivals "
                             "per stage the random streams address")

    def zero_arrival_probability(self) -> Fraction:
        return Fraction(1) if self.count == 0 else Fraction(0)

    def sample(self, draws: streams.Substream, stage: int,
               max_stay: int) -> list[VehicleState]:
        """The arrivals' types by `arrival_cells`, in the grid of stays
        1..B and needs 0..B that holds them (need <= stay <= B)."""
        if self.count == 0:
            return []
        cells = arrival_cells(draws.uniforms(stage, streams.STAY, self.count),
                              draws.uniforms(stage, streams.REQUEST, self.count),
                              max_stay, max_stay + 1)
        return type_table(max_stay, max_stay + 1)[cells].tolist()


# The largest float below 1.0: times any count k up to 2**52 it rounds to
# a float in [k - 1, k), so it scales to the last of k values.
_BELOW_ONE = np.nextafter(1.0, 0.0)


def arrival_cells(u_stay: np.ndarray, u_req: np.ndarray, max_stay: int,
                  width: int) -> np.ndarray:
    """The type cells ``(stay - 1) * width + need`` of arrivals whose stay
    is uniform on 1..B and request uniform on 1..stay, from one STAY and one
    REQUEST uniform each, arrivals along the last axis, in place: both
    arrays are overwritten.  A uniform of exactly 1.0 would give stay B + 1
    or need stay + 1, so it is read as `_BELOW_ONE`, which gives stay B or
    need = stay, as the iid grid's draw takes its last state."""
    if u_stay.max() >= 1 or u_req.max() >= 1:
        np.minimum(u_stay, _BELOW_ONE, out=u_stay)
        np.minimum(u_req, _BELOW_ONE, out=u_req)
    u_stay *= max_stay
    stays = u_stay.astype(np.int64)
    stays += 1
    u_req *= stays
    cells = u_req.astype(np.int64)      # need - 1
    stays *= width
    cells += stays
    cells -= width - 1
    return cells


@functools.cache
def type_table(max_stay: int, width: int) -> np.ndarray:
    """``vehicle_type(stay, need)`` at cell ``(stay - 1) * width + need``,
    for stays 1..B and needs 0..width - 1, as an object array."""
    return np.fromiter((vehicle_type(c // width + 1, c % width)
                        for c in range(max_stay * width)), dtype=object)


@dataclass(frozen=True)
class TabulatedArrivals:
    """Explicit joint distribution over whole arrival batches; exact
    probabilities make this the form the DP enumerator requires."""
    outcomes: tuple[tuple[Fraction, tuple[VehicleState, ...]], ...]

    def __post_init__(self):
        probs = _validate_row([p for p, _ in self.outcomes], "arrival outcomes")
        object.__setattr__(
            self, "outcomes",
            tuple((p, tuple(v)) for p, (_, v) in zip(probs, self.outcomes)))

    def zero_arrival_probability(self) -> Fraction:
        return sum((p for p, vs in self.outcomes if len(vs) == 0), Fraction(0))

    @functools.cached_property
    def cdf(self) -> list[float]:
        return _float_cdf([p for p, _ in self.outcomes]).tolist()

    def sample(self, draws: streams.Substream, stage: int,
               max_stay: int) -> list[VehicleState]:
        u = draws.uniform(stage, streams.OUTCOME)
        return list(self.outcomes[sample_index(self.cdf, u)][1])


ArrivalLaw = FixedCountArrivals | TabulatedArrivals


def law_table(law: ArrivalLaw, width: int):
    """An arrival law as `arrival_batches` reads it: a fixed count, or the
    type cells of each outcome's vehicles (padded), the batch sizes and the
    float cdf of a tabulated law."""
    if isinstance(law, FixedCountArrivals):
        return law.count
    sizes = np.array([len(vs) for _, vs in law.outcomes])
    types = np.zeros((len(sizes), max(sizes.max(initial=0), 1)), dtype=np.int64)
    for o, (_, vs) in enumerate(law.outcomes):
        types[o, :len(vs)] = [(v.stay - 1) * width + v.need for v in vs]
    return types, sizes, np.array(law.cdf)


def arrival_batches(law, key, stage: int, n: int, start: int, max_stay: int, width: int):
    """The arrival batches of trajectories start..start+n-1 at one stage
    under one law (`law_table`), from one `streams.uniforms_batch` call per
    source: the type cells of each batch in arrival order (padded past its
    size; a new array, which the caller may overwrite) and the batch sizes;
    None when the law never brings a vehicle.  The batch engine and the
    scalar engine's `montecarlo.StageTable` type their arrivals here."""
    if isinstance(law, int):
        if law == 0:
            return None
        cells = arrival_cells(
            streams.uniforms_batch(key, n, stage, streams.STAY, law, start),
            streams.uniforms_batch(key, n, stage, streams.REQUEST, law, start),
            max_stay, width)
        return cells, np.full(n, law)
    types, sizes, cdf = law
    if sizes.max(initial=0) == 0:
        return None
    u = streams.uniforms_batch(key, n, stage, streams.OUTCOME, 1, start)[:, 0]
    outcome = sample_indices(cdf, u)
    return types[outcome], sizes[outcome]


@dataclass(frozen=True)
class DemandModel:
    """Demand chain plus the per-state arrival law.  Evolves independently of
    the grid and of actions."""
    kernel: tuple[tuple[Fraction, ...], ...]
    arrivals: tuple[ArrivalLaw, ...]  # one law per demand state

    def __post_init__(self):
        n = len(self.kernel)
        for d, row in enumerate(self.kernel):
            if len(row) != n:
                raise ValueError(f"demand kernel row {d} has {len(row)} entries, not D = {n}")
        rows = tuple(_validate_row(r, f"demand kernel row {d}") for d, r in enumerate(self.kernel))
        object.__setattr__(self, "kernel", rows)
        if len(self.arrivals) != n:
            raise ValueError("need one arrival law per demand state")

    @property
    def state_count(self) -> int:
        return len(self.kernel)

    def is_ergodic(self) -> bool:
        """Irreducible and aperiodic, decided structurally; a lone state is
        both without a graph."""
        p = [list(r) for r in self.kernel]
        return len(p) == 1 or _irreducible(p) and _period(p) == 1

    @functools.cached_property
    def initial_distribution(self) -> tuple[Fraction, ...]:
        return _stationary_or_uniform(self.kernel)

    @functools.cached_property
    def kernel_cdf(self) -> list[list[float]]:
        return _float_cdf(self.kernel).tolist()


def _period(p: list[list[Fraction]]) -> int:
    """Period of an irreducible chain: the gcd of level[s] + 1 - level[s2]
    over its positive entries (s, s2), level being the BFS depth from 0."""
    # Not csgraph.shortest_path, whose first call adds about 0.5 MB of RSS.
    from scipy.sparse.csgraph import breadth_first_order
    graph = _positive_graph(p)
    order, parent = breadth_first_order(graph, 0)
    level = np.zeros(len(p), dtype=np.int64)
    for s in order[1:]:
        level[s] = level[parent[s]] + 1
    rows, cols = graph.nonzero()
    return int(np.gcd.reduce(level[rows] + 1 - level[cols])) or len(p)


# ---------------------------------------------------------------------------
# Scenario bundle
# ---------------------------------------------------------------------------

class StagePrices(dict):
    """A scenario's stage costs as integers in units of 1/L, where L
    (``unit``) is the least common denominator of the penalty table and the
    charging costs.  Keys are (aggregate, grid state) and values the charging
    cost.  A capacity price (0 up to the grid value, ``ceiling`` = N * q(E)
    beyond it) is computed per lookup and never stored; every other entry is
    priced once, here: (A + value)^2 of the grid state's value for a
    quadratic load, one call of any other form.  ``q`` is the penalty table
    and ``bound`` the largest charge magnitude, in units, and ``steps`` its
    `core.step_tables`.  Sums of these stay Python ints, so no total wraps."""

    def __init__(self, scenario: "ScenarioModel"):
        super().__init__()
        cost, values = scenario.grid.cost, scenario.grid.values
        self.shape = (scenario.num_chargers + 1, len(values))
        # Charges that cover every entry's denominator and bound its magnitude.
        capacity = isinstance(cost, CapacityCost)
        if capacity:
            charges = [scenario.num_chargers * scenario.penalty(scenario.max_units)]
        else:
            keys = [(a, s) for a in range(self.shape[0]) for s in range(self.shape[1])]
            if isinstance(cost, QuadraticLoadCost):
                cost = lambda a, s: (a + values[s]) ** 2
            charges = [Fraction(cost(a, s)) for a, s in keys]
        q = scenario.penalty.values
        unit = self.unit = math.lcm(*(c.denominator for c in (*q, *charges)))
        self.q = tuple(int(v * unit) for v in q)
        self.steps = step_tables(self.q)
        self.bound = int(max(map(abs, charges)) * unit)
        self.ceiling = int(charges[0] * unit) if capacity else None
        self.capacities = values
        if not capacity:
            self.update(zip(keys, (c.numerator * (unit // c.denominator) for c in charges)))

    def __missing__(self, key: tuple[int, int]) -> int:
        if self.ceiling is None:
            raise KeyError(key)
        return 0 if key[0] <= self.capacities[key[1]] else self.ceiling

    def table(self) -> np.ndarray:
        """Every charging cost in units as int64, indexed [aggregate, grid
        state]: the batch engine's copy."""
        if self.ceiling is not None:
            a = np.arange(self.shape[0])[:, None]
            return np.where(a <= np.asarray(self.capacities), 0, self.ceiling)
        return np.array(list(self.values()), dtype=np.int64).reshape(self.shape)


@dataclass(frozen=True)
class ScenarioModel:
    """Everything a rollout or DP needs: fleet geometry, grid, demand and
    penalty.  Arrivals always take the lowest-index empty chargers."""
    name: str
    num_chargers: int           # N
    max_stay: int               # B
    max_units: int              # E
    grid: GridModel
    demand: DemandModel
    penalty: PenaltyFunction
    initial_grid: int | None = None
    initial_demand: int | None = None

    def __post_init__(self):
        if self.num_chargers < 0 or self.max_stay < 1:
            raise ValueError(f"N = {self.num_chargers}, B = {self.max_stay}: a scenario "
                             "needs N >= 0 chargers and stays of B >= 1 stages")
        if self.grid.kernel and len(self.grid.kernel[0]) != self.num_chargers + 1:
            raise ValueError("grid kernel must cover aggregate actions 0..N")
        if self.penalty.max_units != self.max_units:
            raise ValueError("penalty table length must be E + 1")
        n_grid, cost = self.grid.state_count, self.grid.cost
        if isinstance(cost, TableCost) and (len(cost.table) != self.num_chargers + 1
                                            or any(len(row) != n_grid for row in cost.table)):
            raise ValueError(f"cost table must have N + 1 = {self.num_chargers + 1} "
                             f"rows of G = {n_grid} entries")
        for what, s0, count in (("grid", self.initial_grid, n_grid),
                                ("demand", self.initial_demand, self.demand.state_count)):
            if s0 is not None and not 0 <= s0 < count:
                raise ValueError(f"initial {what} state {s0} is outside 0..{count - 1}")
        # Every arrival must fit the (stay, need) grid the penalty covers.
        for law in self.demand.arrivals:
            if isinstance(law, FixedCountArrivals):
                if law.count and self.max_stay > self.max_units:
                    raise ValueError(
                        f"fixed-count arrivals request up to B = {self.max_stay} "
                        f"units, above E = {self.max_units}")
                continue
            if not isinstance(law, TabulatedArrivals):
                raise ValueError(f"arrival law {type(law).__name__} is neither "
                                 "FixedCountArrivals nor TabulatedArrivals")
            for v in (v for _, vehicles in law.outcomes for v in vehicles):
                if not (1 <= v.stay <= self.max_stay and 0 <= v.need <= self.max_units):
                    raise ValueError(
                        f"arrival (stay {v.stay}, need {v.need}) is outside 1 <= stay "
                        f"<= B = {self.max_stay}, 0 <= need <= E = {self.max_units}")

    def empty_state(self, grid: int, demand: int) -> SystemState:
        return SystemState((EMPTY,) * self.num_chargers, grid, demand)

    @functools.cached_property
    def prices(self) -> StagePrices:
        """Stage costs and the penalty table in integer units of 1/L."""
        return StagePrices(self)


# ---------------------------------------------------------------------------
# Sampling and admission
# ---------------------------------------------------------------------------

def sample_grid(grid: GridModel, s: int, aggregate: int, draws: streams.Substream,
                stage: int) -> int:
    """Next grid state; consumes exactly one uniform from the grid substream."""
    return grid.next_state(s, aggregate, draws.uniform(stage, streams.GRID))


def sample_demand(demand: DemandModel, d: int, draws: streams.Substream, stage: int,
                  max_stay: int) -> tuple[int, list[VehicleState]]:
    """Next demand state and the arrival batch generated while in state d.

    The chain transition consumes one uniform when there is more than one
    demand state and none otherwise; arrival draws come from their own
    substreams so the consumption pattern never depends on the policy.
    """
    if demand.state_count > 1:
        u = draws.uniform(stage, streams.DEMAND)
        d_next = sample_index(demand.kernel_cdf[d], u)
    else:
        d_next = d
    arrivals = demand.arrivals[d].sample(draws, stage, max_stay)
    return d_next, arrivals


def admit(out: list[VehicleState], arrivals: Sequence[VehicleState]) -> list[int]:
    """Place arrivals on the lowest-index empty chargers of ``out``, in place
    and in arrival order; return the chargers filled, in order.  The overflow
    is dropped: ``len(arrivals) - len(filled)`` were turned away.  An empty
    charger holds `EMPTY`, the one vehicle of stay 0 a `SystemState` admits."""
    filled = []
    slot = -1
    try:
        for arrival in arrivals:
            slot = out.index(EMPTY, slot + 1)
            out[slot] = arrival
            filled.append(slot)
    except ValueError:      # no empty charger left
        pass
    return filled


def initial_states(scenario: ScenarioModel, key, n: int,
                   start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Initial grid and demand state indices of trajectories start..start+n-1,
    as int64 arrays.  A state the scenario pins draws nothing; otherwise each
    trajectory takes one uniform from INIT_GRID (INIT_DEMAND), scaled for an
    iid-uniform grid and read through the float cdf of the chain's
    `initial_distribution` otherwise."""
    grid, demand = scenario.grid, scenario.demand
    if scenario.initial_grid is not None:
        s0 = np.full(n, scenario.initial_grid, dtype=np.int64)
    else:
        u = streams.uniforms_batch(key, n, 0, streams.INIT_GRID, 1, start)[:, 0]
        s0 = (_iid_states(u, grid.state_count) if grid.iid_uniform else
              sample_indices(_float_cdf(grid.initial_distribution), u))
    if scenario.initial_demand is not None:
        d0 = np.full(n, scenario.initial_demand, dtype=np.int64)
    else:
        u = streams.uniforms_batch(key, n, 0, streams.INIT_DEMAND, 1, start)[:, 0]
        d0 = sample_indices(_float_cdf(demand.initial_distribution), u)
    return s0, d0


def draw_initial(scenario: ScenarioModel, key, traj: int) -> SystemState:
    """All chargers empty; grid and demand state as `initial_states` draws
    them for trajectory `traj`."""
    s0, d0 = initial_states(scenario, key, 1, traj)
    return scenario.empty_state(int(s0[0]), int(d0[0]))


# ---------------------------------------------------------------------------
# Scenario builders
# ---------------------------------------------------------------------------

def capacity_scenario(arrival_rate: int, penalty: str | PenaltyFunction = "linear",
                      num_chargers: int = 400, max_stay: int = 10,
                      capacity_range: tuple[int, int] = (40, 160)) -> ScenarioModel:
    """The capacity-limited benchmark: iid uniform charging capacity, zero
    charging cost up to capacity and a fleet-wide penalty ceiling beyond it,
    a constant arrival count per stage with uniform stays and requests."""
    max_units = max_stay
    q = _resolve_penalty(penalty, max_units)
    lo, hi = capacity_range
    values = tuple(range(lo, hi + 1))
    grid = GridModel(values=values, kernel=None, cost=CapacityCost(), iid_uniform=True)
    demand = DemandModel(
        kernel=((Fraction(1),),),
        arrivals=(FixedCountArrivals(arrival_rate),))
    return ScenarioModel(
        name=f"capacity-benchmark-rate{arrival_rate}",
        num_chargers=num_chargers, max_stay=max_stay, max_units=max_units,
        grid=grid, demand=demand, penalty=q)


def two_charger_scenario() -> ScenarioModel:
    """A fully enumerable instance for the exact DP: two chargers, stays and
    requests up to 2, two grid states (one free, one charging at unit price),
    and with probability 1/2 a pair of vehicles (2,1) and (2,2) arrives."""
    q = PenaltyFunction.quadratic(2)
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    # Transition rows depend on the aggregate action: heavier charging tilts
    # the grid toward the expensive state.
    rows_by_a = (
        (Fraction(3, 4), quarter),
        (half, half),
        (quarter, Fraction(3, 4)),
    )
    kernel = tuple(tuple(rows_by_a[a] for a in range(3)) for _ in range(2))
    cost_table = tuple(tuple(Fraction(v) for v in row)
                       for row in ((0, 0), (0, 1), (0, 2)))
    grid = GridModel(values=(0, 1), kernel=kernel, cost=TableCost(cost_table))
    demand = DemandModel(
        kernel=((Fraction(1),),),
        arrivals=(TabulatedArrivals((
            (half, ()),
            (half, (VehicleState(2, 1), VehicleState(2, 2))),
        )),))
    return ScenarioModel(
        name="two-charger-exact", num_chargers=2, max_stay=2, max_units=2,
        grid=grid, demand=demand, penalty=q,
        initial_grid=0, initial_demand=0)


def multichain_fixture() -> ScenarioModel:
    """Negative control: two disconnected grid states with different costs and
    no chargers, so the average cost depends on where the chain starts."""
    one = Fraction(1)
    zero = Fraction(0)
    kernel = (((one, zero),), ((zero, one),))
    cost = TableCost(((zero, one),))
    grid = GridModel(values=(0, 1), kernel=kernel, cost=cost)
    demand = DemandModel(kernel=((one,),), arrivals=(TabulatedArrivals(((one, ()),)),))
    return ScenarioModel(
        name="multichain-fixture", num_chargers=0, max_stay=1, max_units=1,
        grid=grid, demand=demand, penalty=PenaltyFunction.linear(1),
        initial_grid=0, initial_demand=0)


def _resolve_penalty(penalty: str | PenaltyFunction, max_units: int) -> PenaltyFunction:
    if isinstance(penalty, PenaltyFunction):
        return penalty
    if penalty == "linear":
        return PenaltyFunction.linear(max_units)
    if penalty == "quadratic":
        return PenaltyFunction.quadratic(max_units)
    raise ValueError(f"unknown penalty kind {penalty!r}")


def with_arrival_rate(scenario: ScenarioModel, rate: int) -> ScenarioModel:
    """Clone a fixed-count scenario with a different arrival rate; a scenario
    with no fixed-count law has no rate to set and is refused."""
    laws = scenario.demand.arrivals
    if not any(isinstance(law, FixedCountArrivals) for law in laws):
        raise ValueError(f"scenario {scenario.name!r} has no fixed-count arrival "
                         "law, so it has no arrival rate to set")
    arrivals = tuple(FixedCountArrivals(rate) if isinstance(law, FixedCountArrivals)
                     else law for law in laws)
    return replace(scenario, demand=DemandModel(kernel=scenario.demand.kernel,
                                                arrivals=arrivals))


def with_penalty(scenario: ScenarioModel, penalty: str | PenaltyFunction) -> ScenarioModel:
    """Clone a scenario with a different penalty table."""
    return replace(scenario, penalty=_resolve_penalty(penalty, scenario.max_units))


def penalty_kind(penalty: PenaltyFunction) -> str:
    """Classify a penalty table: "linear", "quadratic", another convex
    "table", or "nonconvex"."""
    for kind in ("linear", "quadratic"):
        if penalty.values == _resolve_penalty(kind, penalty.max_units).values:
            return kind
    return "nonconvex" if convexity_fault(penalty.values) else "table"


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def _frac_json(p: Fraction):
    return int(p) if p.denominator == 1 else str(p)


def penalty_json(penalty: PenaltyFunction) -> str | list | dict:
    """A penalty table as a scenario file writes it: its kind when linear or
    quadratic, else its values."""
    kind = penalty_kind(penalty)
    values = [_frac_json(v) for v in penalty.values]
    return {"table": values,
            "nonconvex": {"values": values, "allow_nonconvex": True}}.get(kind, kind)


def scenario_to_json(scenario: ScenarioModel) -> dict:
    grid: dict = {"states": list(scenario.grid.values)}
    if scenario.grid.iid_uniform:
        grid["iid_uniform"] = True
    else:
        grid["kernel"] = [[[_frac_json(p) for p in row] for row in pa]
                          for pa in scenario.grid.kernel]
    cost = scenario.grid.cost
    grid["cost"] = ("capacity" if isinstance(cost, CapacityCost) else
                    "quadratic" if isinstance(cost, QuadraticLoadCost) else
                    [[_frac_json(c) for c in row] for row in cost.table])

    arrival_laws = []
    for law in scenario.demand.arrivals:
        if isinstance(law, FixedCountArrivals):
            arrival_laws.append({"kind": "fixed_count", "count": law.count})
        else:
            arrival_laws.append({
                "kind": "tabulated",
                "outcomes": [{"prob": _frac_json(p), "vehicles": [[v.stay, v.need] for v in vs]}
                             for p, vs in law.outcomes]})

    out = {
        "name": scenario.name,
        "N": scenario.num_chargers,
        "B": scenario.max_stay,
        "E": scenario.max_units,
        "grid": grid,
        "demand": {"states": scenario.demand.state_count,
                   "kernel": [[_frac_json(p) for p in row] for row in scenario.demand.kernel]},
        "arrival": {"per_state": arrival_laws},
        "penalty": penalty_json(scenario.penalty),
    }
    initial = {k: s0 for k, s0 in (("grid", scenario.initial_grid),
                                   ("demand", scenario.initial_demand)) if s0 is not None}
    if initial:
        out["initial"] = initial
    return out


def _integer(x, what: str) -> int:
    """A JSON integer, refusing a fraction, a boolean or a string rather
    than truncating it; an integral float such as 2.0 passes."""
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} = {x!r} is not an integer")
    return x


def _section(section, name: str, required: Sequence[str], optional=()) -> list:
    """The values of the ``required`` keys of the JSON object ``section``.
    ValueError naming ``name`` when it is no object, lacks a required key,
    or holds a key that is neither required nor ``optional``, so a misspelt
    optional key is not dropped in silence; the section itself as
    ``optional`` lets every key it holds pass."""
    if not isinstance(section, dict):
        raise ValueError(f"scenario JSON {name!r} must be an object, not {type(section).__name__}")
    if missing := [k for k in required if k not in section]:
        raise ValueError(f"scenario JSON missing key {missing[0]!r} in {name!r}")
    keys = (*required, *optional)
    if unknown := [k for k in section if k not in keys]:
        raise ValueError(f"scenario JSON unknown key {unknown[0]!r} in {name!r}; "
                         f"the keys there are {', '.join(map(repr, keys))}")
    return [section[k] for k in required]


def scenario_from_json(doc: dict) -> ScenarioModel:
    *sizes, gdoc, ddoc, adoc, pdoc = _section(
        doc, "document", ("N", "B", "E", "grid", "demand", "arrival", "penalty"),
        ("name", "initial"))
    n, max_stay, max_units = (_integer(v, k) for v, k in zip(sizes, "NBE"))

    if isinstance(pdoc, dict):
        # Explicit opt-in for negative-control fixtures with non-convex tables.
        values, = _section(pdoc, "penalty", ("values",), ("allow_nonconvex",))
        pdoc = PenaltyFunction([_to_fraction(v) for v in values],
                               require_convex=not pdoc.get("allow_nonconvex", False))
    elif not isinstance(pdoc, str):
        pdoc = PenaltyFunction([_to_fraction(v) for v in pdoc])
    penalty = _resolve_penalty(pdoc, max_units)

    cdoc, = _section(gdoc, "grid", ("cost",), ("states", "iid_uniform", "kernel"))
    if cdoc == "capacity":
        cost: ChargingCost = CapacityCost()
    elif cdoc == "quadratic":
        cost = QuadraticLoadCost()
    else:
        cost = TableCost(tuple(tuple(_to_fraction(c) for c in row) for row in cdoc))

    # An iid grid is `states` with "iid_uniform": true, or, in the older
    # form, "iid_uniform": [lo, hi] for the states lo..hi.  Any other grid needs a kernel.
    listed = values = tuple(_integer(v, "grid states") for v in gdoc.get("states", ()))
    iid = gdoc.get("iid_uniform", False)
    if isinstance(iid, list):
        lo, hi = (_integer(v, "grid iid_uniform") for v in iid)
        values, iid = tuple(range(lo, hi + 1)), True
    elif not isinstance(iid, bool):
        raise ValueError(f"grid iid_uniform = {iid!r} is neither a flag nor [lo, hi]")
    kernel = None if iid else tuple(tuple(tuple(_to_fraction(p) for p in row) for row in pa)
                                    for pa in _section(gdoc, "grid", ("kernel",), gdoc)[0])
    grid = GridModel(values=values, kernel=kernel, cost=cost, iid_uniform=iid)
    if "states" in gdoc and listed != values:
        raise ValueError(f"grid iid_uniform = {gdoc['iid_uniform']} names the states "
                         f"{values[0]}..{values[-1]}, but grid states = {list(listed)}")

    dkernel = tuple(tuple(_to_fraction(p) for p in row)
                    for row in _section(ddoc, "demand", ("kernel",), ("states",))[0])
    if "states" in ddoc and _integer(ddoc["states"], "demand states") != len(dkernel):
        raise ValueError(f"demand states = {ddoc['states']}, but the demand kernel "
                         f"has {len(dkernel)} rows")
    laws = []
    for k, law in enumerate(_section(adoc, "arrival", ("per_state",))[0]):
        where = f"arrival.per_state[{k}]"
        kind = isinstance(law, dict) and law.get("kind")
        if kind == "fixed_count":
            count = _section(law, where, ("kind", "count"))[1]
            laws.append(FixedCountArrivals(_integer(count, "arrival count")))
        elif kind == "tabulated":
            outcomes = []
            for m, o in enumerate(_section(law, where, ("kind", "outcomes"))[1]):
                prob, vehicles = _section(o, f"{where}.outcomes[{m}]", ("prob", "vehicles"))
                outcomes.append((_to_fraction(prob), tuple(
                    VehicleState(_integer(s, "vehicle stay"), _integer(g, "vehicle need"))
                    for s, g in vehicles)))
            laws.append(TabulatedArrivals(tuple(outcomes)))
        else:
            _section(law, where, ("kind",), law)
            raise ValueError(f"unknown arrival law kind {kind!r} in {where!r}")
    demand = DemandModel(kernel=dkernel, arrivals=tuple(laws))

    init = doc.get("initial", {})
    if not isinstance(init, dict) or not set(init) <= {"grid", "demand"}:
        raise ValueError("scenario JSON 'initial' must be an object of 'grid' and "
                         f"'demand' states, not {init!r}")
    init = {k: _integer(v, f"initial {k}") for k, v in init.items()}
    return ScenarioModel(
        name=str(doc.get("name", "scenario")),
        num_chargers=n, max_stay=max_stay, max_units=max_units,
        grid=grid, demand=demand, penalty=penalty,
        initial_grid=init.get("grid"), initial_demand=init.get("demand"))


def load_scenario(path) -> ScenarioModel:
    with open(path) as fh:
        return scenario_from_json(json.load(fh))


def save_scenario(scenario: ScenarioModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_json(scenario), fh, indent=2)
        fh.write("\n")
