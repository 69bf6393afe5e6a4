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
from itertools import compress, count, islice
from operator import itemgetter, not_
from typing import Sequence

import numpy as np

from . import linalg, streams
from .core import EMPTY, PenaltyFunction, SystemState, VehicleState, step_tables, vehicle_type

ROW_SUM_TOL = 1e-12


def _to_fraction(x) -> Fraction:
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (int, Fraction)):
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
    (non-decreasing) cdf entry exceeds u, or the last index."""
    return min(bisect.bisect_right(cdf_row, u), len(cdf_row) - 1)


def _float_cdf(probabilities: Sequence[Fraction]) -> list[float]:
    """Float CDF of an exact probability row, for `sample_index`."""
    return np.cumsum([float(p) for p in probabilities]).tolist()


# ---------------------------------------------------------------------------
# Charging cost functions
# ---------------------------------------------------------------------------

class ChargingCost:
    """Maps (aggregate charge count A, grid state index) to an exact cost."""

    def __call__(self, aggregate: int, grid_index: int) -> Fraction:
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError


@dataclass(frozen=True)
class CapacityCost(ChargingCost):
    """Free while A stays within the grid state's value, its capacity, and a
    prohibitive ceiling N * q(E) beyond it: the largest penalty the whole
    fleet could ever incur, so no sane policy exceeds capacity.  It holds
    nothing; `StagePrices` prices it from the scenario's grid and penalty."""

    def to_json(self):
        return "capacity"


@dataclass(frozen=True)
class QuadraticLoadCost(ChargingCost):
    """Generation cost (A + s_value)^2 of the total net load."""
    base_loads: tuple[int, ...]

    def __call__(self, aggregate: int, grid_index: int) -> Fraction:
        return Fraction((aggregate + self.base_loads[grid_index]) ** 2)

    def to_json(self):
        return "quadratic"


@dataclass(frozen=True)
class TableCost(ChargingCost):
    """Explicit cost table indexed [A][grid state index]."""
    table: tuple[tuple[Fraction, ...], ...]

    def __call__(self, aggregate: int, grid_index: int) -> Fraction:
        return self.table[aggregate][grid_index]

    def to_json(self):
        return [[str(c) if c.denominator != 1 else int(c) for c in row] for row in self.table]


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
    _cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.values)
        if not n:
            raise ValueError("the grid has no states")
        if min(self.values) < 0:
            raise ValueError(f"grid value {min(self.values)} is negative; "
                             "a grid value is a charging capacity")
        if self.iid_uniform:
            object.__setattr__(self, "kernel", None)
            object.__setattr__(self, "_cdf", None)
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
        cdf = np.cumsum(np.array([[list(map(float, r)) for r in pa] for pa in fixed]), axis=2)
        object.__setattr__(self, "_cdf", cdf)

    @property
    def state_count(self) -> int:
        return len(self.values)

    @functools.cached_property
    def cdf_rows(self) -> list[list[list[float]]]:
        """The float CDF of every kernel row, [s][A], for scalar draws."""
        return self._cdf.tolist()

    def action_dim_covers(self, n_chargers: int) -> bool:
        if self.iid_uniform:
            return True
        return len(self.kernel[0]) == n_chargers + 1

    def row(self, s: int, aggregate: int) -> tuple[Fraction, ...]:
        if self.iid_uniform:
            p = Fraction(1, self.state_count)
            return tuple(p for _ in range(self.state_count))
        return self.kernel[s][aggregate]

    def special_state(self) -> int | None:
        """A state reachable (under zero aggregate action) from every initial
        state, if one exists: the anchor the constant-gain argument needs."""
        if self.iid_uniform:
            return 0
        graph = _positive_graph([per_action[0] for per_action in self.kernel])
        common = set.intersection(*(set(_reachable(graph, s0))
                                    for s0 in range(self.state_count)))
        return min(common) if common else None

    @functools.cached_property
    def initial_distribution(self) -> tuple[Fraction, ...]:
        """Stationary distribution of the zero-action chain when it is
        irreducible, else uniform.  Used to draw the starting grid state."""
        if self.iid_uniform:
            return tuple(Fraction(1, self.state_count) for _ in range(self.state_count))
        return _stationary_or_uniform([per_action[0] for per_action in self.kernel])

    @functools.cached_property
    def initial_cdf(self) -> list[float]:
        return _float_cdf(self.initial_distribution)


def _stationary_or_uniform(p: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """Exact stationary distribution of an irreducible chain, uniform otherwise.
    pi(i) is the long-run average of the cost that is 1 in state i and 0
    elsewhere, so `linalg.chain_average` is the one solver."""
    if not _irreducible(p):
        return tuple(Fraction(1, len(p)) for _ in p)
    moves = [[(y, q) for y, q in enumerate(row) if q] for row in p]
    return tuple(linalg.chain_average({s: linalg.integer_row(m, int(s == i))
                                       for s, m in enumerate(moves)})
                 for i in range(len(p)))


def _positive_graph(p: Sequence[Sequence[Fraction]]):
    """The positive entries of p as a sparse 0/1 adjacency matrix."""
    # Imported on first use: importing scipy.sparse at the top of this module
    # raised the peak resident set of a Monte Carlo run by about 1.6 MB
    # (Python 3.11, scipy 1.17).
    import scipy.sparse as sp
    return sp.csr_matrix([[q > 0 for q in row] for row in p])


def _reachable(graph, start: int) -> list[int]:
    """The states a sparse transition graph reaches from `start`, in order."""
    from scipy.sparse.csgraph import breadth_first_order
    return sorted(breadth_first_order(graph, start, return_predecessors=False).tolist())


def _irreducible(p: Sequence[Sequence[Fraction]]) -> bool:
    """Every state reaches every other along the positive entries of p."""
    from scipy.sparse.csgraph import connected_components
    return connected_components(_positive_graph(p), connection="strong")[0] == 1


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

    def sample(self, key, traj: int, stage: int, max_stay: int) -> list[VehicleState]:
        if self.count == 0:
            return []
        u_stay = streams.uniforms(key, traj, stage, streams.STAY, self.count)
        u_req = streams.uniforms(key, traj, stage, streams.REQUEST, self.count)
        stays = (u_stay * max_stay).astype(np.int64) + 1
        reqs = (u_req * stays).astype(np.int64) + 1
        return list(map(vehicle_type, stays.tolist(), reqs.tolist()))


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
        return _float_cdf([p for p, _ in self.outcomes])

    def sample(self, key, traj: int, stage: int, max_stay: int) -> list[VehicleState]:
        u = streams.uniform(key, traj, stage, streams.OUTCOME)
        return list(self.outcomes[sample_index(self.cdf, u)][1])


ArrivalLaw = FixedCountArrivals | TabulatedArrivals


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
        """Irreducible and aperiodic, decided structurally."""
        p = [list(r) for r in self.kernel]
        return _irreducible(p) and _period(p) == 1

    @functools.cached_property
    def initial_distribution(self) -> tuple[Fraction, ...]:
        return _stationary_or_uniform(self.kernel)

    @functools.cached_property
    def initial_cdf(self) -> list[float]:
        return _float_cdf(self.initial_distribution)

    @functools.cached_property
    def kernel_cdf(self) -> list[list[float]]:
        return [_float_cdf(row) for row in self.kernel]


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
    cost, each priced on first use and kept, except a capacity price (0 up to
    the grid value, ``ceiling`` = N * q(E) beyond it), which is never stored.
    ``q`` is the penalty table and ``bound`` the largest charge magnitude, in
    units, and ``steps`` its `core.step_tables`.  Sums of these stay Python
    ints, so no total wraps."""

    def __init__(self, scenario: "ScenarioModel"):
        super().__init__()
        cost = self.cost = scenario.grid.cost
        self.shape = (scenario.num_chargers + 1, scenario.grid.state_count)
        # Charges that cover every entry's denominator and bound its magnitude.
        capacity = isinstance(cost, CapacityCost)
        if capacity:
            charges = [scenario.num_chargers * scenario.penalty(scenario.max_units)]
        elif isinstance(cost, QuadraticLoadCost):
            charges = [Fraction((scenario.num_chargers + max(map(abs, cost.base_loads))) ** 2)]
        else:
            charges = [Fraction(cost(a, s)) for a in range(self.shape[0])
                       for s in range(self.shape[1])]
        q = scenario.penalty.values
        unit = self.unit = math.lcm(*(c.denominator for c in (*q, *charges)))
        self.q = tuple(int(v * unit) for v in q)
        self.steps = step_tables(self.q)
        self.bound = int(max(map(abs, charges)) * unit)
        self.ceiling = int(charges[0] * unit) if capacity else None
        self.capacities = scenario.grid.values

    def __missing__(self, key: tuple[int, int]) -> int:
        if self.ceiling is not None:
            return 0 if key[0] <= self.capacities[key[1]] else self.ceiling
        c = Fraction(self.cost(*key))
        units = self[key] = c.numerator * (self.unit // c.denominator)
        return units

    def table(self) -> np.ndarray:
        """Every charging cost in units as int64, indexed [aggregate, grid
        state]: the batch engine's copy."""
        a = np.arange(self.shape[0])[:, None]
        if self.ceiling is not None:
            return np.where(a <= np.asarray(self.capacities), 0, self.ceiling)
        if isinstance(self.cost, QuadraticLoadCost):
            return (a + np.asarray(self.cost.base_loads)) ** 2 * self.unit
        return np.array([[self[k, s] for s in range(self.shape[1])]
                         for k in range(self.shape[0])], dtype=np.int64)


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
        if not self.grid.action_dim_covers(self.num_chargers):
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

def sample_grid(grid: GridModel, s: int, aggregate: int, key, traj: int, stage: int) -> int:
    """Next grid state; consumes exactly one uniform from the grid substream."""
    u = streams.uniform(key, traj, stage, streams.GRID)
    if grid.iid_uniform:
        return int(u * grid.state_count)
    return sample_index(grid.cdf_rows[s][aggregate], u)


def sample_demand(demand: DemandModel, d: int, key, traj: int, stage: int,
                  max_stay: int) -> tuple[int, list[VehicleState]]:
    """Next demand state and the arrival batch generated while in state d.

    The chain transition consumes one uniform when there is more than one
    demand state and none otherwise; arrival draws come from their own
    substreams so the consumption pattern never depends on the policy.
    """
    if demand.state_count > 1:
        u = streams.uniform(key, traj, stage, streams.DEMAND)
        d_next = sample_index(demand.kernel_cdf[d], u)
    else:
        d_next = d
    arrivals = demand.arrivals[d].sample(key, traj, stage, max_stay)
    return d_next, arrivals


def admit(out: list[VehicleState], arrivals: Sequence[VehicleState]) -> list[int]:
    """Place arrivals on the lowest-index empty chargers of ``out``, in place
    and in arrival order; return the chargers filled, in order.  The overflow
    is dropped: ``len(arrivals) - len(filled)`` were turned away."""
    if not arrivals:
        return []
    # Lazily, so the search stops at the last slot used.
    empties = compress(count(), map(not_, map(itemgetter(0), out)))
    filled = list(islice(empties, len(arrivals)))
    for slot, arrival in zip(filled, arrivals):
        out[slot] = arrival
    return filled


def draw_initial(scenario: ScenarioModel, key, traj: int) -> SystemState:
    """All chargers empty; grid/demand drawn from their marginals unless the
    scenario pins them."""
    if scenario.initial_grid is not None:
        s0 = scenario.initial_grid
    elif scenario.grid.iid_uniform:
        u = streams.uniform(key, traj, 0, streams.INIT_GRID)
        s0 = int(u * scenario.grid.state_count)
    else:
        u = streams.uniform(key, traj, 0, streams.INIT_GRID)
        s0 = sample_index(scenario.grid.initial_cdf, u)
    if scenario.initial_demand is not None:
        d0 = scenario.initial_demand
    else:
        u = streams.uniform(key, traj, 0, streams.INIT_DEMAND)
        d0 = sample_index(scenario.demand.initial_cdf, u)
    return scenario.empty_state(s0, d0)


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
        if penalty.max_units != max_units:
            raise ValueError("penalty table length must be E + 1")
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
    q = penalty.values
    if q == tuple(Fraction(n) for n in range(len(q))):
        return "linear"
    if q == tuple(Fraction(n * n) for n in range(len(q))):
        return "quadratic"
    steps = [b - a for a, b in zip(q, q[1:])]
    convex = all(d >= 0 for d in steps) and all(a <= b for a, b in zip(steps, steps[1:]))
    return "table" if convex else "nonconvex"


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

def _frac_json(p: Fraction):
    return int(p) if p.denominator == 1 else str(p)


def scenario_to_json(scenario: ScenarioModel) -> dict:
    grid: dict = {"states": list(scenario.grid.values)}
    if scenario.grid.iid_uniform:
        grid["iid_uniform"] = [scenario.grid.values[0], scenario.grid.values[-1]]
    else:
        grid["kernel"] = [[[_frac_json(p) for p in row] for row in pa]
                          for pa in scenario.grid.kernel]
    grid["cost"] = scenario.grid.cost.to_json()

    arrival_laws = []
    for law in scenario.demand.arrivals:
        if isinstance(law, FixedCountArrivals):
            arrival_laws.append({"kind": "fixed_count", "count": law.count})
        else:
            arrival_laws.append({
                "kind": "tabulated",
                "outcomes": [{"prob": _frac_json(p), "vehicles": [[v.stay, v.need] for v in vs]}
                             for p, vs in law.outcomes]})

    kind = penalty_kind(scenario.penalty)
    values = [_frac_json(v) for v in scenario.penalty.values]
    penalty = {"table": values,
               "nonconvex": {"values": values, "allow_nonconvex": True}}.get(kind, kind)

    out = {
        "name": scenario.name,
        "N": scenario.num_chargers,
        "B": scenario.max_stay,
        "E": scenario.max_units,
        "grid": grid,
        "demand": {"states": scenario.demand.state_count,
                   "kernel": [[_frac_json(p) for p in row] for row in scenario.demand.kernel]},
        "arrival": {"per_state": arrival_laws},
        "penalty": penalty,
    }
    if scenario.initial_grid is not None or scenario.initial_demand is not None:
        out["initial"] = {}
        if scenario.initial_grid is not None:
            out["initial"]["grid"] = scenario.initial_grid
        if scenario.initial_demand is not None:
            out["initial"]["demand"] = scenario.initial_demand
    return out


def _integer(x, what: str) -> int:
    """A JSON integer, refusing a fraction, a boolean or a string rather
    than truncating it; an integral float such as 2.0 passes."""
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} = {x!r} is not an integer")
    return x


def scenario_from_json(doc: dict) -> ScenarioModel:
    try:
        n, max_stay, max_units = (_integer(doc[k], k) for k in ("N", "B", "E"))
        gdoc = doc["grid"]
        ddoc = doc["demand"]
        adoc = doc["arrival"]
        pdoc = doc["penalty"]
    except KeyError as exc:
        raise ValueError(f"scenario JSON missing key {exc}") from None

    if isinstance(pdoc, dict):
        # Explicit opt-in for negative-control fixtures with non-convex tables.
        pdoc = PenaltyFunction([_to_fraction(v) for v in pdoc["values"]],
                               require_convex=not pdoc.get("allow_nonconvex", False))
    elif not isinstance(pdoc, str):
        pdoc = PenaltyFunction([_to_fraction(v) for v in pdoc])
    penalty = _resolve_penalty(pdoc, max_units)

    iid = False
    if "iid_uniform" in gdoc:
        lo, hi = (_integer(v, "grid iid_uniform") for v in gdoc["iid_uniform"])
        values = tuple(range(lo, hi + 1))
        kernel = None
        iid = True
    else:
        values = tuple(_integer(v, "grid states") for v in gdoc["states"])
        kernel = tuple(
            tuple(tuple(_to_fraction(p) for p in row) for row in pa)
            for pa in gdoc["kernel"])

    cdoc = gdoc["cost"]
    if cdoc == "capacity":
        cost: ChargingCost = CapacityCost()
    elif cdoc == "quadratic":
        cost = QuadraticLoadCost(base_loads=values)
    else:
        cost = TableCost(tuple(tuple(_to_fraction(c) for c in row) for row in cdoc))

    grid = GridModel(values=values, kernel=kernel, cost=cost, iid_uniform=iid)

    dkernel = tuple(tuple(_to_fraction(p) for p in row) for row in ddoc["kernel"])
    if "states" in ddoc and _integer(ddoc["states"], "demand states") != len(dkernel):
        raise ValueError(f"demand states = {ddoc['states']}, but the demand kernel "
                         f"has {len(dkernel)} rows")
    laws = []
    for law in adoc["per_state"]:
        if law["kind"] == "fixed_count":
            laws.append(FixedCountArrivals(_integer(law["count"], "arrival count")))
        elif law["kind"] == "tabulated":
            outcomes = tuple(
                (_to_fraction(o["prob"]),
                 tuple(VehicleState(_integer(s, "vehicle stay"), _integer(g, "vehicle need"))
                       for s, g in o["vehicles"]))
                for o in law["outcomes"])
            laws.append(TabulatedArrivals(outcomes))
        else:
            raise ValueError(f"unknown arrival law kind {law['kind']!r}")
    demand = DemandModel(kernel=dkernel, arrivals=tuple(laws))

    init = {k: _integer(v, f"initial {k}") for k, v in doc.get("initial", {}).items()}
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
