"""Exact average-cost dynamic programming on fully enumerable instances.

The state space is the full valid lattice for the scenario's geometry (every
charger state with stay in 0..B and need in 0..E, the empty sentinel included,
across all grid and demand states).  Relative value iteration anchored at the
all-empty special state computes the optimal gain and differential costs in
floating point; the constant-gain check across recurrent classes runs in
floating point too.  Exact rational arithmetic re-verifies the rest: policy
evaluation by the average-cost evaluation equations, an exhaustive brute
force over stationary deterministic policies, and a projection that rewrites
an optimal policy into one that never charges a vehicle while idling a
strictly higher-priority one, checking at every swap that the swapped action
still attains the Bellman minimum.

There is one float path and one exact path.  Everything in floating point
reads `EnumeratedMDP._flat` (stage costs and a pairs x states sparse
matrix); every exact gain is `linalg.chain_average` (a forward fraction-free
integer sweep) of the rows `_integer_row` scales to integers, each
(state, action) once per call.

Enumeration runs fleet by fleet.  Each (fleet, action) is settled once by
`core.settle_stage`, whose penalty and stepped fleet hold for all of the
fleet's grid and demand states; the charging cost depends only on the
aggregate and the grid state, so the row of stage costs over the grid states
is built once per (aggregate, penalty), each cost one Fraction of the
integers `ScenarioModel.prices` gives in units of 1/L.  The joint law of
arrivals and next grid and demand states is computed once per (grid state,
aggregate action, demand state), `admit` runs once per (stepped fleet,
arrival batch), and each transition row is built once per (stepped fleet,
grid state, aggregate action, demand state) and shared by every state-action
pair that leads to it.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import linalg
from .core import ActionVector, EMPTY, SystemState, VehicleState, settle_stage
from .models import ScenarioModel, TabulatedArrivals, _reachable, admit
from .policies import check_lllp_compliance

DEFAULT_STATE_CEILING = 2_000_000
BRUTE_FORCE_LIMIT = 5_000_000    # stationary deterministic policies


class StateCeilingExceeded(ValueError):
    pass


class NonConvergenceError(RuntimeError):
    pass


class ProjectionError(RuntimeError):
    """A priority swap failed the Bellman-minimum check: either the tolerance
    is too tight or something upstream is wrong; never expected on a converged
    solution with a convex penalty."""


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

@dataclass
class EnumeratedMDP:
    # enumerate_mdp shares list objects between states (one action list per
    # fleet, one cost row per fleet and grid state, one transition row per
    # stepped fleet and exogenous law): read them, never mutate them.
    scenario: ScenarioModel
    states: list[SystemState]
    index: dict[SystemState, int]
    actions: list[list[ActionVector]]                  # per state, lexicographic
    costs: list[list[Fraction]]                        # per (state, action)
    transitions: list[list[list[tuple[int, Fraction]]]]  # per (state, action): (target, p > 0)
    special_state: int
    assumption_notes: list[str] = field(default_factory=list)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @functools.cached_property
    def _flat(self) -> tuple[np.ndarray, np.ndarray, sp.csr_matrix]:
        """Float form for value iteration, built on first use: per-state
        offsets into the state-action pairs, the pairs' stage costs, and the
        pairs x states transition matrix."""
        starts = np.zeros(self.n_states + 1, dtype=np.int64)
        np.cumsum([len(acts) for acts in self.actions], out=starts[1:])
        # One matrix row per state-action pair.  Enumeration shares row
        # objects among pairs, so the distinct rows are converted once, into
        # a CSR matrix of their own (the targets of a row are distinct and
        # sorted), and each pair selects its row from it.
        pairs = [moves for per_action in self.transitions for moves in per_action]
        distinct = {id(moves): moves for moves in pairs}
        where = {key: k for k, key in enumerate(distinct)}
        indptr = np.zeros(len(distinct) + 1, dtype=np.int64)
        np.cumsum([len(moves) for moves in distinct.values()], out=indptr[1:])
        cols = [y for moves in distinct.values() for y, _ in moves]
        probs = _to_floats([pr for moves in distinct.values() for _, pr in moves])
        rows = sp.csr_matrix((probs, cols, indptr), shape=(len(distinct), self.n_states))
        mat = rows[[where[id(moves)] for moves in pairs]]
        cost = np.array(_to_floats([c for row in self.costs for c in row]))
        return starts, cost, mat


def _to_floats(values: list[Fraction]) -> list[float]:
    """float() of each value, computed once per distinct object: enumeration
    shares Fraction objects among many costs and transition entries, and a
    lookup by id() costs less than float() of a Fraction, or than its hash."""
    floats = {id(v): v for v in values}
    floats = {k: float(v) for k, v in floats.items()}
    return [floats[id(v)] for v in values]


def lattice_size(scenario: ScenarioModel) -> int:
    per_charger = 1 + scenario.max_stay * (scenario.max_units + 1)
    return (per_charger ** scenario.num_chargers
            * scenario.grid.state_count * scenario.demand.state_count)


def validate_unichain_assumptions(scenario: ScenarioModel) -> list[str]:
    """Structural checks behind the constant-gain argument: positive
    zero-arrival probability everywhere, a grid state reachable from anywhere
    without charging, and an ergodic demand chain."""
    notes = []
    for d, law in enumerate(scenario.demand.arrivals):
        if law.zero_arrival_probability() <= 0:
            notes.append(f"demand state {d}: zero-arrival probability is 0")
    if scenario.grid.special_state() is None:
        notes.append("no grid state is reachable from every state under zero charging")
    if not scenario.demand.is_ergodic():
        notes.append("demand chain is not ergodic")
    return notes


def _charger_states(scenario: ScenarioModel) -> list[VehicleState]:
    out = [EMPTY]
    for stay in range(1, scenario.max_stay + 1):
        for need in range(scenario.max_units + 1):
            out.append(VehicleState(stay, need))
    return out


def _feasible_actions(vehicles: tuple[VehicleState, ...]) -> list[ActionVector]:
    choices = [(0, 1) if v.need > 0 else (0,) for v in vehicles]
    return [ActionVector(bits) for bits in itertools.product(*choices)]


def _exogenous_law(scenario: ScenarioModel, grid: int, aggregate: int,
                   demand: int) -> tuple:
    """Joint law of what the policy does not choose, from grid state `grid`
    under aggregate action `aggregate` and demand state `demand`: for each
    arrival batch of positive probability, the (s2 * D + d2, probability)
    pairs of the next grid state s2 and demand state d2 (D demand states).
    Raises ValueError unless the probabilities sum to 1."""
    grid_row = scenario.grid.row(grid, aggregate)
    demand_row = scenario.demand.kernel[demand]
    law = []
    for p_arr, arrivals in scenario.demand.arrivals[demand].outcomes:
        if p_arr == 0:
            continue
        law.append((arrivals, tuple(
            (s2 * len(demand_row) + d2, Fraction(p_arr * p_g * p_d))
            for s2, p_g in enumerate(grid_row) if p_g != 0
            for d2, p_d in enumerate(demand_row) if p_d != 0)))
    if sum((p for _, moves in law for _, p in moves), Fraction(0)) != 1:
        raise ValueError("transition row does not sum to 1")
    return tuple(law)


def enumerate_mdp(scenario: ScenarioModel,
                  ceiling: int = DEFAULT_STATE_CEILING) -> EnumeratedMDP:
    """Materialize the full state lattice with exact transition probabilities.

    Requires tabulated arrival laws (exact probabilities); fails if the
    lattice would exceed the ceiling.  Works fleet by fleet, sharing each
    transition row among the state-action pairs that reach it (see the
    module docstring).
    """
    n_lattice = lattice_size(scenario)
    if n_lattice > ceiling:
        raise StateCeilingExceeded(
            f"{n_lattice} states exceed the ceiling of {ceiling}")
    for law in scenario.demand.arrivals:
        if not isinstance(law, TabulatedArrivals):
            raise ValueError("exact enumeration requires tabulated arrival laws")

    fleets = list(itertools.product(_charger_states(scenario),
                                    repeat=scenario.num_chargers))
    fleet_index = {v: k for k, v in enumerate(fleets)}
    n_grid, n_demand = scenario.grid.state_count, scenario.demand.state_count
    states = [SystemState(v, s, d) for v in fleets
              for s in range(n_grid) for d in range(n_demand)]
    index = {x: k for k, x in enumerate(states)}

    sbar = scenario.grid.special_state()
    if sbar is None:
        sbar = scenario.initial_grid or 0
    anchor = index[scenario.empty_state(sbar, scenario.initial_demand or 0)]
    notes = validate_unichain_assumptions(scenario)

    prices = scenario.prices
    totals: dict[tuple[int, int], list[Fraction]] = {}
    rows = _TransitionRows(scenario, fleets, fleet_index)
    actions: list[list[ActionVector]] = []
    costs: list[list[Fraction]] = []
    transitions: list[list[list[tuple[int, Fraction]]]] = []
    by_pattern: dict[tuple[bool, ...], list[ActionVector]] = {}
    for fleet in fleets:
        pattern = tuple([need > 0 for _, need in fleet])
        acts = by_pattern.get(pattern)
        if acts is None:
            acts = by_pattern[pattern] = _feasible_actions(fleet)
        x = SystemState(fleet, 0, 0)    # the penalty and the step ignore the grid
        settled = []    # (stepped fleet, aggregate, stage cost per grid state)
        for a in acts:
            shortfall, stepped, _ = settle_stage(x, a, prices.steps)
            key = (a.aggregate, shortfall)
            if key not in totals:
                totals[key] = [Fraction(prices[a.aggregate, s] + shortfall, prices.unit)
                               for s in range(n_grid)]
            settled.append((fleet_index[tuple(stepped)], a.aggregate, totals[key]))
        for s in range(n_grid):
            c_row = [by_grid[s] for _, _, by_grid in settled]
            for d in range(n_demand):
                actions.append(acts)
                costs.append(c_row)
                transitions.append([rows[y, s, agg, d] for y, agg, _ in settled])
    return EnumeratedMDP(scenario=scenario, states=states, index=index,
                         actions=actions, costs=costs, transitions=transitions,
                         special_state=anchor, assumption_notes=notes)


class _TransitionRows(dict):
    """Transition rows keyed by (stepped fleet index, grid state, aggregate,
    demand state), each built on first use.  States are ordered fleet-major,
    then grid, then demand, so a successor's index is its fleet's index times
    G * D plus an offset; `admit` runs once per (stepped fleet, arrival
    batch)."""

    def __init__(self, scenario: ScenarioModel, fleets: list, fleet_index: dict):
        super().__init__()
        self.scenario = scenario
        self.fleets = fleets
        self.fleet_index = fleet_index
        self.n_exo = scenario.grid.state_count * scenario.demand.state_count
        self.laws: dict[tuple[int, int, int], tuple] = {}
        self.bases: dict[tuple[int, tuple], int] = {}

    def __missing__(self, key: tuple[int, int, int, int]) -> list[tuple[int, Fraction]]:
        stepped, law_key = key[0], key[1:]
        law = self.laws.get(law_key)
        if law is None:
            law = self.laws[law_key] = _exogenous_law(self.scenario, *law_key)
        dist: dict[int, Fraction] = {}
        for arrivals, moves in law:
            base = self.bases.get((stepped, arrivals))
            if base is None:
                admitted = list(self.fleets[stepped])
                admit(admitted, arrivals)
                base = self.bases[stepped, arrivals] = (
                    self.fleet_index[tuple(admitted)] * self.n_exo)
            for offset, p in moves:
                y = base + offset
                prev = dist.get(y)
                dist[y] = p if prev is None else prev + p
        row = self[key] = sorted(dist.items())
        return row


# ---------------------------------------------------------------------------
# Relative value iteration
# ---------------------------------------------------------------------------

@dataclass
class DPSolution:
    gain: float
    h: np.ndarray
    policy: np.ndarray          # action index per state
    residual: float
    iterations: int


def relative_value_iteration(mdp: EnumeratedMDP, tol: float = 1e-12,
                             max_iter: int = 200_000) -> DPSolution:
    """Anchored value iteration with span-seminorm stopping; a damped sweep
    (operator mixed with the identity) kicks in if plain sweeps have not
    converged after half the budget, which handles periodic chains."""
    starts, cost, mat = mdp._flat
    seg = starts[:-1]
    anchor = mdp.special_state
    h = np.zeros(mdp.n_states)
    damping: float | None = None
    iterations = 0
    converged = False
    for it in range(max_iter):
        iterations = it + 1
        q = cost + mat @ h
        t_h = np.minimum.reduceat(q, seg)
        diff = t_h - h
        span = float(diff.max() - diff.min())
        new_h = t_h - t_h[anchor]
        if damping is not None:
            new_h = damping * new_h + (1 - damping) * h
        h = new_h
        if span <= tol:
            converged = True
            break
        if damping is None and it == max_iter // 2:
            damping = 0.999
    q = cost + mat @ h
    t_h = np.minimum.reduceat(q, seg)
    gain = float(t_h[anchor] - h[anchor])
    residual = float(np.abs(gain + h - t_h).max())
    policy = _greedy_from_q(q, starts, t_h)
    if not converged:
        raise NonConvergenceError(
            f"span did not reach {tol} within {max_iter} sweeps "
            f"(last residual {residual:.3g}); the instance may not have "
            "state-independent average cost")
    return DPSolution(gain=gain, h=h, policy=policy, residual=residual,
                      iterations=iterations)


def _greedy_from_q(q: np.ndarray, starts: np.ndarray, t_h: np.ndarray) -> np.ndarray:
    # First index attaining the per-state minimum = lexicographically smallest
    # minimizing action, because actions are enumerated in lexicographic order.
    # Non-minimizing pairs get an index past the end, so the per-state minimum
    # of the indices is the first minimizer.
    pair = np.arange(len(q))
    first = np.where(q <= np.repeat(t_h, np.diff(starts)), pair, len(q))
    return np.minimum.reduceat(first, starts[:-1]) - starts[:-1]


# ---------------------------------------------------------------------------
# Policy evaluation (float and exact)
# ---------------------------------------------------------------------------

def _policy_graph(mdp: EnumeratedMDP, policy: Sequence[int]) -> sp.csr_matrix:
    """Transition matrix of the chain `policy` induces: the rows of
    `mdp._flat` it selects.  Its pattern lists exactly the transitions, so
    the exact code reads reachability from it and never its float values."""
    starts, _, mat = mdp._flat
    return mat[starts[:-1] + np.asarray(policy)]


def _closed_classes(mat: sp.spmatrix) -> list[list[int]]:
    """Closed communicating classes of a chain: the strongly connected
    components of its transition graph that no edge leaves."""
    n_comp, labels = connected_components(mat, directed=True, connection="strong")
    coo = mat.tocoo()
    exits = labels[coo.row] != labels[coo.col]
    has_exit = np.zeros(n_comp, dtype=bool)
    has_exit[labels[coo.row[exits]]] = True
    return [np.flatnonzero(labels == comp).tolist()
            for comp in range(n_comp) if not has_exit[comp]]


def recurrent_classes(mdp: EnumeratedMDP, policy: Sequence[int]) -> list[list[int]]:
    return _closed_classes(_policy_graph(mdp, policy))


def _integer_row(mdp: EnumeratedMDP, s: int, a: int) -> linalg.IntegerRow:
    return linalg.integer_row(mdp.transitions[s][a], mdp.costs[s][a])


def class_gain(mdp: EnumeratedMDP, policy: Sequence[int], cls: list[int]) -> float:
    """Average cost of `policy` on the closed class `cls`, in floating point
    from `mdp._flat`; `exact_policy_gain` is the exact counterpart."""
    starts, cost, mat = mdp._flat
    pairs = starts[cls] + np.asarray(policy)[cls]
    p = mat[pairs][:, cls].toarray()
    g = cost[pairs]
    a = np.vstack([p.T - np.eye(len(cls)), np.ones(len(cls))])
    b = np.zeros(len(cls) + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(a, b, rcond=None)
    return float(pi @ g)


@dataclass
class GainFindings:
    residual: float
    residual_ok: bool
    class_gains: list
    constant_gain: bool
    n_recurrent_classes: int

    @property
    def ok(self) -> bool:
        return self.residual_ok and self.constant_gain


def verify_constant_gain(mdp: EnumeratedMDP, solution: DPSolution,
                         tol: float = 1e-10) -> GainFindings:
    """Check the Bellman residual everywhere and that the greedy policy's
    average cost is the same from every initial state (all recurrent classes
    of the induced chain share one gain)."""
    starts, cost, mat = mdp._flat
    q = cost + mat @ solution.h
    t_h = np.minimum.reduceat(q, starts[:-1])
    residual = float(np.abs(solution.gain + solution.h - t_h).max())
    classes = recurrent_classes(mdp, solution.policy)
    gains = [class_gain(mdp, solution.policy, cls) for cls in classes]
    constant = max(gains) - min(gains) <= tol
    return GainFindings(residual=residual, residual_ok=residual <= tol,
                        class_gains=gains, constant_gain=constant,
                        n_recurrent_classes=len(classes))


def policy_closure(mdp: EnumeratedMDP, policy: Sequence[int], start: int) -> list[int]:
    return _reachable(_policy_graph(mdp, policy), start)


def exact_policy_gain(mdp: EnumeratedMDP, policy: Sequence[int]) -> Fraction:
    """Exact average cost of a stationary policy started at the special state
    (under the unichain assumptions this is its gain from every state):
    the average over the closure of the special state."""
    cls = policy_closure(mdp, policy, mdp.special_state)
    return _exact_gain({s: _integer_row(mdp, s, policy[s]) for s in cls})


# ---------------------------------------------------------------------------
# Brute force over stationary deterministic policies
# ---------------------------------------------------------------------------

def reachable_closure(mdp: EnumeratedMDP, start: int) -> list[int]:
    starts, _, mat = mdp._flat
    # Row k of the state graph joins the rows of state k's actions.
    graph = sp.csr_matrix((mat.data, mat.indices, mat.indptr[starts]),
                          shape=(mdp.n_states, mdp.n_states))
    return _reachable(graph, start)


@dataclass
class BruteForceResult:
    gain: Fraction
    policy: dict[int, int]     # action index per reachable state
    n_policies: int
    n_evaluations: int


def brute_force_optimal_gain(mdp: EnumeratedMDP) -> BruteForceResult:
    """Exact minimum average cost over every stationary deterministic policy.

    Enumeration runs over the closure of the special state under all actions:
    the special state is recurrent under every policy, so every policy's
    recurrent class lies inside that closure and actions elsewhere cannot
    change its gain.  A depth-first search fixes actions only on the states
    that the actions fixed so far reach, so each closed set with its actions
    is evaluated once.  The policy returned is the first optimal one in
    lexicographic order: action 0 wherever the optimal set does not reach.
    """
    reach = reachable_closure(mdp, mdp.special_state)
    pos = {s: k for k, s in enumerate(reach)}
    n = len(reach)
    # Successor sets as bit masks; the targets of a row are distinct.
    succ_masks = [[sum(1 << pos[y] for y, _ in row) for row in mdp.transitions[s]]
                  for s in reach]
    counts = [len(mdp.actions[s]) for s in reach]
    rows = [[_integer_row(mdp, s, a) for a in range(c)] for s, c in zip(reach, counts)]
    total = 1
    for c in counts:
        total *= c
        if total > BRUTE_FORCE_LIMIT:
            raise StateCeilingExceeded(f"policy space exceeds {BRUTE_FORCE_LIMIT}; "
                                       "instance too large for brute force")
    best: tuple[Fraction, list[int]] | None = None
    n_evaluations = 0
    # (fixed (position, action) pairs, positions reached, positions fixed)
    stack = [((), 1 << pos[mdp.special_state], 0)]
    while stack:
        fixed, reached, fixed_mask = stack.pop()
        open_mask = reached & ~fixed_mask
        if open_mask:
            k = (open_mask & -open_mask).bit_length() - 1
            for a in range(counts[k]):
                stack.append((fixed + ((k, a),), reached | succ_masks[k][a],
                              fixed_mask | 1 << k))
            continue
        fixed = sorted(fixed)
        gain = _exact_gain({reach[k]: rows[k][a] for k, a in fixed})
        n_evaluations += 1
        assignment = [0] * n
        for k, a in fixed:
            assignment[k] = a
        if best is None or (gain, assignment) < best:
            best = (gain, assignment)
    gain, assignment = best
    return BruteForceResult(
        gain=gain, policy={s: a for s, a in zip(reach, assignment)},
        n_policies=total, n_evaluations=n_evaluations)


def _exact_gain(rows: dict[int, linalg.IntegerRow]) -> Fraction:
    """Average cost on a closed set of states, in `linalg.chain_average`'s row
    form.  The set may hold transient states besides its one closed class;
    with several closed classes the average depends on which one the chain
    enters, and ValueError is raised rather than picking one."""
    try:
        return linalg.chain_average(rows)
    except ValueError:
        pos = {s: k for k, s in enumerate(rows)}
        edges = [(pos[s], pos[y]) for s, (_, moves, _) in rows.items()
                 for y, _ in moves]
        graph = sp.csr_matrix(([1] * len(edges), tuple(zip(*edges))),
                              shape=(len(rows), len(rows)))
        raise ValueError(f"{len(_closed_classes(graph))} closed classes are reachable "
                         "from the anchor; the average cost depends on which one "
                         "the chain enters") from None


# ---------------------------------------------------------------------------
# Priority-rule projection of an optimal policy
# ---------------------------------------------------------------------------

@dataclass
class ProjectionResult:
    policy: np.ndarray
    swaps: int


def lllp_projection(mdp: EnumeratedMDP, solution: DPSolution,
                    tol: float = 1e-9) -> ProjectionResult:
    """Rewrite the greedy policy so that no state charges a vehicle while
    idling a strictly higher-priority one.  Each swap exchanges the two bits
    and must keep the action Bellman-minimal within tol; the loop terminates
    because every swap strictly raises the priority rank of the charged set.
    """
    starts, cost, mat = mdp._flat
    q = cost + mat @ solution.h
    policy = solution.policy.copy()
    swaps = 0
    for k in range(mdp.n_states):
        act_list = mdp.actions[k]
        act_index = {a.bits: idx for idx, a in enumerate(act_list)}
        cur = act_list[policy[k]]
        guard = 0
        while True:
            pair = check_lllp_compliance(mdp.states[k], cur)
            if pair is None:
                break
            guard += 1
            if guard > len(mdp.states[k].vehicles) ** 2 + 1:
                raise ProjectionError(f"state {k}: swap loop failed to terminate")
            i, j = pair
            bits = list(cur.bits)
            bits[i], bits[j] = 0, 1
            swapped = tuple(bits)
            new_idx = act_index[swapped]
            q_old = q[starts[k] + policy[k]]
            q_new = q[starts[k] + new_idx]
            if q_new > q_old + tol:
                raise ProjectionError(
                    f"state {k}: swapped action loses Bellman minimality "
                    f"({q_new - q_old:.3g} above)")
            policy[k] = new_idx
            cur = act_list[new_idx]
            swaps += 1
    return ProjectionResult(policy=policy, swaps=swaps)


def compliance_violations(mdp: EnumeratedMDP, policy: Sequence[int]) -> int:
    return sum(
        1 for k in range(mdp.n_states)
        if check_lllp_compliance(mdp.states[k], mdp.actions[k][policy[k]]) is not None)


# ---------------------------------------------------------------------------
# Simulation glue and export
# ---------------------------------------------------------------------------

class TabularPolicy:
    """Stationary policy backed by the enumerated state index."""

    name = "tabular"

    def __init__(self, mdp: EnumeratedMDP, policy: Sequence[int]):
        self._mdp = mdp
        self._policy = policy

    def decide(self, state: SystemState, stage: int = 0) -> ActionVector:
        k = self._mdp.index[state]
        return self._mdp.actions[k][self._policy[k]]


def export_solution(mdp: EnumeratedMDP, solution: DPSolution, path) -> None:
    doc = {
        "gain": solution.gain,
        "h": solution.h.tolist(),
        "policy": {str(k): list(mdp.actions[k][solution.policy[k]].bits)
                   for k in range(mdp.n_states)},
        "residual": solution.residual,
        "iterations": solution.iterations,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")
