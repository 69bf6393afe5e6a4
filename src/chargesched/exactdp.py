"""Exact average-cost dynamic programming on fully enumerable instances.

The state space is the full valid lattice for the scenario's geometry (every
charger state with stay in 0..B and need in 0..E, the empty sentinel included,
across all grid and demand states).  Relative value iteration anchored at the
all-empty special state computes the optimal gain and differential costs in
floating point; everything downstream of it can be re-verified in exact
rational arithmetic: policy evaluation by stationary-distribution solves,
constant-gain checks across recurrent classes, an exhaustive brute force over
stationary deterministic policies, and a projection that rewrites an optimal
policy into one that never charges a vehicle while idling a strictly
higher-priority one, checking at every swap that the swapped action still
attains the Bellman minimum.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from . import linalg
from .core import (ActionVector, EMPTY, SystemState, VehicleState, stage_cost,
                   step_vehicles)
from .models import ScenarioModel, TabulatedArrivals, admit
from .policies import check_lllp_compliance

DEFAULT_STATE_CEILING = 2_000_000


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
    scenario: ScenarioModel
    states: list[SystemState]
    index: dict[SystemState, int]
    actions: list[list[ActionVector]]                  # per state, lexicographic
    costs: list[list[Fraction]]                        # per (state, action)
    transitions: list[list[list[tuple[int, Fraction]]]]  # per (state, action)
    special_state: int
    assumption_notes: list[str] = field(default_factory=list)

    @property
    def n_states(self) -> int:
        return len(self.states)


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


def enumerate_mdp(scenario: ScenarioModel,
                  ceiling: int = DEFAULT_STATE_CEILING) -> EnumeratedMDP:
    """Materialize the full state lattice with exact transition probabilities.

    Requires tabulated arrival laws (exact probabilities); fails if the
    lattice would exceed the ceiling.
    """
    n_lattice = lattice_size(scenario)
    if n_lattice > ceiling:
        raise StateCeilingExceeded(
            f"{n_lattice} states exceed the ceiling of {ceiling}")
    for law in scenario.demand.arrivals:
        if not isinstance(law, TabulatedArrivals):
            raise ValueError("exact enumeration requires tabulated arrival laws")

    per = _charger_states(scenario)
    states: list[SystemState] = []
    for vehicles in itertools.product(per, repeat=scenario.num_chargers):
        for s in range(scenario.grid.state_count):
            for d in range(scenario.demand.state_count):
                states.append(SystemState(tuple(vehicles), s, d))
    index = {x: k for k, x in enumerate(states)}

    sbar = scenario.grid.special_state()
    notes = validate_unichain_assumptions(scenario)
    if scenario.initial_grid is not None and sbar is None:
        sbar = scenario.initial_grid
    anchor = index[scenario.empty_state(sbar if sbar is not None else 0,
                                        scenario.initial_demand or 0)]

    cost_fn = scenario.grid.cost
    q = scenario.penalty
    actions: list[list[ActionVector]] = []
    costs: list[list[Fraction]] = []
    transitions: list[list[list[tuple[int, Fraction]]]] = []
    for x in states:
        acts = _feasible_actions(x.vehicles)
        actions.append(acts)
        c_row = []
        t_row = []
        for a in acts:
            c_row.append(stage_cost(x, a, cost_fn, q))
            stepped = step_vehicles(x.vehicles, a)
            grid_row = scenario.grid.row(x.grid, a.aggregate)
            demand_row = scenario.demand.kernel[x.demand]
            dist: dict[int, Fraction] = {}
            for p_arr, arrivals in scenario.demand.arrivals[x.demand].outcomes:
                if p_arr == 0:
                    continue
                admitted, _ = admit(stepped, arrivals)
                for s2, p_g in enumerate(grid_row):
                    if p_g == 0:
                        continue
                    for d2, p_d in enumerate(demand_row):
                        if p_d == 0:
                            continue
                        y = index[SystemState(admitted, s2, d2)]
                        dist[y] = dist.get(y, Fraction(0)) + p_arr * p_g * p_d
            total = sum(dist.values(), Fraction(0))
            if total != 1:
                raise ValueError("transition row does not sum to 1")
            t_row.append(sorted(dist.items()))
        costs.append(c_row)
        transitions.append(t_row)
    return EnumeratedMDP(scenario=scenario, states=states, index=index,
                         actions=actions, costs=costs, transitions=transitions,
                         special_state=anchor, assumption_notes=notes)


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
    converged: bool
    damping: float | None = None


def _flat_arrays(mdp: EnumeratedMDP):
    starts = np.zeros(mdp.n_states + 1, dtype=np.int64)
    for k in range(mdp.n_states):
        starts[k + 1] = starts[k] + len(mdp.actions[k])
    n_pairs = int(starts[-1])
    cost = np.empty(n_pairs)
    rows, cols, vals = [], [], []
    p = 0
    for k in range(mdp.n_states):
        for a in range(len(mdp.actions[k])):
            cost[p] = float(mdp.costs[k][a])
            for y, pr in mdp.transitions[k][a]:
                rows.append(p)
                cols.append(y)
                vals.append(float(pr))
            p += 1
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(n_pairs, mdp.n_states))
    return starts, cost, mat


def relative_value_iteration(mdp: EnumeratedMDP, tol: float = 1e-12,
                             max_iter: int = 200_000) -> DPSolution:
    """Anchored value iteration with span-seminorm stopping; a damped sweep
    (operator mixed with the identity) kicks in if plain sweeps have not
    converged after half the budget, which handles periodic chains."""
    starts, cost, mat = _flat_arrays(mdp)
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
        if span <= tol:
            h = new_h
            converged = True
            break
        h = new_h
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
                      iterations=iterations, converged=converged, damping=damping)


def _greedy_from_q(q: np.ndarray, starts: np.ndarray, t_h: np.ndarray) -> np.ndarray:
    # First index attaining the per-state minimum = lexicographically smallest
    # minimizing action, because actions are enumerated in lexicographic order.
    n = len(starts) - 1
    policy = np.zeros(n, dtype=np.int64)
    is_min = q <= np.repeat(t_h, np.diff(starts))
    for k in range(n):
        lo, hi = starts[k], starts[k + 1]
        policy[k] = int(np.argmax(is_min[lo:hi]))
    return policy


# ---------------------------------------------------------------------------
# Policy evaluation (float and exact)
# ---------------------------------------------------------------------------

def _policy_matrix(mdp: EnumeratedMDP, policy: Sequence[int]) -> sp.csr_matrix:
    rows, cols, vals = [], [], []
    for k in range(mdp.n_states):
        for y, pr in mdp.transitions[k][policy[k]]:
            rows.append(k)
            cols.append(y)
            vals.append(float(pr))
    return sp.csr_matrix((vals, (rows, cols)), shape=(mdp.n_states, mdp.n_states))


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
    return _closed_classes(_policy_matrix(mdp, policy))


def class_gain(mdp: EnumeratedMDP, policy: Sequence[int], cls: list[int],
               exact: bool) -> Fraction | float:
    pos = {s: k for k, s in enumerate(cls)}
    if exact:
        p = [[Fraction(0)] * len(cls) for _ in cls]
        g = []
        for k, s in enumerate(cls):
            for y, pr in mdp.transitions[s][policy[s]]:
                p[k][pos[y]] += pr
            g.append(mdp.costs[s][policy[s]])
        return linalg.chain_average(p, g)
    p = np.zeros((len(cls), len(cls)))
    g = np.zeros(len(cls))
    for k, s in enumerate(cls):
        for y, pr in mdp.transitions[s][policy[s]]:
            p[k, pos[y]] += float(pr)
        g[k] = float(mdp.costs[s][policy[s]])
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
                         tol: float = 1e-10, exact: bool = False) -> GainFindings:
    """Check the Bellman residual everywhere and that the greedy policy's
    average cost is the same from every initial state (all recurrent classes
    of the induced chain share one gain)."""
    starts, cost, mat = _flat_arrays(mdp)
    q = cost + mat @ solution.h
    t_h = np.minimum.reduceat(q, starts[:-1])
    residual = float(np.abs(solution.gain + solution.h - t_h).max())
    classes = recurrent_classes(mdp, solution.policy)
    gains = [class_gain(mdp, solution.policy, cls, exact) for cls in classes]
    if exact:
        constant = all(g == gains[0] for g in gains)
    else:
        spread = max(map(float, gains)) - min(map(float, gains))
        constant = spread <= tol
    return GainFindings(residual=residual, residual_ok=residual <= tol,
                        class_gains=gains, constant_gain=constant,
                        n_recurrent_classes=len(classes))


def policy_closure(mdp: EnumeratedMDP, policy: Sequence[int], start: int) -> list[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        s = frontier.pop()
        for y, pr in mdp.transitions[s][policy[s]]:
            if pr > 0 and y not in seen:
                seen.add(y)
                frontier.append(y)
    return sorted(seen)


def exact_policy_gain(mdp: EnumeratedMDP, policy: Sequence[int]) -> Fraction:
    """Exact average cost of a stationary policy started at the special state
    (under the unichain assumptions this is its gain from every state):
    stationary average over the closure of the special state."""
    cls = policy_closure(mdp, policy, mdp.special_state)
    return class_gain(mdp, policy, cls, exact=True)


# ---------------------------------------------------------------------------
# Brute force over stationary deterministic policies
# ---------------------------------------------------------------------------

def reachable_closure(mdp: EnumeratedMDP, start: int) -> list[int]:
    seen = {start}
    frontier = [start]
    while frontier:
        s = frontier.pop()
        for a in range(len(mdp.actions[s])):
            for y, pr in mdp.transitions[s][a]:
                if pr > 0 and y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return sorted(seen)


@dataclass
class BruteForceResult:
    gain: Fraction
    policy: dict[int, int]     # action index per reachable state
    n_policies: int
    n_evaluations: int
    reachable: list[int]


def brute_force_optimal_gain(mdp: EnumeratedMDP,
                             limit: int = 5_000_000) -> BruteForceResult:
    """Exact minimum average cost over every stationary deterministic policy.

    Enumeration runs over the closure of the special state under all actions:
    the special state is recurrent under every policy, so every policy's
    recurrent class lies inside that closure and actions elsewhere cannot
    change its gain.  Policies sharing (recurrent class, actions on it) are
    evaluated once.
    """
    reach = reachable_closure(mdp, mdp.special_state)
    pos = {s: k for k, s in enumerate(reach)}
    n = len(reach)
    succ_masks = []
    for s in reach:
        per_action = []
        for a in range(len(mdp.actions[s])):
            mask = 0
            for y, pr in mdp.transitions[s][a]:
                if pr > 0:
                    mask |= 1 << pos[y]
            per_action.append(mask)
        succ_masks.append(per_action)
    counts = [len(mdp.actions[s]) for s in reach]
    total = 1
    for c in counts:
        total *= c
        if total > limit:
            raise StateCeilingExceeded(
                f"policy space exceeds {limit}; instance too large for brute force")
    start_bit = 1 << pos[mdp.special_state]
    cache: dict[tuple, Fraction] = {}
    best: Fraction | None = None
    best_policy: tuple[int, ...] | None = None
    for assignment in itertools.product(*(range(c) for c in counts)):
        reach_mask = start_bit
        while True:
            nxt = reach_mask
            m = reach_mask
            while m:
                low = m & -m
                k = low.bit_length() - 1
                nxt |= succ_masks[k][assignment[k]]
                m ^= low
            if nxt == reach_mask:
                break
            reach_mask = nxt
        key_actions = []
        m = reach_mask
        while m:
            low = m & -m
            k = low.bit_length() - 1
            key_actions.append((k, assignment[k]))
            m ^= low
        key = tuple(key_actions)
        gain = cache.get(key)
        if gain is None:
            cls = [reach[k] for k, _ in key_actions]
            policy_map = {reach[k]: a for k, a in key_actions}
            gain = _exact_gain_on_class(mdp, policy_map, cls)
            cache[key] = gain
        if best is None or gain < best:
            best = gain
            best_policy = assignment
    return BruteForceResult(
        gain=best, policy={s: a for s, a in zip(reach, best_policy)},
        n_policies=total, n_evaluations=len(cache), reachable=reach)


def _exact_gain_on_class(mdp: EnumeratedMDP, policy_map: dict[int, int],
                         cls: list[int]) -> Fraction:
    """Average cost on a closed set of states.  If the set is not one
    communicating class (cannot happen under the unichain assumptions), the
    cost of its single closed class is used; with several closed classes the
    average depends on which one the chain enters, and ValueError is raised
    rather than picking one."""
    pos = {s: k for k, s in enumerate(cls)}
    p = [[Fraction(0)] * len(cls) for _ in cls]
    g = []
    for k, s in enumerate(cls):
        for y, pr in mdp.transitions[s][policy_map[s]]:
            p[k][pos[y]] += pr
        g.append(mdp.costs[s][policy_map[s]])
    try:
        return linalg.chain_average(p, g)
    except ValueError:
        closed = _closed_classes(sp.csr_matrix([[x > 0 for x in row] for row in p]))
        if len(closed) != 1:
            raise ValueError(f"{len(closed)} closed classes are reachable from the "
                             "anchor; the average cost depends on which one the "
                             "chain enters") from None
        sub = closed[0]
        return linalg.chain_average([[p[r][c] for c in sub] for r in sub],
                                    [g[r] for r in sub])


# ---------------------------------------------------------------------------
# Priority-rule projection of an optimal policy
# ---------------------------------------------------------------------------

@dataclass
class ProjectionResult:
    policy: np.ndarray
    swaps: int
    states_touched: int


def lllp_projection(mdp: EnumeratedMDP, solution: DPSolution,
                    tol: float = 1e-9) -> ProjectionResult:
    """Rewrite the greedy policy so that no state charges a vehicle while
    idling a strictly higher-priority one.  Each swap exchanges the two bits
    and must keep the action Bellman-minimal within tol; the loop terminates
    because every swap strictly raises the priority rank of the charged set.
    """
    starts, cost, mat = _flat_arrays(mdp)
    q = cost + mat @ solution.h
    horizon = mdp.scenario.max_stay
    policy = solution.policy.copy()
    swaps = 0
    touched = 0
    for k in range(mdp.n_states):
        act_list = mdp.actions[k]
        act_index = {a.bits: idx for idx, a in enumerate(act_list)}
        cur = act_list[policy[k]]
        changed = False
        guard = 0
        while True:
            pair = check_lllp_compliance(mdp.states[k], cur, horizon)
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
            changed = True
        if changed:
            touched += 1
    return ProjectionResult(policy=policy, swaps=swaps, states_touched=touched)


def compliance_violations(mdp: EnumeratedMDP, policy: Sequence[int]) -> int:
    horizon = mdp.scenario.max_stay
    return sum(
        1 for k in range(mdp.n_states)
        if check_lllp_compliance(mdp.states[k], mdp.actions[k][policy[k]], horizon)
        is not None)


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
