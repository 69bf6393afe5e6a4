"""Small exact-rational linear algebra: just enough to evaluate Markov chains
without floating error.

One solver, `chain_average`, gives the long-run average cost of each chain in
a batch.  Every system is solved fraction-free: each row is scaled to
integers (`integer_row`), the systems of one size are stacked into one
integer array, and one forward sweep runs on all of them at once, dividing
every update exactly by the previous pivot (Bareiss, "Sylvester's identity
and multistep integer-preserving Gaussian elimination", Math. Comp. 1968).
The sweep runs in int64 while every product it forms fits and continues on
Python ints past that.  Only the gains become Fractions.  A stationary
distribution needs no solver of its own: on an irreducible chain, pi(i) is
the average of the cost that is 1 in state i and 0 elsewhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

# One state's row for `chain_average`: (scale, [(target, weight)], scaled cost).
IntegerRow = tuple[int, list[tuple[int, int]], int]


class DenseRows(NamedTuple):
    """`IntegerRow`s as arrays of int64, or of Python ints where a value does
    not fit: scale and cost of one shape, and weight of that shape plus one
    axis over the states, holding each row's weight towards each state.
    Closed sets of n states stack as (K, n) and (K, n, n)."""
    scale: np.ndarray
    weight: np.ndarray
    cost: np.ndarray


class SingularSystem(ValueError):
    """The evaluation equations of the set at `index` of a batch are singular:
    the set holds several closed classes."""

    def __init__(self, index: int):
        super().__init__(f"set {index}: singular evaluation equations: "
                         "several closed classes")
        self.index = index


def integer_row(moves: Sequence[tuple[int, Fraction]], cost: Fraction | int) -> IntegerRow:
    """A state's moves [(target, probability)] and stage cost as
    `chain_average` reads them: every value over the lcm of their denominators."""
    scale = lcm(cost.denominator, *(p.denominator for _, p in moves))
    return (scale, [(y, p.numerator * (scale // p.denominator)) for y, p in moves],
            cost.numerator * (scale // cost.denominator))


def dense(rows: Iterable[tuple[int, IntegerRow]], pos: Mapping[int, int]) -> DenseRows:
    """The (state, row) pairs `rows` as `DenseRows`, with the weight towards
    state y in column pos[y]; ValueError names a state that moves to a state
    `pos` does not hold."""
    scale, weight, cost = [], [], []
    for s, (sc, moves, c) in rows:
        line = [0] * len(pos)
        for y, w in moves:
            if y not in pos:
                raise ValueError(f"state {s} moves to state {y}, outside its set")
            line[pos[y]] = w
        scale.append(sc)
        weight.append(line)
        cost.append(c)
    return DenseRows(_ints(scale), _ints(weight), _ints(cost))


def _ints(values: list) -> np.ndarray:
    """`values` (nested lists of ints) as an int64 array, or as an array of
    Python ints when one of them does not fit in int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def chain_average(systems: Sequence[Mapping[int, IntegerRow]] | DenseRows) -> list[Fraction]:
    """Long-run average cost of each chain in `systems`, in order: each on a
    closed set of states with one closed class (transient states allowed);
    `SingularSystem` with several.

    Each set maps its states s to (scale, [(target, weight)], scaled cost):
    the chain moves from s to each target with probability weight / scale
    and pays scaled cost / scale.  ValueError names a state that moves
    outside its set.  Sets of one size may come already stacked as
    `DenseRows`, each set's states in its own order.  The gain g solves the
    evaluation equations g + h(s) = c(s) + sum_y P(s, y) h(y) with h = 0 at
    the last state (Puterman, "Markov Decision Processes", 1994, ch. 8),
    which are nonsingular exactly when there is one closed class.
    """
    if isinstance(systems, DenseRows):
        return _solve(systems)
    gains: list[Fraction] = [Fraction(0)] * len(systems)
    by_size: dict[int, list[int]] = {}
    for i, rows in enumerate(systems):
        by_size.setdefault(len(rows), []).append(i)
    for members in by_size.values():
        sets = [dense(systems[i].items(), {s: k for k, s in enumerate(systems[i])})
                for i in members]
        try:
            found = _solve(DenseRows(*map(np.stack, zip(*sets))))
        except SingularSystem as err:
            raise SingularSystem(members[err.index]) from None
        for i, gain in zip(members, found):
            gains[i] = gain
    return gains


def _solve(rows: DenseRows) -> list[Fraction]:
    """Gains of the closed sets stacked in `rows`.  Row i of a set's
    equations, times its scale, holds the coefficients of h at the set's
    states, except that the column of the last state, where h = 0, holds
    g's; then the scaled cost.  A forward sweep, each set pivoting on its
    first row with a nonzero entry in the column, leaves pivot * g = rhs in
    the last row."""
    count, n = rows.scale.shape
    eqs = np.zeros((count, n, n + 1), dtype=np.result_type(*rows))
    np.negative(rows.weight, out=eqs[:, :, :n])
    diagonal = np.arange(n)
    eqs[:, diagonal, diagonal] += rows.scale
    eqs[:, :, n - 1] = rows.scale
    eqs[:, :, n] = rows.cost
    sets = np.arange(count)
    prev = np.ones(count, dtype=eqs.dtype)
    for k in range(n):
        if eqs.dtype != object:
            # Every update pk * v - f * w is at most 2 a^2 in magnitude, a
            # being the largest entry of the active block.
            block = eqs[:, k:, k:]
            a = max(int(block.max()), -int(block.min()))
            if 2 * a * a >= 1 << 63:
                eqs, prev = eqs.astype(object), prev.astype(object)
        nonzero = eqs[:, k:, k] != 0
        found = nonzero.any(axis=1)
        if not found.all():
            # h is not unique: there are several closed classes.  With one,
            # a stationary distribution, each entry over its row's scale,
            # maps the g column to 1 and every h column to 0, so the g
            # column is no combination of the h columns.
            raise SingularSystem(int(np.argmin(found)))
        if k == n - 1:
            break
        pivot = k + nonzero.argmax(axis=1)
        if (pivot != k).any():
            top = eqs[sets, pivot]
            eqs[sets, pivot] = eqs[:, k]
            eqs[:, k] = top
        pk = eqs[:, k, k]
        rest = eqs[:, k + 1:, k + 1:]    # updated in place: one temporary
        rest *= pk[:, None, None]
        rest -= eqs[:, k + 1:, k, None] * eqs[:, None, k, k + 1:]
        rest //= prev[:, None, None]
        prev = pk
    return [Fraction(int(rhs), int(pivot)) for pivot, rhs in eqs[:, n - 1, n - 1:]]
