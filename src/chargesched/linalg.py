"""Small exact-rational linear algebra: just enough to evaluate Markov chains
without floating error.

One solver, `chain_average`, gives the long-run average cost of a chain.  Its
system is solved fraction-free: each row is scaled to integers
(`integer_row`), and a forward sweep runs on Python ints, dividing every
update exactly by the previous pivot (Bareiss, "Sylvester's identity and
multistep integer-preserving Gaussian elimination", Math. Comp. 1968).  Only
the gain becomes a Fraction.  A stationary distribution needs no solver of
its own: on an irreducible chain, pi(i) is the average of the cost that is 1
in state i and 0 elsewhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

# One state's row for `chain_average`: (scale, [(target, weight)], scaled cost).
IntegerRow = tuple[int, list[tuple[int, int]], int]


def integer_row(moves: Sequence[tuple[int, Fraction]], cost: Fraction | int) -> IntegerRow:
    """A state's moves [(target, probability)] and stage cost as
    `chain_average` reads them: every value over the lcm of their denominators."""
    scale = lcm(cost.denominator, *(p.denominator for _, p in moves))
    return (scale, [(y, p.numerator * (scale // p.denominator)) for y, p in moves],
            cost.numerator * (scale // cost.denominator))


def chain_average(rows: Mapping[int, IntegerRow]) -> Fraction:
    """Long-run average cost of a chain on a closed set of states with one
    closed class (transient states allowed); ValueError with several.

    `rows` maps each state s to (scale, [(target, weight)], scaled cost): the
    chain moves from s to each target with probability weight / scale and
    pays scaled cost / scale.  The gain g solves the evaluation equations
    g + h(s) = c(s) + sum_y P(s, y) h(y) with h = 0 at the last state
    (Puterman, "Markov Decision Processes", 1994, ch. 8), which are
    nonsingular exactly when there is one closed class.  Each equation times
    its scale is a row of ints over the unknowns h(s) of the other states,
    then g; a forward sweep leaves pivot * g = rhs in the last row.
    """
    n = len(rows)
    pos = {s: k for k, s in enumerate(rows)}
    eqs = []
    for k, (scale, moves, cost) in enumerate(rows.values()):
        row = [0] * (n + 1)
        row[k] = scale
        for y, w in moves:
            row[pos[y]] -= w
        row[n - 1] = scale    # the column of h(last state) = 0 holds g's
        row[n] = cost
        eqs.append(row)
    prev = 1
    for k in range(n - 1):
        pivot = next((r for r in range(k, n) if eqs[r][0]), None)
        if pivot is None:   # h is not unique: there are several closed classes
            raise ValueError("singular evaluation equations: several closed classes")
        eqs[k], eqs[pivot] = eqs[pivot], eqs[k]
        pk, *top = eqs[k]
        for r in range(k + 1, n):
            f, *rest = eqs[r]
            eqs[r] = ([(pk * v - f * w) // prev for v, w in zip(rest, top)] if f
                      else [pk * v // prev for v in rest])
        prev = pk
    # The last pivot is nonzero: a stationary distribution, each entry over its
    # row's scale, maps the g column to 1 and every h column to 0, so the g
    # column is no combination of the h columns.
    pivot, rhs = eqs[-1]
    return Fraction(rhs, pivot)
