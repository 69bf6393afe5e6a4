"""Small exact-rational linear algebra: just enough to evaluate Markov chains
without floating error.

Systems are solved fraction-free: each row is scaled to integers, and the
elimination runs on Python ints, dividing every update exactly by the previous
pivot (Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 1968).  Fractions are built only for the
results.  `solve` eliminates in both directions for every unknown;
`chain_average` takes its rows as integers already and sweeps forward only,
because it reads one unknown, the gain.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Mapping, Sequence

# One state's row for `chain_average`: (scale, [(target, weight)], scaled cost).
IntegerRow = tuple[int, list[tuple[int, int]], int]


def solve(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> list[Fraction]:
    """Solve a x = b exactly for rational (Fraction or int) entries, by
    fraction-free Gauss-Jordan elimination with nonzero pivoting.

    Raises ValueError on a singular system.
    """
    n = len(a)
    rows = []
    for row, rhs in zip(a, b):
        row = [*row, rhs]
        scale = lcm(*(v.denominator for v in row))
        rows.append([v.numerator * (scale // v.denominator) for v in row])
    # Step k eliminates column k from every other row.  Each row keeps only the
    # columns k.. it still needs; afterwards every entry is a (k+1)-minor of
    # the scaled system, so the division by the previous pivot is exact.
    prev = 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if rows[r][0]), None)
        if pivot is None:
            raise ValueError("singular system")
        rows[k], rows[pivot] = rows[pivot], rows[k]
        pk, *tail = rows[k]
        for r in range(n):
            f, *rest = rows[r]
            if r == k:
                rows[r] = rest
            elif f:
                rows[r] = [(pk * v - f * w) // prev for v, w in zip(rest, tail)]
            else:
                rows[r] = [pk * v // prev for v in rest]
        prev = pk
    # Now prev * x = the right-hand column.
    return [Fraction(row[0], prev) for row in rows]


def stationary_distribution(p: Sequence[Sequence[Fraction]]) -> tuple[Fraction, ...]:
    """Stationary distribution pi of a stochastic matrix with one closed
    class: pi (P - I) = 0 with the last balance equation replaced by
    sum(pi) = 1.  That system is nonsingular exactly when there is one
    closed class; pi is zero on the transient states."""
    n = len(p)
    a = [[p[r][c] - 1 if r == c else p[r][c] for r in range(n)] for c in range(n - 1)]
    a.append([1] * n)
    pi = solve(a, [0] * (n - 1) + [1])
    if any(x < 0 for x in pi):
        raise ValueError("stationary solve produced negatives; chain not irreducible?")
    return tuple(pi)


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
