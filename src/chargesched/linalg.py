"""Small exact-rational linear algebra: just enough to evaluate Markov chains
without floating error.

Systems are solved fraction-free: each row is scaled to integers, and the
elimination runs on Python ints, dividing every update exactly by the previous
pivot (Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 1968).  Fractions are built only for the
results.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence


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
    """Stationary distribution pi of an irreducible stochastic matrix:
    pi (P - I) = 0 with the last balance equation replaced by sum(pi) = 1."""
    n = len(p)
    a = [[p[r][c] - 1 if r == c else p[r][c] for r in range(n)] for c in range(n - 1)]
    a.append([1] * n)
    pi = solve(a, [0] * (n - 1) + [1])
    if any(x < 0 for x in pi):
        raise ValueError("stationary solve produced negatives; chain not irreducible?")
    return tuple(pi)


def chain_average(p: Sequence[Sequence[Fraction]], cost: Sequence[Fraction]) -> Fraction:
    """Long-run average cost of an irreducible chain with per-state costs."""
    pi = stationary_distribution(p)
    return sum((pi[i] * cost[i] for i in range(len(cost))), Fraction(0))
