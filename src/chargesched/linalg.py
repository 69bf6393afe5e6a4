"""Small exact-rational linear algebra: just enough to evaluate Markov chains
without floating error.

One solver, `chain_average`, gives the long-run average cost of each chain in
a batch.  Each row is scaled to integers (`integer_row`) and the systems of
one size are stacked into one integer array.  One forward fraction-free sweep
runs on all of them at once, dividing every update exactly by the previous
pivot (Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 1968), and keeps each set while every
product it forms fits in int64.  A set whose next products would not fit
leaves the sweep and is solved from its own integer rows by p-adic lifting
(Dixon, "Exact solution of linear equations using p-adic expansions", Numer.
Math. 1982): one LU factorisation modulo a prime, then one triangular solve
per p-adic digit of the solution.  g, and then every unknown, is rebuilt from
the digits by rational reconstruction (Wang, Guy and Davenport 1982; Monagan,
"Maximal quotient rational reconstruction", ISSAC 2004), and the answer is
taken only when it satisfies the equations exactly in integers; until then
the lifting goes on.  Only the gains become Fractions.  A stationary
distribution needs no solver of its own: on an irreducible chain, pi(i) is
the average of the cost that is 1 in state i and 0 elsewhere.  `reachable`
and `closed_classes` read a chain's transition graph; `SingularSystem` counts
the closed classes of a set that has several.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

# One state's row for `chain_average`: (scale, [(target, weight)], scaled cost).
IntegerRow = tuple[int, list[tuple[int, int]], int]

# The primes p-adic lifting works modulo, tried in this order: the two largest
# below each power of two from 2**31 down to 2**20.  A system of n unknowns
# takes those with n * (p - 1)**2 < 2**63, so that a sum of n products of
# residues fits in int64.
_PRIMES = (2147483647, 2147483629, 1073741789, 1073741783, 536870909, 536870879,
           268435399, 268435367, 134217689, 134217649, 67108859, 67108837,
           33554393, 33554383, 16777213, 16777199, 8388593, 8388587,
           4194301, 4194287, 2097143, 2097133, 1048573, 1048571)


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
    the set holds `classes` (several) closed classes."""

    def __init__(self, index: int, classes: int):
        super().__init__(f"set {index}: {classes} closed classes; the average cost "
                         "depends on which one the chain enters")
        self.index, self.classes = index, classes


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
    `SingularSystem`, naming the set and counting its classes, with several.

    Each set maps its states s to (scale, [(target, weight)], scaled cost):
    the chain moves from s to each target with probability weight / scale
    and pays scaled cost / scale.  ValueError names a state that moves
    outside its set.  Sets of one size may come already stacked as
    `DenseRows`, each set's states in its own order.  The gain g solves the
    evaluation equations g + h(s) = c(s) + sum_y P(s, y) h(y) with h = 0 at
    the last state (Puterman, "Markov Decision Processes", 1994, ch. 8),
    which are nonsingular exactly when there is one closed class.

    All sets of one size go through one batched int64 sweep.  A set stays in
    it while 2 a^2 < 2**63, a being the largest entry of its active block,
    and is otherwise solved on its own from its integer rows by p-adic
    lifting, after its transition graph shows one closed class.  Either way
    the gain is exact: the sweep's arithmetic never wraps, and a lifted
    answer is taken only once it satisfies the equations in integers.
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
            raise SingularSystem(members[err.index], err.classes) from None
        for i, gain in zip(members, found):
            gains[i] = gain
    return gains


def closed_classes(graph) -> list[list[int]]:
    """Closed communicating classes of a chain whose transition graph has an
    edge wherever the square matrix `graph` (dense or scipy sparse) is
    nonzero: the strongly connected components that no edge leaves."""
    # Imported on first use, as in `models`: most runs never need it.
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components
    coo = sp.coo_matrix(graph)
    n_comp, labels = connected_components(coo, directed=True, connection="strong")
    exits = labels[coo.row] != labels[coo.col]
    has_exit = np.zeros(n_comp, dtype=bool)
    has_exit[labels[coo.row[exits]]] = True
    return [np.flatnonzero(labels == comp).tolist()
            for comp in range(n_comp) if not has_exit[comp]]


def reachable(graph, start: int) -> list[int]:
    """The states a sparse transition graph reaches from `start`, in order."""
    from scipy.sparse.csgraph import breadth_first_order
    return sorted(breadth_first_order(graph, start, return_predecessors=False).tolist())


def _equations(rows: DenseRows) -> np.ndarray:
    """The evaluation equations of the sets stacked in `rows`, batch last:
    (n, n + 1, K), so that the sweep's updates run along contiguous memory.
    Row i of a set's equations, times its scale, holds the coefficients of h
    at the set's states, except that the column of the last state, where
    h = 0, holds g's; then the scaled cost."""
    count, n = rows.scale.shape
    eqs = np.empty((n, n + 1, count), dtype=np.result_type(*rows))
    np.negative(rows.weight.transpose(1, 2, 0), out=eqs[:, :n])
    diagonal = np.arange(n)
    eqs[diagonal, diagonal] += rows.scale.T
    eqs[:, n - 1] = rows.scale.T
    eqs[:, n] = rows.cost.T
    return eqs


def _solve(rows: DenseRows) -> list[Fraction]:
    """Gains of the closed sets stacked in `rows`.  A forward sweep, each set
    pivoting on its first row with a nonzero entry in the column, leaves
    pivot * g = rhs in the last row.  A set leaves the sweep before a column
    whose products would overflow int64, and is lifted."""
    eqs = _equations(rows)
    n, _, count = eqs.shape
    gains: list[Fraction] = [Fraction(0)] * count
    live = np.arange(count)    # the sets still in the sweep, by batch index
    lifted: list[int] = []
    prev = np.ones(count, dtype=eqs.dtype)    # the previous pivots
    for k in range(n):
        # Every update pk * v - f * w is at most 2 a^2 in magnitude, a being
        # the largest entry of the set's active block; 2 a^2 < 2**63 holds
        # exactly when a < 2**31.
        block = eqs[k:, k:]
        if max(int(block.max()), -int(block.min())) >= 1 << 31:
            fits = np.maximum(block.max(axis=(0, 1)), -block.min(axis=(0, 1))) < 1 << 31
            lifted += live[~fits].tolist()
            eqs, prev, live = eqs[..., fits], prev[fits], live[fits]
            if not live.size:
                break
        nonzero = eqs[k:, k] != 0
        found = nonzero.any(axis=0)
        if not found.all():
            # h is not unique: there are several closed classes.  With one,
            # a stationary distribution, each entry over its row's scale,
            # maps the g column to 1 and every h column to 0, so the g
            # column is no combination of the h columns.
            i = int(live[np.argmin(found)])
            raise SingularSystem(i, len(closed_classes(rows.weight[i] != 0)))
        if k == n - 1:
            break
        pivot = k + nonzero.argmax(axis=0)
        swap = np.flatnonzero(pivot != k)
        if swap.size:
            top = eqs[pivot[swap], :, swap]
            eqs[pivot[swap], :, swap] = eqs[k, :, swap]
            eqs[k, :, swap] = top
        pk = eqs[k, k]
        rest = eqs[k + 1:, k + 1:]    # updated in place: one temporary
        rest *= pk
        rest -= eqs[k + 1:, k, None] * eqs[None, k, k + 1:]
        if k:    # the first column's previous pivots are all 1
            rest //= prev
        prev = pk
    for i, pivot, rhs in zip(live.tolist(), eqs[n - 1, n - 1].tolist(),
                             eqs[n - 1, n].tolist()):
        gains[i] = Fraction(rhs, pivot)
    for i in sorted(lifted):
        # The same condition the sweep meets as a missing pivot, read from
        # the graph: a prime that fails says nothing about it.
        classes = len(closed_classes(rows.weight[i] != 0))
        if classes > 1:
            raise SingularSystem(i, classes)
        gains[i] = _lift(_equations(DenseRows(*(x[i:i + 1] for x in rows)))[..., 0])
    return gains


def _lift(eqs: np.ndarray) -> Fraction:
    """g of one set's nonsingular equations (n rows of n coefficients and a
    right-hand side) by p-adic lifting.  Each step solves m y = r mod p with
    the one factorisation and carries r <- (r - m y) / p, so that the digits
    y, read in base p, solve m x = c modulo p**steps.  Once the modulus
    passes twice the square of Hadamard's bound on every determinant of
    Cramer's rule, reconstruction is unique and the check cannot fail: a set
    that gets there unsolved is an error, not more work."""
    n = len(eqs)
    m, c = eqs[:, :n], eqs[:, n]
    hadamard_bits = 0.5 * np.log2((np.square(m.astype(float)).sum(axis=1)
                                   + np.square(c.astype(float)))).sum()
    for p in (p for p in _PRIMES if n * (p - 1) ** 2 < 1 << 63):
        lu = _factor(m, p)
        if lu is None:
            continue    # p divides a pivot: the system is singular mod p
        big = max(int(np.abs(m).max()), 1) * n * p + int(np.abs(c).max()) >= 1 << 63
        r = c.astype(object) if big else c.copy()
        m_r = m.astype(object) if big else m
        x = np.zeros(n, dtype=object)
        modulus = 1
        while modulus.bit_length() <= 2 * hadamard_bits + 4:
            y = _solve_mod(lu, (r % p).astype(np.int64), p)
            x += y.astype(object) * modulus
            modulus *= p
            r = (r - m_r @ y) // p     # exact: m y = r mod p
            g = _rational(int(x[n - 1]), modulus)
            if g is None:
                continue
            found = _common_denominator(x, modulus, g.denominator)
            if found is not None and _satisfies(m, c, *found):
                z, d = found
                return Fraction(int(z[n - 1]), d)
        raise ArithmeticError("p-adic lifting passed the Hadamard bound unsolved")
    raise ArithmeticError("every prime divides a pivot")


def _factor(m: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """LU factors of m mod p with row exchanges: one int64 array holding U
    and, below the diagonal, the unit lower factor; the order of m's rows;
    the inverses of the pivots.  None when p divides a pivot.  The trailing
    block is reduced mod p only where a column or row of it is read, so each
    entry gathers fewer than n products below p**2."""
    n = len(m)
    a = (m % p).astype(np.int64)
    order = np.arange(n)
    inverse = np.empty(n, dtype=np.int64)
    for k in range(n):
        a[k:, k] %= p
        nonzero = np.flatnonzero(a[k:, k])
        if not nonzero.size:
            return None
        if nonzero[0]:
            j = k + nonzero[0]
            a[[k, j]] = a[[j, k]]
            order[[k, j]] = order[[j, k]]
        a[k, k + 1:] %= p
        inverse[k] = pow(int(a[k, k]), -1, p)
        a[k + 1:, k] = a[k + 1:, k] * inverse[k] % p
        a[k + 1:, k + 1:] -= np.multiply.outer(a[k + 1:, k], a[k, k + 1:])
    return a, order, inverse


def _solve_mod(lu: tuple[np.ndarray, np.ndarray, np.ndarray], b: np.ndarray,
               p: int) -> np.ndarray:
    """The y in [0, p) with m y = b mod p, from `_factor`'s factors of m."""
    a, order, inverse = lu
    y = b[order]
    for i in range(1, len(y)):
        y[i] = (y[i] - a[i, :i] @ y[:i]) % p
    for i in range(len(y) - 1, -1, -1):
        y[i] = (y[i] - a[i, i + 1:] @ y[i + 1:]) % p * inverse[i] % p
    return y


def _rational(u: int, modulus: int) -> Fraction | None:
    """The a/b = u mod `modulus` with |a| and b at most sqrt(modulus / 2), by
    the extended Euclidean algorithm stopped half way (Wang); None if there
    is none.  For two such fractions a/b and a'/b', a b' - a' b is a
    multiple of the (odd) modulus smaller than it, so 0: there is at most
    one."""
    bound = isqrt(modulus // 2)
    r0, r1, t0, t1 = modulus, u % modulus, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _common_denominator(x: np.ndarray, modulus: int, d: int) -> tuple[np.ndarray, int] | None:
    """(z, d) with d * x = z mod `modulus` and every |z| at most
    sqrt(modulus / 2), d grown from `d` by the denominator of each unknown
    that d * x leaves large; None when one of them does not reconstruct."""
    half = modulus // 2
    bound = isqrt(half)
    for _ in range(len(x)):
        z = x * d % modulus
        z[z > half] -= modulus
        large = np.flatnonzero(np.abs(z) > bound)
        if not large.size:
            return z, d
        f = _rational(int(z[large[0]]), modulus)
        if f is None:
            return None
        d *= f.denominator
    return None


def _satisfies(m: np.ndarray, c: np.ndarray, z: np.ndarray, d: int) -> bool:
    """m z = d c, exactly in integers, over the nonzero entries of m."""
    row, col = np.nonzero(m)
    starts = np.searchsorted(row, np.arange(len(m)))
    return bool((np.add.reduceat(m[row, col].astype(object) * z[col], starts)
                 == d * c.astype(object)).all())
