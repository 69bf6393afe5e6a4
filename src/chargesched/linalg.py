"""Small exact-rational linear algebra: just enough to evaluate Markov chains
without floating error.

One solver, `chain_average`, gives the long-run average cost of each chain in
a list.  Each row is scaled to integers (`integer_row`), and each chain's
evaluation equations are solved from their nonzeros by dyadic lifting (Wan,
J. Symbolic Comput. 2006; Saunders, Wood and Youse, ISSAC 2011): one SuperLU
factor of the rows in float64, then per step one float solve for the next k
binary digits of the solution and an exact integer residual.  g, and then
every unknown, is rebuilt from the digits by `Fraction.limit_denominator`,
and taken only when it satisfies the equations exactly in integers.  Brute
force's many small sets go through `chain_ratios`: the sets of one size are
stacked, and one forward fraction-free int64 sweep runs on all of them at
once (Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination", Math. Comp. 1968); a set whose products would not fit
leaves it and is lifted.  Only the gains become Fractions.  On an irreducible
chain, pi(i) is the average of the cost that is 1 in state i and 0 elsewhere.
`reachable` and `closed_classes` read a chain's transition graph;
`SingularSystem` counts the closed classes of a set that has several.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, frexp, isqrt, lcm, log2
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

# One state's row for `chain_average`: (scale, [(target, weight)], scaled cost).
IntegerRow = tuple[int, list[tuple[int, int]], int]

# Bytes one set's dense int64 weights and equations in `chain_ratios` may
# take, 8 n (2n + 1) for n states: about 8,000 states.
DENSE_LIMIT_BYTES = 1 << 30


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


class SystemTooLarge(ValueError):
    """A set of `n` states would need `needed` bytes, past the limit."""

    def __init__(self, n: int, needed: int):
        super().__init__(f"a set of {n} states needs {needed:,} bytes of dense "
                         f"equations, past the limit of {DENSE_LIMIT_BYTES:,}")
        self.n, self.needed = n, needed


class LiftError(ArithmeticError):
    """The set at `index` has one closed class but is too ill-conditioned to lift."""

    def __init__(self, index: int):
        super().__init__(f"set {index}: one closed class, but dyadic lifting "
                         "on its float factor does not converge")
        self.index = index


def integer_row(moves: Sequence[tuple[int, Fraction]], cost: Fraction | int) -> IntegerRow:
    """A state's moves [(target, probability)] and stage cost as
    `chain_average` reads them: every value over the lcm of their denominators."""
    scale = lcm(cost.denominator, *(p.denominator for _, p in moves))
    return (scale, [(y, p.numerator * (scale // p.denominator)) for y, p in moves],
            cost.numerator * (scale // cost.denominator))


def dense(rows: Iterable[tuple[int, IntegerRow]], pos: Mapping[int, int]) -> DenseRows:
    """The (state, row) pairs `rows` as `DenseRows`, with the weight towards
    state y in column pos[y]."""
    scale, weight, cost = [], [], []
    for _, (sc, moves, c) in rows:
        line = [0] * len(pos)
        for y, w in moves:
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


def chain_average(systems: Sequence[Mapping[int, IntegerRow]]) -> list[Fraction]:
    """Long-run average cost of each chain in `systems`, in order: each on a
    closed set of states with one closed class (transient states allowed);
    `SingularSystem`, naming the set and counting its classes, with several.

    Each set maps its states s to (scale, [(target, weight)], scaled cost):
    the chain moves from s to each target with probability weight / scale
    and pays scaled cost / scale.  ValueError names a state that moves
    outside its set.  The gain g solves the evaluation equations
    g + h(s) = c(s) + sum_y P(s, y) h(y) with h = 0 at the last state
    (Puterman, "Markov Decision Processes", 1994, ch. 8), which are
    nonsingular exactly when there is one closed class.

    Each set is lifted from its nonzeros; only if that fails does its
    transition graph count its closed classes, and with one, `LiftError`
    says so.  A lifted answer is taken only once it satisfies the equations
    in integers, and any exact solution's g equals every closed class's gain:
    a singularity the float factor misses can only return the classes'
    common gain, never a wrong number.
    """
    return [Fraction(*_lifted(rows, i)) for i, rows in enumerate(systems)]


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


def _lifted(rows: Mapping[int, IntegerRow], name: int) -> tuple[int, int]:
    """g of the set `rows` as ints (numerator, denominator), lifted from the
    nonzeros of its equations: row k, times its scale, holds the coefficients
    of h at the set's states, except that the last state's column, where
    h = 0, holds g's.  A failure counts the set's closed classes and raises
    `SingularSystem` or `LiftError`, naming the set `name`."""
    pos = {s: k for k, s in enumerate(rows)}
    last = len(pos) - 1
    indptr, col, coef, cost = [0], [], [], []
    for k, (s, (scale, moves, c)) in enumerate(rows.items()):
        line = {k: scale, last: scale}
        for y, w in moves:
            if y not in pos:
                raise ValueError(f"state {s} moves to state {y}, outside its set")
            if pos[y] != last:
                line[pos[y]] = line.get(pos[y], 0) - w
        col += line
        coef += line.values()
        indptr.append(len(col))
        cost.append(c)
    found = _lift(np.array(indptr), np.array(col), _ints(coef), _ints(cost))
    if found is None:    # singular, or too ill-conditioned for float64
        import scipy.sparse as sp
        at, to = zip(*((k, pos[y]) for k, (_, moves, _) in enumerate(rows.values())
                       for y, _ in moves))
        graph = sp.coo_matrix((np.ones(len(at)), (at, to)), shape=(last + 1,) * 2)
        classes = len(closed_classes(graph))
        raise SingularSystem(name, classes) if classes > 1 else LiftError(name)
    return found


def _equations(rows: DenseRows) -> np.ndarray:
    """The evaluation equations of the sets stacked in `rows`, batch last:
    (n, n + 1, K), so that the sweep's updates run along contiguous memory;
    each set's as `_lifted` writes them."""
    count, n = rows.scale.shape
    eqs = np.empty((n, n + 1, count), dtype=np.result_type(*rows))
    np.negative(rows.weight.transpose(1, 2, 0), out=eqs[:, :n])
    diagonal = np.arange(n)
    eqs[diagonal, diagonal] += rows.scale.T
    eqs[:, n - 1] = rows.scale.T
    eqs[:, n] = rows.cost.T
    return eqs


def chain_ratios(rows: DenseRows, names: Sequence[int] | None = None) -> list[tuple[int, int]]:
    """`chain_average` of the sets stacked in `rows`, each gain as ints
    (numerator, denominator), unreduced, the denominator of either sign; an
    error names set i as names[i], and `SystemTooLarge` refuses sets past
    `DENSE_LIMIT_BYTES` before any is built.  A forward sweep, each set
    pivoting on its first row with a nonzero entry in the column, leaves
    pivot * g = rhs in the last row.  A set leaves it before a column whose
    products would overflow int64, and is lifted from its nonzeros."""
    n = rows.scale.shape[1]
    if 8 * n * (2 * n + 1) > DENSE_LIMIT_BYTES:
        raise SystemTooLarge(n, 8 * n * (2 * n + 1))
    names = range(len(rows.scale)) if names is None else names
    eqs = _equations(rows)
    count = eqs.shape[2]
    ratios: list[tuple[int, int]] = [(0, 1)] * count
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
            raise SingularSystem(names[i], len(closed_classes(rows.weight[i] != 0)))
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
        ratios[i] = rhs, pivot
    for i in sorted(lifted):
        ratios[i] = _lifted({k: (sc, [(j, w) for j, w in enumerate(line) if w], c)
                             for k, (sc, line, c) in enumerate(zip(
                                 *(x[i].tolist() for x in rows)))}, names[i])
    return ratios


def _lift(indptr: np.ndarray, col: np.ndarray, coef: np.ndarray,
          c: np.ndarray) -> tuple[int, int] | None:
    """g, the last unknown, of one set's equations m x = c by dyadic lifting,
    as (numerator, denominator), m given by its compressed rows (indptr, col,
    coef); None when the float factor is singular or the lift stops contracting.

    Each step solves m y = r in floats on one SuperLU factor of m's rows,
    each scaled by its largest entry, takes x = round(2**k y), and carries
    r <- 2**k r - m x and N <- 2**k N + x exactly, so that m N = 2**bits c - r.
    k puts in 2**k y the bits the factor's pivot ratio (least over largest
    |diagonal of U|) trusts, fewer once a step gains fewer, and no more than
    keep the residual in int64.  Once 2**bits passes twice the square of
    Hadamard's bound on every determinant of Cramer's rule, reconstruction
    is unique and the check cannot fail: a set that gets there unsolved is
    an error, not more work."""
    # Imported on first use: a Monte Carlo run never needs SuperLU.
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu
    n, starts = len(c), indptr[:-1]
    mf = coef.astype(float)
    hadamard_bits = 0.5 * np.log2(np.add.reduceat(np.square(mf), starts)
                                  + np.square(c.astype(float))).sum()
    rowmax = np.maximum.reduceat(np.abs(mf), starts)
    try:    # SuperLU raises RuntimeError at an exactly zero pivot
        lu = splu(sp.csr_matrix((mf / np.repeat(rowmax, np.diff(indptr)), col, indptr),
                                shape=(n, n)).tocsc())
    except RuntimeError:
        return None
    pivots = np.abs(lu.U.diagonal())
    ratio = pivots.min() / pivots.max()
    # A singular m usually leaves a ratio near 2**-52 or below: no step.  Once |y| < 1,
    # |m x| and |2**k r| stay below rowabs * 2**width, rowabs >= |row sums|.
    rowabs = int(np.add.reduceat(np.abs(mf), starts).max() * (1 + 2**-30)) + 1
    width = floor(53 + log2(ratio)) - 3 if ratio > 0 else 0
    width = min(width, 61 - rowabs.bit_length()) if rowabs < 1 << 45 else width
    r, big_n, bits, e, k = c, np.zeros(n, dtype=object), 0, None, 0
    while True:
        y = lu.solve(r.astype(float) / rowmax)
        top = float(np.abs(y).max())
        if not np.isfinite(top):
            return None
        e_next = frexp(top)[1]    # max |y| < 2**e_next
        if e is not None and e_next > 0:    # 2**k y had e + k bits, e_next wrong
            width = min(width, e + k - e_next - 1)
        e, last = e_next, bits > 2 * hadamard_bits + 4
        if e <= 0 < bits:    # the error is below one unit of the last digit
            # A denominator well inside the bits' limit is likely right.
            g = Fraction(int(big_n[n - 1]), 1 << bits).limit_denominator(isqrt(1 << (bits - 1)))
            if 2 * g.denominator.bit_length() + 16 <= bits or last:
                found = _common_denominator(big_n, bits, g.denominator)
                if found is not None and (    # m z = d c, exactly in integers
                        np.add.reduceat(coef.astype(object) * found[0][col], starts)
                        == found[1] * c.astype(object)).all():
                    return int(found[0][n - 1]), found[1]
        if last or width < 1:
            return None
        k = max(0, width - e)
        x = np.rint(np.ldexp(y, k))
        x = x.astype(np.int64) if e + k < 62 else np.frompyfunc(int, 1, 1)(x)
        if rowabs * int(np.abs(x).max()) + (int(np.abs(r).max()) << k) >= 1 << 63:
            r = _ints(((r.astype(object) << k) - np.add.reduceat(
                coef.astype(object) * x.astype(object)[col], starts)).tolist())
        else:
            r = (r << k) - np.add.reduceat(coef * x[col], starts)
        big_n = (big_n << k) + x
        bits += k


def _common_denominator(big_n: np.ndarray, bits: int, d: int) -> tuple[np.ndarray, int] | None:
    """(z, d): d N / 2**bits rounded to integers, d grown from `d` by the
    denominator of each unknown that it leaves more than d / 2**bits from
    an integer; None when one does not grow it."""
    for _ in range(len(big_n)):
        scaled = big_n * d
        z = (scaled + (1 << (bits - 1))) >> bits
        off = np.flatnonzero(np.abs(scaled - (z << bits)) > d)
        if not off.size:
            return z, d
        f = Fraction(int(big_n[off[0]]), 1 << bits).limit_denominator(isqrt(1 << (bits - 1)))
        if d % f.denominator == 0:
            return None
        d = lcm(d, f.denominator)
    return None
