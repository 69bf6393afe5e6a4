from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargesched import linalg

# Small rationals, zero about half the time, so sparse systems are common.
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))


@st.composite
def systems(draw):
    n = draw(st.integers(1, 5))
    a = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(n)]
    b = draw(st.lists(rationals, min_size=n, max_size=n))
    return a, b


def _det(a):
    """Leibniz formula: an elimination-free reference."""
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod((a[i][perm[i]] for i in range(n)), start=Fraction(1))
    return total


@settings(deadline=None)
@given(systems())
def test_solve_is_exact_or_refuses_singular(system):
    a, b = system
    if _det(a) == 0:
        with pytest.raises(ValueError, match="singular"):
            linalg.solve(a, b)
    else:
        x = linalg.solve(a, b)
        assert all(type(v) is Fraction for v in x)
        assert [sum(r * v for r, v in zip(row, x)) for row in a] == b


@settings(deadline=None)
@given(systems(), st.data())
def test_solve_refuses_dependent_rows(system, data):
    a, b = system
    n = len(a)
    coef = data.draw(st.lists(rationals, min_size=n - 1, max_size=n - 1))
    a[-1] = [sum((c * row[j] for c, row in zip(coef, a)), Fraction(0)) for j in range(n)]
    with pytest.raises(ValueError, match="singular"):
        linalg.solve(a, b)


@st.composite
def irreducible_chains(draw, max_n=5):
    """Integer weights with a cycle 0 -> 1 -> ... -> 0 kept positive,
    normalized row by row."""
    n = draw(st.integers(1, max_n))
    p = []
    for r in range(n):
        weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        weights[(r + 1) % n] += 1
        p.append([Fraction(w, sum(weights)) for w in weights])
    return p


@settings(deadline=None)
@given(irreducible_chains())
def test_stationary_distribution_is_stationary(p):
    pi = linalg.stationary_distribution(p)
    n = len(p)
    assert all(x >= 0 for x in pi)
    assert sum(pi) == 1
    assert [sum(pi[r] * p[r][c] for r in range(n)) for c in range(n)] == list(pi)


@st.composite
def chains_with_closed_classes(draw, n_classes):
    """A chain of `n_classes` closed classes plus transient states, its states
    shuffled: (P, costs, the closed classes as lists of states).  Each
    transient state has a positive weight towards a closed class or an
    earlier transient state, so every transient state leaves for good."""
    blocks = [draw(irreducible_chains(3)) for _ in range(n_classes)]
    n_transient = draw(st.integers(0 if n_classes > 1 else 1, 3))
    n = sum(map(len, blocks)) + n_transient
    rows, classes = [], []
    for block in blocks:
        lo = len(rows)
        rows += [[0] * lo + row + [0] * (n - lo - len(row)) for row in block]
        classes.append(list(range(lo, len(rows))))
    for r in range(len(rows), n):
        weights = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        weights[draw(st.integers(0, r - 1))] += 1
        rows.append([Fraction(w, sum(weights)) for w in weights])
    order = draw(st.permutations(range(n)))    # order[k]: the state at position k
    at = {s: k for k, s in enumerate(order)}
    p = [[Fraction(rows[s][c]) for c in order] for s in order]
    costs = [draw(rationals) for _ in range(n)]
    return p, costs, [sorted(at[s] for s in cls) for cls in classes]


@settings(deadline=None)
@given(chains_with_closed_classes(1))
def test_chain_average_ignores_transient_states(chain):
    p, costs, (cls,) = chain
    alone = linalg.chain_average([[p[r][c] for c in cls] for r in cls],
                                 [costs[r] for r in cls])
    assert linalg.chain_average(p, costs) == alone


@settings(deadline=None)
@given(st.integers(2, 3).flatmap(chains_with_closed_classes))
def test_chain_average_refuses_several_closed_classes(chain):
    p, costs, _ = chain
    with pytest.raises(ValueError):
        linalg.chain_average(p, costs)
