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
def irreducible_chains(draw):
    """Integer weights with a cycle 0 -> 1 -> ... -> 0 kept positive,
    normalized row by row."""
    n = draw(st.integers(1, 5))
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
