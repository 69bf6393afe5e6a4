from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargesched import linalg
from chargesched.models import DemandModel, FixedCountArrivals

# Small rationals, zero about half the time, so sparse systems are common.
rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7)))


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


def _initial_distribution(p):
    """The exact pi a demand chain with kernel p draws its first state from."""
    return DemandModel(kernel=tuple(map(tuple, p)),
                       arrivals=(FixedCountArrivals(0),) * len(p)).initial_distribution


def _is_stationary(pi, p):
    """sum(pi) = 1 and pi P = pi, checked exactly with no elimination: on an
    irreducible chain they hold for its stationary distribution alone."""
    n = len(p)
    return sum(pi) == 1 and [sum(pi[r] * p[r][c] for r in range(n))
                             for c in range(n)] == list(pi)


@settings(deadline=None)
@given(irreducible_chains())
def test_stationary_distribution_is_stationary(p):
    pi = _initial_distribution(p)
    assert all(type(x) is Fraction and x >= 0 for x in pi)
    assert _is_stationary(pi, p)


def test_reducible_chain_starts_uniform():
    # State 0 is transient: pi = (0, 1) is stationary, but the chain is not
    # irreducible, so the initial distribution is uniform.
    half = Fraction(1, 2)
    assert _initial_distribution([[half, half], [0, 1]]) == (half, half)


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


def _rows(p, costs):
    """`chain_average`'s form of a dense chain."""
    return {r: linalg.integer_row([(y, x) for y, x in enumerate(row) if x], c)
            for r, (row, c) in enumerate(zip(p, costs))}


@settings(deadline=None)
@given(irreducible_chains(), st.data())
def test_chain_average_is_the_stationary_average(p, data):
    costs = data.draw(st.lists(rationals, min_size=len(p), max_size=len(p)))
    pi = _initial_distribution(p)
    assert _is_stationary(pi, p)
    expected = sum((x * c for x, c in zip(pi, costs)), Fraction(0))
    gain = linalg.chain_average(_rows(p, costs))
    assert type(gain) is Fraction
    assert gain == expected


@settings(deadline=None)
@given(chains_with_closed_classes(1))
def test_chain_average_ignores_transient_states(chain):
    p, costs, (cls,) = chain
    alone = linalg.chain_average(_rows([[p[r][c] for c in cls] for r in cls],
                                       [costs[r] for r in cls]))
    assert linalg.chain_average(_rows(p, costs)) == alone


@settings(deadline=None)
@given(st.integers(2, 3).flatmap(chains_with_closed_classes))
def test_chain_average_refuses_several_closed_classes(chain):
    p, costs, _ = chain
    with pytest.raises(ValueError):
        linalg.chain_average(_rows(p, costs))
