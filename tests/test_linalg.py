import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
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


def _stacked(systems):
    """The gains of `systems` from `chain_ratios`, the sets of one size
    stacked in one call as brute force stacks them, each named by its index."""
    gains = [None] * len(systems)
    by_size = {}
    for i, rows in enumerate(systems):
        by_size.setdefault(len(rows), []).append(i)
    for members in by_size.values():
        sets = [linalg.dense(systems[i].items(), {s: k for k, s in enumerate(systems[i])})
                for i in members]
        stack = linalg.DenseRows(*map(np.stack, zip(*sets)))
        for i, q in zip(members, linalg.chain_ratios(stack, members)):
            gains[i] = Fraction(*q)
    return gains


@settings(deadline=None)
@given(irreducible_chains(), st.data())
def test_chain_average_is_the_stationary_average(p, data):
    costs = data.draw(st.lists(rationals, min_size=len(p), max_size=len(p)))
    pi = _initial_distribution(p)
    assert _is_stationary(pi, p)
    expected = sum((x * c for x, c in zip(pi, costs)), Fraction(0))
    (gain,) = linalg.chain_average([_rows(p, costs)])
    assert type(gain) is Fraction
    assert gain == expected
    assert _stacked([_rows(p, costs)]) == [expected]


@settings(deadline=None)
@given(chains_with_closed_classes(1))
def test_chain_average_ignores_transient_states(chain):
    p, costs, (cls,) = chain
    alone = linalg.chain_average([_rows([[p[r][c] for c in cls] for r in cls],
                                        [costs[r] for r in cls])])
    assert linalg.chain_average([_rows(p, costs)]) == alone


# Costs shifted by LIFTED put every scaled cost past 2**31, so in
# `chain_ratios` the set leaves the int64 sweep at its first column and is
# solved by dyadic lifting, as `chain_average` solves every set.
LIFTED = 2**41


@settings(deadline=None)
@given(st.integers(2, 3).flatmap(chains_with_closed_classes))
# Consistent equations: x = 0 solves them exactly, so only the factor's
# pivot ratio keeps the lift from returning a gain of 0.
@example(([[Fraction(1, 3), Fraction(2, 3), 0], [Fraction(3, 5), Fraction(2, 5), 0], [0, 0, 1]],
          [0, 0, 0], [[0, 1], [2]]))
def test_chain_average_refuses_several_closed_classes(chain):
    p, costs, classes = chain
    for shift in (0, LIFTED):    # in `chain_ratios`, the int64 sweep, then lifting
        for solve in (linalg.chain_average, _stacked):
            with pytest.raises(linalg.SingularSystem) as err:
                solve([_rows(p, [c + shift for c in costs])])
            assert err.value.classes == len(classes)


@st.composite
def chains_with_known_averages(draw, max_n=60):
    """A chain of 1 to `max_n` states, its states shuffled: one closed class
    that is the random walk on a connected weighted graph, so pi(i) is i's
    share of the total edge weight, plus transient states that each have a
    positive weight towards the class or an earlier transient state.
    (P, costs, pi over all states, zero on the transient ones)."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, n))    # states in the closed class
    w = [[0] * n for _ in range(n)]
    for j in range(1, m):          # a spanning tree keeps the class connected
        i = rng.randrange(j)
        w[i][j] = w[j][i] = rng.randint(1, 9)
    for _ in range(rng.randint(0, 2 * m)):
        i, j = rng.randrange(m), rng.randrange(m)
        extra = rng.randint(1, 9)
        w[i][j] += extra
        w[j][i] += extra if i != j else 0
    w[0][0] += 1    # a class of one state has weight too
    for r in range(m, n):
        for c in rng.sample(range(n), rng.randint(0, min(3, n))):
            w[r][c] = rng.randint(1, 9)
        w[r][rng.randrange(r)] += 1
    degree = [sum(row) for row in w]
    total = sum(degree[:m])
    pi = [Fraction(degree[i], total) if i < m else Fraction(0) for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)             # order[k]: the state at position k
    p = [[Fraction(w[s][c], degree[s]) for c in order] for s in order]
    costs = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(n)]
    return p, costs, [pi[s] for s in order]


@settings(deadline=None, max_examples=40)
@given(st.lists(chains_with_known_averages(), min_size=1, max_size=6))
def test_chain_average_batches_mixed_sizes_in_order(chains):
    expected = []
    for p, costs, pi in chains:
        assert _is_stationary(pi, p)
        expected.append(sum((x * c for x, c in zip(pi, costs)), Fraction(0)))
    systems = [_rows(p, costs) for p, costs, _ in chains]
    assert linalg.chain_average(systems) == expected
    assert _stacked(systems) == expected


@settings(deadline=None, max_examples=60)
@given(chains_with_known_averages())
def test_lifted_gain_is_the_stationary_average(chain):
    p, costs, pi = chain
    big = [2**40 * c + 2**47 for c in costs]    # each at least 2**40 * 29
    rows = _rows(p, big)
    assert max(abs(c) for _, _, c in rows.values()) >= 2**31
    assert linalg.chain_average([rows]) == [sum((x * c for x, c in zip(pi, big)), Fraction(0))]


@settings(deadline=None, max_examples=30)
@given(st.lists(st.tuples(chains_with_known_averages(30), st.booleans()),
                min_size=1, max_size=4))
def test_chain_average_mixes_swept_and_lifted_sets_in_order(drawn):
    # Each chain comes twice, plain and shifted past int64, in a drawn order:
    # in `chain_ratios`, every size's batch holds sets of both kinds.
    systems, expected = [], []
    for (p, costs, pi), lifted_first in drawn:
        gain = sum((x * c for x, c in zip(pi, costs)), Fraction(0))
        for shift in ((LIFTED, 0) if lifted_first else (0, LIFTED)):
            systems.append(_rows(p, [c + shift for c in costs]))
            expected.append(gain + shift)
    assert linalg.chain_average(systems) == expected
    assert _stacked(systems) == expected


def _fraction_gain(p, costs):
    """The evaluation equations g + h = c + P h, h(last) = 0, solved by
    Gauss-Jordan elimination on Fractions."""
    n = len(p)
    eqs = [[(r == c) - p[r][c] for c in range(n)] + [Fraction(costs[r])] for r in range(n)]
    for row in eqs:
        row[n - 1] = Fraction(1)    # the column of h(last) = 0 holds g's
    for k in range(n):
        pivot = next(r for r in range(k, n) if eqs[r][k])
        eqs[k], eqs[pivot] = eqs[pivot], eqs[k]
        eqs[k] = [v / eqs[k][k] for v in eqs[k]]
        for r in range(n):
            if r != k and eqs[r][k]:
                eqs[r] = [v - eqs[r][k] * w for v, w in zip(eqs[r], eqs[k])]
    return eqs[n - 1][n]


def test_chain_average_normalizes_a_negative_pivot():
    # State 0 of the first two sets is absorbing, so its equation has no h
    # term: the sweep of `chain_ratios` pivots on the other state's
    # equation, whose h coefficient is minus a weight, and ends with
    # pivot * g = rhs, both negative.  The third set pivots in order.
    third = Fraction(1, 3)
    chains = [([[1, 0], [third, 2 * third]], [5, 1]),
              ([[1, 0], [1, 0]], [Fraction(7, 2), 4]),
              ([[Fraction(1, 2), Fraction(1, 2)], [1, 0]], [3, -2])]
    systems = [_rows(p, costs) for p, costs in chains]
    expected = [_fraction_gain(p, costs) for p, costs in chains]
    ratios = linalg.chain_ratios(linalg.DenseRows(*map(np.stack, zip(
        *(linalg.dense(rows.items(), {0: 0, 1: 1}) for rows in systems)))))
    assert min(d for _, d in ratios) < 0
    assert [Fraction(*q) for q in ratios] == expected
    gains = linalg.chain_average(systems)
    assert gains == expected
    assert gains[:2] == [5, Fraction(7, 2)]
    assert all(type(g) is Fraction and g.denominator > 0 for g in gains)


def test_chain_average_leaves_int64_when_products_would_overflow():
    # Denominators that share no factor make every row's scale a distinct
    # prime; costs near 2**40 put the largest entry a past 2**31, so
    # 2 a^2 >= 2**63 and an int64 sweep would wrap around.
    denominators = (97, 89, 83, 79, 73, 71)
    p = []
    for r, d in enumerate(denominators):
        weights = [(3 * r + 5 * c) % 7 + (c == (r + 1) % 6) for c in range(6)]
        weights[0] += d - sum(weights)
        p.append([Fraction(x, d) for x in weights])
    costs = [2**40 + 977 * r * r - 12_345 for r in range(6)]
    rows = _rows(p, costs)
    a = max(abs(c) for _, _, c in rows.values())
    assert 2 * a * a >= 2**63
    expected = _fraction_gain(p, costs)
    systems = [rows, _rows(p, [c % 7 for c in costs])]
    for solve in (linalg.chain_average, _stacked):
        assert solve(systems) == [expected, _fraction_gain(p, [c % 7 for c in costs])]
    assert abs(expected.numerator) > 2**63


def test_chain_average_keeps_rows_past_int64_as_python_ints():
    # State 0 steps to state 1 with probability p and state 1 back with
    # probability 1/2; paying 1 in state 1, the average is pi(1) = p / (p + 1/2).
    # With p = 1 / (2**70 + 1) the first row's scale passes int64, so `dense`
    # and `chain_average`'s nonzeros fall back to Python ints.  In
    # `chain_ratios` the batch stacks as objects, the other two chains are
    # swept and that one is lifted.
    half = Fraction(1, 2)

    def chain(p):
        return _rows([[1 - p, p], [half, half]], [0, 1])

    steps = [Fraction(1, 3), Fraction(1, 2**70 + 1), Fraction(2, 7)]
    dense = [linalg.dense(chain(p).items(), {0: 0, 1: 1}) for p in steps]
    assert [d.weight.dtype.kind for d in dense] == ["i", "O", "i"]
    assert dense[1].scale.tolist() == [2**70 + 1, 2]
    gains = linalg.chain_average([chain(p) for p in steps])
    assert gains == [p / (p + half) for p in steps]
    assert gains[1] == Fraction(2, 2**70 + 3)
    assert _stacked([chain(p) for p in steps]) == gains


def _lifted_chain():
    """A 3-state chain with costs past LIFTED, so that it is lifted:
    (rows, exact gain)."""
    p = []
    for r, d in enumerate((11, 13, 17)):
        weights = [(2 * r + c) % 3 + (c == (r + 1) % 3) for c in range(3)]
        weights[0] += d - sum(weights)
        p.append([Fraction(x, d) for x in weights])
    costs = [LIFTED + 5 * r for r in range(3)]
    return _rows(p, costs), _fraction_gain(p, costs)


def test_chain_average_names_a_lift_that_cannot_contract(monkeypatch):
    # The factorisation of -m turns every step's digits the wrong way, so
    # the residual doubles instead of shrinking.  The set has one closed
    # class, so the graph check, run only now, finds no singular system.
    # Only the 3-state set's factor is negated; the 1-state set lifts.
    rows, _ = _lifted_chain()
    swept = {0: linalg.integer_row([(0, Fraction(1))], 3)}
    real_lu, real_classes, checked = spla.splu, linalg.closed_classes, []
    monkeypatch.setattr(spla, "splu", lambda a: real_lu(-a if a.shape[0] == 3 else a))
    monkeypatch.setattr(linalg, "closed_classes",
                        lambda graph: checked.append(graph) or real_classes(graph))
    with pytest.raises(linalg.LiftError, match="set 1: one closed class") as err:
        linalg.chain_average([swept, rows])
    assert isinstance(err.value, ArithmeticError) and err.value.index == 1
    assert len(checked) == 1


def test_a_nearly_decomposable_chain_is_past_dyadic_lifting():
    # Two 2-state blocks, each leaving for the other with probability 2**-60,
    # form one closed class, but the float factor of its equations is too
    # ill-conditioned for dyadic lifting to contract.  This is a known
    # limit: a lift that solves it would return [_fraction_gain(p, costs)].
    e, half = Fraction(1, 2**60), Fraction(1, 2)
    p = [[half, half - e, e, 0], [half, half, 0, 0], [0, 0, half, half],
         [e, 0, half, half - e]]
    costs = [0, 1, 2, 3]
    with pytest.raises(linalg.LiftError, match="set 0: one closed class"):
        linalg.chain_average([_rows(p, costs)])


def test_lifting_a_nonsingular_set_reads_no_graph(monkeypatch):
    def no_graph(graph):
        raise AssertionError("closed_classes called")

    monkeypatch.setattr(linalg, "closed_classes", no_graph)
    rows, gain = _lifted_chain()
    half = Fraction(1, 2)
    past_int64 = _rows([[1 - Fraction(1, 2**70 + 1), Fraction(1, 2**70 + 1)], [half, half]],
                       [0, 1])
    assert linalg.chain_average([rows, past_int64]) == [gain, Fraction(2, 2**70 + 3)]


def test_a_singular_float_factorisation_warns_nothing():
    # Two absorbing states: a column of zeros, so SuperLU meets an exactly
    # zero pivot.  It raises RuntimeError, and `_lift` returns None; the set
    # goes to the graph check, which counts two classes, and no warning is
    # raised.
    two_classes = {s: linalg.integer_row([(s, Fraction(1))], LIFTED + s) for s in (0, 1)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # m = [[0, 1], [0, 1]] by its nonzeros: rows 0 and 1 hold a 1 in column 1.
        assert linalg._lift(np.array([0, 1, 2]), np.array([1, 1]), np.array([1, 1]),
                            np.array([0, 1])) is None
        with pytest.raises(linalg.SingularSystem) as err:
            linalg.chain_average([two_classes])
    assert err.value.classes == 2


def test_chain_ratios_refuses_a_set_past_the_limit_before_building_it(monkeypatch):
    def built(*args):
        raise AssertionError("built a dense set")

    half = Fraction(1, 2)
    small = {0: linalg.integer_row([(0, half), (1, half)], 1),
             1: linalg.integer_row([(0, Fraction(1))], 0)}
    large = {s: linalg.integer_row([((s + 1) % 3, Fraction(1))], s) for s in range(3)}
    assert linalg.chain_average([large]) == [1]
    monkeypatch.setattr(linalg, "DENSE_LIMIT_BYTES", 8 * 3 * 7 - 1)
    monkeypatch.setattr(linalg, "dense", built)
    monkeypatch.setattr(linalg, "_equations", built)
    stacked = linalg.DenseRows(np.ones((1, 3), dtype=np.int64),
                               np.zeros((1, 3, 3), dtype=np.int64),
                               np.zeros((1, 3), dtype=np.int64))
    with pytest.raises(linalg.SystemTooLarge, match="a set of 3 states needs 168 bytes") as err:
        linalg.chain_ratios(stacked)
    assert (err.value.n, err.value.needed) == (3, 168)
    assert isinstance(err.value, ValueError)
    # `chain_average` builds no dense rows and never sweeps: the limit is not
    # its own, and it solves both sets.
    monkeypatch.setattr(linalg, "chain_ratios", built)
    assert linalg.chain_average([small, large]) == [Fraction(2, 3), 1]


def test_chain_average_names_the_failing_set_and_a_state_outside_its_set():
    half = Fraction(1, 2)
    for shift in (0, LIFTED):    # in `chain_ratios`, the int64 sweep, then lifting
        good = {0: linalg.integer_row([(0, Fraction(1))], 3 + shift)}
        two_classes = {s: linalg.integer_row([(s, Fraction(1))], s + shift) for s in (4, 5)}
        for solve in (linalg.chain_average, _stacked):
            with pytest.raises(linalg.SingularSystem) as err:
                solve([good, good, two_classes])
            assert err.value.index == 2
    leaks = {0: linalg.integer_row([(0, half), (1, half)], 0),
             1: linalg.integer_row([(0, half), (7, half)], 0)}
    with pytest.raises(ValueError, match="state 1 moves to state 7, outside its set"):
        linalg.chain_average([good, leaks])
