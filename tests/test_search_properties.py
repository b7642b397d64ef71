"""Property tests of the pruned searches, the order-preservation kernel and
the scaled-integer series division against their plain references, of the
monotonizing orders listed from a factorization against the search, and of
`decompose` on built tables and their one-cell mutants."""

import math
from fractions import Fraction
from itertools import islice

import pytest

from quasitrivial import (
    ConsistencyError,
    DecompositionError,
    FiniteBinOp,
    TotalOrder,
    build,
    decompose,
    is_order_preserving,
    is_quasitrivial,
)
from quasitrivial.counting import _series_coefficient
from quasitrivial.magmas import order_preserving_by_definition
from quasitrivial.oracle import brute_count_quasitrivial_associative
from quasitrivial.structure import _pruned_listings, monotonizing_orders

from conftest import (
    monotonizing_orders_by_filter,
    qt_associative_count_by_masks,
    sampled_decomposition,
    series_coefficient_by_fractions,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def idempotent_tables(draw):
    # each off-diagonal cell is one of its arguments or any element, so the
    # draws mix quasitrivial tables with tables that are not
    n = draw(st.integers(1, 6))
    rows = [[x] * n for x in range(1, n + 1)]
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if x != y:
                rows[x - 1][y - 1] = draw(st.sampled_from((x, y)) | st.integers(1, n))
    return FiniteBinOp(rows)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(idempotent_tables())
def test_first_orders_equal_factorial_filter(f):
    # classify lists at most the first 25
    assert list(islice(monotonizing_orders(f), 25)) == list(
        islice(monotonizing_orders_by_filter(f), 25)
    )


@st.composite
def decompositions(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    rng = draw(st.randoms(use_true_random=False))
    return sampled_decomposition(n, rng, thin=draw(st.booleans()))


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(decompositions())
def test_first_factored_orders_equal_search(d):
    f = build(d)
    assert [t.ordered_elements() for t in islice(monotonizing_orders(f), 25)] == list(
        islice(_pruned_listings(f), 25)
    )


@st.composite
def built_and_mutated(draw):
    # a built qt-semigroup with n <= 6, left as it is, with one off-diagonal
    # cell flipped to its other argument (still quasitrivial, perhaps not
    # associative), or with one cell set to a third value (not quasitrivial)
    d = draw(decompositions(max_n=6))
    n = d.order.n
    rows = [list(row) for row in build(d).rows]
    x, y = draw(st.integers(1, n)), draw(st.integers(1, n))
    mutation = draw(st.sampled_from(("none", "flip", "third")))
    if mutation == "flip" and x != y:
        rows[x - 1][y - 1] = x + y - rows[x - 1][y - 1]
    elif mutation == "third" and n > 2:
        rows[x - 1][y - 1] = draw(st.sampled_from([v for v in range(1, n + 1) if v not in (x, y)]))
    return FiniteBinOp(rows)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(built_and_mutated())
def test_decompose_rebuilds_or_names_the_failed_precondition(f):
    try:
        d = decompose(f)
    except DecompositionError as exc:
        expected = "not associative" if is_quasitrivial(f) else "not quasitrivial"
        assert exc.reason == expected
    else:
        assert build(d) == f


@st.composite
def tables_with_orders(draw):
    # any table at all, idempotent or not, with any ordering of its elements
    n = draw(st.integers(1, 5))
    cells = draw(st.lists(st.integers(1, n), min_size=n * n, max_size=n * n))
    f = FiniteBinOp([cells[i * n : (i + 1) * n] for i in range(n)])
    return f, TotalOrder.from_ordered_elements(draw(st.permutations(range(1, n + 1))))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(tables_with_orders())
def test_adjacent_steps_equal_two_point_definition(case):
    f, t = case
    assert is_order_preserving(f, t) == order_preserving_by_definition(f, t)


@st.composite
def shards(draw):
    n = draw(st.integers(1, 4))
    shard_count = draw(st.integers(1, 16))
    return n, draw(st.integers(0, shard_count - 1)), shard_count


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(shards())
def test_shard_count_equals_mask_loop(shard):
    assert brute_count_quasitrivial_associative(*shard) == qt_associative_count_by_masks(*shard)


@st.composite
def series_quotients(draw):
    # small rational denominators with a nonzero constant term, and an index
    small = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    denominator = draw(st.lists(small, min_size=1, max_size=5))
    if denominator[0] == 0:
        denominator[0] = Fraction(draw(st.sampled_from((-3, -1, 1, 2))), draw(st.integers(1, 5)))
    numerator = draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4))
    return numerator, denominator, draw(st.integers(0, 8))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(series_quotients(), st.integers(1, 6))
def test_scaled_series_equals_fraction_reference(case, extra):
    numerator, denominator, n = case
    reference = [series_coefficient_by_fractions(numerator, denominator, m) for m in range(n + 1)]
    # the least scale that makes every coefficient through z^n whole, times extra
    least = math.lcm(*(c.denominator for c in reference))
    assert _series_coefficient(numerator, denominator, n, extra * least) == (
        extra * least * reference[n]
    )
    if least > 1:
        # coprime to the least scale, so some coefficient stays fractional
        with pytest.raises(ConsistencyError):
            _series_coefficient(numerator, denominator, n, extra * least - 1)
