"""Property tests of the pruned searches and the order-preservation kernel
against their plain references."""

from itertools import islice

import pytest

from quasitrivial import FiniteBinOp, TotalOrder, is_order_preserving
from quasitrivial.magmas import order_preserving_by_definition
from quasitrivial.oracle import brute_count_quasitrivial_associative
from quasitrivial.structure import monotonizing_orders

from conftest import monotonizing_orders_by_filter, qt_associative_count_by_masks

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
