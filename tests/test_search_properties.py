"""Property test of the monotonizing-order search against the factorial filter."""

from itertools import islice

import pytest

from quasitrivial import FiniteBinOp
from quasitrivial.structure import monotonizing_orders

from conftest import monotonizing_orders_by_filter

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
