"""Magma-core: table type, property predicates, degrees, connectivity tests."""

import random
from itertools import permutations, product

import pytest

from quasitrivial import (
    FiniteBinOp,
    TotalOrder,
    WeakOrder,
    annihilator_elements,
    degree_sequence,
    f_degree,
    graphical_quasitriviality_test,
    is_associative,
    is_commutative,
    is_idempotent,
    is_order_preserving,
    is_quasitrivial,
    neutral_elements,
    rectangle_associativity_test,
)
from quasitrivial.magmas import order_preserving_by_definition

from conftest import (
    all_commutative_quasitrivial_tables,
    all_quasitrivial_tables,
    all_tables,
    random_idempotent_table,
)


class TestTableType:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FiniteBinOp(((1, 2), (3, 1)))
        with pytest.raises(ValueError):
            FiniteBinOp(((1,), (1, 2)))
        with pytest.raises(ValueError):
            FiniteBinOp(())

    @pytest.mark.parametrize("rows, entry", [
        (((True,),), "True"),
        (((1.0, 2.0), (2.0, 2.0)), "1.0"),
        (((1, 2), (2, 2.0)), "2.0"),
        (((1, "2"), (2, 2)), "'2'"),
    ])
    def test_rejects_non_integer_entries(self, rows, entry):
        # a bool is not an integer entry, and 1.0 is not 1: either would be
        # emitted as text that the parser rejects
        with pytest.raises(ValueError, match=f"^table entry {entry} is not an integer$"):
            FiniteBinOp(rows)

    def test_rejects_rows_that_are_not_sequences(self):
        with pytest.raises(ValueError, match=r"^table \(1, 2\) is not a sequence of rows$"):
            FiniteBinOp((1, 2))

    def test_call_is_one_based(self, x4_peaked):
        assert x4_peaked(1, 3) == 3
        assert x4_peaked(3, 1) == 1
        assert x4_peaked(1, 2) == 1
        assert all(x4_peaked(4, x) == 4 for x in range(1, 5))

    @pytest.mark.parametrize("x", [0, -1, 3])
    def test_elements_outside_the_set_are_rejected(self, x):
        # 0 and -1 would be read through negative indices, 3 past the end
        f = FiniteBinOp(((1, 2), (2, 2)))
        for args in ((x, 1), (1, x)):
            with pytest.raises(ValueError, match=f"element {x} is not in 1..2"):
                f(*args)


class TestProjections:
    def test_values(self):
        assert FiniteBinOp.projection(3, "left")(2, 3) == 2
        assert FiniteBinOp.projection(3, "right")(2, 3) == 3
        with pytest.raises(ValueError):
            FiniteBinOp.projection(3, "middle")

    def test_properties(self):
        for side in ("left", "right"):
            for n in (1, 2, 4):
                p = FiniteBinOp.projection(n, side)
                assert is_associative(p)
                assert is_quasitrivial(p)
                assert is_idempotent(p)
                assert is_commutative(p) == (n == 1)

    def test_projections_have_no_neutral_or_annihilator(self):
        for n in (2, 3, 4):
            for side in ("left", "right"):
                p = FiniteBinOp.projection(n, side)
                assert neutral_elements(p) == frozenset()
                assert annihilator_elements(p) == frozenset()


class TestPredicates:
    def test_non_quasitrivial_example(self, x3_not_quasitrivial):
        f = x3_not_quasitrivial
        assert is_associative(f)
        assert not is_quasitrivial(f)
        assert is_idempotent(f)
        assert is_commutative(f)

    def test_projection_on_four(self):
        p = FiniteBinOp.projection(4, "left")
        assert (is_associative(p), is_idempotent(p), is_quasitrivial(p), is_commutative(p)) == (
            True,
            True,
            True,
            False,
        )

    def test_max_of_chain(self):
        f = FiniteBinOp.max_under(TotalOrder.natural(5))
        assert is_associative(f) and is_idempotent(f)
        assert is_quasitrivial(f) and is_commutative(f)

    def test_max_under_equals_larger_cell_by_cell(self):
        for n in range(1, 7):
            for p in permutations(range(1, n + 1)):
                t = TotalOrder.from_ordered_elements(p)
                assert FiniteBinOp.max_under(t) == FiniteBinOp.from_function(n, t.larger)


class TestOrderPreserving:
    def test_x6_example(self, x6_commutative):
        assert is_order_preserving(x6_commutative, TotalOrder.natural(6))

    @pytest.mark.parametrize("m", [5, 7])
    def test_ordering_of_another_size_is_rejected(self, x6_commutative, m):
        with pytest.raises(ValueError, match="different cardinalities"):
            is_order_preserving(x6_commutative, TotalOrder.natural(m))

    def test_weak_ordering_with_a_tie_is_rejected(self, x6_commutative):
        # monotonicity is checked along adjacent steps of a total ordering
        with pytest.raises(ValueError, match=r"^rank vector \(1, 2, 2, 3, 4, 5\) is not a total"):
            is_order_preserving(x6_commutative, WeakOrder((1, 2, 2, 3, 4, 5)))

    def test_never_monotone_example(self, x4_never_monotone):
        for p in permutations(range(1, 5)):
            t = TotalOrder.from_ordered_elements(p)
            assert not is_order_preserving(x4_never_monotone, t)

    def test_projections_always_monotone(self):
        for p in permutations(range(1, 5)):
            t = TotalOrder.from_ordered_elements(p)
            assert is_order_preserving(FiniteBinOp.projection(4, "right"), t)

    def test_adjacent_step_reduction_matches_definition(self):
        for n in (1, 2, 3):
            t = TotalOrder.natural(n)
            for f in all_tables(n):
                assert is_order_preserving(f, t) == order_preserving_by_definition(f, t)
        for f in all_quasitrivial_tables(4):
            t = TotalOrder.natural(4)
            assert is_order_preserving(f, t) == order_preserving_by_definition(f, t)
        every_order = {
            n: [TotalOrder.from_ordered_elements(p) for p in permutations(range(1, n + 1))]
            for n in (1, 2, 3, 4)
        }
        for n in (1, 2, 3):
            for f in all_quasitrivial_tables(n):
                for t in every_order[n]:
                    assert is_order_preserving(f, t) == order_preserving_by_definition(f, t)
        for f in filter(is_associative, all_quasitrivial_tables(4)):
            for t in every_order[4]:
                assert is_order_preserving(f, t) == order_preserving_by_definition(f, t)
        rng = random.Random(20240917)
        for _ in range(300):
            n = rng.randint(2, 6)
            f = FiniteBinOp.from_function(n, lambda x, y: rng.randint(1, n))
            t = TotalOrder.from_ordered_elements(rng.sample(range(1, n + 1), n))
            assert is_order_preserving(f, t) == order_preserving_by_definition(f, t)


class TestNeutralAnnihilator:
    def test_single_peaked_showcase(self, x6_single_peaked_max):
        assert neutral_elements(x6_single_peaked_max) == {4}
        assert annihilator_elements(x6_single_peaked_max) == {6}

    def test_non_quasitrivial_example_has_annihilator(self, x3_not_quasitrivial):
        assert annihilator_elements(x3_not_quasitrivial) == {2}
        assert neutral_elements(x3_not_quasitrivial) == frozenset()
        # and both agree with their quantifier definitions on every table
        for n in (1, 2, 3):
            elems = range(1, n + 1)
            for f in all_tables(n):
                assert neutral_elements(f) == {
                    e for e in elems if all(f(x, e) == x == f(e, x) for x in elems)
                }
                assert annihilator_elements(f) == {
                    a for a in elems if all(f(x, a) == a == f(a, x) for x in elems)
                }

    def test_at_most_one_of_each_when_associative_quasitrivial(self):
        for f in all_quasitrivial_tables(4):
            if is_associative(f):
                assert len(neutral_elements(f)) <= 1
                assert len(annihilator_elements(f)) <= 1


class TestDegrees:
    def test_peaked_example_degrees(self, x4_peaked):
        assert degree_sequence(x4_peaked) == (0, 3, 3, 6)

    def test_showcase_degrees(self, x6_single_peaked_max):
        assert degree_sequence(x6_single_peaked_max) == (0, 2, 4, 6, 8, 10)

    def test_degrees_by_definition(self):
        # every table with n <= 3: the cells other than (z, z) holding F(z, z)
        for n in range(1, 4):
            cells = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1)]
            for f in all_tables(n):
                degrees = [sum(1 for x, y in cells if (x, y) != (z, z) and f(x, y) == f(z, z))
                           for z in range(1, n + 1)]
                assert [f_degree(f, z) for z in range(1, n + 1)] == degrees
                assert degree_sequence(f) == tuple(sorted(degrees))

    def test_neutral_iff_degree_zero(self):
        for f in all_quasitrivial_tables(4):
            neutral = neutral_elements(f)
            zero_degree = {z for z in range(1, 5) if f_degree(f, z) == 0}
            assert neutral == zero_degree

    def test_annihilator_iff_degree_2n_minus_2(self):
        for f in all_quasitrivial_tables(4):
            annih = annihilator_elements(f)
            full_degree = {z for z in range(1, 5) if f_degree(f, z) == 6}
            assert annih == full_degree

    def test_degree_rejects_element_out_of_range(self, x4_peaked):
        # z = 0 would read F(n, n) through the negative index, z = n + 1 the
        # row past the end
        for z in (0, 5, -1):
            with pytest.raises(ValueError):
                f_degree(x4_peaked, z)

    def test_degree_sum_is_n_squared_minus_n_for_idempotent(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randint(1, 8)
            f = random_idempotent_table(n, rng)
            assert sum(degree_sequence(f)) == n * (n - 1)


class TestGraphicalQuasitriviality:
    def test_examples(self, x3_not_quasitrivial):
        assert not graphical_quasitriviality_test(x3_not_quasitrivial)
        assert graphical_quasitriviality_test(FiniteBinOp.projection(3, "left"))
        non_idempotent = FiniteBinOp(((2, 1), (1, 2)))
        assert not graphical_quasitriviality_test(non_idempotent)


class TestRectangleAssociativity:
    def test_requires_quasitrivial_input(self, x3_not_quasitrivial):
        with pytest.raises(ValueError):
            rectangle_associativity_test(x3_not_quasitrivial)

    def test_never_monotone_example_is_associative(self, x4_never_monotone):
        assert rectangle_associativity_test(x4_never_monotone)

    def test_projection(self):
        assert rectangle_associativity_test(FiniteBinOp.projection(3, "right"))

    def test_agrees_with_associativity_on_three_elements(self):
        # brute force over all 2^6 quasitrivial tables; exactly 20 associative
        results = [rectangle_associativity_test(f) for f in all_quasitrivial_tables(3)]
        definitional = [is_associative(f) for f in all_quasitrivial_tables(3)]
        assert len(results) == 64
        assert results == definitional
        assert sum(results) == 20


class TestImplicationSweeps:
    def test_neutral_monotone_idempotent_associative_implies_quasitrivial(self):
        # over all 3^6 diagonal-fixed tables on three elements
        t = TotalOrder.natural(3)
        pairs = [(x, y) for x in range(1, 4) for y in range(1, 4) if x != y]
        checked = 0
        for values in product((1, 2, 3), repeat=6):
            rows = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
            for (x, y), v in zip(pairs, values):
                rows[x - 1][y - 1] = v
            f = FiniteBinOp(tuple(tuple(r) for r in rows))
            if is_associative(f) and is_order_preserving(f, t) and neutral_elements(f):
                assert is_quasitrivial(f)
                checked += 1
        assert checked > 0

    def test_commutative_quasitrivial_monotone_implies_associative(self):
        for n in range(1, 6):
            t = TotalOrder.natural(n)
            for f in all_commutative_quasitrivial_tables(n):
                if is_order_preserving(f, t):
                    assert is_associative(f)
