"""Structure: the factorization bijection, recovery routes, classification."""

import math
import random
from itertools import islice

import pytest

from quasitrivial import (
    CapacityError,
    ConsistencyError,
    DecompositionError,
    FiniteBinOp,
    KimuraDecomposition,
    TotalOrder,
    WeakOrder,
    build,
    classify,
    commutative_characterization,
    decompose,
    exists_monotonizing_order,
    f_degree,
    induced_weak_order,
    is_associative,
    is_order_preserving,
    is_quasitrivial,
    weak_order_from_degrees,
)
from quasitrivial import structure
from quasitrivial.enumeration import kimura_decompositions, qt_semigroups
from quasitrivial.formats import parse_cayley_line
from quasitrivial.magmas import order_preserving_by_definition
from quasitrivial.structure import monotonizing_orders, projection_rows

from conftest import (
    all_quasitrivial_tables,
    all_tables,
    monotonizing_orders_by_filter,
    sampled_decomposition,
)


def decomp(ranks, **sides):
    return KimuraDecomposition.make(
        WeakOrder(tuple(ranks)), {int(k): v for k, v in sides.items()}
    )


class TestDecompositionType:
    def test_requires_choice_per_fat_class_only(self):
        with pytest.raises(ValueError):
            KimuraDecomposition(WeakOrder((1, 1, 2)), ())  # missing choice for {1,2}
        with pytest.raises(ValueError):
            KimuraDecomposition(WeakOrder((1, 2, 3)), ((1, "left"),))  # singleton choice
        with pytest.raises(ValueError):
            KimuraDecomposition(WeakOrder((1, 1)), ((1, "up"),))

    @pytest.mark.parametrize("rank", [1.9, 1.0, True, "1"])
    def test_rejects_a_non_integer_class_rank(self, rank):
        with pytest.raises(ValueError, match=f"^class rank {rank!r} is not an integer$"):
            KimuraDecomposition(WeakOrder((1, 1)), ((rank, "left"),))

    def test_requires_a_nonempty_set(self):
        # `build` trusts a decomposition, so the empty table is refused here
        with pytest.raises(ValueError, match="n >= 1"):
            KimuraDecomposition(WeakOrder(()), ())


class TestBuild:
    def test_worked_example(self, x4_peaked):
        d = decomp((2, 1, 2, 3), **{"2": "right"})
        assert build(d) == x4_peaked

    def test_total_order_gives_max(self):
        d = decomp((1, 2, 3, 4))
        assert build(d) == FiniteBinOp.max_under(TotalOrder.natural(4))

    def test_single_class_left_gives_projection(self):
        d = decomp((1, 1, 1), **{"1": "left"})
        assert build(d) == FiniteBinOp.projection(3, "left")

    def test_tables_pass_the_constructor_check(self):
        # built unchecked, each table equals (and hashes like) its checked copy
        for n in range(1, 6):
            for d in kimura_decompositions(n):
                f = build(d)
                checked = FiniteBinOp(f.rows)
                assert f == checked and hash(f) == hash(checked)
                assert type(f.rows) is tuple and all(type(row) is tuple for row in f.rows)

    def test_always_associative_and_quasitrivial(self):
        for n in range(1, 6):
            for d in kimura_decompositions(n):
                f = build(d)
                assert is_associative(f)
                assert is_quasitrivial(f)

    def test_inverse_order_with_minimum_rebuilds_same_table(self):
        # flipping the ordering and swapping max for min is a pure convention
        for n in range(1, 6):
            for d in kimura_decompositions(n):
                k = d.order.k
                flipped = KimuraDecomposition.make(
                    d.order.inverse(), {k + 1 - r: side for r, side in d.choices}
                )
                assert build_cell_by_cell(flipped, minimum=True) == build(d)


def build_cell_by_cell(d, minimum=False):
    """Reference: the table rule applied to every cell on its own."""
    ranks, side = d.order.ranks, dict(d.choices)
    n = d.order.n

    def cell(x, y):
        rx, ry = ranks[x - 1], ranks[y - 1]
        if rx == ry:
            return x if x == y or side[rx] == "left" else y
        return x if (rx > ry) != minimum else y

    return FiniteBinOp(tuple(tuple(cell(x, y) for y in range(1, n + 1)) for x in range(1, n + 1)))


class TestProjectionRows:
    def test_build_matches_cell_by_cell_rule(self):
        for n in range(1, 6):
            for d in kimura_decompositions(n):
                assert build(d) == build_cell_by_cell(d)

    def test_rows_differ_only_inside_the_class(self):
        order = WeakOrder((2, 1, 2, 3, 1))
        pairs = projection_rows(order)
        assert pairs[0] == ((1, 1, 1, 4, 1), (1, 1, 3, 4, 1))
        assert pairs[1] == ((1, 2, 3, 4, 2), (1, 2, 3, 4, 5))
        # a singleton class has one row, shared by both sides
        assert pairs[3][0] is pairs[3][1]
        assert pairs[3][0] == (4, 4, 4, 4, 4)


class TestInducedWeakOrder:
    def test_worked_examples(self, x4_peaked, x6_single_peaked_max):
        assert induced_weak_order(x4_peaked) == WeakOrder((2, 1, 2, 3))
        assert induced_weak_order(x6_single_peaked_max) == WeakOrder((5, 4, 2, 1, 3, 6))

    def test_projection_gives_single_class(self):
        assert induced_weak_order(FiniteBinOp.projection(3, "left")) == WeakOrder((1, 1, 1))

    def test_rejects_non_quasitrivial(self, x3_not_quasitrivial):
        with pytest.raises(DecompositionError, match="not quasitrivial"):
            induced_weak_order(x3_not_quasitrivial)

    def test_rejects_non_associative(self):
        # quasitrivial but not associative: a 3-cycle-ish choice pattern
        f = FiniteBinOp(((1, 1, 3), (2, 2, 2), (3, 3, 3)))
        assert is_quasitrivial(f) and not is_associative(f)
        with pytest.raises(DecompositionError, match="not associative"):
            induced_weak_order(f)


class TestDegreeRecovery:
    def test_worked_examples(self, x4_peaked, x6_single_peaked_max):
        assert weak_order_from_degrees(x4_peaked) == WeakOrder((2, 1, 2, 3))
        assert weak_order_from_degrees(x6_single_peaked_max).to_total().ordered_elements() == (
            4,
            3,
            5,
            2,
            1,
            6,
        )

    def test_right_projection_on_two_elements(self):
        f = FiniteBinOp.projection(2, "right")
        assert [f_degree(f, z) for z in (1, 2)] == [1, 1]
        assert weak_order_from_degrees(f) == WeakOrder((1, 1))

    def test_both_recovery_routes_coincide(self):
        for n in range(1, 6):
            for f in qt_semigroups(n):
                assert induced_weak_order(f) == weak_order_from_degrees(f)

    def test_degree_formula_from_decomposition(self):
        # degree of x = 2 |below x| + |equivalent to x, not x|
        for n in range(1, 6):
            for d in kimura_decompositions(n):
                f = build(d)
                ranks = d.order.ranks
                for x in range(1, n + 1):
                    below = sum(1 for r in ranks if r < ranks[x - 1])
                    peers = sum(1 for r in ranks if r == ranks[x - 1]) - 1
                    assert f_degree(f, x) == 2 * below + peers
                    # second form of the same identity
                    weakly_below = below + peers + 1
                    assert f_degree(f, x) == below + weakly_below - 1


class TestDecompose:
    def test_worked_example(self, x4_peaked):
        d = decompose(x4_peaked)
        assert d.order == WeakOrder((2, 1, 2, 3))
        assert d.choices == ((2, "right"),)

    def test_max_of_chain(self):
        d = decompose(FiniteBinOp.max_under(TotalOrder.natural(3)))
        assert d.order == WeakOrder((1, 2, 3))
        assert d.choices == ()

    def test_roundtrip_both_ways(self):
        for n in range(1, 5):
            for d in kimura_decompositions(n):
                f = build(d)
                back = decompose(f)
                assert back == d
                assert build(back) == f

    def test_roundtrip_on_random_large_instances(self):
        # beyond the exhaustive range: random orderings up to n = 20
        import random

        rng = random.Random(99)
        for _ in range(60):
            n = rng.randint(6, 20)
            k = rng.randint(1, n)
            ranks = list(range(1, k + 1)) + [rng.randint(1, k) for _ in range(n - k)]
            rng.shuffle(ranks)
            order = WeakOrder(tuple(ranks))
            sides = {
                r: rng.choice(["left", "right"])
                for r, block in enumerate(order.classes(), start=1)
                if len(block) >= 2
            }
            d = KimuraDecomposition.make(order, sides)
            assert decompose(build(d)) == d

    def test_neutral_iff_bottom_singleton(self):
        from quasitrivial import annihilator_elements, neutral_elements

        for n in range(1, 5):
            for d in kimura_decompositions(n):
                f = build(d)
                bottom = d.order.minimal_elements()
                top = d.order.maximal_elements()
                if len(bottom) == 1:
                    assert neutral_elements(f) == bottom
                else:
                    assert neutral_elements(f) == frozenset()
                if len(top) == 1:
                    assert annihilator_elements(f) == top
                else:
                    assert annihilator_elements(f) == frozenset()


class TestCommutativeCharacterization:
    def test_showcase(self, x6_single_peaked_max):
        t = commutative_characterization(x6_single_peaked_max)
        assert t is not None
        assert t.ordered_elements() == (4, 3, 5, 2, 1, 6)

    def test_projection_is_not_commutative(self):
        assert commutative_characterization(FiniteBinOp.projection(3, "left")) is None

    def test_peaked_example_has_wrong_degrees(self, x4_peaked):
        assert commutative_characterization(x4_peaked) is None

    def test_degree_route_equals_structural_route_on_quasitrivial_tables(self):
        # commutative + associative <=> degree sequence (0, 2, ..., 2n-2),
        # over every quasitrivial table (not only associative ones)
        from quasitrivial import degree_sequence, is_commutative

        for n in range(1, 5):
            for f in all_quasitrivial_tables(n):
                lhs = is_commutative(f) and is_associative(f)
                rhs = degree_sequence(f) == tuple(range(0, 2 * n, 2))
                assert lhs == rhs
                if lhs:
                    assert commutative_characterization(f) is not None
                else:
                    assert commutative_characterization(f) is None


class TestMonotonizingOrders:
    def test_never_monotone(self, x4_never_monotone):
        assert exists_monotonizing_order(x4_never_monotone) is None

    def test_max_finds_natural_first(self):
        f = FiniteBinOp.max_under(TotalOrder.natural(4))
        assert exists_monotonizing_order(f) == TotalOrder.natural(4)

    def test_search_agrees_with_order_predicate(self, x4_peaked):
        found = list(monotonizing_orders(x4_peaked))
        assert found
        for t in found:
            assert is_order_preserving(x4_peaked, t)

    def test_capacity_guard(self):
        # the search stays capped: a table with no factorization (one cell of
        # the left projection flipped) has nothing else to list orders from
        rows = [list(row) for row in FiniteBinOp.projection(9, "left").rows]
        rows[0][1] = 2
        f = FiniteBinOp(rows)
        assert is_quasitrivial(f) and not is_associative(f)
        with pytest.raises(CapacityError):
            exists_monotonizing_order(f)
        with pytest.raises(CapacityError):
            exists_monotonizing_order(FiniteBinOp.projection(9, "left"))

    def test_factorization_lifts_the_cap(self):
        f = FiniteBinOp.projection(9, "left")
        assert exists_monotonizing_order(f, decompose(f)) == TotalOrder.natural(9)

    def test_factored_route_equals_search(self):
        for f in (f for n in range(1, 6) for f in qt_semigroups(n)):
            assert list(monotonizing_orders(f, decompose(f))) == list(monotonizing_orders(f)), f.rows

    def test_factored_route_equals_search_first_orders(self):
        # classify lists at most the first 25
        rng = random.Random(15)
        tables = rng.sample(list(qt_semigroups(6)), 300)
        tables += [build(sampled_decomposition(n, rng, thin=i % 2 == 1))
                   for n in (7, 8) for i in range(50)]
        for f in tables:
            assert list(islice(monotonizing_orders(f, decompose(f)), 25)) == list(
                islice(monotonizing_orders(f), 25)
            ), f.rows

    @pytest.mark.parametrize("n", (9, 12))
    def test_factored_route_past_the_search_cap(self, n):
        rng = random.Random(n)
        for i in range(40):
            f = build(sampled_decomposition(n, rng, thin=i % 2 == 1))
            classes = decompose(f).order.classes()
            if any(len(block) >= 3 for block in classes[1:]):
                expected = 0
            else:
                expected = math.factorial(len(classes[0])) * 2 ** (len(classes) - 1)
            listed = list(islice(monotonizing_orders(f, decompose(f)), 25))
            assert len(listed) == min(25, expected), f.rows
            listings = [t.ordered_elements() for t in listed]
            assert listings == sorted(set(listings)), f.rows
            if n == 9:
                assert all(order_preserving_by_definition(f, t) for t in listed), f.rows

    def test_factored_route_checks_every_order(self, monkeypatch):
        # an order either route lists but the table rejects is a bug, and
        # the search and the factorization report it alike
        f = FiniteBinOp.projection(4, "left")
        d = decompose(f)
        monkeypatch.setattr("quasitrivial.structure.is_order_preserving", lambda f, t: False)
        for decomposition in (None, d):
            with pytest.raises(ConsistencyError, match=r"^the ordering \(1, 2, 3, 4\) is listed"):
                exists_monotonizing_order(f, decomposition)

    def test_factorization_of_another_size_rejected(self):
        f = FiniteBinOp.projection(4, "left")
        with pytest.raises(ValueError):
            exists_monotonizing_order(FiniteBinOp.projection(3, "left"), decompose(f))

    def test_factorization_of_another_table_rejected(self):
        # the left projection has all 6 orderings; the factorization of
        # another table would list 4 of them, or fail the order check
        f = FiniteBinOp.projection(3, "left")
        other = decompose(parse_cayley_line("cayley 3 : 1 1 3 2 2 3 3 3 3"))
        assert len(list(monotonizing_orders(f))) == 6
        with pytest.raises(ValueError, match="not the factorization of the operation"):
            list(monotonizing_orders(f, other))
        # every ordered pair of distinct qt-semigroups of one size, n <= 4
        pairs = 0
        for n in range(1, 5):
            tables = list(qt_semigroups(n))
            factorizations = [decompose(f) for f in tables]
            for f in tables:
                for f2, d in zip(tables, factorizations):
                    if f2 != f:
                        pairs += 1
                        with pytest.raises(ValueError):  # not a ConsistencyError
                            exists_monotonizing_order(f, d)
        assert pairs == 19298

    # the factorial filter is the reference: on every listed table the search
    # yields exactly its orderings, in its order
    FILTER_FAMILIES = {
        "tables-n3": lambda: (f for n in (1, 2, 3) for f in all_tables(n)),
        "quasitrivial-n4": lambda: all_quasitrivial_tables(4),
        "qt-semigroups-n5": lambda: (f for n in range(1, 6) for f in qt_semigroups(n)),
    }

    @pytest.mark.parametrize("family", list(FILTER_FAMILIES))
    def test_search_equals_factorial_filter(self, family):
        for f in self.FILTER_FAMILIES[family]():
            assert list(monotonizing_orders(f)) == list(monotonizing_orders_by_filter(f)), f.rows

    def test_count_equals_structural_count(self):
        # along an order-preserving t the ranks fall strictly to the bottom
        # class, which is one contiguous block, and then rise strictly: each
        # other class holds at most two elements, one on each side
        tables = [f for n in range(1, 6) for f in qt_semigroups(n)]
        tables += random.Random(6).sample(list(qt_semigroups(6)), 300)
        for f in tables:
            classes = decompose(f).order.classes()
            if any(len(block) >= 3 for block in classes[1:]):
                expected = 0
            else:
                expected = math.factorial(len(classes[0])) * 2 ** (len(classes) - 1)
            assert sum(1 for _ in monotonizing_orders(f)) == expected, f.rows


class TestClassify:
    def test_peaked_example(self, x4_peaked):
        report = classify(x4_peaked, TotalOrder.natural(4))
        assert report.associative and report.quasitrivial
        assert not report.commutative
        assert report.neutral == {2}
        assert report.annihilator == {4}
        assert report.weakly_single_peaked_for_reference is True
        assert report.order_preserving_for_reference is True
        assert report.decomposition is not None
        assert report.max_of_total_order is None
        assert TotalOrder.natural(4) in report.monotone_for

    def test_non_quasitrivial_example(self, x3_not_quasitrivial):
        report = classify(x3_not_quasitrivial)
        assert not report.quasitrivial
        assert report.annihilator == {2}
        assert report.decomposition is None
        assert report.weakly_single_peaked_for_reference is None

    def test_unpeaked_example(self, x4_unpeaked):
        report = classify(x4_unpeaked, TotalOrder.natural(4))
        assert report.order_preserving_for_reference is False
        assert report.weakly_single_peaked_for_reference is False
        assert report.associative and report.quasitrivial

    @pytest.mark.parametrize("m", [3, 5])
    def test_reference_of_another_size_is_rejected(self, x4_peaked, m):
        with pytest.raises(ValueError, match="wrong cardinality"):
            classify(x4_peaked, TotalOrder.natural(m))

    def test_monotone_list_truncation(self):
        f = FiniteBinOp.projection(5, "left")  # monotone for all 120 orderings
        report = classify(f)
        assert list(report.monotone_for) == list(monotonizing_orders_by_filter(f))[:24]
        assert report.monotone_for_truncated

    def test_predicates_run_once(self, monkeypatch):
        # classify passes what TableProperties found to the factorization and
        # the commutative characterization instead of deciding it again
        calls = []
        for name in ("is_associative", "is_quasitrivial"):
            def counted(f, _name=name, _fn=getattr(structure, name)):
                calls.append(_name)
                return _fn(f)

            monkeypatch.setattr(structure, name, counted)
        # a decomposable n = 8 table, and a commutative one
        tables = [
            build(sampled_decomposition(8, random.Random(8))),
            FiniteBinOp.max_under(TotalOrder.from_ordered_elements([3, 1, 4, 8, 5, 2, 7, 6])),
        ]
        for f in tables:
            calls.clear()
            report = classify(f)
            assert report.decomposition is not None
            assert sorted(calls) == ["is_associative", "is_quasitrivial"]
        assert report.max_of_total_order is not None

    def test_report_internal_consistency_sweep(self):
        import random

        from quasitrivial.enumeration import qt_semigroups

        rng = random.Random(12166)
        samples = list(qt_semigroups(3))
        for _ in range(150):
            n = rng.randint(1, 4)
            samples.append(FiniteBinOp.from_function(n, lambda x, y: rng.randint(1, n)))
        for f in samples:
            report = classify(f)
            assert (report.decomposition is not None) == (
                report.associative and report.quasitrivial
            )
            assert (report.weakly_single_peaked_for_reference is None) == (
                report.decomposition is None
            )
            assert (report.max_of_total_order is not None) == (
                report.associative and report.quasitrivial and report.commutative
            )
            assert report.order_preserving_for_reference == (
                TotalOrder.natural(f.n) in report.monotone_for
                or report.monotone_for_truncated
                and report.order_preserving_for_reference
            )
            assert report.degree_sequence == tuple(sorted(report.degree_sequence))
