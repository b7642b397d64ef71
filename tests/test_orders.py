"""Order-core: ordering types, peakedness, convexity, plateaus, patterns."""

from itertools import combinations, permutations

import pytest

from quasitrivial import (
    TotalOrder,
    WeakOrder,
    is_convex,
    is_single_peaked,
    is_valley_free,
    is_weakly_single_peaked,
    lower_sets_convex,
    plateaus,
    plateaus_are_minimal,
    profile_patterns,
    strict_convex_hull,
)
from quasitrivial.enumeration import weak_orders

from conftest import as_weak, is_dual_single_peaked


def order(*elements) -> TotalOrder:
    return TotalOrder.from_ordered_elements(elements)


def weak(*ranks) -> WeakOrder:
    return WeakOrder(tuple(ranks))


class TestTypes:
    def test_weak_order_requires_surjective_ranks(self):
        with pytest.raises(ValueError):
            WeakOrder((1, 3))  # rank 2 missing
        with pytest.raises(ValueError):
            WeakOrder((0, 1))
        with pytest.raises(ValueError):
            WeakOrder((2, 2))  # rank 1 missing
        with pytest.raises(ValueError):
            WeakOrder((1, 1, 3))

    def test_total_order_requires_permutation(self):
        with pytest.raises(ValueError):
            TotalOrder((1, 1, 2))
        with pytest.raises(ValueError):
            TotalOrder(())

    @pytest.mark.parametrize("make, args, entry", [
        (TotalOrder, (1.0, 2.0), "rank 1.0"),
        (TotalOrder, (2, True), "rank True"),
        (WeakOrder, (2.0, 1.0), "rank 2.0"),
        (WeakOrder, (1, True), "rank True"),
        (TotalOrder.from_ordered_elements, (2.0, 1), "element 2.0"),
        (TotalOrder.from_ordered_elements, (True,), "element True"),
    ])
    def test_rejects_non_integer_entries(self, make, args, entry):
        with pytest.raises(ValueError, match=f"^{entry} is not an integer$"):
            make(args)

    @pytest.mark.parametrize("make", [WeakOrder, TotalOrder])
    def test_rejects_a_rank_vector_that_is_not_a_sequence(self, make):
        with pytest.raises(ValueError, match="^rank vector 5 is not a sequence$"):
            make(5)

    def test_natural_order_is_identity_ranking(self):
        t = TotalOrder.natural(4)
        assert t.ranks == (1, 2, 3, 4)
        assert t.ordered_elements() == (1, 2, 3, 4)

    def test_total_weak_roundtrip(self):
        t = order(2, 1, 3)
        assert as_weak(t).to_total() == t
        assert weak(1, 2, 3).is_total()
        assert not weak(1, 1, 2).is_total()
        with pytest.raises(ValueError):
            weak(1, 1, 2).to_total()

    def test_inverse(self):
        assert weak(2, 1, 2, 3).inverse() == weak(2, 3, 2, 1)
        assert order(4, 3, 5, 2, 1, 6).inverse().ordered_elements() == (6, 1, 2, 5, 3, 4)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_total_order_reads_like_its_weak_order(self, n):
        for r in permutations(range(1, n + 1)):
            t, w = TotalOrder(r), WeakOrder(r)
            assert (t.n, t.k, t.classes(), str(t)) == (w.n, w.k, w.classes(), str(w))
            xs = range(1, n + 1)
            assert [t.rank_of(x) for x in xs] == [w.rank_of(x) for x in xs] == list(r)
            elems = t.ordered_elements()
            assert t.minimal_elements() == w.minimal_elements() == {elems[0]}
            assert t.maximal_elements() == w.maximal_elements() == {elems[-1]}
            inverse = t.inverse()
            assert type(inverse) is TotalOrder
            assert inverse.ordered_elements() == elems[::-1]
            trusted = TotalOrder._trusted(r)
            assert trusted == t and hash(trusted) == hash(t)
            assert t != w

    def test_total_order_is_a_weak_order(self):
        assert isinstance(TotalOrder.natural(3), WeakOrder)


class TestEquivalenceClasses:
    def test_worked_example(self):
        # 2 < 1 ~ 3 < 4
        assert weak(2, 1, 2, 3).classes() == (
            frozenset({2}),
            frozenset({1, 3}),
            frozenset({4}),
        )

    def test_single_class(self):
        assert weak(1, 1, 1).classes() == (frozenset({1, 2, 3}),)

    def test_total_order_case(self):
        assert weak(1, 2, 3).classes() == (frozenset({1}), frozenset({2}), frozenset({3}))

    def test_classes_partition_ground_set(self):
        for w in weak_orders(5):
            blocks = w.classes()
            union = set()
            for block in blocks:
                assert block, "empty class"
                assert union.isdisjoint(block)
                union |= block
            assert union == set(range(1, 6))


class TestConvexity:
    def test_hull_on_natural_order(self):
        assert strict_convex_hull(TotalOrder.natural(6), 2, 5) == {3, 4}

    def test_hull_adjacent_is_empty(self):
        assert strict_convex_hull(TotalOrder.natural(4), 3, 4) == frozenset()

    def test_hull_symmetric(self):
        assert strict_convex_hull(TotalOrder.natural(4), 4, 1) == {2, 3}

    def test_hull_rejects_equal_arguments(self):
        with pytest.raises(ValueError):
            strict_convex_hull(TotalOrder.natural(3), 2, 2)

    def test_hull_rejects_elements_out_of_range(self):
        # 0 would be read as the element ranked last through the negative index
        t4 = TotalOrder.natural(4)
        for x, y in ((0, 2), (2, 0), (5, 1), (1, 5), (-1, 3)):
            with pytest.raises(ValueError):
                strict_convex_hull(t4, x, y)

    def test_is_convex(self):
        t5 = TotalOrder.natural(5)
        assert is_convex(t5, {2, 3, 4})
        assert not is_convex(t5, {1, 3})
        assert is_convex(t5, set())

    def test_is_convex_definition(self):
        # quantifier form: a, c in S and b between them forces b in S
        t = order(3, 1, 4, 2, 5)
        for bits in range(32):
            s = {x for x in range(1, 6) if bits >> (x - 1) & 1}
            expected = all(
                b in s
                for a, c in combinations(sorted(s), 2)
                for b in strict_convex_hull(t, a, c)
            )
            assert is_convex(t, s) == expected


class TestSinglePeaked:
    def test_listed_example(self):
        assert is_single_peaked(TotalOrder.natural(3), order(2, 3, 1))

    def test_exactly_four_orders_on_three_elements(self):
        # oracle: scan all 3! candidate orderings against the definition
        t = TotalOrder.natural(3)
        good = {p for p in permutations((1, 2, 3)) if is_single_peaked(t, order(*p))}
        assert good == {(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)}
        assert not is_single_peaked(t, order(1, 3, 2))

    def test_six_element_showcase(self):
        assert is_single_peaked(TotalOrder.natural(6), order(4, 3, 5, 2, 1, 6))
        assert not is_single_peaked(TotalOrder.natural(6), order(6, 5, 2, 1, 3, 4))

    def test_counts_follow_doubling(self):
        # 2^(n-1) single-peaked orderings
        for n in range(1, 7):
            t = TotalOrder.natural(n)
            cnt = sum(
                1 for p in permutations(range(1, n + 1)) if is_single_peaked(t, order(*p))
            )
            assert cnt == 2 ** (n - 1)

    def test_duality(self):
        for n in range(1, 6):
            t = TotalOrder.natural(n)
            for p in permutations(range(1, n + 1)):
                cand = order(*p)
                assert is_single_peaked(t, cand) == is_dual_single_peaked(t, cand.inverse())


class TestWeaklySinglePeaked:
    def test_examples(self):
        assert is_weakly_single_peaked(TotalOrder.natural(3), weak(2, 1, 2))
        assert not is_weakly_single_peaked(TotalOrder.natural(4), weak(1, 3, 3, 2))

    def test_single_class_always_peaked(self):
        for n in range(1, 7):
            assert is_weakly_single_peaked(TotalOrder.natural(n), weak(*([1] * n)))

    def test_reduces_to_single_peaked_on_total_orders(self):
        for n in range(1, 7):
            t = TotalOrder.natural(n)
            for p in permutations(range(1, n + 1)):
                cand = order(*p)
                assert is_single_peaked(t, cand) == is_weakly_single_peaked(t, as_weak(cand))

    def test_listed_weak_orderings_on_three_elements(self):
        t = TotalOrder.natural(3)
        good = {w.ranks for w in weak_orders(3) if is_weakly_single_peaked(t, w)}
        assert good == {
            (1, 2, 3),  # 1 < 2 < 3
            (2, 1, 3),  # 2 < 1 < 3
            (3, 1, 2),  # 2 < 3 < 1
            (3, 2, 1),  # 3 < 2 < 1
            (2, 1, 2),  # 2 < 1 ~ 3
            (1, 1, 2),  # 1 ~ 2 < 3
            (2, 1, 1),  # 2 ~ 3 < 1
            (1, 1, 1),  # 1 ~ 2 ~ 3
        }

    def test_no_low_element_under_fat_class(self):
        # weakly single-peaked forbids a < b ~ c ~ d with all four distinct
        for n in range(1, 7):
            t = TotalOrder.natural(n)
            for w in weak_orders(n):
                if not is_weakly_single_peaked(t, w):
                    continue
                for block in w.classes()[1:]:
                    assert len(block) <= 2

    def test_top_class_pinned_to_extremes(self):
        # if the top class is proper it sits inside {leftmost, rightmost}
        for n in range(1, 7):
            t = TotalOrder.natural(n)
            for w in weak_orders(n):
                if not is_weakly_single_peaked(t, w):
                    continue
                top = w.maximal_elements()
                if len(top) < n:
                    assert top <= {1, n}


class TestValleyFree:
    def test_examples(self):
        t4 = TotalOrder.natural(4)
        assert is_valley_free(t4, weak(2, 1, 2, 3))
        assert not is_valley_free(t4, weak(1, 3, 3, 2))

    def test_single_peaked_total_orders_are_valley_free(self):
        t = TotalOrder.natural(5)
        for p in permutations(range(1, 6)):
            cand = order(*p)
            if is_single_peaked(t, cand):
                assert is_valley_free(t, as_weak(cand))

    def test_agrees_with_lower_set_convexity(self):
        for n in range(1, 7):
            t = TotalOrder.natural(n)
            for w in weak_orders(n):
                assert is_valley_free(t, w) == lower_sets_convex(t, w)


def brute_force_plateaus(t, w):
    """Oracle: every interval of t of size >= 2 inside one class."""
    elems = t.ordered_elements()
    found = []
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            block = elems[i : j + 1]
            if all(w.equiv(block[0], x) for x in block):
                found.append(frozenset(block))
    return found


class TestPlateaus:
    def test_examples(self):
        t4 = TotalOrder.natural(4)
        assert plateaus(t4, weak(1, 3, 3, 2)) == (frozenset({2, 3}),)
        assert plateaus(TotalOrder.natural(3), weak(2, 1, 2)) == ()
        assert plateaus(TotalOrder.natural(3), weak(1, 1, 1)) == (frozenset({1, 2, 3}),)

    def test_maximal_runs_cover_all_plateaus(self):
        for n in range(1, 6):
            t = TotalOrder.natural(n)
            for w in weak_orders(n):
                runs = plateaus(t, w)
                for p in brute_force_plateaus(t, w):
                    assert any(p <= run for run in runs)

    def test_minimality_examples(self):
        t4 = TotalOrder.natural(4)
        assert not plateaus_are_minimal(t4, weak(1, 3, 3, 2))
        # 2 ~ 3 < 1 ~ 4: the only plateau {2, 3} is the bottom class
        assert plateaus_are_minimal(t4, weak(2, 1, 1, 2))

    def test_no_adjacent_equivalents_means_trivially_minimal(self):
        t = TotalOrder.natural(3)
        assert plateaus_are_minimal(t, weak(2, 1, 2))

    def test_maximal_run_check_equals_all_plateau_check(self):
        # quantifying over maximal runs is equivalent to quantifying over
        # every t-convex subset of a class
        for n in range(1, 6):
            t = TotalOrder.natural(n)
            for w in weak_orders(n):
                all_plateaus_minimal = all(
                    any(w.rank_of(x) == 1 for x in p)
                    for p in brute_force_plateaus(t, w)
                )
                assert plateaus_are_minimal(t, w) == all_plateaus_minimal


class TestProfilePatterns:
    def test_peaked_example_is_fully_free(self):
        flags = profile_patterns(TotalOrder.natural(4), weak(2, 1, 2, 3))
        assert (flags.v_free, flags.l_free, flags.reversed_l_free) == (True, True, True)

    def test_unpeaked_example_violates_all_three(self):
        flags = profile_patterns(TotalOrder.natural(4), weak(1, 3, 3, 2))
        assert (flags.v_free, flags.l_free, flags.reversed_l_free) == (False, False, False)

    def test_two_local_maxima_orders_are_not_valley_free(self):
        w = as_weak(order(6, 5, 2, 1, 3, 4))
        flags = profile_patterns(TotalOrder.natural(6), w)
        assert not flags.v_free
        assert flags.l_free and flags.reversed_l_free  # no plateaus in a total order

    def test_v_free_is_valley_free(self):
        for n in range(1, 6):
            t = TotalOrder.natural(n)
            for w in weak_orders(n):
                assert profile_patterns(t, w).v_free == is_valley_free(t, w)

    def test_l_flags_conjunction_is_plateau_minimality(self):
        for n in range(1, 7):
            t = TotalOrder.natural(n)
            for w in weak_orders(n):
                flags = profile_patterns(t, w)
                assert (flags.l_free and flags.reversed_l_free) == plateaus_are_minimal(t, w)


class TestMinMaxElements:
    def test_worked_examples(self):
        w = weak(2, 1, 2, 3)
        assert w.minimal_elements() == {2}
        assert w.maximal_elements() == {4}
        assert weak(1, 1, 1).minimal_elements() == {1, 2, 3}
        assert weak(1, 1, 1).maximal_elements() == {1, 2, 3}
        assert weak(1, 3, 3, 2).maximal_elements() == {2, 3}


PAIRED = (is_single_peaked, is_weakly_single_peaked, is_valley_free, lower_sets_convex,
          plateaus, plateaus_are_minimal, profile_patterns)


class TestSizesAndElements:
    @pytest.mark.parametrize("fn", PAIRED, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("t, w", [
        (TotalOrder.natural(3), TotalOrder((1, 2, 3, 4))),
        (TotalOrder.natural(4), TotalOrder((1, 2, 3))),
        (TotalOrder.natural(3), weak(1, 2, 1, 1)),
        (TotalOrder.natural(4), weak(1, 2, 1)),
    ], ids=["shorter-axis", "longer-axis", "shorter-axis-weak", "longer-axis-weak"])
    def test_orderings_of_different_sizes_are_rejected(self, fn, t, w):
        # an answer here would be silent nonsense, an IndexError a traceback
        with pytest.raises(ValueError, match="different cardinalities"):
            fn(t, w)

    @pytest.mark.parametrize("x", [0, -1, 4])
    def test_elements_outside_the_set_are_rejected(self, x):
        # 0 and -1 would be read through negative indices
        w, t = weak(1, 2, 1), TotalOrder.natural(3)
        for ask in (lambda: w.rank_of(x), lambda: w.equiv(x, 3), lambda: w.equiv(3, x),
                    lambda: is_convex(t, [x]), lambda: is_convex(t, [1, x]),
                    lambda: t.larger(x, 1), lambda: t.larger(1, x)):
            with pytest.raises(ValueError, match=f"element {x} is not in 1..3"):
                ask()
