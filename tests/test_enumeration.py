"""Enumeration: stream contents, documented order, filters, sharding, capacity."""

import itertools
import math

import pytest

from quasitrivial import (
    CapacityError,
    FiniteBinOp,
    WeakOrder,
    is_associative,
    is_commutative,
    is_quasitrivial,
    neutral_elements,
)
from quasitrivial.counting import ordered_bell, q_recurrence, v_recurrence
from quasitrivial.enumeration import (
    FAMILIES,
    QT_SEMIGROUP_MAX_N,
    TOTAL_ORDER_MAX_N,
    WEAK_ORDER_MAX_N,
    FamilySpec,
    count,
    generate,
    kimura_decompositions,
    qt_semigroups,
    rank_vectors,
    total_orders,
    weak_orders,
)
from quasitrivial.formats import emit_cayley_line, emit_weak_order
from quasitrivial.structure import build


def independent_ordered_bell(n):
    """Oracle: the binomial-sum recurrence, written from scratch."""
    values = [1]
    for m in range(n):
        values.append(sum(math.comb(m + 1, k) * values[k] for k in range(m + 1)))
    return values[n]


def first_rank_vector(n):
    return next(rank_vectors(n))


class TestFamilySpec:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            FamilySpec("monoids", 3)

    def test_rejects_inapplicable_filters(self):
        with pytest.raises(ValueError):
            FamilySpec("weak-orders", 3, frozenset({"neutral"}))
        with pytest.raises(ValueError):
            FamilySpec("qt-semigroups", 3, frozenset({"unique-min"}))

    def test_accepts_matching_filters(self):
        FamilySpec("weak-orders", 3, frozenset({"unique-min", "unique-max"}))
        FamilySpec("qt-semigroups", 3, frozenset({"neutral", "commutative"}))


class TestWeakOrderStream:
    def test_counts_match_independent_recurrence(self):
        for n in range(8):
            assert sum(1 for _ in weak_orders(n)) == independent_ordered_bell(n)

    def test_lexicographic_order(self):
        vectors = list(rank_vectors(3))
        assert vectors == sorted(vectors)
        assert vectors[0] == (1, 1, 1)
        assert vectors[-1] == (3, 2, 1)
        assert len(set(vectors)) == 13

    def test_restartable(self):
        assert list(rank_vectors(4)) == list(rank_vectors(4))

    def test_every_vector_is_valid_and_unique(self):
        seen = set()
        for w in weak_orders(5):
            assert w.ranks not in seen
            seen.add(w.ranks)
        assert len(seen) == ordered_bell(5)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            weak_orders(11)


class TestTrustedConstruction:
    """The streams build their objects without re-validating them; each
    must still be the object the validating constructor makes."""

    def test_tables_equal_validated_ones(self):
        for n in range(1, 7):
            for f in qt_semigroups(n):
                checked = FiniteBinOp(f.rows)
                assert checked == f and hash(checked) == hash(f)
                assert type(f.rows) is tuple
                assert all(type(row) is tuple for row in f.rows)
                assert all(type(v) is int for row in f.rows for v in row)

    def test_weak_orders_equal_validated_ones(self):
        for n in range(8):
            for w in weak_orders(n):
                checked = WeakOrder(w.ranks)
                assert checked == w and hash(checked) == hash(w)
                assert type(w.ranks) is tuple and all(type(r) is int for r in w.ranks)

    def test_rank_vectors_match_filtered_product(self):
        # reference: every vector over 1..n whose values are exactly 1..k
        for n in range(7):
            reference = sorted(
                v for v in itertools.product(range(1, n + 1), repeat=n)
                if set(v) == set(range(1, max(v, default=0) + 1))
            )
            assert list(rank_vectors(n)) == reference


class TestTotalOrderStream:
    def test_counts(self):
        for n in range(1, 6):
            assert sum(1 for _ in total_orders(n)) == math.factorial(n)

    def test_matches_weak_order_stream_restriction(self):
        # the total orderings appear in the same relative order as the weak
        # ordering stream restricted to n classes
        totals = [t.ranks for t in total_orders(4)]
        restricted = [w.ranks for w in weak_orders(4) if w.k == 4]
        assert totals == restricted


class TestOperationStream:
    def test_twenty_operations_on_three_elements(self):
        ops = list(qt_semigroups(3))
        assert len(ops) == 20
        assert len(set(ops)) == 20

    def test_golden_stream_prefix_and_order(self):
        lines = [emit_cayley_line(f) for f in qt_semigroups(3)]
        # single class first (projections), then lexicographically later ranks
        assert lines[0] == "cayley 3 : 1 1 1 2 2 2 3 3 3"
        assert lines[1] == "cayley 3 : 1 2 3 1 2 3 1 2 3"
        assert lines[-1] == "cayley 3 : 1 1 1 1 2 2 1 2 3"
        assert lines == [emit_cayley_line(f) for f in qt_semigroups(3)]

    def test_choice_counting_left_before_right(self):
        # ordering 1 ~ 2 < 3 ~ 4 has two fat classes; four operations in
        # binary order LL, LR, RL, RR with the bottom class most significant
        ds = [d for d in kimura_decompositions(4) if d.order.ranks == (1, 1, 2, 2)]
        assert [tuple(s for _, s in d.choices) for d in ds] == [
            ("left", "left"),
            ("left", "right"),
            ("right", "left"),
            ("right", "right"),
        ]
        # in general the i-th factored form of an ordering spells i, right 1
        for n in range(1, 7):
            for order, block in itertools.groupby(kimura_decompositions(n), lambda d: d.order):
                block = list(block)
                assert len(block) == 2 ** len(block[0].choices)
                for i, d in enumerate(block):
                    digits = "".join("1" if side == "right" else "0" for _, side in d.choices)
                    assert int(digits or "0", 2) == i

    def test_all_are_associative_quasitrivial_without_duplicates(self):
        for n in range(1, 6):
            ops = list(qt_semigroups(n))
            assert len(set(ops)) == len(ops) == q_recurrence(n)
            for f in ops:
                assert is_associative(f)
                assert is_quasitrivial(f)

    def test_stream_equals_built_decompositions(self):
        # the tables made from shared rows, in order, against `build` of each
        # factored form of the reference stream
        for n in range(1, 7):
            assert list(qt_semigroups(n)) == [build(d) for d in kimura_decompositions(n)]

    def test_capacity(self):
        with pytest.raises(CapacityError):
            qt_semigroups(10)
        with pytest.raises(CapacityError):
            kimura_decompositions(10)
        # an empty set is bad input, not a size limit
        with pytest.raises(ValueError) as info:
            qt_semigroups(0)
        assert not isinstance(info.value, CapacityError)

    @pytest.mark.parametrize(
        "make",
        [
            kimura_decompositions,
            total_orders,
            lambda n: generate(FamilySpec("single-peaked-total-orders", n)),
            lambda n: generate(FamilySpec("weakly-single-peaked-weak-orders", n)),
            qt_semigroups,
            weak_orders,
            first_rank_vector,
        ],
    )
    def test_empty_set_is_bad_input_not_capacity(self, make):
        # n = -1 is bad input to every stream, n = 0 to those of empty sets;
        # `rank_vectors` is a generator, so it raises on its first object
        for n in (-1,) if make in (weak_orders, first_rank_vector) else (-1, 0):
            with pytest.raises(ValueError) as info:
                make(n)
            assert not isinstance(info.value, CapacityError)


class TestCountsAgainstFormulas:
    def test_operation_counts_match_q(self):
        # the ordered-partition identity: q(n) is the sum over weak orderings
        # of 2^(number of fat classes); the operations themselves are counted
        # for n <= 6 by criterion 1 of test_acceptance.py
        for n in range(1, 8):
            doubling_sum = sum(
                2 ** sum(1 for block in w.classes() if len(block) >= 2)
                for w in weak_orders(n)
            )
            assert doubling_sum == q_recurrence(n)
        # at n = 7 count the factored forms (bijective with the operations)
        assert sum(1 for _ in kimura_decompositions(7)) == q_recurrence(7)

    def test_neutral_filter_matches_formula(self):
        for n in range(1, 6):
            spec = FamilySpec("qt-semigroups", n, frozenset({"neutral"}))
            direct = sum(1 for f in qt_semigroups(n) if neutral_elements(f))
            assert count(spec) == direct == n * q_recurrence(n - 1)

    def test_monotone_filter_matches_v(self):
        for n in range(1, 7):
            spec = FamilySpec("qt-semigroups", n, frozenset({"monotone-for-reference"}))
            assert count(spec) == v_recurrence(n)

    def test_listed_counts(self):
        assert count(FamilySpec("qt-semigroups", 5)) == 1182
        assert count(FamilySpec("qt-semigroups", 4, frozenset({"neutral"}))) == 80
        assert (
            count(FamilySpec("weakly-single-peaked-weak-orders", 6, frozenset({"unique-min"})))
            == 70
        )

    def test_commutative_filter(self):
        for n in range(1, 6):
            spec = FamilySpec("qt-semigroups", n, frozenset({"commutative"}))
            direct = sum(1 for f in qt_semigroups(n) if is_commutative(f))
            assert count(spec) == direct == math.factorial(n)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_filters_are_predicates_of_the_object(family):
    # `generate` keeps exactly the objects every named predicate, called on
    # the object alone, accepts
    stream, filters, _ = FAMILIES[family]
    for name, test in filters.items():
        spec = FamilySpec(family, 4, frozenset({name}))
        assert list(generate(spec)) == [obj for obj in stream(4) if test(obj)]


class TestPeakedFamilies:
    def test_weakly_single_peaked_three_elements(self):
        got = [emit_weak_order(w) for w in generate(FamilySpec("weakly-single-peaked-weak-orders", 3))]
        assert got == [
            "weakorder 3 : 1 1 1",
            "weakorder 3 : 1 1 2",
            "weakorder 3 : 1 2 3",
            "weakorder 3 : 2 1 1",
            "weakorder 3 : 2 1 2",
            "weakorder 3 : 2 1 3",
            "weakorder 3 : 3 1 2",
            "weakorder 3 : 3 2 1",
        ]

    def test_single_peaked_three_elements(self):
        got = [t.ordered_elements() for t in generate(FamilySpec("single-peaked-total-orders", 3))]
        assert got == [(1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 2, 1)]

    def test_counts_match_u_and_sp(self):
        from quasitrivial.counting import single_peaked_count, u_recurrence

        for n in range(1, 7):
            assert count(FamilySpec("weakly-single-peaked-weak-orders", n)) == u_recurrence(n)
            assert count(FamilySpec("single-peaked-total-orders", n)) == single_peaked_count(n)

    def test_order_filters_apply_to_total_orders(self):
        # total orderings trivially have unique extremes (distinct once n >= 2)
        assert count(FamilySpec("total-orders", 3, frozenset({"unique-min"}))) == 6
        assert (
            count(FamilySpec("total-orders", 1, frozenset({"unique-min-and-max-distinct"})))
            == 0
        )
        assert (
            count(FamilySpec("single-peaked-total-orders", 4, frozenset({"unique-max"}))) == 8
        )


class TestSharding:
    @pytest.mark.parametrize(
        "family,n,filters",
        [
            ("weak-orders", 5, frozenset()),
            ("qt-semigroups", 4, frozenset()),
            ("qt-semigroups", 5, frozenset({"monotone-for-reference"})),
            ("total-orders", 5, frozenset()),
            ("weakly-single-peaked-weak-orders", 6, frozenset()),
            ("single-peaked-total-orders", 6, frozenset()),
        ],
    )
    def test_shards_partition_the_serial_stream(self, family, n, filters):
        spec = FamilySpec(family, n, filters)
        serial = list(generate(spec))
        for shards in (2, 3):
            pieces = [list(generate(spec, i, shards)) for i in range(shards)]
            merged = [obj for piece in pieces for obj in piece]
            assert sorted(map(repr, merged)) == sorted(map(repr, serial))
            assert sum(count(spec, i, shards) for i in range(shards)) == len(serial)

    @pytest.mark.parametrize("filters", [frozenset(), frozenset({"neutral"})])
    @pytest.mark.parametrize("shards", [2, 3, 4, 7])
    def test_shard_is_a_slice_of_the_serial_stream(self, filters, shards):
        # shard i holds the unfiltered stream's indices i, i + K, ..., in
        # order, less what the filters drop; the order families take no
        # table filter, so they run unfiltered only
        families = ["qt-semigroups"]
        if not filters:
            families += ["weak-orders", "total-orders"]
        for family in families:
            spec = FamilySpec(family, 5, filters)
            base = list(generate(FamilySpec(family, 5)))
            kept = set(generate(spec))
            for i in range(shards):
                got = list(generate(spec, i, shards))
                assert got == [obj for obj in base[i::shards] if obj in kept]

    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_invalid_shard(self, family):
        # `generate` itself rejects bad input, before any object is asked for
        for shard_index, shard_count in ((3, 3), (2, 2), (-1, 2), (0, 0)):
            with pytest.raises(ValueError):
                generate(FamilySpec(family, 3), shard_index, shard_count)
        over_cap = max(WEAK_ORDER_MAX_N, TOTAL_ORDER_MAX_N, QT_SEMIGROUP_MAX_N) + 1
        with pytest.raises(CapacityError):
            generate(FamilySpec(family, over_cap))
        with pytest.raises(ValueError) as info:
            generate(FamilySpec(family, -1))
        assert not isinstance(info.value, CapacityError)
