"""Enumeration: stream contents, documented order, filters, sharding, capacity."""

import itertools
import math

import pytest

from quasitrivial import (
    CapacityError,
    ConsistencyError,
    FiniteBinOp,
    KimuraDecomposition,
    WeakOrder,
    is_associative,
    is_commutative,
    is_quasitrivial,
    neutral_elements,
)
from quasitrivial import enumeration, formats
from quasitrivial.counting import ordered_bell, q_recurrence, v_recurrence
from quasitrivial.enumeration import (
    FAMILIES,
    OPERATION_FILTERS,
    ORDER_FILTERS,
    QT_SEMIGROUP_MAX_N,
    RANK_VERDICTS,
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

from conftest import peaked_by_filter


def independent_ordered_bell(n):
    """Oracle: the binomial-sum recurrence, written from scratch."""
    values = [1]
    for m in range(n):
        values.append(sum(math.comb(m + 1, k) * values[k] for k in range(m + 1)))
    return values[n]


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

    def test_decompositions_equal_validated_ones(self):
        for n in range(1, 7):
            for d in kimura_decompositions(n):
                checked = KimuraDecomposition(d.order, d.choices)
                assert checked == d and hash(checked) == hash(d)
                assert type(d.order) is WeakOrder and type(d.choices) is tuple
                assert all(type(pair) is tuple for pair in d.choices)


class TestCompletionTable:
    """`rank_vectors` reads the last positions of every vector from a table
    of completions; below the table's length the whole vector comes from it."""

    def test_rank_vectors_match_filtered_product(self):
        # reference: every vector over 1..n whose values are exactly 1..k
        for n in range(8):
            reference = sorted(
                v for v in itertools.product(range(1, n + 1), repeat=n)
                if set(v) == set(range(1, max(v, default=0) + 1))
            )
            assert list(rank_vectors(n)) == reference

    def test_eight_positions_strictly_increasing(self):
        vectors = list(rank_vectors(8))
        assert len(vectors) == 545835 == ordered_bell(8)
        assert all(a < b for a, b in zip(vectors, vectors[1:]))
        assert all(len(v) == 8 for v in vectors)

    def test_one_batch_per_prefix(self):
        # each batch holds the vectors of one prefix that stops short of the
        # table's length, so the batches split the stream at prefix changes
        depth = 6 - enumeration._TAIL
        batches = [
            (prefix, used, [prefix + rest for rest in rests])
            for prefix, used, rests in enumeration._rank_vector_batches(6)
        ]
        assert [v for _, _, batch in batches for v in batch] == list(rank_vectors(6))
        heads = [{v[:depth] for v in batch} for _, _, batch in batches]
        assert all(head == {prefix} for head, (prefix, _, _) in zip(heads, batches))
        assert len(set().union(*heads)) == len(batches)
        # the mask holds the ranks of the prefix, bit r for rank r
        assert all(used == sum({1 << r for r in prefix}) for prefix, used, _ in batches)


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

    @pytest.mark.parametrize(
        "make",
        [
            kimura_decompositions,
            total_orders,
            lambda n: generate(FamilySpec("single-peaked-total-orders", n)),
            lambda n: generate(FamilySpec("weakly-single-peaked-weak-orders", n)),
            qt_semigroups,
            weak_orders,
            rank_vectors,
        ],
    )
    def test_empty_set_is_bad_input_not_capacity(self, make):
        # n = -1 is bad input to every stream, n = 0 to those of empty sets;
        # each raises when called, before its first object is asked for
        for n in (-1,) if make in (weak_orders, rank_vectors) else (-1, 0):
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
    stream, filters, *_ = FAMILIES[family]
    for name, test in filters.items():
        spec = FamilySpec(family, 4, frozenset({name}))
        assert list(generate(spec)) == [obj for obj in stream(4) if test(obj)]


# the families written by a line stream, whose filters have rank verdicts
_LINE_FAMILIES = [family for family, row in FAMILIES.items() if row[3]]


class TestRankVerdicts:
    def test_one_verdict_per_line_stream_filter(self):
        names = set().union(*(FAMILIES[family][1] for family in _LINE_FAMILIES))
        assert set(RANK_VERDICTS) == names

    def test_order_verdicts_are_the_definitions(self):
        for n in range(0, 8):
            for w in weak_orders(n):
                for name, test in ORDER_FILTERS.items():
                    assert RANK_VERDICTS[name](w.ranks) == test(w), (name, w)

    def test_block_verdicts_hold_for_every_table(self):
        # the verdict of an ordering is that of each object predicate on every
        # table of its block: the paper's characterizations, checked on all
        # q(n) tables for n <= 7
        for n in range(1, 8):
            tables = 0
            for block in enumeration._operation_blocks(n):
                block_tables = list(enumeration._qt_semigroups([block]))
                tables += len(block_tables)
                for name, test in OPERATION_FILTERS.items():
                    verdict = RANK_VERDICTS[name](block[0])
                    assert all(test(f) == verdict for f in block_tables), (name, block[0])
        assert tables == 146050


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

    @pytest.mark.parametrize(
        "family", ["weakly-single-peaked-weak-orders", "single-peaked-total-orders"]
    )
    def test_pruned_walk_equals_filtered_stream(self, family):
        for n in range(1, 9):
            assert list(generate(FamilySpec(family, n))) == peaked_by_filter(family, n)

    @pytest.mark.parametrize(
        "family", ["weakly-single-peaked-weak-orders", "single-peaked-total-orders"]
    )
    def test_shards_slice_the_filtered_stream(self, family):
        for n in range(1, 8):
            reference = peaked_by_filter(family, n)
            for shards in (2, 3, 7):
                for i in range(shards):
                    got = list(generate(FamilySpec(family, n), i, shards))
                    assert got == reference[i::shards]

    @pytest.mark.parametrize(
        "family,cut,loose",
        [
            ("weakly-single-peaked-weak-orders", "_unpeaked", lambda head, r: False),
            ("single-peaked-total-orders", "_repeated_or_unpeaked", lambda head, r: r in head),
        ],
    )
    def test_a_leaf_the_test_rejects_is_an_inconsistency(self, monkeypatch, family, cut, loose):
        # every kept leaf is still held to `is_weakly_single_peaked`, so a cut
        # that lets an unpeaked ordering through cannot pass silently
        monkeypatch.setattr(enumeration, cut, loose)
        with pytest.raises(ConsistencyError):
            list(generate(FamilySpec(family, 4)))

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


# Each stream's input rule: whether it takes a shard (every family stream
# does), its size cap (None for none) and the family its cap message names,
# and what n = 0 gives (the message of its ValueError, or the one empty
# object it yields).
_WEAK = (WEAK_ORDER_MAX_N, "weak-order")
_TOTAL = (TOTAL_ORDER_MAX_N, "total-order")
_OPERATION = (QT_SEMIGROUP_MAX_N, "operation")
_INPUT_RULES = {
    "total-orders": (*_TOTAL, "total orders need n >= 1"),
    "weak-orders": (*_WEAK, [WeakOrder(())]),
    "single-peaked-total-orders": (*_TOTAL, "total orders need n >= 1"),
    "weakly-single-peaked-weak-orders": (*_WEAK, "peakedness families need n >= 1"),
    "qt-semigroups": (*_OPERATION, "operation enumeration needs n >= 1"),
}
# a family added to FAMILIES without a row here fails collection
_STREAMS = {name: (FAMILIES[name][0], True, *_INPUT_RULES[name]) for name in FAMILIES}
_STREAMS["kimura_decompositions"] = (
    kimura_decompositions, False, *_OPERATION, "operation enumeration needs n >= 1"
)
_STREAMS["rank_vectors"] = (rank_vectors, False, None, None, [()])
# a family's line stream raises as its object stream does; `weakorder 0 : `
# is the one line of the empty set
_STREAMS["formats.weak_order_lines"] = (
    formats.weak_order_lines, True, *_WEAK, ["weakorder 0 : "]
)
_STREAMS["formats.cayley_lines"] = (
    formats.cayley_lines, True, *_OPERATION, "operation enumeration needs n >= 1"
)


@pytest.mark.parametrize("name", list(_STREAMS))
def test_input_rule_precedence(name):
    # n < 0 first, then the shard, then the size cap, then n = 0; each case
    # raises when the stream is called, with its exact type and message
    stream, sharded, cap, what, empty = _STREAMS[name]
    bad_shard = (5, 2) if sharded else ()

    def raises(kind, message, *args):
        with pytest.raises(kind) as info:
            stream(*args)
        assert (type(info.value), str(info.value)) == (kind, message)

    raises(ValueError, "n must be nonnegative", -1, *bad_shard)
    if sharded:
        raises(ValueError, "need 0 <= shard_index < shard_count", cap + 1, *bad_shard)
    if cap is not None:
        raises(CapacityError, f"{what} enumeration is limited to n <= {cap}", cap + 1)
    if isinstance(empty, str):
        raises(ValueError, empty, 0)
    else:
        assert list(stream(0)) == empty


@pytest.mark.parametrize("family", _LINE_FAMILIES)
@pytest.mark.parametrize("bad", ["bogus", "other family"])
def test_line_stream_filter_rule(family, bad):
    # a filter that does not apply raises FamilySpec's ValueError when the
    # line stream is called, before the rest of the input rule
    if bad == "other family":
        bad = min(next(FAMILIES[f][1] for f in _LINE_FAMILIES if f != family))
    filters = frozenset({bad, min(FAMILIES[family][1])})
    with pytest.raises(ValueError) as expected:
        FamilySpec(family, 3, filters)
    for n in (3, -1):
        with pytest.raises(ValueError) as info:
            getattr(formats, FAMILIES[family][3])(n, 0, 1, filters)
        assert (type(info.value), str(info.value)) == (ValueError, str(expected.value))
