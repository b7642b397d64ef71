"""Oracle: raw searches agree with the structural and formula routes, and
walk their tables in the order of the plain loops they replaced."""

from itertools import product

import pytest

from quasitrivial import (
    CapacityError,
    ConsistencyError,
    FiniteBinOp,
    TotalOrder,
    is_associative,
    is_commutative,
    is_order_preserving,
    neutral_elements,
    oracle,
)
from quasitrivial.formats import parse_cayley
from quasitrivial.oracle import (
    brute_count_monotonizable,
    brute_count_quasitrivial_associative,
    check_commutative_monotone_implies_associative,
    check_neutral_monotone_implies_quasitrivial,
)

from conftest import qt_associative_count_by_masks


class TestQuasitrivialSearch:
    def test_small_counts(self):
        assert brute_count_quasitrivial_associative(1) == 1
        assert brute_count_quasitrivial_associative(2) == 4
        assert brute_count_quasitrivial_associative(3) == 20
        assert brute_count_quasitrivial_associative(4) == 138

    def test_each_shard_equals_the_mask_loop(self):
        for n in (1, 2, 3, 4):
            for shards in (1, 2, 3, 5, 8):
                for i in range(shards):
                    assert brute_count_quasitrivial_associative(
                        n, i, shards
                    ) == qt_associative_count_by_masks(n, i, shards)
        for i in (0, 31, 63):
            assert brute_count_quasitrivial_associative(
                5, i, 64
            ) == qt_associative_count_by_masks(5, i, 64)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            brute_count_quasitrivial_associative(6)
        with pytest.raises(ValueError, match=r"needs n >= 1"):  # bad input, not capacity
            brute_count_quasitrivial_associative(0)

    def test_invalid_shard(self):
        with pytest.raises(ValueError):
            brute_count_quasitrivial_associative(3, 2, 2)


class TestImplicationSearches:
    def test_neutral_monotone_implies_quasitrivial(self):
        for n in (1, 2, 3):
            ok, witness = check_neutral_monotone_implies_quasitrivial(n)
            assert ok
            assert witness is None

    def test_commutative_monotone_implies_associative(self):
        for n in (2, 4, 5):
            ok, witness = check_commutative_monotone_implies_associative(n)
            assert ok
            assert witness is None

    @pytest.mark.parametrize("search, last_test, n", [
        (check_neutral_monotone_implies_quasitrivial, "_quasitrivial_flat", 3),
        (check_commutative_monotone_implies_associative, "_is_associative_flat", 4),
    ])
    def test_counterexample_text_is_the_table(self, monkeypatch, search, last_test, n):
        # the search's last test made to fail: the first table that reaches it
        # is reported, and its text must read back as that very table
        seen = []

        def fails(table, *args):
            seen.append(list(table))
            return False

        monkeypatch.setattr(oracle, last_test, fails)
        ok, witness = search(n)
        assert not ok
        flat = seen[-1]
        table = FiniteBinOp(tuple(
            tuple(v + 1 for v in flat[x * n:(x + 1) * n]) for x in range(n)
        ))
        assert parse_cayley(witness) == table
        # it passed every test before the last one
        assert is_order_preserving(table, TotalOrder.natural(n))
        if last_test == "_quasitrivial_flat":
            assert is_associative(table) and neutral_elements(table)
        else:
            assert is_commutative(table)

    def test_capacity(self):
        with pytest.raises(CapacityError):
            check_neutral_monotone_implies_quasitrivial(4)
        with pytest.raises(CapacityError):
            check_commutative_monotone_implies_associative(6)


class TestMonotonizable:
    def test_small_counts(self):
        assert [brute_count_monotonizable(n) for n in (1, 2, 3, 4)] == [1, 4, 20, 130]

    def test_capacity(self):
        with pytest.raises(CapacityError):
            brute_count_monotonizable(5)


def flat_table(n, cells):
    """The flat table with F(x, x) = x and F(x, y) = v for each ((x, y), v)."""
    table = [0] * (n * n)
    for x in range(n):
        table[x * n + x] = x
    for (x, y), v in cells:
        table[x * n + y] = v
    return tuple(table)


def is_associative_by_magmas(n, table):
    return is_associative(FiniteBinOp(tuple(
        tuple(v + 1 for v in table[x * n:(x + 1) * n]) for x in range(n)
    )))


class _Padded(tuple):
    """A domain one value longer by len() than it iterates: a walk that
    sizes its blocks by it leaves indices neither visited nor cut."""

    def __len__(self):
        return super().__len__() + 1


class TestTableWalk:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_idempotent_tables_in_product_order(self, monkeypatch, n):
        # the search tests associativity first: record every table it sees
        seen = []

        def record(table, *args):
            seen.append(tuple(table))
            return False

        monkeypatch.setattr(oracle, "_is_associative_flat", record)
        assert check_neutral_monotone_implies_quasitrivial(n) == (True, None)
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        assert seen == [
            flat_table(n, zip(pairs, values))
            for values in product(range(n), repeat=len(pairs))
        ]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_commutative_tables_in_mask_order(self, monkeypatch, n):
        # the search tests natural monotonicity first
        seen = []

        def record(table, *args):
            seen.append(tuple(table))
            return False

        monkeypatch.setattr(oracle, "_monotone", record)
        assert check_commutative_monotone_implies_associative(n) == (True, None)
        # bit b of the mask is the b-th unordered pair, set when y wins
        pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
        expected = []
        for mask in range(1 << len(pairs)):
            values = [y if mask >> b & 1 else x for b, (x, y) in enumerate(pairs)]
            expected.append(flat_table(n, [
                cell for (x, y), v in zip(pairs, values) for cell in (((x, y), v), ((y, x), v))
            ]))
        assert seen == expected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_quasitrivial_tables_in_mask_order(self, n):
        # bit b of the mask is the b-th row-major off-diagonal pair
        pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
        masks = 1 << len(pairs)
        by_mask = [
            flat_table(n, [((x, y), y if mask >> b & 1 else x) for b, (x, y) in enumerate(pairs)])
            for mask in range(masks)
        ]
        for shards in (1, 3):
            for i in range(shards):
                start, stop = masks * i // shards, masks * (i + 1) // shards
                walked = [tuple(t) for t in oracle._associative_quasitrivial_tables(n, start, stop)]
                assert walked == [
                    t for t in by_mask[start:stop] if is_associative_by_magmas(n, t)
                ]

    @pytest.mark.parametrize("search, n", [
        (brute_count_quasitrivial_associative, 3),
        (brute_count_monotonizable, 3),
        (check_neutral_monotone_implies_quasitrivial, 2),
        (check_commutative_monotone_implies_associative, 3),
    ])
    def test_every_search_checks_the_tally(self, monkeypatch, search, n):
        walk = oracle._tables

        def short(n, cells, *rest):
            return walk(n, [(positions, _Padded(domain)) for positions, domain in cells], *rest)

        monkeypatch.setattr(oracle, "_tables", short)
        with pytest.raises(ConsistencyError, match=r"visited and \d+ cut tables, not \d+"):
            search(n)
