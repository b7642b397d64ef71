"""Oracle: raw searches agree with the structural and formula routes."""

import pytest

from quasitrivial import CapacityError
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
