"""Oracle: raw searches agree with the structural and formula routes."""

import pytest

from quasitrivial import CapacityError
from quasitrivial.oracle import (
    brute_count_monotonizable,
    brute_count_quasitrivial_associative,
    check_commutative_monotone_implies_associative,
    check_neutral_monotone_implies_quasitrivial,
)


class TestQuasitrivialSearch:
    def test_small_counts(self):
        assert brute_count_quasitrivial_associative(1) == 1
        assert brute_count_quasitrivial_associative(2) == 4
        assert brute_count_quasitrivial_associative(3) == 20
        assert brute_count_quasitrivial_associative(4) == 138

    def test_sharding_partitions_the_mask_range(self):
        total = brute_count_quasitrivial_associative(4)
        for shards in (2, 5, 8):
            assert sum(
                brute_count_quasitrivial_associative(4, i, shards) for i in range(shards)
            ) == total

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
    def test_capacity(self):
        with pytest.raises(CapacityError):
            brute_count_monotonizable(5)
