"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Exact-integer criteria allow zero tolerance.  Stated wall-clock budgets are
asserted as hard limits (they hold with an order-of-magnitude margin here).
Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import math
import random
import time
from contextlib import contextmanager

from quasitrivial import counting as C
from quasitrivial import oracle
from quasitrivial.enumeration import (
    FamilySpec,
    count,
    kimura_decompositions,
    total_orders,
    weak_orders,
)
from quasitrivial.magmas import (
    FiniteBinOp,
    degree_sequence,
    f_degree,
    is_commutative,
    is_order_preserving,
    random_idempotent_table,
)
from quasitrivial.orders import TotalOrder, is_weakly_single_peaked, profile_patterns
from quasitrivial.structure import build, decompose, induced_weak_order
from quasitrivial.verify import count_by_enumeration

TABLE_Q = {
    "q": [1, 1, 4, 20, 138, 1182, 12166],
    "q_e": [0, 1, 2, 12, 80, 690, 7092],
    "q_a": [0, 1, 2, 12, 80, 690, 7092],
    "q_ea": [0, 0, 2, 6, 48, 400, 4140],
}
TABLE_U = {
    "u": [0, 1, 3, 8, 20, 49, 119],
    "u_e": [0, 1, 2, 5, 12, 29, 70],
    "u_a": [0, 0, 2, 6, 16, 40, 98],
    "u_ea": [0, 0, 2, 4, 10, 24, 58],
}
TABLE_V = {
    "v": [0, 1, 4, 12, 34, 94, 258],
    "v_e": [0, 1, 2, 6, 16, 44, 120],
    "v_a": [0, 0, 2, 8, 24, 68, 188],
    "v_ea": [0, 0, 2, 4, 12, 32, 88],
}

@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {description} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded {budget_seconds}s budget"


def _filter_counts_one_pass(n):
    """Stream the operations once, counting all four element-filter variants."""
    from quasitrivial.enumeration import qt_semigroups
    from quasitrivial.magmas import annihilator_elements, neutral_elements

    total = with_e = with_a = with_both = 0
    for f in qt_semigroups(n):
        e = neutral_elements(f)
        a = annihilator_elements(f)
        total += 1
        with_e += bool(e)
        with_a += bool(a)
        with_both += bool(e) and bool(a) and e.isdisjoint(a)
    return total, with_e, with_a, with_both


def test_criterion_01_table_q_all_methods_and_enumeration():
    with criterion(1, "q-family table by four derivations and enumeration", 5.0):
        for n in range(7):
            row = {name: TABLE_Q[name][n] for name in TABLE_Q}
            assert C.q_closed(n) == row["q"]
            assert C.q_recurrence(n) == row["q"]
            assert C.q_egf(n) == row["q"]
            assert C.q_appendix(n) == row["q"]
            assert C.q_neutral(n) == row["q_e"]
            assert C.q_annihilator(n) == row["q_a"]
            assert C.q_both(n) == row["q_ea"]
            if n >= 1:
                counts = _filter_counts_one_pass(n)
                assert counts == (row["q"], row["q_e"], row["q_a"], row["q_ea"])


def test_criterion_02_raw_search_counts():
    with criterion(2, "raw bitmask search over all quasitrivial tables", 120.0):
        assert oracle.brute_count_quasitrivial_associative(3) == 20
        assert oracle.brute_count_quasitrivial_associative(4) == 138
        assert oracle.brute_count_quasitrivial_associative(5) == 1182


def test_criterion_03_table_u_all_methods_and_enumeration():
    with criterion(3, "u-family table by three derivations and enumeration", 2.0):
        methods = {
            "u": (C.u_recurrence, C.u_closed, C.u_gf),
            "u_e": (C.u_e_recurrence, C.u_e_closed, C.u_e_gf),
            "u_a": (C.u_a,),
            "u_ea": (C.u_ea,),
        }
        for name, row in TABLE_U.items():
            for n in range(7):
                for fn in methods[name]:
                    assert fn(n) == row[n], (name, n)
                if n >= C.SEQUENCES[name].enumeration_start:
                    assert count_by_enumeration(name, n) == row[n], (name, n)


def test_criterion_04_table_v_all_methods_and_enumeration():
    with criterion(4, "v-family table by three derivations and enumeration", 10.0):
        methods = {
            "v": (C.v_recurrence, C.v_closed, C.v_gf),
            "v_e": (C.v_e_recurrence, C.v_e_closed, C.v_e_gf),
            "v_a": (C.v_a,),
            "v_ea": (C.v_ea,),
        }
        for name, row in TABLE_V.items():
            for n in range(7):
                for fn in methods[name]:
                    assert fn(n) == row[n], (name, n)
        from quasitrivial.enumeration import qt_semigroups
        from quasitrivial.magmas import annihilator_elements, neutral_elements

        for n in range(1, 7):
            ref = TotalOrder.natural(n)
            total = with_e = with_a = with_both = 0
            for f in qt_semigroups(n):
                if not is_order_preserving(f, ref):
                    continue
                e, a = neutral_elements(f), annihilator_elements(f)
                total += 1
                with_e += bool(e)
                with_a += bool(a)
                with_both += bool(e) and bool(a) and e.isdisjoint(a)
            assert total == TABLE_V["v"][n]
            assert with_e == TABLE_V["v_e"][n]
            if n >= C.SEQUENCES["v_a"].enumeration_start:
                assert with_a == TABLE_V["v_a"][n]
            assert with_both == TABLE_V["v_ea"][n]


def test_criterion_05_factorization_bijection():
    with criterion(5, "factorization bijection is exact at n = 4 and n = 5", 30.0):
        for n, expected in ((4, 138), (5, 1182)):
            seen = 0
            for d in kimura_decompositions(n):
                f = build(d)
                back = decompose(f)
                assert back == d
                assert build(back) == f
                seen += 1
            assert seen == expected


def test_criterion_06_monotone_iff_weakly_single_peaked():
    with criterion(6, "order-preservation equals weak single-peakedness at n = 5", 30.0):
        ref = TotalOrder.natural(5)
        seen = 0
        for d in kimura_decompositions(5):
            f = build(d)
            assert is_order_preserving(f, ref) == is_weakly_single_peaked(
                ref, induced_weak_order(f)
            )
            seen += 1
        assert seen == 1182


def test_criterion_07_pattern_characterization_at_six():
    with criterion(7, "peakedness equals V/L/reversed-L freeness over all 4683", 1.0):
        ref = TotalOrder.natural(6)
        seen = 0
        for w in weak_orders(6):
            assert profile_patterns(ref, w).all_free() == is_weakly_single_peaked(ref, w)
            seen += 1
        assert seen == 4683


def test_criterion_08_theorem_counts():
    with criterion(8, "commutative counts n! (n<=6), order-preserving 2^(n-1) (n<=8)", 60.0):
        for n in range(1, 7):
            assert count(FamilySpec("qt-semigroups", n, frozenset({"commutative"}))) == (
                math.factorial(n)
            )
            both = count(
                FamilySpec(
                    "qt-semigroups", n, frozenset({"commutative", "monotone-for-reference"})
                )
            )
            assert both == 2 ** (n - 1)
        for n in range(7, 9):
            # every commutative associative quasitrivial operation is the
            # maximum of exactly one total ordering, so enumerate those
            ref = TotalOrder.natural(n)
            monotone = sum(
                1
                for t in total_orders(n)
                if is_order_preserving(FiniteBinOp.max_under(t), ref)
            )
            assert monotone == 2 ** (n - 1)


def test_criterion_09_monotonizable_counts():
    with criterion(9, "operations monotone for some ordering: 1, 4, 20, 130", 60.0):
        assert [oracle.brute_count_monotonizable(n) for n in (1, 2, 3, 4)] == [1, 4, 20, 130]


def test_criterion_10_implication_searches():
    with criterion(10, "exhaustive implication searches find no counterexample", 30.0):
        ok, witness = oracle.check_neutral_monotone_implies_quasitrivial(3)
        assert ok and witness is None
        ok, witness = oracle.check_commutative_monotone_implies_associative(5)
        assert ok and witness is None


def test_criterion_11_degree_machinery():
    with criterion(11, "degree formula, degree recovery, and degree sums", 60.0):
        for n in range(1, 5):
            for d in kimura_decompositions(n):
                f = build(d)
                ranks = d.order.ranks
                for x in range(1, n + 1):
                    below = sum(1 for r in ranks if r < ranks[x - 1])
                    peers = sum(1 for r in ranks if r == ranks[x - 1]) - 1
                    assert f_degree(f, x) == 2 * below + peers
                assert induced_weak_order(f) == d.order
                from quasitrivial.structure import weak_order_from_degrees

                assert weak_order_from_degrees(f) == d.order
        rng = random.Random(1182)
        for _ in range(10_000):
            n = rng.randint(1, 8)
            f = random_idempotent_table(n, rng)
            assert sum(degree_sequence(f)) == n * (n - 1)


def test_criterion_12_singularity_probe():
    with criterion(12, "singularity probe: root located, ratios printed", 10.0):
        probe = C.singularity_probe(30)
        assert abs(probe.root - 0.583) < 1e-3
        assert abs(probe.inverse_root - 1.715) < 1e-3
        print()
        print(f"  root = {probe.root:.12f}   1/root = {probe.inverse_root:.12f}")
        for n, ratio in enumerate(probe.ratios, start=1):
            print(f"  growth ratio at n={n:2d}: {ratio:.9f}")
        # no convergence assertion: whether the ratios approach 1/root is an
        # open conjecture


def test_criterion_13_method_agreement_sweep():
    with criterion(13, "every multi-derivation sequence agrees exactly to n = 30", 5.0):
        for name, seq in C.SEQUENCES.items():
            for n in range(seq.start, 31):
                values = {fn(n) for fn in seq.derivations.values()}
                assert len(values) == 1, (name, n)
