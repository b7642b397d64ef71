"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 2 and 5-10 are checks of `verify full`, so their tests assert that
check's one run in the session (the `verify_runs` fixture, whose results the
pinned `verify` digests in test_cli.py reuse); the checks that hold no
numbered criterion are asserted in `test_verify_check`.
Criteria 1, 3 and 4 hold every route of `counting.SEQUENCES` to the pinned
published tables of `conftest.py`.  Exact-integer criteria allow zero tolerance.  Stated
wall-clock budgets are asserted as hard limits (they hold with an
order-of-magnitude margin here).  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from quasitrivial import counting as C
from quasitrivial import verify
from quasitrivial.enumeration import kimura_decompositions
from quasitrivial.magmas import degree_sequence, f_degree
from quasitrivial.structure import build, induced_weak_order

from conftest import TABLE_Q, TABLE_U, TABLE_V, random_idempotent_table, singularity_bracket

# Each `verify full` check: the criterion it holds (None if it holds no
# numbered one) and its budget in seconds, the criterion's where there is one.
VERIFY_CHECKS = {
    "method-agreement": (None, 1.0),
    "published-values": (None, 1.0),
    "enumeration-agreement": (None, 5.0),
    "oracle-counts": (2, 120.0),
    "implication-searches": (10, 30.0),
    "monotonizable-counts": (9, 60.0),
    "factorization-roundtrip": (5, 30.0),
    "peakedness-pattern-theorem": (7, 1.0),
    "monotone-equivalence": (6, 30.0),
    "connectivity-tests": (None, 5.0),
    "theorem-counts": (8, 60.0),
}


@contextmanager
def criterion(label, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS {label} ({elapsed:.2f}s)")
    assert elapsed < budget_seconds, f"{label} exceeded {budget_seconds}s budget"


def _run_check(verify_runs, name):
    """Assert one `verify full` check passed within its budget, from the
    session's one run of it (shared with the pinned `verify full` digest)."""
    number, budget = VERIFY_CHECKS[name]
    label = f"verify {name}" if number is None else f"criterion {number}: verify {name}"
    detail, elapsed = verify_runs(name)
    if isinstance(detail, verify.CheckFailure):
        print(f"FAIL {label}")
        raise detail
    print(f"PASS {label} ({elapsed:.2f}s)")
    assert elapsed < budget, f"{label} exceeded {budget}s budget"


def _table_matches(table):
    """Every derivation of each sequence in `table`, and its enumeration from
    `enumeration_start` on, reproduces the pinned row for n <= 6."""
    for name, row in table.items():
        seq = C.SEQUENCES[name]
        for n, expected in enumerate(row):
            for method, fn in seq.derivations.items():
                assert fn(n) == expected, (name, method, n)
            if n >= seq.enumeration_start:
                assert C.count_by_enumeration(name, n) == expected, (name, "enumerate", n)


@pytest.mark.parametrize(
    "name", [name for name, _ in verify.FULL_CHECKS if VERIFY_CHECKS[name][0] is None]
)
def test_verify_check(verify_runs, name):
    _run_check(verify_runs, name)


def test_criterion_01_table_q_all_methods_and_enumeration():
    with criterion("criterion 1: q-family table by every derivation and enumeration", 5.0):
        _table_matches(TABLE_Q)


def test_criterion_02_raw_search_counts(verify_runs):
    _run_check(verify_runs, "oracle-counts")


def test_criterion_03_table_u_all_methods_and_enumeration():
    with criterion("criterion 3: u-family table by every derivation and enumeration", 2.0):
        _table_matches(TABLE_U)


def test_criterion_04_table_v_all_methods_and_enumeration():
    with criterion("criterion 4: v-family table by every derivation and enumeration", 10.0):
        _table_matches(TABLE_V)


def test_criterion_05_factorization_bijection(verify_runs):
    _run_check(verify_runs, "factorization-roundtrip")


def test_criterion_06_monotone_iff_weakly_single_peaked(verify_runs):
    _run_check(verify_runs, "monotone-equivalence")


def test_criterion_07_pattern_characterization_at_six(verify_runs):
    _run_check(verify_runs, "peakedness-pattern-theorem")


def test_criterion_08_theorem_counts(verify_runs):
    _run_check(verify_runs, "theorem-counts")


def test_criterion_09_monotonizable_counts(verify_runs):
    _run_check(verify_runs, "monotonizable-counts")


def test_criterion_10_implication_searches(verify_runs):
    _run_check(verify_runs, "implication-searches")


def test_criterion_11_degree_machinery():
    with criterion("criterion 11: degree formula, degree recovery, and degree sums", 60.0):
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
    # The egf 1/(z + 3 - 2e^z) of q has a simple pole at rho, the zero of
    # z + 3 - 2e^z in [1/2, 3/5], and no other singularity in |z| < 2.8887, so
    # q(n) (rho+2) rho^(n+1) / n! = 1 + O((rho/2.8887)^n) (Flajolet &
    # Sedgewick, Analytic Combinatorics, 2009, Thm IV.10).  Everything below
    # is exact: rho is bracketed in [a, b] by bisection with e^x bounded on
    # both sides, and the normalised terms are compared as Fractions.
    with criterion("criterion 12: q(n) n!-normalised at the singularity, n <= 40", 10.0):
        a, b = singularity_bracket()
        assert b - a < Fraction(1, 10**31)
        for n in range(1, 41):
            bound = (b / Fraction("2.8887")) ** n
            scale = Fraction(C.q_recurrence(n), math.factorial(n))
            assert 1 - bound <= scale * (a + 2) * a ** (n + 1), n
            assert scale * (b + 2) * b ** (n + 1) <= 1 + bound, n
        print(f"\n  rho in [{float(a):.15f}, {float(b):.15f}], width {float(b - a):.1e}")


def test_criterion_13_method_agreement_sweep():
    with criterion("criterion 13: every multi-derivation sequence agrees exactly to n = 30", 5.0):
        for name, seq in C.SEQUENCES.items():
            for n in range(seq.start, 31):
                values = {fn(n) for fn in seq.derivations.values()}
                assert len(values) == 1, (name, n)
