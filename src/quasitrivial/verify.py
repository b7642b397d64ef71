"""Self-checks wiring the whole package together.

`quick` holds every route of each `counting.SEQUENCES` row to its default
derivation for small n: every derivation, then direct enumeration, and the
default derivation to the row's published terms.  `full` adds the brute-force
routes and the exhaustive structural equivalences.  The route checks read the
rows and run their routes through `counting.route_values`, as
`count --method all` does, so a new row is checked without an edit here; each
check states which routes it runs and up to which n.  Failures name the
sequence and index (or the offending object) so a single tampered constant is
pinpointed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterator

from . import counting, oracle
from .enumeration import FamilySpec, generate, kimura_decompositions, total_orders, weak_orders
from .errors import ConsistencyError
from .magmas import (
    FiniteBinOp,
    graphical_quasitriviality_test,
    is_associative,
    is_order_preserving,
    is_quasitrivial,
    rectangle_associativity_test,
)
from .orders import TotalOrder, is_single_peaked, is_weakly_single_peaked, profile_patterns
from .structure import build, decompose

# unused here, but the benchmark's tracer (perfbench/tracer.py) wraps it
from .counting import count_by_enumeration  # noqa: F401


class CheckFailure(Exception):
    pass


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _hold_to_default(kind: str, upto: int, mismatch: str) -> list[tuple[str, int, int]]:
    """Run route `kind` ("derivations" for all of them) of every sequence at
    each n from its start to `upto`, skipping as `counting.route_values` does,
    and hold each value to the default derivation's.

    A value that differs fails the check with `mismatch`, formatted with
    name, n, method, value and expected; a ConsistencyError from any route
    fails it with its own message.  Returns (name, n, value) of every value
    checked.
    """
    checked = []
    for name, seq in counting.SEQUENCES.items():
        default = next(iter(seq.derivations))
        methods = seq.derivations if kind == "derivations" else (kind,)
        for n in range(seq.start, upto + 1):
            expected = None
            try:
                for method, value in counting.route_values(name, n, methods):
                    if expected is None:
                        # computed only when some route reaches n
                        expected = value if method == default else counting.sequence_value(name, n)
                    if value != expected:
                        raise CheckFailure(mismatch.format(
                            name=name, n=n, method=method, value=value, expected=expected
                        ))
                    checked.append((name, n, value))
            except ConsistencyError as exc:
                raise CheckFailure(str(exc)) from None
    return checked


def _check_method_agreement() -> str:
    upto = 6
    _hold_to_default(
        "derivations", upto, "{name}({n}): {method} gives {value}, earlier method gave {expected}"
    )
    return f"all derivations of every sequence agree for n <= {upto}"


def _check_published_values() -> str:
    checked = 0
    for name, seq in counting.SEQUENCES.items():
        for n, expected in seq.published.items():
            got = counting.sequence_value(name, n)
            if got != expected:
                raise CheckFailure(f"{name}({n}) = {got}, published value is {expected}")
            checked += 1
    return f"{checked} published values reproduced"


def _check_enumeration_agreement() -> str:
    upto = 5
    _hold_to_default(
        "enumerate", upto, "{name}({n}): formula gives {expected}, enumeration gives {value}"
    )
    return f"formulas match direct enumeration for every sequence, n <= {upto}"


def _check_oracle_counts() -> str:
    upto = 5
    checked = _hold_to_default(
        "bruteforce", upto, "raw search gives {name}({n}) = {value}, expected {expected}"
    )
    names = ", ".join(f"{name}(n)" for name in dict.fromkeys(name for name, _, _ in checked))
    name, n, value = checked[-1]
    return f"raw table search reproduces {names} for n <= {upto} ({name}({n}) oracle = {value})"


def _check_lemma_searches() -> str:
    ok, witness = oracle.check_neutral_monotone_implies_quasitrivial(3)
    if not ok:
        raise CheckFailure(f"neutral+monotone counterexample:\n{witness}")
    ok, witness = oracle.check_commutative_monotone_implies_associative(5)
    if not ok:
        raise CheckFailure(f"commutative+monotone counterexample:\n{witness}")
    return "both implication searches exhausted without counterexample"


def _check_monotonizable_counts() -> str:
    expected = {1: 1, 2: 4, 3: 20, 4: 130}
    for n, want in expected.items():
        got = oracle.brute_count_monotonizable(n)
        if got != want:
            raise CheckFailure(f"monotonizable count at n={n} is {got}, expected {want}")
    return "operations monotone for some ordering: 1, 4, 20, 130"


def _check_roundtrip() -> str:
    total = 0
    for n in range(1, 6):
        seen = 0
        for d in kimura_decompositions(n):
            f = build(d)
            if (back := decompose(f)) != d or build(back) != f:
                raise CheckFailure(f"roundtrip failed for {d}")
            seen += 1
        if seen != counting.q_recurrence(n):
            raise CheckFailure(f"{seen} decompositions at n={n}, expected q({n})")
        total += seen
    return f"build/decompose roundtrip exact on {total} decompositions (n <= 5)"


def _check_peakedness_theorem() -> str:
    checked = 0
    for n in range(1, 7):
        ref = TotalOrder.natural(n)
        seen = 0
        for w in weak_orders(n):
            if is_weakly_single_peaked(ref, w) != profile_patterns(ref, w).all_free():
                raise CheckFailure(f"pattern characterization fails for {w}")
            seen += 1
        if seen != counting.ordered_bell(n):
            raise CheckFailure(f"{seen} weak orderings at n={n}, expected p({n})")
        checked += seen
    return f"weak single-peakedness matches V/L/reversed-L freeness on {checked} orderings"


def _check_monotone_equivalence() -> str:
    for n in range(1, 6):
        ref = TotalOrder.natural(n)
        for d in kimura_decompositions(n):
            f = build(d)
            if is_order_preserving(f, ref) != is_weakly_single_peaked(ref, d.order):
                raise CheckFailure(f"monotonicity mismatch for {d}")
    return "order-preservation matches weak single-peakedness on all operations, n <= 5"


def _all_tables(n: int) -> Iterator[FiniteBinOp]:
    # every entry is drawn from 1..n, so each table is built unchecked
    cells = n * n
    for values in product(range(1, n + 1), repeat=cells):
        yield FiniteBinOp._trusted(tuple(values[i * n : (i + 1) * n] for i in range(n)))


def _check_graphical_tests() -> str:
    for n in range(1, 4):
        for f in _all_tables(n):
            if graphical_quasitriviality_test(f) != is_quasitrivial(f):
                raise CheckFailure(f"connectivity quasitriviality test fails on {f.rows}")
    for n in range(1, 5):
        pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y]
        for bits in product((0, 1), repeat=len(pairs)):
            rows = [[x if x == y else 0 for y in range(1, n + 1)] for x in range(1, n + 1)]
            for (x, y), b in zip(pairs, bits):
                rows[x - 1][y - 1] = y if b else x
            # every cell off the diagonal is x or y by now: built unchecked
            f = FiniteBinOp._trusted(tuple(tuple(r) for r in rows))
            if rectangle_associativity_test(f) != is_associative(f):
                raise CheckFailure(f"rectangle associativity test fails on {f.rows}")
    return "both connectivity tests match the definitional predicates (n <= 3 / n <= 4)"


def _check_theorem_counts() -> str:
    for n in range(1, 7):
        ref = TotalOrder.natural(n)
        commutative = monotone = 0
        for f in generate(FamilySpec("qt-semigroups", n, frozenset({"commutative"}))):
            commutative += 1
            monotone += is_order_preserving(f, ref)
        if commutative != counting.commutative_count(n):
            raise CheckFailure(f"commutative count at n={n} differs from n!")
        if monotone != counting.single_peaked_count(n):
            raise CheckFailure(f"order-preserving commutative count at n={n} is {monotone}")
    for n in range(1, 9):
        ref = TotalOrder.natural(n)
        got = sp = 0
        for t in total_orders(n):
            got += is_order_preserving(FiniteBinOp.max_under(t), ref)
            sp += is_single_peaked(ref, t)
        if got != counting.single_peaked_count(n):
            raise CheckFailure(f"order-preserving maxima of total orderings at n={n}: {got}")
        if sp != counting.single_peaked_count(n):
            raise CheckFailure(f"single-peaked count at n={n} is {sp}")
    return "commutative counts equal n! (n <= 6); order-preserving ones equal 2^(n-1) (n <= 8)"


QUICK_CHECKS: tuple[tuple[str, Callable[[], str]], ...] = (
    ("method-agreement", _check_method_agreement),
    ("published-values", _check_published_values),
    ("enumeration-agreement", _check_enumeration_agreement),
)

FULL_CHECKS: tuple[tuple[str, Callable[[], str]], ...] = QUICK_CHECKS + (
    ("oracle-counts", _check_oracle_counts),
    ("implication-searches", _check_lemma_searches),
    ("monotonizable-counts", _check_monotonizable_counts),
    ("factorization-roundtrip", _check_roundtrip),
    ("peakedness-pattern-theorem", _check_peakedness_theorem),
    ("monotone-equivalence", _check_monotone_equivalence),
    ("connectivity-tests", _check_graphical_tests),
    ("theorem-counts", _check_theorem_counts),
)


def run_checks(level: str = "quick") -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    checks = QUICK_CHECKS if level == "quick" else FULL_CHECKS
    results = []
    for name, fn in checks:
        try:
            results.append(CheckResult(name, True, fn()))
        except CheckFailure as exc:
            results.append(CheckResult(name, False, str(exc)))
    return results
