"""Exhaustive, deterministic generators for the counted object families.

Generation order is part of the contract: weak orderings stream in
lexicographic rank-vector order; the projection choices of an operation
stream by binary counting (left before right, the bottom-most fat class
being the most significant digit).  Each family is one stream function
`(n, shard_index=0, shard_count=1)`, restartable by calling it again, and
one row of `FAMILIES` with its filters and the name of its line emitter.
A stream checks its input when called, in this order: n < 0, the shard, the
size cap, then n = 0 for an empty family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, permutations
from typing import Iterator

from .errors import CapacityError
from .magmas import (
    FiniteBinOp,
    annihilator_elements,
    is_commutative,
    is_order_preserving,
    neutral_elements,
)
from .orders import TotalOrder, WeakOrder, is_single_peaked, is_weakly_single_peaked
from .structure import LEFT, RIGHT, KimuraDecomposition, fat_ranks, projection_rows

# `build` is no longer called here; it stays in this namespace because the
# benchmark's tracer self-test (perfbench/selftest.py) patches
# `enumeration.build`.
from .structure import build  # noqa: F401

WEAK_ORDER_MAX_N = 10
TOTAL_ORDER_MAX_N = 10
QT_SEMIGROUP_MAX_N = 9


def _unique_min_and_max_distinct(w, reference: TotalOrder | None) -> bool:
    lo, hi = w.minimal_elements(), w.maximal_elements()
    return len(lo) == 1 and len(hi) == 1 and lo != hi


def _neutral_and_annihilator_distinct(f: FiniteBinOp, reference: TotalOrder | None) -> bool:
    e, a = neutral_elements(f), annihilator_elements(f)
    return bool(e) and bool(a) and e.isdisjoint(a)


# Each filter name maps to its predicate (object, reference ordering) -> bool.
# A predicate looks its functions up by name when it is called, so a module
# global replaced after import (a tracer's wrapper, say) is the one called.
ORDER_FILTERS = {
    "unique-min": lambda w, ref: len(w.minimal_elements()) == 1,
    "unique-max": lambda w, ref: len(w.maximal_elements()) == 1,
    "unique-min-and-max-distinct": _unique_min_and_max_distinct,
}
OPERATION_FILTERS = {
    "neutral": lambda f, ref: bool(neutral_elements(f)),
    "annihilator": lambda f, ref: bool(annihilator_elements(f)),
    "neutral-and-annihilator-distinct": _neutral_and_annihilator_distinct,
    "commutative": lambda f, ref: is_commutative(f),
    "monotone-for-reference": lambda f, ref: is_order_preserving(f, ref),
}


def _check(n: int, shard_index: int = 0, shard_count: int = 1) -> None:
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= shard_index < shard_count:
        raise ValueError("need 0 <= shard_index < shard_count")


def rank_vectors(n: int) -> Iterator[tuple[int, ...]]:
    """All surjective rank vectors on {1..n}, in lexicographic order.

    A prefix is viable iff the ranks skipped so far can still be filled by
    the remaining positions; the search never expands a dead prefix.
    """
    _check(n)
    if n == 0:
        yield ()
        return
    last = n - 1
    vec = [0] * last
    counts = [0] * (n + 1)

    def walk(i: int, top: int, missing: int) -> Iterator[tuple[int, ...]]:
        if i == last:
            # a viable prefix misses at most one rank: the last position
            # takes it, or else any rank up to one past the top
            head = tuple(vec)
            if missing:
                yield head + (counts.index(0, 1),)
            else:
                for r in range(1, top + 2):
                    yield head + (r,)
            return
        slots = n - i - 1
        hi = min(n, top + (n - i) - missing)
        for r in range(1, hi + 1):
            if r <= top:
                gap = missing - (1 if counts[r] == 0 else 0)
                new_top = top
            else:
                gap = missing + (r - top - 1)
                new_top = r
            if gap > slots:
                continue
            vec[i] = r
            counts[r] += 1
            yield from walk(i + 1, new_top, gap)
            counts[r] -= 1

    yield from walk(0, 0, 0)


def weak_orders(n: int, shard_index: int = 0, shard_count: int = 1) -> Iterator[WeakOrder]:
    """All weak orderings of {1..n} in lexicographic rank-vector order."""
    _check(n, shard_index, shard_count)
    if n > WEAK_ORDER_MAX_N:
        raise CapacityError(f"weak-order enumeration is limited to n <= {WEAK_ORDER_MAX_N}")
    # the vectors are sliced before any object is made, and made unchecked:
    # `rank_vectors` yields only surjective ones
    vectors = islice(rank_vectors(n), shard_index, None, shard_count)
    return map(WeakOrder._trusted, vectors)


def total_orders(n: int, shard_index: int = 0, shard_count: int = 1) -> Iterator[TotalOrder]:
    """All total orderings of {1..n} in lexicographic rank-vector order."""
    _check(n, shard_index, shard_count)
    if n > TOTAL_ORDER_MAX_N:
        raise CapacityError(f"total-order enumeration is limited to n <= {TOTAL_ORDER_MAX_N}")
    if n == 0:
        raise ValueError("total orders need n >= 1")
    vectors = islice(permutations(range(1, n + 1)), shard_index, None, shard_count)
    return (TotalOrder(vec) for vec in vectors)


# A peakedness family is indexed after its test: every ordering is built and
# tested, and what passes is sliced.
def _single_peaked_total_orders(n: int, shard_index: int = 0, shard_count: int = 1):
    _check(n, shard_index, shard_count)
    orders = total_orders(n)
    ref = TotalOrder.natural(n)
    kept = (t for t in orders if is_single_peaked(ref, t))
    return islice(kept, shard_index, None, shard_count)


def _weakly_single_peaked_weak_orders(n: int, shard_index: int = 0, shard_count: int = 1):
    _check(n, shard_index, shard_count)
    orders = weak_orders(n)
    if n == 0:
        raise ValueError("peakedness families need n >= 1")
    ref = TotalOrder.natural(n)
    kept = (w for w in orders if is_weakly_single_peaked(ref, w))
    return islice(kept, shard_index, None, shard_count)


def _check_operation_n(n: int, shard_index: int = 0, shard_count: int = 1) -> None:
    _check(n, shard_index, shard_count)
    if n > QT_SEMIGROUP_MAX_N:
        raise CapacityError(
            f"operation enumeration is limited to n <= {QT_SEMIGROUP_MAX_N}"
        )
    if n == 0:
        raise ValueError("operation enumeration needs n >= 1")


def _choice_shifts(fat: list[int]) -> dict[int, int]:
    """For choice number `bits` of an ordering with fat classes `fat`, the
    class of rank r is a right projection iff bit ``shifts[r]`` of `bits` is
    set: the bottom-most fat class is the most significant bit, and left (0)
    comes before right (1)."""
    m = len(fat)
    return {rank: m - 1 - j for j, rank in enumerate(fat)}


def kimura_decompositions(n: int) -> Iterator[KimuraDecomposition]:
    """All factored forms on {1..n}: weak orderings in lexicographic order,
    within one ordering the projection choices counted in binary with left
    before right (bottom-most fat class most significant)."""
    _check_operation_n(n)
    return _kimura_decompositions(n)


def _kimura_decompositions(n: int) -> Iterator[KimuraDecomposition]:
    for order in weak_orders(n):
        shifts = _choice_shifts(fat_ranks(order))
        for bits in range(1 << len(shifts)):
            choices = tuple(
                (rank, RIGHT if bits >> shift & 1 else LEFT) for rank, shift in shifts.items()
            )
            yield KimuraDecomposition(order, choices)


def qt_semigroups(n: int, shard_index: int = 0, shard_count: int = 1) -> Iterator[FiniteBinOp]:
    """All associative quasitrivial operations on {1..n}, built structurally
    (never by filtering raw tables; that route lives in the oracle module),
    in the order of `kimura_decompositions`.

    With a shard, only the tables whose stream index is congruent to
    `shard_index` modulo `shard_count` are built.  The tables of one weak
    ordering hold stream indices [i, i + 2^m), m its number of fat classes;
    an ordering whose block holds none of the shard's indices is skipped.
    """
    _check_operation_n(n, shard_index, shard_count)
    return _qt_semigroups(n, shard_index, shard_count)


def _qt_semigroups(n: int, shard_index: int, shard_count: int) -> Iterator[FiniteBinOp]:
    # the rows come from `projection_rows`, so every table is valid as built
    make = FiniteBinOp._trusted
    start = 0  # stream index of the first table of the current ordering
    for order in weak_orders(n):
        fat = fat_ranks(order)
        size = 1 << len(fat)
        first = (shard_index - start) % shard_count
        start += size
        if first >= size:
            continue
        shifts = _choice_shifts(fat)
        # row x of each table is one of the pair shared by all 2^m tables,
        # picked by the choice bit of x's class (any bit for a singleton)
        keyed = [
            (pair, shifts.get(r, 0))
            for pair, r in zip(projection_rows(order), order.ranks)
        ]
        for bits in range(first, size, shard_count):
            yield make(tuple([pair[bits >> shift & 1] for pair, shift in keyed]))


# Each family's stream, the filters that apply to its objects, and the name
# of the `formats` function that writes one object as one line (a name, looked
# up per run, so a wrapper installed in `formats` after import is the one
# called).  `FamilySpec`, `generate` and the command line all read this table.
FAMILIES = {
    "total-orders": (total_orders, ORDER_FILTERS, "emit_total_order"),
    "weak-orders": (weak_orders, ORDER_FILTERS, "emit_weak_order"),
    "single-peaked-total-orders": (
        _single_peaked_total_orders, ORDER_FILTERS, "emit_total_order"
    ),
    "weakly-single-peaked-weak-orders": (
        _weakly_single_peaked_weak_orders, ORDER_FILTERS, "emit_weak_order"
    ),
    "qt-semigroups": (qt_semigroups, OPERATION_FILTERS, "emit_cayley_line"),
}


@dataclass(frozen=True)
class FamilySpec:
    """Names one of the enumerable populations, plus optional filters."""

    family: str
    n: int
    filters: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "filters", frozenset(self.filters))
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        bad = self.filters.difference(FAMILIES[self.family][1])
        if bad:
            raise ValueError(f"filters {sorted(bad)} do not apply to {self.family}")


def generate(spec: FamilySpec, shard_index: int = 0, shard_count: int = 1):
    """Stream the family named by `spec`, each qualifying object exactly once.

    The base stream is the family's row in `FAMILIES`.  A shard holds the
    objects of that unfiltered stream whose index is congruent to
    `shard_index` modulo `shard_count`, filtered afterwards, so the union of
    all shards equals the serial stream regardless of filters.  Operation
    tables, weak orderings and total orderings are sharded before they are
    built, so a shard of K builds about 1/K of them; the peakedness families,
    whose index counts only the orderings that pass, are sliced after their
    test.  The stream checks its input when called, so bad input raises here,
    before the first object is asked for.
    """
    stream, table, _ = FAMILIES[spec.family]
    base = stream(spec.n, shard_index, shard_count)
    if not spec.filters:
        return base
    reference = TotalOrder.natural(spec.n) if spec.n >= 1 else None
    tests = [table[name] for name in sorted(spec.filters)]
    return (obj for obj in base if all(test(obj, reference) for test in tests))


def count(spec: FamilySpec, shard_index: int = 0, shard_count: int = 1) -> int:
    """Exact cardinality of `generate(spec)` (or of one shard of it)."""
    return sum(1 for _ in generate(spec, shard_index, shard_count))
