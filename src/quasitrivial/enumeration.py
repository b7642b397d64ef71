"""Exhaustive, deterministic generators for the counted object families.

Generation order is part of the contract: weak orderings stream in
lexicographic rank-vector order; the operations of one ordering stream as
`itertools.product` over its fat classes (those of size >= 2), bottom class
first, left before right.  The i-th tuple of that product is i in binary,
the bottom class its most significant digit and right its 1.  Each family is
one stream function `(n, shard_index=0, shard_count=1)`, restartable by
calling it again, and one row of `FAMILIES` with its filters, each a
predicate of the object alone, and the name of its line emitter.
A stream checks its input when called, in this order: n < 0, the shard, the
size cap, then n = 0 for an empty family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import islice, permutations, product
from typing import Iterator

from .errors import CapacityError
from .magmas import (
    FiniteBinOp,
    annihilator_elements,
    is_commutative,
    is_order_preserving,
    neutral_elements,
)
from .orders import TotalOrder, WeakOrder, is_weakly_single_peaked
from .structure import LEFT, RIGHT, KimuraDecomposition, fat_ranks, projection_rows
# unused here, but the tracer self-test (perfbench/selftest.py) patches it
from .structure import build  # noqa: F401

WEAK_ORDER_MAX_N = 10
TOTAL_ORDER_MAX_N = 10
QT_SEMIGROUP_MAX_N = 9


# the reference ordering 1 < ... < n, made once per n (n <= 10 under the caps)
_natural = cache(TotalOrder.natural)


def _unique_min_and_max_distinct(w) -> bool:
    lo, hi = w.minimal_elements(), w.maximal_elements()
    return len(lo) == 1 and len(hi) == 1 and lo != hi


def _neutral_and_annihilator_distinct(f: FiniteBinOp) -> bool:
    e, a = neutral_elements(f), annihilator_elements(f)
    return bool(e) and bool(a) and e.isdisjoint(a)


# Each filter name maps to its predicate object -> bool.  A predicate looks
# its functions up by name when it is called, so a module global replaced
# after import (a tracer's wrapper, say) is the one called.
ORDER_FILTERS = {
    "unique-min": lambda w: len(w.minimal_elements()) == 1,
    "unique-max": lambda w: len(w.maximal_elements()) == 1,
    "unique-min-and-max-distinct": _unique_min_and_max_distinct,
}
OPERATION_FILTERS = {
    "neutral": lambda f: bool(neutral_elements(f)),
    "annihilator": lambda f: bool(annihilator_elements(f)),
    "neutral-and-annihilator-distinct": _neutral_and_annihilator_distinct,
    "commutative": lambda f: is_commutative(f),
    "monotone-for-reference": lambda f: is_order_preserving(f, _natural(f.n)),
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
    # made unchecked: a permutation of 1..n is a valid rank vector
    vectors = islice(permutations(range(1, n + 1)), shard_index, None, shard_count)
    return map(TotalOrder._trusted, vectors)


def _peaked(stream):
    """The family of the orderings of `stream` that are weakly single-peaked
    for 1 < ... < n; on total orderings that is single-peakedness.  It is
    indexed after its test: every ordering is built and tested, and what
    passes is sliced."""

    def family(n: int, shard_index: int = 0, shard_count: int = 1):
        _check(n, shard_index, shard_count)
        orders = stream(n)
        if n == 0:
            raise ValueError("peakedness families need n >= 1")
        ref = _natural(n)
        kept = (o for o in orders if is_weakly_single_peaked(ref, o))
        return islice(kept, shard_index, None, shard_count)

    return family


def _check_operation_n(n: int, shard_index: int = 0, shard_count: int = 1) -> None:
    _check(n, shard_index, shard_count)
    if n > QT_SEMIGROUP_MAX_N:
        raise CapacityError(
            f"operation enumeration is limited to n <= {QT_SEMIGROUP_MAX_N}"
        )
    if n == 0:
        raise ValueError("operation enumeration needs n >= 1")


@cache
def _sides(m: int) -> tuple[tuple[int, ...], ...]:
    """The sides of m fat classes for each table of one ordering, in stream
    order, 0 for left and 1 for right, each with a trailing 0.  A fat class
    holds two elements, so m <= n // 2 <= 4 under the size cap."""
    return tuple((*sides, 0) for sides in product((0, 1), repeat=m))


def kimura_decompositions(n: int) -> Iterator[KimuraDecomposition]:
    """All factored forms on {1..n}, in the stream order of the module."""
    _check_operation_n(n)
    return (
        KimuraDecomposition(order, tuple(zip(fat, sides)))
        for order in weak_orders(n)
        for fat in [fat_ranks(order)]
        for sides in product((LEFT, RIGHT), repeat=len(fat))
    )


def qt_semigroups(n: int, shard_index: int = 0, shard_count: int = 1) -> Iterator[FiniteBinOp]:
    """All associative quasitrivial operations on {1..n}, built structurally
    (never by filtering raw tables; that route lives in the oracle module),
    in the order of `kimura_decompositions`.  A shard builds only the tables
    whose stream index is congruent to `shard_index` modulo `shard_count`.
    """
    _check_operation_n(n, shard_index, shard_count)
    return _qt_semigroups(n, shard_index, shard_count)


def _qt_semigroups(n: int, shard_index: int, shard_count: int) -> Iterator[FiniteBinOp]:
    # the rows come from `projection_rows`, so every table is valid as built
    make = FiniteBinOp._trusted
    # the tables of one ordering hold stream indices [start, start + 2^m), m
    # its number of fat classes; a block with none of the shard's is skipped
    start = 0
    for order in weak_orders(n):
        fat = fat_ranks(order)
        size = 1 << len(fat)
        first = (shard_index - start) % shard_count
        start += size
        if first >= size:
            continue
        # row x of each table is one of the pair shared by all 2^m tables,
        # picked by the side of x's class; a singleton reads the trailing 0,
        # its pair holding one row twice
        slot = {rank: j for j, rank in enumerate(fat)}
        keyed = [(pair, slot.get(r, -1)) for pair, r in zip(projection_rows(order), order.ranks)]
        for sides in _sides(len(fat))[first::shard_count]:
            yield make(tuple([pair[sides[j]] for pair, j in keyed]))


# Each family's stream, the filters that apply to its objects, and the name
# of the `formats` function that writes one object as one line (a name, looked
# up per run, so a wrapper installed in `formats` after import is the one
# called).  `FamilySpec`, `generate` and the command line all read this table.
FAMILIES = {
    "total-orders": (total_orders, ORDER_FILTERS, "emit_total_order"),
    "weak-orders": (weak_orders, ORDER_FILTERS, "emit_weak_order"),
    "single-peaked-total-orders": (_peaked(total_orders), ORDER_FILTERS, "emit_total_order"),
    "weakly-single-peaked-weak-orders": (_peaked(weak_orders), ORDER_FILTERS, "emit_weak_order"),
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
    tests = [table[name] for name in sorted(spec.filters)]
    return (obj for obj in base if all(test(obj) for test in tests))


def count(spec: FamilySpec, shard_index: int = 0, shard_count: int = 1) -> int:
    """Exact cardinality of `generate(spec)` (or of one shard of it)."""
    return sum(1 for _ in generate(spec, shard_index, shard_count))
