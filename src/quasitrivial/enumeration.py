"""Exhaustive, deterministic generators for the counted object families.

Generation order is part of the contract: weak orderings stream in
lexicographic rank-vector order; the operations of one ordering and its
factored forms stream in one order, which `qt_semigroups` and
`kimura_decompositions` both read from one table of the sides of its fat
classes (those of size >= 2), `_sides`.  The i-th entry is i in binary, the
bottom class its most significant digit and right its 1.

`rank_vectors` walks prefixes that stop three positions short of n and
reads the surjective completions of each from a table built once per call,
keyed by the ranks the prefix holds; the vectors of one prefix come as one
batch.  The peakedness families walk the same prefixes to full length, given
a cut that drops a rank as soon as it makes a triple ending at its position
unpeaked, so they build only the orderings they keep.

The operation stream walks the rank vectors themselves and makes no
`WeakOrder`: one pass over a vector (`structure._classes`) finds its fat
classes and winner masks, and only for an ordering whose tables the shard
holds are the rows read from the bounded per-n row table (`structure._rows`).
`kimura_decompositions` makes the same one pass per ordering and builds
its decompositions unchecked.

The unfiltered weak-order and operation listings have line streams in
`formats`, which read the same two walks as the object streams: the prefix
batches of `_rank_vector_batches`, cut to the shard by `_weak_order_batches`,
and the per-ordering blocks of the shard, `_operation_blocks`, which
`qt_semigroups` reads too.  The shard rule is unchanged (stream index
congruent to `shard_index` modulo `shard_count`), and the per-object emitter
over the object stream stays the reference for a line stream's bytes.

Each family is one stream function `(n, shard_index=0, shard_count=1)`,
restartable by calling it again, and one row of `FAMILIES` with its filters,
each a predicate of the object alone, the name of its line emitter and
that of its line stream, if it has one.  A stream checks its input when
called, by one call of `_check`, which states the order: n < 0, the shard,
the size cap, then n = 0 for an empty family.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import chain, islice, permutations, product
from typing import Iterator

from .errors import CapacityError, ConsistencyError
from .magmas import (
    FiniteBinOp,
    annihilator_elements,
    is_commutative,
    is_order_preserving,
    neutral_elements,
)
from .orders import TotalOrder, WeakOrder, is_weakly_single_peaked
from .structure import (
    LEFT,
    RIGHT,
    ROW_TABLE_MAX_N,
    KimuraDecomposition,
    _classes,
    _rows,
)
# unused here, but the tracer self-test (perfbench/selftest.py) patches it
from .structure import build  # noqa: F401

WEAK_ORDER_MAX_N = 10
TOTAL_ORDER_MAX_N = 10
# the stream reads every row from the row table of `structure`
QT_SEMIGROUP_MAX_N = ROW_TABLE_MAX_N


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


def _check(n: int, shard_index: int = 0, shard_count: int = 1, cap: int | None = None,
           what: str = "", empty: str | None = None) -> None:
    """The input rule of every stream, in its order: n < 0, the shard, the
    size cap `cap` of the family `what`, then n = 0, which raises `empty`
    unless it is None (an empty set allowed)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not 0 <= shard_index < shard_count:
        raise ValueError("need 0 <= shard_index < shard_count")
    if cap is not None and n > cap:
        raise CapacityError(f"{what} enumeration is limited to n <= {cap}")
    if n == 0 and empty is not None:
        raise ValueError(empty)


# the last positions of every rank vector, read from the completion table;
# with 3 the table of one call holds at most 11,728 tails (at n = 10)
_TAIL = 3


def rank_vectors(n: int) -> Iterator[tuple[int, ...]]:
    """All surjective rank vectors on {1..n}, in lexicographic order.

    A prefix is viable iff the ranks skipped so far can still be filled by
    the remaining positions; the search never expands a dead prefix.  The
    vectors that share a viable prefix of n - 3 positions come as one batch,
    their last positions read from a completion table.
    """
    _check(n)
    return chain.from_iterable(
        [prefix + rest for rest in rests] for prefix, _, rests in _rank_vector_batches(n)
    )


def _rank_vector_batches(n: int, cut=None) -> Iterator[tuple[tuple[int, ...], int, list]]:
    """The rank vectors of length n in lexicographic order, as one batch
    (prefix, used, rests) per prefix the walk stops at: the vectors
    ``prefix + rest`` for each rest in rests, `used` the ranks of the prefix
    as the bits of a mask (bit r for rank r).

    Without a cut the walk stops `_TAIL` positions short of n (at once for
    n <= `_TAIL`) and reads every surjective completion of the prefix from a
    table keyed by its set of ranks, which gives the largest rank so far and
    the unused ranks below it.  The table is built as the walk asks for it,
    once per call, so within one call equal masks give the same list of
    rests.  With a cut the walk runs to full length and drops rank r at a
    position whenever ``cut(head, r)`` holds for the ranks `head` before it,
    so its subtree is never expanded.
    """
    tail = 0 if cut is not None else min(n, _TAIL)
    depth = n - tail
    table: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    if not depth:
        yield (), 0, _completions(table, 0, tail)
        return
    # the prefixes still to expand, the next one last, each with its mask
    stack: list[tuple[tuple[int, ...], int]] = [((), 0)]
    while stack:
        head, used = stack.pop()
        i = len(head)
        slots = n - i - 1
        kids = []
        for r in range(1, used.bit_count() + n - i + 1):
            new = used | 1 << r
            # the ranks below the top still unused must fit the slots left
            if new.bit_length() - 1 - new.bit_count() > slots:
                continue
            if cut is not None and cut(head, r):
                continue
            kids.append((head + (r,), new))
        if i + 1 < depth:
            stack += reversed(kids)
        else:
            for prefix, new in kids:
                yield prefix, new, _completions(table, new, tail)


def _completions(table: dict, used: int, t: int) -> list[tuple[int, ...]]:
    """Every surjective completion of t positions after a prefix whose ranks
    are the bits of `used`, in lexicographic order; `table` holds those
    found so far, keyed by (used, t)."""
    found = table.get((used, t))
    if found is None:
        if t:
            # a rank above the distinct ones plus t could never be reached
            found = [
                (r, *rest)
                for r in range(1, used.bit_count() + t + 1)
                for rest in _completions(table, used | 1 << r, t - 1)
            ]
        else:
            # surjective iff bits 1..top are all set: adding 2 carries
            # through them all
            found = [] if used & (used + 2) else [()]
        table[used, t] = found
    return found


def _unpeaked(head: tuple[int, ...], r: int) -> bool:
    """Whether rank r after the ranks `head` makes some a < b < i a triple
    whose middle b is ranked at or above both ends, not all three equal: the
    triples of `is_weakly_single_peaked` for 1 < ... < n that end at i."""
    if not head:
        return False
    # rb is the rank of b = 2, 3, ... in turn, low the least rank before it
    low = head[0]
    for rb in head[1:]:
        if low <= rb and (rb > r or rb == r and low < rb):
            return True
        low = min(low, rb)
    return False


def _repeated_or_unpeaked(head: tuple[int, ...], r: int) -> bool:
    """`_unpeaked` for total orderings, whose ranks are also distinct."""
    return r in head or _unpeaked(head, r)


def _peaked_walk(n: int, cut, make) -> Iterator[WeakOrder]:
    """The orderings of the walk pruned by `cut`, each made by `make` and
    held to `is_weakly_single_peaked` for 1 < ... < n."""
    ref = _natural(n)
    # the walk runs to full length, so each batch holds its prefix or nothing
    for ranks, _, rests in _rank_vector_batches(n, cut):
        if not rests:
            continue
        order = make(ranks)
        if not is_weakly_single_peaked(ref, order):
            raise ConsistencyError(f"the pruned walk kept {ranks}, not weakly single-peaked")
        yield order


def weak_orders(n: int, shard_index: int = 0, shard_count: int = 1) -> Iterator[WeakOrder]:
    """All weak orderings of {1..n} in lexicographic rank-vector order."""
    _check(n, shard_index, shard_count, WEAK_ORDER_MAX_N, "weak-order")
    # the vectors are sliced before any object is made, and made unchecked:
    # `rank_vectors` yields only surjective ones
    vectors = islice(rank_vectors(n), shard_index, None, shard_count)
    return map(WeakOrder._trusted, vectors)


def _weak_order_batches(n: int, shard_index: int = 0, shard_count: int = 1):
    """The batches of `_rank_vector_batches(n)` that hold weak orderings of
    the shard, as (prefix, used, rests, held): `rests[held]` are the rests
    of the shard's vectors, those whose stream index is congruent to
    `shard_index` modulo `shard_count`.  Checks its input when called."""
    _check(n, shard_index, shard_count, WEAK_ORDER_MAX_N, "weak-order")
    return _held_batches(n, shard_index, shard_count)


def _held_batches(n: int, shard_index: int, shard_count: int):
    # the vectors of one batch hold stream indices [start, start + size)
    start = 0
    for prefix, used, rests in _rank_vector_batches(n):
        size = len(rests)
        first = (shard_index - start) % shard_count
        start += size
        if first < size:
            yield prefix, used, rests, slice(first, None, shard_count)


def total_orders(n: int, shard_index: int = 0, shard_count: int = 1) -> Iterator[TotalOrder]:
    """All total orderings of {1..n} in lexicographic rank-vector order."""
    _check(n, shard_index, shard_count, TOTAL_ORDER_MAX_N, "total-order",
           "total orders need n >= 1")
    # made unchecked: a permutation of 1..n is a valid rank vector
    vectors = islice(permutations(range(1, n + 1)), shard_index, None, shard_count)
    return map(TotalOrder._trusted, vectors)


# The peakedness families walk only the prefixes whose triples pass, in the
# order of their base stream.  They are indexed after their test: a shard
# slices what passes.


def _peaked_weak_orders(n: int, shard_index: int = 0, shard_count: int = 1):
    """The weak orderings of {1..n} weakly single-peaked for 1 < ... < n."""
    _check(n, shard_index, shard_count, WEAK_ORDER_MAX_N, "weak-order",
           "peakedness families need n >= 1")
    kept = _peaked_walk(n, _unpeaked, WeakOrder._trusted)
    return islice(kept, shard_index, None, shard_count)


def _peaked_total_orders(n: int, shard_index: int = 0, shard_count: int = 1):
    """The total orderings of {1..n} single-peaked for 1 < ... < n."""
    _check(n, shard_index, shard_count, TOTAL_ORDER_MAX_N, "total-order",
           "total orders need n >= 1")
    kept = _peaked_walk(n, _repeated_or_unpeaked, TotalOrder._trusted)
    return islice(kept, shard_index, None, shard_count)


@cache
def _sides(m: int) -> tuple[tuple[int, ...], ...]:
    """The sides of m fat classes for each table of one ordering, in stream
    order, 0 for left and 1 for right, each with a trailing 0.  A fat class
    holds two elements, so m <= n // 2 <= 4 under the size cap."""
    return tuple((*sides, 0) for sides in product((0, 1), repeat=m))


def kimura_decompositions(n: int) -> Iterator[KimuraDecomposition]:
    """All factored forms on {1..n}, in the stream order of the module."""
    _check(n, cap=QT_SEMIGROUP_MAX_N, what="operation", empty="operation enumeration needs n >= 1")
    # one pass per ordering finds its fat ranks, so each decomposition is
    # valid as made and made unchecked; `zip` drops the trailing 0 of a side
    make = KimuraDecomposition._trusted
    side = (LEFT, RIGHT)
    return (
        make(order, tuple([(r, side[s]) for r, s in zip(fat, sides)]))
        for order in map(WeakOrder._trusted, rank_vectors(n))
        for fat in [_classes(order.ranks)[0]]
        for sides in _sides(len(fat))
    )


def qt_semigroups(n: int, shard_index: int = 0, shard_count: int = 1) -> Iterator[FiniteBinOp]:
    """All associative quasitrivial operations on {1..n}, built structurally
    (never by filtering raw tables; that route lives in the oracle module),
    in the order of `kimura_decompositions`.  A shard builds only the tables
    whose stream index is congruent to `shard_index` modulo `shard_count`.
    """
    return _qt_semigroups(_operation_blocks(n, shard_index, shard_count))


def _operation_blocks(n: int, shard_index: int = 0, shard_count: int = 1):
    """The blocks of the operations on {1..n}, one per weak ordering that
    holds tables of the shard, as (ranks, fat, at_least, sides): the
    ordering's rank vector, its pass by `_classes` (fat ranks bottom first,
    winner masks) and the entries of `_sides` of the shard's tables, in
    stream order.  Row x of the table of one entry is row x of `_rows` under
    the right projection if the entry's side for x's class is 1, else under
    the left.  Checks its input when called."""
    _check(n, shard_index, shard_count, QT_SEMIGROUP_MAX_N, "operation",
           "operation enumeration needs n >= 1")
    return _held_blocks(n, shard_index, shard_count)


def _held_blocks(n: int, shard_index: int, shard_count: int):
    # the tables of one ordering hold stream indices [start, start + 2^m), m
    # its number of fat classes; a block with none of the shard's is skipped
    start = 0
    # `_sides(m)` for every m an ordering can have, read without a cache call
    sides_of = [_sides(m) for m in range(n // 2 + 1)]
    for ranks in rank_vectors(n):
        fat, at_least = _classes(ranks)
        m = len(fat)
        size = 1 << m
        first = (shard_index - start) % shard_count
        start += size
        if first < size:
            yield ranks, fat, at_least, sides_of[m][first::shard_count]


def _qt_semigroups(blocks) -> Iterator[FiniteBinOp]:
    # the rows come from `_rows`, so every table is valid as built
    make = FiniteBinOp._trusted
    for ranks, fat, at_least, sides in blocks:
        lefts, rights = _rows(ranks, at_least)
        if len(fat) < 2:
            # no fat class: one table, all left rows; one: left, then right
            for s in sides:
                yield make((lefts, rights)[s[0]])
            continue
        # row x of each table is one of x's pair, picked by the side of x's
        # class; a singleton reads the trailing 0, its pair one row twice
        slot = {rank: j for j, rank in enumerate(fat)}
        keyed = [(pair, slot.get(r, -1)) for pair, r in zip(zip(lefts, rights), ranks)]
        for s in sides:
            yield make(tuple([pair[s[j]] for pair, j in keyed]))


# Each family's stream, the filters that apply to its objects, the name of
# the `formats` function that writes one object as one line, and the name of
# the `formats` line stream that writes the whole unfiltered stream, or None
# (names, looked up per run, so a wrapper installed in `formats` after import
# is the one called).  `FamilySpec`, `generate` and the command line all read
# this table.
FAMILIES = {
    "total-orders": (total_orders, ORDER_FILTERS, "emit_total_order", None),
    "weak-orders": (weak_orders, ORDER_FILTERS, "emit_weak_order", "weak_order_lines"),
    "single-peaked-total-orders": (_peaked_total_orders, ORDER_FILTERS, "emit_total_order", None),
    "weakly-single-peaked-weak-orders": (
        _peaked_weak_orders, ORDER_FILTERS, "emit_weak_order", None),
    "qt-semigroups": (qt_semigroups, OPERATION_FILTERS, "emit_cayley_line", "cayley_lines"),
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
    stream, table, *_ = FAMILIES[spec.family]
    base = stream(spec.n, shard_index, shard_count)
    if not spec.filters:
        return base
    tests = [table[name] for name in sorted(spec.filters)]
    return (obj for obj in base if all(test(obj) for test in tests))


def count(spec: FamilySpec, shard_index: int = 0, shard_count: int = 1) -> int:
    """Exact cardinality of `generate(spec)` (or of one shard of it)."""
    return sum(1 for _ in generate(spec, shard_index, shard_count))
