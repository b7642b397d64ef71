"""Canonical form of associative quasitrivial operations.

Every such operation factors uniquely as: take a weak ordering, let the
strictly larger argument win across distinct classes, and fix one projection
(left or right) inside each class of size >= 2.  `build` goes from the
factored form to the table, `decompose` recovers it, and the two are mutually
inverse bijections.  Every built table is associative and quasitrivial, so a
table has a factorization exactly when the form read off it rebuilds it: this
O(n^2) test picks the route of `monotonizing_orders`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import islice, permutations
from typing import Iterator, Mapping

from .errors import CapacityError, ConsistencyError, DecompositionError
from .magmas import (
    FiniteBinOp,
    _degrees,
    annihilator_elements,
    degree_sequence,
    is_associative,
    is_commutative,
    is_idempotent,
    is_order_preserving,
    is_quasitrivial,
    neutral_elements,
)
from .orders import TotalOrder, WeakOrder, _check_ints, _new, _set_field, is_weakly_single_peaked

MONOTONE_SEARCH_MAX_N = 8
# `classify` lists at most this many monotonizing orderings
MONOTONE_LIST_LIMIT = 24

LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class KimuraDecomposition:
    """A weak ordering plus a projection side for each class of size >= 2.

    `choices` holds (class rank, side) pairs in increasing rank order, with
    exactly one entry per class of size >= 2 and none for singletons.
    """

    order: WeakOrder
    choices: tuple[tuple[int, str], ...]

    def __post_init__(self):
        if not isinstance(self.order, WeakOrder):
            raise ValueError(f"order {self.order!r} is not a WeakOrder")
        try:
            choices = tuple((r, s) for r, s in self.choices)
        except (TypeError, ValueError):
            raise ValueError(f"choices {self.choices!r} are not (rank, side) pairs") from None
        object.__setattr__(self, "choices", choices)
        if not self.order.ranks:
            raise ValueError("a decomposition needs n >= 1")
        ranks = [r for r, _ in choices]
        _check_ints(ranks, "class rank")
        big = _classes(self.order.ranks)[0]
        if ranks != big:
            raise ValueError(f"choices must cover exactly the class ranks {big}")
        for _, side in choices:
            if side not in (LEFT, RIGHT):
                raise ValueError(f"invalid projection side {side!r}")

    @classmethod
    def _trusted(
        cls, order: WeakOrder, choices: tuple[tuple[int, str], ...]
    ) -> "KimuraDecomposition":
        """The decomposition without the check: only for a generator that
        pairs the fat ranks of `order` with sides by construction.  Equal
        to, and hashing like, ``KimuraDecomposition(order, choices)``."""
        d = _new(cls)
        _set_field(d, "order", order)
        _set_field(d, "choices", choices)
        return d

    @classmethod
    def make(cls, order: WeakOrder, sides: Mapping[int, str]) -> "KimuraDecomposition":
        return cls(order, tuple(sorted(sides.items())))


# the largest n whose rows `_row_table` holds; the operation enumeration
# stops here too
ROW_TABLE_MAX_N = 9


def _projection_row(n: int, x: int, winners: int) -> tuple[int, ...]:
    # the projection rule: F(x, y) = y for the y whose bit y - 1 is set in
    # `winners`, else x.  `_row_table` holds every such row up to
    # ROW_TABLE_MAX_N, at most n * 2^n = 4608, each made once per process;
    # past it `_rows` makes each row it needs, as a table would not fit
    return tuple([y if winners >> (y - 1) & 1 else x for y in range(1, n + 1)])


@cache
def _row_table(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """`_projection_row(n, x, winners)` at [x - 1][winners], for every x and
    mask, n <= ROW_TABLE_MAX_N.  x's own bit leaves the row as it is, since
    F(x, x) = x either way, so both masks share one tuple."""
    if n > ROW_TABLE_MAX_N:
        raise CapacityError(f"the row table is limited to n <= {ROW_TABLE_MAX_N}")
    table = []
    for x in range(1, n + 1):
        bit = 1 << (x - 1)
        rows = []
        for winners in range(1 << n):
            rows.append(rows[winners ^ bit] if winners & bit else _projection_row(n, x, winners))
        table.append(tuple(rows))
    return tuple(table)


def _classes(ranks: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """One pass over a rank vector: the ranks of its classes of size >= 2,
    bottom first, and at_least[r], the elements of rank >= r as a bit mask
    (bit y - 1 for y), for r in 1..k + 1."""
    k = max(ranks, default=0)
    # members[r]: the elements of rank r
    members = [0] * (k + 2)
    bit = 1
    for r in ranks:
        members[r] |= bit
        bit <<= 1
    at_least = [0] * (k + 2)
    fat = []
    acc = 0
    for r in range(k, 0, -1):
        m = members[r]
        acc |= m
        at_least[r] = acc
        if m & (m - 1):
            fat.append(r)
    fat.reverse()
    return fat, at_least


def _rows(ranks: tuple[int, ...], at_least: list[int]):
    """Row x of every table with this weak ordering, for each x, under a left
    and under a right projection of x's class, as two tuples.

    Across distinct classes the strictly larger argument wins: the left row
    of x is y for y of rank > rank(x), the right row also for the rest of
    x's class, else x.  Both are read from the row table at these winner
    masks, so for a singleton class they are one tuple (equal tuples past
    ROW_TABLE_MAX_N, where each row is made from the rule).
    """
    n = len(ranks)
    if n > ROW_TABLE_MAX_N:
        return (tuple([_projection_row(n, x, at_least[r + 1]) for x, r in enumerate(ranks, 1)]),
                tuple([_projection_row(n, x, at_least[r]) for x, r in enumerate(ranks, 1)]))
    table = _row_table(n)
    lefts = tuple([rows[at_least[r + 1]] for rows, r in zip(table, ranks)])
    rights = tuple([rows[at_least[r]] for rows, r in zip(table, ranks)])
    return lefts, rights


def build(d: KimuraDecomposition) -> FiniteBinOp:
    """The table of a decomposition: across distinct classes the strictly
    larger argument wins, inside a class the chosen projection applies.
    `d` was checked when made, so its rows are valid and built unchecked."""
    ranks = d.order.ranks
    lefts, rights = _rows(ranks, _classes(ranks)[1])
    right = {r for r, side in d.choices if side == RIGHT}
    return FiniteBinOp._trusted(
        tuple([rr if r in right else lr for lr, rr, r in zip(lefts, rights, ranks)])
    )


def _require_decomposable(f: FiniteBinOp) -> None:
    if not is_quasitrivial(f):
        raise DecompositionError("not quasitrivial")
    if not is_associative(f):
        raise DecompositionError("not associative")


def _ranks_from_levels(levels: list[int]) -> WeakOrder:
    order = {v: i for i, v in enumerate(sorted(set(levels)), start=1)}
    return WeakOrder(tuple(order[v] for v in levels))


def _pairwise_levels(f: FiniteBinOp) -> list[int]:
    """For each element, how many elements lie strictly below it, read off
    pairwise from the rows, if f is decomposable.  The counts are made for
    any table, and `_read` rebuilds from them to find out."""
    rows = f.rows
    n = len(rows)
    below = [0] * n
    for x, row in enumerate(rows):
        for y in range(x + 1, n):
            # f is quasitrivial: an element that wins both ways lies strictly
            # above the other, a pair that splits is one class
            if row[y] == rows[y][x]:
                below[row[y] - 1] += 1
    return below


def induced_weak_order(f: FiniteBinOp) -> WeakOrder:
    """The unique weak ordering of the factorization, read off pairwise:
    x is weakly below y iff F(x,y) = y or F(y,x) = y."""
    _require_decomposable(f)
    return _ranks_from_levels(_pairwise_levels(f))


def weak_order_from_degrees(f: FiniteBinOp) -> WeakOrder:
    """The same weak ordering recovered by sorting degrees nondecreasingly."""
    _require_decomposable(f)
    return _ranks_from_levels(_degrees(f))


def decompose(f: FiniteBinOp) -> KimuraDecomposition:
    """Recover the factored form; `build(decompose(f))` equals f exactly.

    The ordering is derived pairwise and cross-validated against the degree
    route, then the result is rebuilt and compared with f cell by cell; a
    mismatch in either can only indicate a bug and raises ConsistencyError.
    """
    _require_decomposable(f)
    return _factor(f)


def _read(f: FiniteBinOp) -> KimuraDecomposition:
    """The factored form read off any table, unchecked: the ordering read
    pairwise, each fat class's side at its two least elements.  Every built
    table is associative and quasitrivial, so this rebuilds f exactly when f
    has a factorization."""
    order = _ranks_from_levels(_pairwise_levels(f))
    choices = []
    for rank, block in enumerate(order.classes(), start=1):
        if len(block) > 1:
            a, b = sorted(block)[:2]
            choices.append((rank, LEFT if f(a, b) == a else RIGHT))
    # one side per class of size >= 2, bottom first: valid as made
    return KimuraDecomposition._trusted(order, tuple(choices))


def _factor(f: FiniteBinOp) -> KimuraDecomposition:
    """`decompose` of an f known associative and quasitrivial: `_read`, its
    ordering checked against the degree route, then every cell, by building
    the result."""
    d = _read(f)
    if d.order != _ranks_from_levels(_degrees(f)):
        raise ConsistencyError("pairwise and degree-based orderings disagree")
    if build(d) != f:
        raise ConsistencyError("the factored form does not rebuild the table")
    return d


def commutative_characterization(f: FiniteBinOp) -> TotalOrder | None:
    """The total ordering whose maximum operation equals f, if one exists.

    Two routes are computed and must agree: (1) f is associative,
    quasitrivial, and commutative, with the ordering read from the
    factorization; (2) f is quasitrivial with degree sequence
    (0, 2, ..., 2n-2), with the ordering read from the degrees.
    """
    quasitrivial = is_quasitrivial(f)
    order = None
    if quasitrivial and is_commutative(f) and is_associative(f):
        order = _factor(f).order
    return _max_order(f, quasitrivial, order)


def _max_order(f: FiniteBinOp, quasitrivial: bool, order: WeakOrder | None) -> TotalOrder | None:
    """`commutative_characterization` given whether f is quasitrivial and, if
    f is a commutative qt-semigroup, the weak ordering of its factorization
    (else None)."""
    n = f.n
    via_structure = None
    if order is not None:
        if not order.is_total():
            raise ConsistencyError("commutative factorization has a fat class")
        via_structure = order.to_total()
    via_degrees = None
    if quasitrivial:
        degrees = _degrees(f)
        if sorted(degrees) == list(range(0, 2 * n, 2)):
            via_degrees = _ranks_from_levels(degrees).to_total()
    if via_structure != via_degrees:
        raise ConsistencyError("structure and degree characterizations disagree")
    return via_structure


def _pruned_listings(f: FiniteBinOp) -> Iterator[tuple[int, ...]]:
    """Every element listing the pruned search reaches, in lexicographic
    order: exactly the order-preserving ones.

    Depth-first search over prefixes of the listing, smallest candidate first.
    Let key(v) be v's position in the prefix, or n while v is unplaced.  Every
    completion puts a placed u below each v with key(u) < key(v), and an
    unplaced value above every placed one, so the prefix has no
    order-preserving completion if for such u, v and some y
    key(F(u,y)) > key(F(v,y)) or key(F(y,u)) > key(F(y,v)).  At full depth
    this is the order-preservation test itself, so every listing it completes
    is order-preserving.
    """
    n = f.n
    rows = [[v - 1 for v in row] for row in f.rows]
    # F(u, y) read along rows, F(y, u) along columns: both arguments at once
    sides = (rows, [list(col) for col in zip(*rows)])
    key = [n] * n
    listing = []

    def viable() -> bool:
        # the keys of F(u, y) must not fall along the prefix, and no unplaced
        # v may have F(v, y) keyed below the last of them
        unplaced = [v for v in range(n) if key[v] == n]
        for table in sides:
            for y in range(n):
                top = 0
                for u in listing:
                    k = key[table[u][y]]
                    if k < top:
                        return False
                    top = k
                for v in unplaced:
                    if key[table[v][y]] < top:
                        return False
        return True

    def extend() -> Iterator[tuple[int, ...]]:
        depth = len(listing)
        if depth == n:
            yield tuple(e + 1 for e in listing)
            return
        for e in range(n):
            if key[e] == n:
                key[e] = depth
                listing.append(e)
                if viable():
                    yield from extend()
                listing.pop()
                key[e] = n

    yield from extend()


def _factored_listings(d: KimuraDecomposition) -> Iterator[tuple[int, ...]]:
    """The element listings along which the ranks of `d` fall strictly to the
    bottom class, run through it as one block and rise strictly, in
    lexicographic order.

    Depth-first over the falling positions, smallest candidate first.  A
    class of two elements puts one on each side, so below the last falling
    rank `low` no such class may be skipped: the candidates are the unplaced
    elements of rank in [fence[low], low), and every prefix so chosen has a
    completion.  A bottom candidate starts the block; each order of the rest
    of the block follows, then the unplaced elements by increasing rank.
    """
    ranks = d.order.ranks
    classes = d.order.classes()
    if any(len(block) > 2 for block in classes[1:]):
        return
    k = len(classes)
    # fence[r]: the highest rank below r held by a class of two, else 0
    fence = [0] * (k + 2)
    for r in range(3, k + 2):
        fence[r] = r - 1 if len(classes[r - 2]) == 2 else fence[r - 1]
    bottom = sorted(classes[0])
    listing = []
    placed = [False] * (len(ranks) + 1)

    def fall(low: int) -> Iterator[tuple[int, ...]]:
        rising = None
        for e, r in enumerate(ranks, start=1):
            if placed[e] or not fence[low] <= r < low:
                continue
            if r > 1:
                placed[e] = True
                listing.append(e)
                yield from fall(r)
                listing.pop()
                placed[e] = False
                continue
            if rising is None:
                rising = sorted((x for x, rx in enumerate(ranks, start=1)
                                 if rx > 1 and not placed[x]), key=d.order.rank_of)
            for block in permutations([b for b in bottom if b != e]):
                yield (*listing, e, *block, *rising)

    yield from fall(k + 1)


def monotonizing_orders(f: FiniteBinOp) -> Iterator[TotalOrder]:
    """All total orderings t with f order-preserving for t, in lexicographic
    order of the element listing.

    The route comes from the table.  If the factored form read off f
    rebuilds it, f is decomposable and the orderings are generated from its
    factorization (`_factored_listings`), at any n.  Otherwise a pruned
    search over prefixes of the listing (`_pruned_listings`) finds them,
    capped at n <= MONOTONE_SEARCH_MAX_N.  Either route lists exactly these
    orderings, and each listing must pass `is_order_preserving`, else
    ConsistencyError.
    """
    d = _read(f)
    if build(d) == f:
        listings = _factored_listings(d)
    elif f.n > MONOTONE_SEARCH_MAX_N:
        raise CapacityError(
            f"monotonizing-order search is limited to n <= {MONOTONE_SEARCH_MAX_N}"
        )
    else:
        listings = _pruned_listings(f)
    for listing in listings:
        t = TotalOrder.from_ordered_elements(listing)
        if not is_order_preserving(f, t):
            raise ConsistencyError(
                f"the ordering {listing} is listed, but the table is not order-preserving for it"
            )
        yield t


def exists_monotonizing_order(f: FiniteBinOp) -> TotalOrder | None:
    """Some ordering for which f is order-preserving, or None; the first of
    `monotonizing_orders(f)`."""
    return next(monotonizing_orders(f), None)


@dataclass(frozen=True)
class TableProperties:
    """The facts about one operation that need no decomposition or search."""

    n: int
    associative: bool
    quasitrivial: bool
    commutative: bool
    idempotent: bool
    neutral: frozenset[int]
    annihilator: frozenset[int]
    degree_sequence: tuple[int, ...]

    @classmethod
    def of(cls, f: FiniteBinOp) -> "TableProperties":
        return cls(f.n, is_associative(f), is_quasitrivial(f), is_commutative(f),
                   is_idempotent(f), neutral_elements(f), annihilator_elements(f),
                   degree_sequence(f))


@dataclass(frozen=True)
class ClassificationReport(TableProperties):
    """Everything this package can say about one operation at a glance."""

    decomposition: KimuraDecomposition | None
    max_of_total_order: TotalOrder | None
    order_preserving_for_reference: bool
    weakly_single_peaked_for_reference: bool | None
    monotone_for: tuple[TotalOrder, ...]
    monotone_for_truncated: bool


def classify(f: FiniteBinOp, reference: TotalOrder | None = None) -> ClassificationReport:
    """Populate a ClassificationReport against a reference ordering.

    The monotonizing-order list is truncated at `MONOTONE_LIST_LIMIT` entries.
    A decomposable f gets it from its factorization at any n; any other f
    from the search, and above the search capacity the list is skipped
    entirely (marked truncated).
    """
    n = f.n
    reference = reference or TotalOrder.natural(n)
    if reference.n != n:
        raise ValueError("reference ordering has the wrong cardinality")
    properties = TableProperties.of(f)
    decomposition = _factor(f) if properties.associative and properties.quasitrivial else None
    wsp = None
    if decomposition is not None:
        wsp = is_weakly_single_peaked(reference, decomposition.order)
    try:
        monotone = list(islice(monotonizing_orders(f), MONOTONE_LIST_LIMIT + 1))
        truncated = len(monotone) > MONOTONE_LIST_LIMIT
    except CapacityError:
        monotone, truncated = [], True
    order_preserving = is_order_preserving(f, reference)
    if wsp is not None and wsp != order_preserving:
        raise ConsistencyError("order preservation and weak single-peakedness disagree")
    return ClassificationReport(
        **vars(properties),
        decomposition=decomposition,
        max_of_total_order=_max_order(
            f, properties.quasitrivial,
            decomposition.order if decomposition is not None and properties.commutative else None,
        ),
        order_preserving_for_reference=order_preserving,
        weakly_single_peaked_for_reference=wsp,
        monotone_for=tuple(monotone[:MONOTONE_LIST_LIMIT]),
        monotone_for_truncated=truncated,
    )
