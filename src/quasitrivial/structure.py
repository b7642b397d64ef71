"""Canonical form of associative quasitrivial operations.

Every such operation factors uniquely as: take a weak ordering, let the
strictly larger argument win across distinct classes, and fix one projection
(left or right) inside each class of size >= 2.  `build` goes from the
factored form to the table, `decompose` recovers it, and the two are mutually
inverse bijections.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Mapping

from .errors import CapacityError, ConsistencyError, DecompositionError
from .magmas import (
    FiniteBinOp,
    _value_counts,
    annihilator_elements,
    degree_sequence,
    is_associative,
    is_commutative,
    is_idempotent,
    is_order_preserving,
    is_quasitrivial,
    neutral_elements,
)
from .orders import TotalOrder, WeakOrder, _check_ints, is_weakly_single_peaked

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
        choices = tuple((r, s) for r, s in self.choices)
        object.__setattr__(self, "choices", choices)
        if not self.order.ranks:
            raise ValueError("a decomposition needs n >= 1")
        ranks = [r for r, _ in choices]
        _check_ints(ranks, "class rank")
        big = fat_ranks(self.order)
        if ranks != big:
            raise ValueError(f"choices must cover exactly the class ranks {big}")
        for _, side in choices:
            if side not in (LEFT, RIGHT):
                raise ValueError(f"invalid projection side {side!r}")

    @classmethod
    def make(cls, order: WeakOrder, sides: Mapping[int, str]) -> "KimuraDecomposition":
        return cls(order, tuple(sorted(sides.items())))


def fat_ranks(order: WeakOrder) -> list[int]:
    """Ranks of the classes of size >= 2, bottom first."""
    sizes = [0] * (order.k + 1)
    for r in order.ranks:
        sizes[r] += 1
    return [r for r, size in enumerate(sizes) if size >= 2]


@lru_cache(maxsize=4096)
def _projection_row(n: int, x: int, winners: int) -> tuple[int, ...]:
    # F(x, y) = y for the y whose bit y - 1 is set in `winners`, else x; a
    # stream at n <= 9 asks for at most n * 2^(n-1) <= 2304 distinct rows
    return tuple([y if winners >> (y - 1) & 1 else x for y in range(1, n + 1)])


def projection_rows(order: WeakOrder) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Row x of every table with weak ordering `order`, for each x: the pair
    (row when x's class is a left projection, row when it is a right one).

    Across distinct classes the strictly larger argument wins; inside x's
    class the projection applies.  The two rows differ only inside the class,
    so for a singleton class the pair holds one tuple twice.
    """
    ranks = order.ranks
    n = len(ranks)
    # members[r]: the elements of rank r as a bit mask (bit y - 1 for y);
    # above[r]: the elements of rank > r, which win against rank r
    members = [0] * (n + 2)
    for y, r in enumerate(ranks):
        members[r] |= 1 << y
    above = [0] * (n + 2)
    for r in range(n, 0, -1):
        above[r] = above[r + 1] | members[r + 1]
    pairs = []
    for x, rx in enumerate(ranks, start=1):
        left = _projection_row(n, x, above[rx])
        # under a right projection the rest of x's class wins as well
        rest = members[rx] ^ (1 << (x - 1))
        pairs.append((left, _projection_row(n, x, above[rx] | rest) if rest else left))
    return tuple(pairs)


def build(d: KimuraDecomposition) -> FiniteBinOp:
    """The table of a decomposition: across distinct classes the strictly
    larger argument wins, inside a class the chosen projection applies.
    `d` was checked when made, so its rows are valid and built unchecked."""
    side = dict(d.choices)
    rows = zip(projection_rows(d.order), d.order.ranks)
    return FiniteBinOp._trusted(tuple([pair[side.get(r) == RIGHT] for pair, r in rows]))


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
    pairwise; f must already be known decomposable."""
    n = f.n
    below = [0] * n
    for x in range(1, n + 1):
        for y in range(x + 1, n + 1):
            le_xy = f(x, y) == y or f(y, x) == y
            le_yx = f(y, x) == x or f(x, y) == x
            if le_xy and not le_yx:
                below[y - 1] += 1
            elif le_yx and not le_xy:
                below[x - 1] += 1
    return below


def induced_weak_order(f: FiniteBinOp) -> WeakOrder:
    """The unique weak ordering of the factorization, read off pairwise:
    x is weakly below y iff F(x,y) = y or F(y,x) = y."""
    _require_decomposable(f)
    return _ranks_from_levels(_pairwise_levels(f))


def _degrees(f: FiniteBinOp) -> list[int]:
    """`f_degree` of every element in turn, from one count of the values."""
    counts = _value_counts(f)
    return [counts[row[z]] - 1 for z, row in enumerate(f.rows)]


def weak_order_from_degrees(f: FiniteBinOp) -> WeakOrder:
    """The same weak ordering recovered by sorting degrees nondecreasingly."""
    _require_decomposable(f)
    return _ranks_from_levels(_degrees(f))


def decompose(f: FiniteBinOp) -> KimuraDecomposition:
    """Recover the factored form; `build(decompose(f))` equals f exactly.

    The ordering is derived pairwise and cross-validated against the degree
    route; a mismatch can only indicate a bug and raises ConsistencyError.
    """
    _require_decomposable(f)
    return _factor(f)


def _factor(f: FiniteBinOp) -> KimuraDecomposition:
    """`decompose` of an f already known associative and quasitrivial."""
    order = _ranks_from_levels(_pairwise_levels(f))
    if order != _ranks_from_levels(_degrees(f)):
        raise ConsistencyError("pairwise and degree-based orderings disagree")
    sides = {}
    for rank, block in enumerate(order.classes(), start=1):
        if len(block) < 2:
            continue
        members = sorted(block)
        a, b = members[0], members[1]
        side = LEFT if f(a, b) == a else RIGHT
        for u in members:
            for v in members:
                if u != v and f(u, v) != (u if side == LEFT else v):
                    raise ConsistencyError(
                        f"class {members} is not a projection on all pairs"
                    )
        sides[rank] = side
    return KimuraDecomposition.make(order, sides)


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
        order = _ranks_from_levels(_pairwise_levels(f))
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


def monotonizing_orders(
    f: FiniteBinOp, decomposition: KimuraDecomposition | None = None
) -> Iterator[TotalOrder]:
    """All total orderings t with f order-preserving for t, in lexicographic
    order of the element listing.

    Given f's factorization `decomposition`, the orderings are generated from
    it (`_factored_listings`), at any n; a decomposition that does not build
    f is a ValueError.  Without it a pruned search over prefixes of the
    listing (`_pruned_listings`) finds them, capped at
    n <= MONOTONE_SEARCH_MAX_N.  Either route lists exactly these orderings,
    and each listing must pass `is_order_preserving`, else ConsistencyError.
    """
    if decomposition is None:
        if f.n > MONOTONE_SEARCH_MAX_N:
            raise CapacityError(
                f"monotonizing-order search is limited to n <= {MONOTONE_SEARCH_MAX_N}"
            )
        listings = _pruned_listings(f)
    elif build(decomposition) != f:
        raise ValueError("the decomposition is not the factorization of the operation")
    else:
        listings = _factored_listings(decomposition)
    for listing in listings:
        t = TotalOrder.from_ordered_elements(listing)
        if not is_order_preserving(f, t):
            raise ConsistencyError(
                f"the ordering {listing} is listed, but the table is not order-preserving for it"
            )
        yield t


def exists_monotonizing_order(
    f: FiniteBinOp, decomposition: KimuraDecomposition | None = None
) -> TotalOrder | None:
    """Some ordering for which f is order-preserving, or None; the first of
    `monotonizing_orders(f, decomposition)`."""
    return next(monotonizing_orders(f, decomposition), None)


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


def _decomposition(f: FiniteBinOp, properties: TableProperties) -> KimuraDecomposition | None:
    """f's factorization if `properties` (of f) show it has one, else None."""
    return _factor(f) if properties.associative and properties.quasitrivial else None


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
    decomposition = _decomposition(f, properties)
    wsp = None
    if decomposition is not None:
        wsp = is_weakly_single_peaked(reference, decomposition.order)
    monotone = []
    truncated = False
    try:
        for t in monotonizing_orders(f, decomposition):
            if len(monotone) >= MONOTONE_LIST_LIMIT:
                truncated = True
                break
            monotone.append(t)
    except CapacityError:
        truncated = True
    return ClassificationReport(
        **vars(properties),
        decomposition=decomposition,
        max_of_total_order=_max_order(
            f, properties.quasitrivial,
            decomposition.order if decomposition is not None and properties.commutative else None,
        ),
        order_preserving_for_reference=is_order_preserving(f, reference),
        weakly_single_peaked_for_reference=wsp,
        monotone_for=tuple(monotone),
        monotone_for_truncated=truncated,
    )
