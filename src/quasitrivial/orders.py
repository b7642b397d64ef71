"""Total and weak orderings on {1..n}.

A weak ordering (total + transitive relation) is encoded by its rank vector:
``ranks[x-1]`` is the rank of element ``x``, ranks run 1..k with every value
attained, and ``x`` is strictly below ``y`` exactly when ``rank(x) < rank(y)``.
Rank 1 is the bottom class.  A total ordering is the antisymmetric special
case, the weak ordering whose classes are all singletons: its rank vector is
a permutation.  `TotalOrder` subclasses `WeakOrder`, so every function taking
a weak ordering accepts a total one.  Equality still compares the class: a
`TotalOrder` never equals the `WeakOrder` of the same ranks.

All values are immutable; every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def _check_ints(values: Sequence[object], what: str) -> None:
    """ValueError naming the first of `values` that is not an int; a bool is
    not one.  The check is one pass of the values' types, not a Python loop."""
    if not {int}.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"{what} {bad!r} is not an integer")


@dataclass(frozen=True)
class WeakOrder:
    """A weak ordering, i.e. an ordered partition of {1..n} into k classes."""

    ranks: tuple[int, ...]

    def __post_init__(self):
        ranks = tuple(self.ranks)
        object.__setattr__(self, "ranks", ranks)
        _check_ints(ranks, "rank")
        # distinct ranks, all >= 1, as many as the largest: exactly 1..k
        if ranks and (min(ranks) < 1 or len(set(ranks)) != max(ranks)):
            raise ValueError(f"rank vector {ranks} is not surjective onto 1..k")

    @classmethod
    def _trusted(cls, ranks: tuple[int, ...]) -> "WeakOrder":
        """The weak ordering of `ranks` without the check: only for a
        generator whose vectors are tuples of ints surjective onto 1..k by
        construction.  Equal to, and hashing like, ``WeakOrder(ranks)``."""
        w = object.__new__(cls)
        object.__setattr__(w, "ranks", ranks)
        return w

    @property
    def n(self) -> int:
        return len(self.ranks)

    @property
    def k(self) -> int:
        """Number of equivalence classes."""
        return max(self.ranks) if self.ranks else 0

    def rank_of(self, x: int) -> int:
        if not 1 <= x <= len(self.ranks):
            raise ValueError(f"element {x} is not in 1..{len(self.ranks)}")
        return self.ranks[x - 1]

    def equiv(self, x: int, y: int) -> bool:
        return self.rank_of(x) == self.rank_of(y)

    def classes(self) -> tuple[frozenset[int], ...]:
        """The ordered partition, bottom class first."""
        blocks: list[set[int]] = [set() for _ in range(self.k)]
        for x, r in enumerate(self.ranks, start=1):
            blocks[r - 1].add(x)
        return tuple(frozenset(b) for b in blocks)

    def minimal_elements(self) -> frozenset[int]:
        return frozenset(x for x, r in enumerate(self.ranks, start=1) if r == 1)

    def maximal_elements(self) -> frozenset[int]:
        k = self.k
        return frozenset(x for x, r in enumerate(self.ranks, start=1) if r == k)

    def inverse(self) -> "WeakOrder":
        """The reversed ordering (ranks flipped top-to-bottom), of the same
        class: the inverse of a total ordering is total."""
        k = self.k
        return type(self)(tuple(k + 1 - r for r in self.ranks))

    def is_total(self) -> bool:
        return self.k == self.n

    def to_total(self) -> "TotalOrder":
        if not self.is_total():
            raise ValueError("weak order has a class of size >= 2")
        return TotalOrder(self.ranks)

    def __str__(self) -> str:
        parts = [" ~ ".join(str(x) for x in sorted(block)) for block in self.classes()]
        return " < ".join(parts)


@dataclass(frozen=True)
class TotalOrder(WeakOrder):
    """A total ordering of {1..n}; the rank vector is a permutation."""

    def __post_init__(self):
        ranks = tuple(self.ranks)
        object.__setattr__(self, "ranks", ranks)
        _check_ints(ranks, "rank")
        n = len(ranks)
        if n == 0 or sorted(ranks) != list(range(1, n + 1)):
            raise ValueError(f"rank vector {ranks} is not a permutation of 1..n")

    @classmethod
    def natural(cls, n: int) -> "TotalOrder":
        """The reference ordering 1 < 2 < ... < n."""
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_ordered_elements(cls, elements: Iterable[int]) -> "TotalOrder":
        """Build from the element listing, smallest first: each element is
        checked here, so the ranks are a permutation and built unchecked."""
        elems = tuple(elements)
        ranks = [0] * len(elems)
        for pos, x in enumerate(elems, start=1):
            if type(x) is not int:
                raise ValueError(f"element {x!r} is not an integer")
            if not 1 <= x <= len(elems) or ranks[x - 1]:
                raise ValueError(f"{elems} is not a permutation of 1..n")
            ranks[x - 1] = pos
        if not ranks:
            raise ValueError("rank vector () is not a permutation of 1..n")
        return cls._trusted(tuple(ranks))

    def larger(self, x: int, y: int) -> int:
        return x if self.rank_of(x) >= self.rank_of(y) else y

    def ordered_elements(self) -> tuple[int, ...]:
        """Elements listed from smallest to largest."""
        out = [0] * self.n
        for x, r in enumerate(self.ranks, start=1):
            out[r - 1] = x
        return tuple(out)


def strict_convex_hull(t: TotalOrder, x: int, y: int) -> frozenset[int]:
    """Elements strictly between x and y under t; symmetric in x and y."""
    if not (1 <= x <= t.n and 1 <= y <= t.n):
        raise ValueError(f"elements {x}, {y} are not both in 1..{t.n}")
    if x == y:
        raise ValueError("strict convex hull requires two distinct elements")
    lo, hi = sorted((t.rank_of(x), t.rank_of(y)))
    elems = t.ordered_elements()
    return frozenset(elems[i] for i in range(lo, hi - 1))


def is_convex(t: TotalOrder, subset: Iterable[int]) -> bool:
    """True iff `subset` is an interval of t (no holes between members)."""
    positions = sorted(t.rank_of(x) for x in subset)
    if not positions:
        return True
    return positions[-1] - positions[0] + 1 == len(positions)


def is_single_peaked(t: TotalOrder, p: TotalOrder) -> bool:
    """True iff the t-middle of any three elements is never ranked last by p:
    `is_weakly_single_peaked` read on a total ordering."""
    return _peaked(t, p.ranks)


def is_weakly_single_peaked(t: TotalOrder, w: WeakOrder) -> bool:
    """Weak-order generalization: for t-ordered a < b < c, b is strictly below
    a or strictly below c, or all three are equivalent."""
    return _peaked(t, w.ranks)


def _peaked(t, ranks):
    """No t-middle of three elements ranked at or above both ends, unless all
    three share a rank; three distinct elements of a total order never do, so
    the one walk serves both orderings."""
    if len(t.ranks) != len(ranks):
        raise ValueError("orderings have different cardinalities")
    elems = t.ordered_elements()
    n = len(elems)
    for j in range(1, n - 1):
        rb = ranks[elems[j] - 1]
        for i in range(j):
            ra = ranks[elems[i] - 1]
            if rb < ra:
                continue
            for k in range(j + 1, n):
                rc = ranks[elems[k] - 1]
                if rb < rc:
                    continue
                if not (ra == rb == rc):
                    return False
    return True


def is_valley_free(t: TotalOrder, w: WeakOrder) -> bool:
    """True iff no t-middle element sits strictly above both of its t-neighbours
    in w (no V-shaped triple in the profile graph)."""
    if len(t.ranks) != len(w.ranks):
        raise ValueError("orderings have different cardinalities")
    elems = t.ordered_elements()
    ranks = w.ranks
    n = len(elems)
    for j in range(1, n - 1):
        rb = ranks[elems[j] - 1]
        if any(ranks[elems[i] - 1] < rb for i in range(j)) and any(
            ranks[elems[k] - 1] < rb for k in range(j + 1, n)
        ):
            return False
    return True


def lower_sets_convex(t: TotalOrder, w: WeakOrder) -> bool:
    """Equivalent formulation of `is_valley_free`: every lower set
    {x : x weakly below threshold} is convex for t."""
    if len(t.ranks) != len(w.ranks):
        raise ValueError("orderings have different cardinalities")
    return all(
        is_convex(t, (x for x, rx in enumerate(w.ranks, start=1) if rx <= r))
        for r in range(1, w.k + 1)
    )


def plateaus(t: TotalOrder, w: WeakOrder) -> tuple[frozenset[int], ...]:
    """Maximal runs of t-consecutive w-equivalent elements, size >= 2.

    Every plateau (t-convex subset of one equivalence class) is contained in
    exactly one such run, so checks that only depend on the class of a plateau
    may quantify over these runs alone.
    """
    if len(t.ranks) != len(w.ranks):
        raise ValueError("orderings have different cardinalities")
    elems = t.ordered_elements()
    runs = []
    start = 0
    for i in range(1, len(elems) + 1):
        if i == len(elems) or not w.equiv(elems[i - 1], elems[i]):
            if i - start >= 2:
                runs.append(frozenset(elems[start:i]))
            start = i
    return tuple(runs)


def plateaus_are_minimal(t: TotalOrder, w: WeakOrder) -> bool:
    """True iff no element of X sits strictly below a plateau.

    Checking maximal runs suffices: a sub-plateau has the same class, hence
    the same set of elements below it.  `plateaus` checks the sizes.
    """
    return all(w.rank_of(min(run)) == 1 for run in plateaus(t, w))


@dataclass(frozen=True)
class PatternFlags:
    """Which of the three forbidden profile patterns are absent."""

    v_free: bool
    l_free: bool
    reversed_l_free: bool

    def all_free(self) -> bool:
        return self.v_free and self.l_free and self.reversed_l_free


def profile_patterns(t: TotalOrder, w: WeakOrder) -> PatternFlags:
    """Test the profile graph of w over t for the three forbidden patterns.

    V: some t-middle element strictly above both ends of its triple.
    L: some plateau with a strictly-below element to its t-left.
    Reversed L: some plateau with a strictly-below element to its t-right.

    All three absent at once is equivalent to `is_weakly_single_peaked`.
    `plateaus` checks the sizes before any rank is read.
    """
    elems = t.ordered_elements()
    ranks = w.ranks
    l_free = True
    reversed_l_free = True
    for run in plateaus(t, w):
        r = ranks[next(iter(run)) - 1]
        if r == 1:
            continue
        positions = sorted(t.rank_of(x) for x in run)
        lo, hi = positions[0], positions[-1]
        if any(ranks[elems[i] - 1] < r for i in range(lo - 1)):
            l_free = False
        if any(ranks[elems[i] - 1] < r for i in range(hi, len(elems))):
            reversed_l_free = False
    return PatternFlags(is_valley_free(t, w), l_free, reversed_l_free)
