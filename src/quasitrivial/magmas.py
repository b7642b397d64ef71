"""Finite binary operations as Cayley tables over {1..n}.

``rows[x-1][y-1]`` holds the value of the operation at (x, y).  Predicates are
exact exhaustive checks: associativity is the direct triple loop (n stays
small everywhere in this package), the rest are single or double loops.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Callable

from .orders import TotalOrder, _check_ints


@dataclass(frozen=True)
class FiniteBinOp:
    """An n-by-n Cayley table; entries and elements are 1..n."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(map(tuple, self.rows))
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        if n == 0:
            raise ValueError("empty table")
        cells = tuple(chain.from_iterable(rows))
        _check_ints(cells, "table entry")
        values = set(cells)
        if set(map(len, rows)) != {n} or min(values) < 1 or max(values) > n:
            raise ValueError("table is not square over 1..n")

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]) -> "FiniteBinOp":
        """The table of `rows` without the check: only for rows known to be
        n tuples of n ints in 1..n, by construction or by the parser's own
        check.  Equal to, and hashing like, ``FiniteBinOp(rows)``."""
        f = object.__new__(cls)
        object.__setattr__(f, "rows", rows)
        return f

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int, int], int]) -> "FiniteBinOp":
        return cls(tuple(tuple(fn(x, y) for y in range(1, n + 1)) for x in range(1, n + 1)))

    @classmethod
    def projection(cls, n: int, side: str) -> "FiniteBinOp":
        """The left or right projection (first or second argument wins)."""
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        if side == "left":
            return cls.from_function(n, lambda x, y: x)
        return cls.from_function(n, lambda x, y: y)

    @classmethod
    def max_under(cls, t: TotalOrder) -> "FiniteBinOp":
        """The commutative maximum operation of a total ordering.  `t` is
        validated and every cell is x or y, so the table is built unchecked."""
        ranks = t.ranks
        return cls._trusted(
            tuple([
                tuple([x if rx >= ry else y for y, ry in enumerate(ranks, start=1)])
                for x, rx in enumerate(ranks, start=1)
            ])
        )

    @property
    def n(self) -> int:
        return len(self.rows)

    def __call__(self, x: int, y: int) -> int:
        n = len(self.rows)
        if 0 < x <= n and 0 < y <= n:
            return self.rows[x - 1][y - 1]
        raise ValueError(f"element {y if 0 < x <= n else x} is not in 1..{n}")


def is_associative(f: FiniteBinOp) -> bool:
    rows = f.rows
    rng = range(1, f.n + 1)
    for x in rng:
        rx = rows[x - 1]
        for y in rng:
            xy = rx[y - 1]
            ry = rows[y - 1]
            for z in rng:
                if rows[xy - 1][z - 1] != rx[ry[z - 1] - 1]:
                    return False
    return True


def is_idempotent(f: FiniteBinOp) -> bool:
    return all(f.rows[x][x] == x + 1 for x in range(f.n))


def is_quasitrivial(f: FiniteBinOp) -> bool:
    """Every value is one of its two arguments (conservativeness)."""
    for x, row in enumerate(f.rows, start=1):
        for y, v in enumerate(row, start=1):
            if v != x and v != y:
                return False
    return True


def is_commutative(f: FiniteBinOp) -> bool:
    rows = f.rows
    n = f.n
    return all(rows[x][y] == rows[y][x] for x in range(n) for y in range(x + 1, n))


def is_order_preserving(f: FiniteBinOp, t: TotalOrder) -> bool:
    """Monotone in both arguments with respect to t.

    Only adjacent increments are checked; chaining them gives the full
    two-point condition (equivalence exercised in the test suite against
    `order_preserving_by_definition`).
    """
    if f.n != t.n:
        raise ValueError("operation and ordering have different cardinalities")
    elems = t.ordered_elements()
    rank = (0, *t.ranks)  # rank[v] for a table value v in 1..n
    rows = f.rows
    for i in range(f.n - 1):
        a, b = elems[i] - 1, elems[i + 1] - 1
        for va, vb, row_y in zip(rows[a], rows[b], rows):
            if rank[va] > rank[vb] or rank[row_y[a]] > rank[row_y[b]]:
                return False
    return True


def order_preserving_by_definition(f: FiniteBinOp, t: TotalOrder) -> bool:
    """The raw quantifier form: x <= x' and y <= y' imply F(x,y) <= F(x',y')."""
    rank = t.ranks
    n = f.n
    elems = range(1, n + 1)
    for x in elems:
        for xp in elems:
            if rank[x - 1] > rank[xp - 1]:
                continue
            for y in elems:
                for yp in elems:
                    if rank[y - 1] > rank[yp - 1]:
                        continue
                    if rank[f(x, y) - 1] > rank[f(xp, yp) - 1]:
                        return False
    return True


def neutral_elements(f: FiniteBinOp) -> frozenset[int]:
    """All e with F(x,e) = F(e,x) = x everywhere, i.e. row e and column e
    read 1..n (a set: uniqueness for associative quasitrivial operations is
    a theorem, not an assumption)."""
    rows = f.rows
    identity = tuple(range(1, f.n + 1))
    return frozenset(
        e
        for e in identity
        if rows[e - 1] == identity and all(row[e - 1] == x for x, row in zip(identity, rows))
    )


def annihilator_elements(f: FiniteBinOp) -> frozenset[int]:
    """All a with F(x,a) = F(a,x) = a everywhere: row a and column a are all a."""
    rows = f.rows
    return frozenset(
        a
        for a, row in enumerate(rows, start=1)
        if row.count(a) == len(row) and all(r[a - 1] == a for r in rows)
    )


def _value_counts(f: FiniteBinOp) -> list[int]:
    counts = [0] * (f.n + 1)
    for row in f.rows:
        for v in row:
            counts[v] += 1
    return counts


def f_degree(f: FiniteBinOp, z: int) -> int:
    """Number of points other than (z,z) sharing the value F(z,z)."""
    if not 1 <= z <= f.n:
        raise ValueError(f"element {z} is not in 1..{f.n}")
    return _value_counts(f)[f(z, z)] - 1


def degree_sequence(f: FiniteBinOp) -> tuple[int, ...]:
    """All degrees, sorted nondecreasing."""
    counts = _value_counts(f)
    return tuple(sorted(counts[f(z, z)] - 1 for z in range(1, f.n + 1)))


def graphical_quasitriviality_test(f: FiniteBinOp) -> bool:
    """Connectivity form of quasitriviality: idempotent, and every
    off-diagonal point shares its value with one of the two diagonal points
    under it."""
    if not is_idempotent(f):
        return False
    for x, row in enumerate(f.rows, start=1):
        for y, v in enumerate(row, start=1):
            if x != y and v != f(x, x) and v != f(y, y):
                return False
    return True


def rectangle_associativity_test(f: FiniteBinOp) -> bool:
    """Connectivity form of associativity for quasitrivial operations.

    For every axis-aligned rectangle with exactly one vertex on the diagonal,
    at least two of the three remaining vertices must share their value.
    """
    if not is_quasitrivial(f):
        raise ValueError("rectangle test requires a quasitrivial operation")
    n = f.n
    for a in range(1, n):
        for c in range(a + 1, n + 1):
            for b in range(1, n):
                for d in range(b + 1, n + 1):
                    corners = ((a, b), (a, d), (c, b), (c, d))
                    off = [f(x, y) for (x, y) in corners if x != y]
                    if len(off) != 3:
                        continue
                    if off[0] != off[1] and off[0] != off[2] and off[1] != off[2]:
                        return False
    return True
