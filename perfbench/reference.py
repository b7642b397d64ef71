"""Independent reference data and checks for the benchmark's correctness gate.

Nothing here imports the package under test.  Sequence values come from the
factorization itself (an associative quasitrivial operation is a weak ordering
plus one projection side per class of size >= 2), computed with code written
for the benchmark, or from published OEIS terms.
"""

from __future__ import annotations

import math
import random
from functools import lru_cache
from itertools import permutations, product

# Published terms (OEIS A292932 for q, A000670 for p, A048739 shifted for u).
PUBLISHED = {
    ("q", 6): 12166,
    ("q", 7): 146050,
    ("q_e", 6): 7092,
    ("q_a", 6): 7092,
    ("p", 8): 545835,
    ("u", 7): 288,
    ("comm", 6): 720,
}


def _class_weight(size: int) -> int:
    # a singleton class has one table, a larger class a left or right projection
    return 1 if size == 1 else 2


@lru_cache(maxsize=None)
def _q_table(limit: int) -> tuple[int, ...]:
    values = [1]
    for n in range(1, limit + 1):
        values.append(
            sum(math.comb(n, j) * _class_weight(j) * values[n - j] for j in range(1, n + 1))
        )
    return tuple(values)


def q(n: int) -> int:
    """Associative quasitrivial operations on n elements: choose the bottom
    class (j elements, 1 or 2 projections) and recurse on the rest."""
    return _q_table(n)[n]


def ordered_bell(n: int) -> int:
    """Weak orderings of n elements, by the same bottom-class recursion."""
    values = [1]
    for m in range(1, n + 1):
        values.append(sum(math.comb(m, j) * values[m - j] for j in range(1, m + 1)))
    return values[n]


def sample_decomposition(n: int, rng: random.Random) -> tuple[tuple[int, ...], dict[int, str]]:
    """A uniformly random associative quasitrivial operation on {1..n}, as its
    rank vector (rank 1 = bottom class) and the side of each class of size >= 2."""
    remaining = list(range(1, n + 1))
    ranks = [0] * n
    sides: dict[int, str] = {}
    rank = 0
    while remaining:
        m = len(remaining)
        weights = [math.comb(m, j) * _class_weight(j) * q(m - j) for j in range(1, m + 1)]
        size = rng.choices(range(1, m + 1), weights=weights)[0]
        rank += 1
        block = rng.sample(remaining, size)
        for x in block:
            ranks[x - 1] = rank
        if size >= 2:
            sides[rank] = rng.choice(("left", "right"))
        remaining = [x for x in remaining if x not in block]
    return tuple(ranks), sides


def table_from(ranks, sides) -> list[list[int]]:
    """Cayley table: across classes the higher rank wins, inside a class the
    chosen projection."""
    n = len(ranks)
    rows = []
    for x in range(1, n + 1):
        row = []
        for y in range(1, n + 1):
            rx, ry = ranks[x - 1], ranks[y - 1]
            if rx != ry:
                row.append(x if rx > ry else y)
            elif x == y or sides[rx] == "left":
                row.append(x)
            else:
                row.append(y)
        rows.append(row)
    return rows


def is_associative(rows) -> bool:
    n = len(rows)
    return all(
        rows[rows[x][y] - 1][z] == rows[x][rows[y][z] - 1]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def is_quasitrivial(rows) -> bool:
    n = len(rows)
    return all(rows[x][y] in (x + 1, y + 1) for x in range(n) for y in range(n))


def is_idempotent(rows) -> bool:
    return all(rows[x][x] == x + 1 for x in range(len(rows)))


def is_commutative(rows) -> bool:
    n = len(rows)
    return all(rows[x][y] == rows[y][x] for x in range(n) for y in range(n))


def is_order_preserving(rows, elements) -> bool:
    """Nondecreasing in each argument for the ordering listing `elements`
    smallest first (the two-point definition, checked on all pairs)."""
    n = len(rows)
    rank = {x: i for i, x in enumerate(elements)}
    for x in range(1, n + 1):
        for xp in range(1, n + 1):
            if rank[x] >= rank[xp]:
                continue
            for y in range(1, n + 1):
                if rank[rows[x - 1][y - 1]] > rank[rows[xp - 1][y - 1]]:
                    return False
                if rank[rows[y - 1][x - 1]] > rank[rows[y - 1][xp - 1]]:
                    return False
    return True


def monotone_orderings(rows, limit: int):
    """The first `limit` orderings (element listings, smallest first) for which
    the operation is order-preserving, in lexicographic order of the listing,
    and whether there are more."""
    found = []
    for elements in permutations(range(1, len(rows) + 1)):
        if is_order_preserving(rows, elements):
            if len(found) == limit:
                return found, True
            found.append(elements)
    return found, False


def monotonizable_count(n: int) -> int:
    """Associative quasitrivial operations order-preserving for at least one
    total ordering, by trying every ordering against every operation."""
    orders = list(permutations(range(1, n + 1)))
    count = 0
    for ranks, sides in all_decompositions(n):
        rows = table_from(ranks, sides)
        if any(is_order_preserving(rows, t) for t in orders):
            count += 1
    return count


def all_decompositions(n: int):
    """Every (rank vector, sides) pair on {1..n}; small n only."""
    for ranks in product(range(1, n + 1), repeat=n):
        k = max(ranks)
        if set(ranks) != set(range(1, k + 1)):
            continue
        fat = [r for r in range(1, k + 1) if ranks.count(r) >= 2]
        for choice in product(("left", "right"), repeat=len(fat)):
            yield ranks, dict(zip(fat, choice))
