"""Brute-force reference searches over raw table space.

Everything here is deliberately self-contained: tables are flat lists, the
associativity check is the naive triple loop, and properties are checked
straight from their definitions.  No code is shared with the structural
enumeration these searches exist to validate.

Quasitrivial tables are encoded as bit vectors: one bit per ordered pair
(x, y) with x != y, 0 meaning the first argument wins and 1 the second;
iteration is a plain integer counter over all 2^(n(n-1)) masks.
"""

from __future__ import annotations

from itertools import permutations, product

from .errors import CapacityError

QT_SEARCH_MAX_N = 5
IDEMPOTENT_SEARCH_MAX_N = 3
COMMUTATIVE_SEARCH_MAX_N = 5
MONOTONIZABLE_MAX_N = 4


def _check_size(n: int, limit: int, search: str) -> None:
    # n < 1 is a bad request, not a size the search could reach with more room
    if n < 1:
        raise ValueError(f"{search} needs n >= 1, got {n}")
    if n > limit:
        raise CapacityError(f"{search} is limited to n <= {limit}")


def _triples_distinct_first(n: int) -> list[tuple[int, int, int, int]]:
    # Precomputed flat-index arithmetic for F(F(x,y),z) == F(x,F(y,z)).
    # Triples with pairwise distinct x, y, z come first: on quasitrivial
    # tables the repeated-argument cases never fail, so failures hit early.
    entries = []
    rng = range(n)
    for distinct_pass in (True, False):
        for x, y, z in product(rng, rng, rng):
            is_distinct = x != y and y != z and x != z
            if is_distinct == distinct_pass:
                entries.append((x * n + y, z, x * n, y * n + z))
    return entries


def _is_associative_flat(table: list[int], n: int, triples) -> bool:
    for i_xy, z, xn, i_yz in triples:
        if table[table[i_xy] * n + z] != table[xn + table[i_yz]]:
            return False
    return True


def brute_count_quasitrivial_associative(
    n: int, shard_index: int = 0, shard_count: int = 1
) -> int:
    """Count associative tables among all 2^(n(n-1)) quasitrivial tables.

    Every mask is visited exactly once; the visit count is asserted.
    Sharding splits the mask range into contiguous blocks.
    """
    _check_size(n, QT_SEARCH_MAX_N, "raw quasitrivial search")
    if not 0 <= shard_index < shard_count:
        raise ValueError("need 0 <= shard_index < shard_count")
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]
    cells = [(x * n + y, x, y) for x, y in pairs]
    triples = _triples_distinct_first(n)
    total_masks = 1 << len(pairs)
    start = total_masks * shard_index // shard_count
    stop = total_masks * (shard_index + 1) // shard_count

    table = [0] * (n * n)
    for x in range(n):
        table[x * n + x] = x
    count = 0
    visited = 0
    for mask in range(start, stop):
        for bit, (idx, x, y) in enumerate(cells):
            table[idx] = y if (mask >> bit) & 1 else x
        visited += 1
        if _is_associative_flat(table, n, triples):
            count += 1
    assert visited == stop - start
    return count


def _neutral_exists(table: list[int], n: int) -> bool:
    for e in range(n):
        if all(table[x * n + e] == x and table[e * n + x] == x for x in range(n)):
            return True
    return False


def _monotone_natural(table: list[int], n: int) -> bool:
    # Raw definition: x <= x' and y <= y' imply F(x,y) <= F(x',y').
    for x in range(n):
        for xp in range(x, n):
            for y in range(n):
                for yp in range(y, n):
                    if table[x * n + y] > table[xp * n + yp]:
                        return False
    return True


def _quasitrivial_flat(table: list[int], n: int) -> bool:
    return all(table[x * n + y] in (x, y) for x in range(n) for y in range(n))


def _format_counterexample(table: list[int], n: int) -> str:
    lines = [f"cayley {n}"]
    for x in range(n):
        lines.append(" ".join(str(table[x * n + y] + 1) for y in range(n)))
    return "\n".join(lines)


def check_neutral_monotone_implies_quasitrivial(n: int) -> tuple[bool, str | None]:
    """Search all idempotent tables for an associative, naturally monotone
    one with a neutral element that is not quasitrivial.

    Returns (True, None) when no counterexample exists, else (False, table).
    """
    _check_size(n, IDEMPOTENT_SEARCH_MAX_N, "idempotent search")
    off_diagonal = [(x, y) for x in range(n) for y in range(n) if x != y]
    triples = _triples_distinct_first(n)
    table = [0] * (n * n)
    for x in range(n):
        table[x * n + x] = x
    for values in product(range(n), repeat=len(off_diagonal)):
        for (x, y), v in zip(off_diagonal, values):
            table[x * n + y] = v
        if not _is_associative_flat(table, n, triples):
            continue
        if not _monotone_natural(table, n):
            continue
        if not _neutral_exists(table, n):
            continue
        if not _quasitrivial_flat(table, n):
            return False, _format_counterexample(table, n)
    return True, None


def check_commutative_monotone_implies_associative(n: int) -> tuple[bool, str | None]:
    """Search all commutative quasitrivial tables for a naturally monotone one
    that is not associative."""
    _check_size(n, COMMUTATIVE_SEARCH_MAX_N, "commutative quasitrivial search")
    unordered = [(x, y) for x in range(n) for y in range(x + 1, n)]
    triples = _triples_distinct_first(n)
    table = [0] * (n * n)
    for x in range(n):
        table[x * n + x] = x
    for mask in range(1 << len(unordered)):
        for bit, (x, y) in enumerate(unordered):
            v = y if (mask >> bit) & 1 else x
            table[x * n + y] = v
            table[y * n + x] = v
        if not _monotone_natural(table, n):
            continue
        if not _is_associative_flat(table, n, triples):
            return False, _format_counterexample(table, n)
    return True, None


def brute_count_monotonizable(n: int) -> int:
    """Count associative quasitrivial tables that are monotone for at least
    one total ordering, by trying every ordering against every table from the
    structural stream."""
    _check_size(n, MONOTONIZABLE_MAX_N, "monotonizable count")
    from .enumeration import qt_semigroups
    from .magmas import is_order_preserving
    from .orders import TotalOrder

    orders = [TotalOrder.from_ordered_elements(p) for p in permutations(range(1, n + 1))]
    count = 0
    for f in qt_semigroups(n):
        if any(is_order_preserving(f, t) for t in orders):
            count += 1
    return count
