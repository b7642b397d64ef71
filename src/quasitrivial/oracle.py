"""Brute-force reference searches over raw table space.

Everything here is deliberately self-contained: tables are flat lists, the
associativity check is the naive triple loop, and properties are checked
straight from their definitions.  No code is shared with the structural
enumeration these searches exist to validate.

Quasitrivial tables are encoded as bit vectors: one bit per ordered pair
(x, y) with x != y, in row-major order, 0 meaning the first argument wins
and 1 the second.  The associative ones are found depth-first over the
2^(n(n-1)) masks, most significant bit first, cutting a subtree as soon as
a triple of distinct elements fails on the cells decided so far; every mask
is tallied as a visited leaf or inside a cut subtree, and the tally is
asserted.
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


def _triples_by_lowest_bit(n: int, cells) -> list[list[tuple[int, int, int, int]]]:
    # A triple of distinct elements reads only the 6 cells among its three
    # elements.  Bits are decided most significant first, so the lowest bit
    # among those 6 cells is the last of them to be decided: that is where
    # the triple can first be tested.
    bit_of = {(x, y): b for b, (_, x, y) in enumerate(cells)}
    at_bit: list[list[tuple[int, int, int, int]]] = [[] for _ in cells]
    for x, y, z in permutations(range(n), 3):
        lowest = min(bit_of[p] for p in permutations((x, y, z), 2))
        at_bit[lowest].append((x * n + y, z, x * n, y * n + z))
    return at_bit


def _associative_quasitrivial_tables(n: int, start: int, stop: int):
    """Yield every associative quasitrivial table whose mask lies in
    [start, stop), as one flat list rewritten in place between yields.

    Depth-first over the mask bits, most significant first, so each subtree
    is one contiguous block of masks; a subtree outside [start, stop) is
    skipped.  Once a bit is decided, every triple of distinct elements whose
    6 cells are then all decided is tested, and a failure cuts the subtree,
    adding its masks inside the range to `cut`.  Each leaf reached still gets the
    full naive n^3 check, and every mask of the range is accounted for as a
    visited leaf or a cut one.
    """
    # bit b of a mask is cells[b], the b-th row-major off-diagonal pair
    cells = [(x * n + y, x, y) for x in range(n) for y in range(n) if x != y]
    at_bit = _triples_by_lowest_bit(n, cells)
    triples = _triples_distinct_first(n)
    table = [0] * (n * n)
    for x in range(n):
        table[x * n + x] = x
    visited = 0
    cut = 0
    # (free, prefix): the bits above `free` are decided and read `prefix`,
    # whose lowest bit is bit `free` itself (none at the root, free = len(cells))
    stack = [(len(cells), 0)]
    while stack:
        free, prefix = stack.pop()
        lo = prefix << free
        hi = lo + (1 << free)
        if hi <= start or lo >= stop:
            continue
        if free < len(cells):
            idx, x, y = cells[free]
            table[idx] = y if prefix & 1 else x
            if not _is_associative_flat(table, n, at_bit[free]):
                cut += min(hi, stop) - max(lo, start)
                continue
        if free:
            stack.append((free - 1, 2 * prefix + 1))
            stack.append((free - 1, 2 * prefix))
            continue
        visited += 1
        if _is_associative_flat(table, n, triples):
            yield table
    assert visited + cut == stop - start


def brute_count_quasitrivial_associative(
    n: int, shard_index: int = 0, shard_count: int = 1
) -> int:
    """Count associative tables among all 2^(n(n-1)) quasitrivial tables.

    A pruned depth-first search over the mask bits: a subtree is cut as soon
    as a triple of distinct elements fails on its decided cells, each leaf
    reached gets the full n^3 check, and `visited + cut` is asserted to
    equal the shard's mask count.  Sharding splits the mask range into
    contiguous blocks, and a shard's count is the number of associative
    tables in its block.
    """
    _check_size(n, QT_SEARCH_MAX_N, "raw quasitrivial search")
    if not 0 <= shard_index < shard_count:
        raise ValueError("need 0 <= shard_index < shard_count")
    total_masks = 1 << (n * (n - 1))
    start = total_masks * shard_index // shard_count
    stop = total_masks * (shard_index + 1) // shard_count
    return sum(1 for _ in _associative_quasitrivial_tables(n, start, stop))


def _neutral_exists(table: list[int], n: int) -> bool:
    for e in range(n):
        if all(table[x * n + e] == x and table[e * n + x] == x for x in range(n)):
            return True
    return False


def _monotone(table: list[int], n: int, listing) -> bool:
    # Raw definition along the ordering that lists `listing` smallest first:
    # x <= x' and y <= y' imply F(x,y) <= F(x',y').
    rank = [0] * n
    for pos, e in enumerate(listing):
        rank[e] = pos
    for i, x in enumerate(listing):
        for xp in listing[i:]:
            for j, y in enumerate(listing):
                for yp in listing[j:]:
                    if rank[table[x * n + y]] > rank[table[xp * n + yp]]:
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
        if not _monotone(table, n, range(n)):
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
        if not _monotone(table, n, range(n)):
            continue
        if not _is_associative_flat(table, n, triples):
            return False, _format_counterexample(table, n)
    return True, None


def brute_count_monotonizable(n: int) -> int:
    """Count associative quasitrivial tables that are monotone for at least
    one total ordering: every table the raw search finds is tried against
    every ordering by the two-point definition."""
    _check_size(n, MONOTONIZABLE_MAX_N, "monotonizable count")
    listings = list(permutations(range(n)))
    return sum(
        1
        for table in _associative_quasitrivial_tables(n, 0, 1 << (n * (n - 1)))
        if any(_monotone(table, n, listing) for listing in listings)
    )
