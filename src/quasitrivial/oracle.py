"""Brute-force reference searches over raw table space.

Everything here is deliberately self-contained: tables are flat lists, the
associativity check is the naive triple loop, and properties are checked
straight from their definitions.  No code is shared with the structural
enumeration these searches exist to validate.

Every search enumerates its tables with one depth-first walk, `_tables`,
over the cells off the diagonal F(x, x) = x, cutting a subtree as soon as a
triple fails on the cells decided so far; each table of the range is
tallied as a visited leaf or inside a cut subtree, and the tally is checked.
The quasitrivial search walks masks, one bit per ordered pair (x, y) with
x != y, row-major, 0 meaning the first argument wins, most significant bit
first; the implication searches walk every candidate table, uncut.
"""

from __future__ import annotations

from itertools import permutations, product

from .errors import CapacityError, ConsistencyError

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


def _tables(n: int, cells, cuts=None, start: int = 0, stop: int | None = None):
    """Yield tables with F(x, x) = x, one flat list rewritten in place.

    At depth d the positions `cells[d][0]` take each value of `cells[d][1]`
    in turn.  A table's index reads its choices as a mixed-radix number,
    `cells[0]` most significant, so each subtree is a contiguous block and a
    block outside [start, stop) is skipped.  Once cell d is set, a failing
    triple of `cuts[d]` cuts the subtree, adding its indices in the range to
    `cut`; `visited + cut` must cover the range, else ConsistencyError.
    """
    depth = len(cells)
    size = [1] * (depth + 1)  # size[d]: the indices below a node of depth d
    for d in range(depth - 1, -1, -1):
        size[d] = size[d + 1] * len(cells[d][1])
    stop = size[0] if stop is None else stop
    # nodes[d]: a node of depth d sets the positions of cell d - 1, tests
    # their cuts, spans size[d] indices and has children (depth, offset of
    # the block, value of cell d), last value first so they pop in order
    cuts = [()] + list(cuts or [()] * depth)
    nodes = []
    for d in range(depth + 1):
        positions = cells[d - 1][0] if d else ()
        children = [(d + 1, i * size[d + 1], v)
                    for i, v in enumerate(cells[d][1])] if d < depth else []
        nodes.append((positions, cuts[d], size[d], children[::-1]))
    table = [0] * (n * n)
    for x in range(n):
        table[x * n + x] = x
    visited = cut = 0
    stack = [(0, 0, None)]  # (depth, first index of the block, value of the last cell set)
    pop, push = stack.pop, stack.append
    while stack:
        d, lo, value = pop()
        positions, tests, span, children = nodes[d]
        if lo >= stop or lo + span <= start:
            continue
        for p in positions:
            table[p] = value
        if tests and not _is_associative_flat(table, n, tests):
            cut += min(lo + span, stop) - max(lo, start)
            continue
        if children:
            for e, offset, v in children:
                push((e, lo + offset, v))
            continue
        visited += 1
        yield table
    if visited + cut != stop - start:
        raise ConsistencyError(f"{visited} visited and {cut} cut tables, not {stop - start}")


def _associative_quasitrivial_tables(n: int, start: int, stop: int):
    """Yield every associative quasitrivial table whose mask lies in
    [start, stop); each leaf the walk reaches gets the full n^3 check."""
    # mask bit b is the b-th row-major off-diagonal pair, the second argument
    # winning when it is set; cell d is bit n(n-1) - 1 - d, top bit first
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y][::-1]
    depth_of = {p: d for d, p in enumerate(pairs)}
    # a triple of distinct elements reads only the 6 cells among them, so it
    # is tested once the last of those is decided
    cuts: list[list[tuple[int, int, int, int]]] = [[] for _ in pairs]
    for x, y, z in permutations(range(n), 3):
        last = max(depth_of[p] for p in permutations((x, y, z), 2))
        cuts[last].append((x * n + y, z, x * n, y * n + z))
    triples = _triples_distinct_first(n)
    cells = [((x * n + y,), (x, y)) for x, y in pairs]
    for table in _tables(n, cells, cuts, start, stop):
        if _is_associative_flat(table, n, triples):
            yield table


def brute_count_quasitrivial_associative(
    n: int, shard_index: int = 0, shard_count: int = 1
) -> int:
    """Count associative tables among all 2^(n(n-1)) quasitrivial tables.

    The pruned walk over the mask bits: each leaf reached gets the full n^3
    check, and `visited + cut` is checked against the shard's mask count.
    Sharding splits the mask range into contiguous blocks, and a shard's
    count is the number of associative tables in its block.
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
    triples = _triples_distinct_first(n)
    cells = [((x * n + y,), range(n)) for x in range(n) for y in range(n) if x != y]
    for table in _tables(n, cells):
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
    # one cell per unordered pair, the first pair last: the least significant
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)][::-1]
    triples = _triples_distinct_first(n)
    for table in _tables(n, [((x * n + y, y * n + x), (x, y)) for x, y in pairs]):
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
