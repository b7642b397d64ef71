"""Shared fixtures and helpers: the worked-example Cayley tables used across
the suite, exhaustive table generators, the plain references that the
pruned searches are compared with (the factorial filter for the
monotonizing-order search, the exhaustive mask loop for the oracle's raw
quasitrivial search, and the `Fraction` series division for the scaled-integer
one, and the filtered stream of every ordering for the pruned peakedness
walks), the alternating-sum Stirling numbers, random idempotent tables, total
orderings as weak ones and dual single-peakedness by definition, the published
rows of the q, u and v families, and one session-wide run of each
`verify full` check.

The X4 and X6 tables are transcriptions of known contour-plot examples; each
fixture's defining properties (associativity, quasitriviality, degrees,
ordering, monotonicity) are asserted in the test modules, so a transcription
slip cannot pass silently.
"""

import math
import time
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from quasitrivial import (
    FiniteBinOp,
    KimuraDecomposition,
    TotalOrder,
    WeakOrder,
    is_order_preserving,
    is_weakly_single_peaked,
    verify,
)
from quasitrivial.enumeration import total_orders, weak_orders
from quasitrivial.formats import parse_cayley
from quasitrivial.oracle import _is_associative_flat, _triples_distinct_first


def all_tables(n):
    for values in product(range(1, n + 1), repeat=n * n):
        yield FiniteBinOp(tuple(values[i * n : (i + 1) * n] for i in range(n)))


def all_quasitrivial_tables(n):
    pairs = [(x, y) for x in range(1, n + 1) for y in range(1, n + 1) if x != y]
    for bits in product((0, 1), repeat=len(pairs)):
        rows = [[x for _ in range(n)] for x in range(1, n + 1)]
        for (x, y), b in zip(pairs, bits):
            rows[x - 1][y - 1] = y if b else x
        yield FiniteBinOp(tuple(tuple(r) for r in rows))


def all_commutative_quasitrivial_tables(n):
    pairs = [(x, y) for x in range(1, n + 1) for y in range(x + 1, n + 1)]
    for bits in product((0, 1), repeat=len(pairs)):
        rows = [[x for _ in range(n)] for x in range(1, n + 1)]
        for (x, y), b in zip(pairs, bits):
            v = y if b else x
            rows[x - 1][y - 1] = v
            rows[y - 1][x - 1] = v
        yield FiniteBinOp(tuple(tuple(r) for r in rows))


def monotonizing_orders_by_filter(f):
    """Every ordering, in lexicographic order of the element listing, kept
    when f is order-preserving for it."""
    for elems in permutations(range(1, f.n + 1)):
        t = TotalOrder.from_ordered_elements(elems)
        if is_order_preserving(f, t):
            yield t


def peaked_by_filter(family, n):
    """The orderings of the family's base stream, every weak or every total
    ordering of 1..n in stream order, kept when weakly single-peaked for
    1 < ... < n: each one built and tested."""
    base = total_orders(n) if family == "single-peaked-total-orders" else weak_orders(n)
    reference = TotalOrder.natural(n)
    return [o for o in base if is_weakly_single_peaked(reference, o)]


def sampled_decomposition(n, rng, thin=False):
    """A random factorization on {1..n}, not uniform: class sizes drawn bottom
    first (at most two above the bottom class when `thin`, so some ordering
    makes the table order-preserving), the elements shuffled into them, and a
    random side for each class of two or more."""
    elements = list(range(1, n + 1))
    rng.shuffle(elements)
    ranks = [0] * n
    sides = {}
    rank = 0
    while elements:
        size = rng.randint(1, min(2, len(elements)) if thin and rank else len(elements))
        rank += 1
        for x in elements[:size]:
            ranks[x - 1] = rank
        if size >= 2:
            sides[rank] = rng.choice(("left", "right"))
        del elements[:size]
    return KimuraDecomposition.make(WeakOrder(tuple(ranks)), sides)


def qt_associative_count_by_masks(n, shard_index=0, shard_count=1):
    """The associative tables among the masks of one shard, every mask
    decoded and checked in turn (bit b is the b-th row-major off-diagonal
    pair, 0 meaning the first argument wins)."""
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


def series_coefficient_by_fractions(numerator, denominator, n):
    """Coefficient n of numerator/denominator as a power series, every
    coefficient solved in turn as a `Fraction` from the recurrence the
    denominator induces."""
    if denominator[0] == 0:
        raise ValueError("denominator needs a nonzero constant term")
    seq = []
    for m in range(n + 1):
        acc = Fraction(numerator[m] if m < len(numerator) else 0)
        for j in range(1, min(m, len(denominator) - 1) + 1):
            acc -= denominator[j] * seq[m - j]
        seq.append(acc / denominator[0])
    return seq[n]


def stirling2_explicit(n, k):
    """S(n, k) by the alternating sum (1/k!) sum (-1)^(k-i) C(k,i) i^n, the
    division asserted exact."""
    if not 0 <= k <= n:
        raise ValueError(f"stirling2 needs 0 <= k <= n, got ({n}, {k})")
    total = sum((-1) ** (k - i) * math.comb(k, i) * i**n for i in range(k + 1))
    quotient, remainder = divmod(total, math.factorial(k))
    assert remainder == 0, (n, k)
    return quotient


def exp_bounds(x, terms=60):
    """Fractions lo <= e^x <= hi for 0 <= x <= 1: the Taylor sum S of degree
    `terms`, and S plus 3 x^(terms+1) / (terms+1)!, which exceeds the tail."""
    total, term = Fraction(0), Fraction(1)
    for k in range(terms + 1):
        total += term
        term = term * x / (k + 1)
    return total, total + 3 * x ** (terms + 1) / math.factorial(terms + 1)


def singularity_bracket(steps=100):
    """Fractions a < b bracketing rho, the zero of z + 3 - 2e^z in [1/2, 3/5]
    (the pole of q's egf 1/(z + 3 - 2e^z)), by `steps` exact bisection steps
    with e^z bounded on both sides by `exp_bounds`."""
    a, b = Fraction(1, 2), Fraction(3, 5)
    for _ in range(steps):
        mid = (a + b) / 2
        lo, hi = exp_bounds(mid)
        if mid + 3 - 2 * hi > 0:
            a = mid
        else:
            assert mid + 3 - 2 * lo < 0, "bisection cannot decide the sign"
            b = mid
    return a, b


def random_idempotent_table(n, rng):
    """A uniform random table with the diagonal fixed at F(x,x) = x."""
    rows = []
    for x in range(1, n + 1):
        row = [rng.randint(1, n) for _ in range(n)]
        row[x - 1] = x
        rows.append(tuple(row))
    return FiniteBinOp(tuple(rows))


def as_weak(t):
    """The total ordering t as a weak ordering with singleton classes."""
    return WeakOrder(t.ranks)


def is_dual_single_peaked(t, p):
    """By definition: of any three elements, the t-middle one is never ranked
    first by p."""
    rank = p.ranks
    return not any(
        rank[b - 1] < rank[a - 1] and rank[b - 1] < rank[c - 1]
        for a, b, c in combinations(t.ordered_elements(), 3)
    )


# Published rows of the q, u and v families for n = 0..6 (cf. the OEIS ids in
# `counting.SEQUENCES`).
TABLE_Q = {
    "q": [1, 1, 4, 20, 138, 1182, 12166],
    "q_e": [0, 1, 2, 12, 80, 690, 7092],
    "q_a": [0, 1, 2, 12, 80, 690, 7092],
    "q_ea": [0, 0, 2, 6, 48, 400, 4140],
}
TABLE_U = {
    "u": [0, 1, 3, 8, 20, 49, 119],
    "u_e": [0, 1, 2, 5, 12, 29, 70],
    "u_a": [0, 0, 2, 6, 16, 40, 98],
    "u_ea": [0, 0, 2, 4, 10, 24, 58],
}
TABLE_V = {
    "v": [0, 1, 4, 12, 34, 94, 258],
    "v_e": [0, 1, 2, 6, 16, 44, 120],
    "v_a": [0, 0, 2, 8, 24, 68, 188],
    "v_ea": [0, 0, 2, 4, 12, 32, 88],
}


# Commutative, associative, quasitrivial, monotone for the natural ordering
# of X6; equals the maximum under 4 < 5 < 3 < 2 < 6 < 1.
X6_COMMUTATIVE = """\
cayley 6
1 1 1 1 1 1
1 2 2 2 2 6
1 2 3 3 3 6
1 2 3 4 5 6
1 2 3 5 5 6
1 6 6 6 6 6
"""

# Associative, idempotent, commutative, monotone, annihilator 2 -- but NOT
# quasitrivial (every mixed pair maps to 2).
X3_NOT_QUASITRIVIAL = """\
cayley 3
1 2 2
2 2 2
2 2 3
"""

# Associative and quasitrivial but monotone for no total ordering at all:
# one element below a three-element class (left projection inside).
X4_NEVER_MONOTONE = """\
cayley 4
1 1 1 1
1 2 3 4
3 3 3 3
4 4 4 4
"""

# The worked X4 example: ordering 2 < 1 ~ 3 < 4 with the right projection
# inside {1, 3}; neutral 2, annihilator 4, degrees (0, 3, 3, 6).
X4_PEAKED = """\
cayley 4
1 1 3 4
1 2 3 4
1 3 3 4
4 4 4 4
"""

# The worked X4 counterexample: ordering 1 < 4 < 2 ~ 3 (right projection
# inside {2, 3}); not monotone for the natural ordering, profile shows all
# three forbidden patterns.
X4_UNPEAKED = """\
cayley 4
1 2 3 4
2 2 3 2
3 2 3 3
4 2 3 4
"""


@pytest.fixture
def x6_commutative() -> FiniteBinOp:
    return parse_cayley(X6_COMMUTATIVE)


@pytest.fixture
def x3_not_quasitrivial() -> FiniteBinOp:
    return parse_cayley(X3_NOT_QUASITRIVIAL)


@pytest.fixture
def x4_never_monotone() -> FiniteBinOp:
    return parse_cayley(X4_NEVER_MONOTONE)


@pytest.fixture
def x4_peaked() -> FiniteBinOp:
    return parse_cayley(X4_PEAKED)


@pytest.fixture
def x4_unpeaked() -> FiniteBinOp:
    return parse_cayley(X4_UNPEAKED)


@pytest.fixture
def x6_single_peaked_max() -> FiniteBinOp:
    # max under 4 < 3 < 5 < 2 < 1 < 6, the single-peaked showcase ordering
    return FiniteBinOp.max_under(TotalOrder.from_ordered_elements([4, 3, 5, 2, 1, 6]))


# The self-check registry as the package defines it, taken before any test
# can replace an entry.
FULL_CHECKS = dict(verify.FULL_CHECKS)


@pytest.fixture(scope="session")
def verify_runs():
    """`verify_runs(name)` is (detail, seconds): what the `verify full` check
    `name` returned, or the `CheckFailure` it raised, and how long it took.
    Each check runs on first use, whatever the test order, and never again
    in the session."""
    done = {}

    def run(name):
        if name not in done:
            start = time.perf_counter()
            try:
                detail = FULL_CHECKS[name]()
            except verify.CheckFailure as exc:
                detail = exc
            done[name] = (detail, time.perf_counter() - start)
        return done[name]

    return run
