"""Exact integer sequences: closed forms, recurrences, generating functions.

Every sequence with several derivations exposes one function per derivation
(`q_closed`, `q_recurrence`, `q_egf`, `q_appendix`, ...); the derivations are
independent code paths and the test suite requires them to agree exactly.
All arithmetic is exact and nothing here rounds.  Power series are divided in
integers scaled by a caller-given factor (n! for an egf), and every division
is asserted exact.

`SEQUENCES` is the one place that lists a sequence's routes: its derivations,
its direct enumeration, its brute-force search, the first index of each, the
smallest n the sequence is defined for, and its published terms.  `count`,
`verify` and the tests read it instead of keeping their own lists, and
`route_values` is the one loop that runs a sequence's routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps
from typing import Callable, Collection, Iterator

from . import oracle
from .enumeration import FamilySpec, count
from .errors import CapacityError, ConsistencyError


def _from_zero(fn: Callable[[int], int]) -> Callable[[int], int]:
    """A derivation that raises ValueError for n < 0, where no sequence has a
    term, instead of returning whatever its formula gives there."""

    @wraps(fn)
    def checked(n: int) -> int:
        if n < 0:
            raise ValueError(f"{fn.__name__} needs n >= 0, got {n}")
        return fn(n)

    return checked


# Rows 0, 1, ... of the Stirling triangle computed so far; row m holds
# S(m, 0) .. S(m, m).  Grown bottom-up, so no index is too deep for the stack.
_STIRLING2_ROWS: list[list[int]] = [[1]]


def _stirling2(n: int, k: int) -> int:
    rows = _STIRLING2_ROWS
    while len(rows) <= n:
        prev = rows[-1]
        m = len(rows)
        rows.append([0] + [j * (prev[j] if j < m else 0) + prev[j - 1] for j in range(1, m + 1)])
    return rows[n][k]


def _stirling2_rows(n: int) -> list[list[int]]:
    """Rows 0..n (at least) of the Stirling triangle."""
    _stirling2(n, 0)
    return _STIRLING2_ROWS


def stirling2(n: int, k: int) -> int:
    """Partitions of an n-set into k nonempty blocks, by the standard
    recurrence."""
    if not 0 <= k <= n:
        raise ValueError(f"stirling2 needs 0 <= k <= n, got ({n}, {k})")
    return _stirling2(n, k)


def _series_coefficient(
    numerator: tuple[int, ...], denominator: tuple[int, ...] | list[Fraction], n: int, scale: int
) -> int:
    """`scale` times coefficient n of numerator/denominator as a power series,
    solved coefficient by coefficient from the recurrence the denominator
    induces.

    The work is in integers: the denominator is brought over the common
    denominator of its coefficients, and every scaled coefficient up to n must
    be an integer; a division that leaves a remainder raises ConsistencyError.
    """
    if n < 0:
        raise ValueError(f"a power series has no coefficient {n}")
    if denominator[0] == 0:
        raise ValueError("denominator needs a nonzero constant term")
    common = math.lcm(*(Fraction(d).denominator for d in denominator))
    d0, *rest = [int(d * common) for d in denominator]
    top = scale * common
    seq: list[int] = []
    for m in range(n + 1):
        acc = top * numerator[m] if m < len(numerator) else 0
        acc -= sum(d * c for d, c in zip(rest, reversed(seq)))
        value, remainder = divmod(acc, d0)
        if remainder:
            raise ConsistencyError(f"coefficient {m} times {scale} is not an integer")
        seq.append(value)
    return seq[n]


def rational_gf_term(numerator: tuple[int, ...], denominator: tuple[int, ...], n: int) -> int:
    """Coefficient n of numerator/denominator as an ordinary power series,
    with the published coefficients; the result is asserted an integer."""
    return _series_coefficient(numerator, denominator, n, 1)


def _egf_term(denominator: list[Fraction], n: int) -> int:
    """n! times coefficient n of 1/denominator, asserted an integer."""
    return _series_coefficient((1,), denominator, n, math.factorial(n))


def _binomial_row(n: int) -> list[int]:
    """C(n, 0), ..., C(n, n), each from the last by a running product."""
    row = [1]
    for j in range(n):
        row.append(row[-1] * (n - j) // (j + 1))
    return row


# --- ordered Bell numbers: weak orderings / ordered partitions ---------------


@_from_zero
def ordered_bell_formula(n: int) -> int:
    """p(n) = sum_k S(n,k) k!."""
    return sum(stirling2(n, k) * math.factorial(k) for k in range(n + 1))


@_from_zero
def ordered_bell(n: int) -> int:
    """p(n) by the binomial recurrence p(m) = sum_{k<m} C(m,k) p(k), p(0) = 1,
    with each row of Pascal's triangle added up from the last."""
    terms, row = [1], [1]
    for _ in range(n):
        row = [1, *(a + b for a, b in zip(row, row[1:])), 1]
        terms.append(sum(c * t for c, t in zip(row, terms)))
    return terms[n]


def _series_two_minus_exp(order: int) -> list[Fraction]:
    return [Fraction(1)] + [Fraction(-1, math.factorial(k)) for k in range(1, order)]


@_from_zero
def ordered_bell_egf(n: int) -> int:
    """p(n) = n! times coefficient n of 1 / (2 - e^z)."""
    return _egf_term(_series_two_minus_exp(n + 1), n)


# --- q: associative quasitrivial operations ----------------------------------


@_from_zero
def q_closed(n: int) -> int:
    """The double-sum closed form
    q(n) = sum_i 2^i sum_k (-1)^k C(n,k) S(n-k,i) (i+k)!."""
    signed = [(-1) ** k * c for k, c in enumerate(_binomial_row(n))]
    factorial = [math.factorial(k) for k in range(n + 1)]
    stirling = _stirling2_rows(n)
    total = 0
    for i in range(n + 1):
        inner = 0
        for k in range(n - i + 1):
            inner += signed[k] * stirling[n - k][i] * factorial[i + k]
        total += inner << i
    return total if n else 1


# q(0), q(1), ... computed so far by `q_recurrence`; q_neutral and q_both
# reuse them.  _Q_PASCAL is row len(_Q_TERMS) of Pascal's triangle, the
# binomials C(m+1, k) of the step that appends q(m+1).
_Q_TERMS: list[int] = [1]
_Q_PASCAL: list[int] = [1, 1]


@_from_zero
def q_recurrence(n: int) -> int:
    """q(n+1) = (n+1) q(n) + 2 sum_{k<n} C(n+1,k) q(k), q(0) = 1."""
    terms, row = _Q_TERMS, _Q_PASCAL
    while len(terms) <= n:
        m = len(terms) - 1
        value = (m + 1) * terms[m] + 2 * sum(c * t for c, t in zip(row, terms[:m]))
        next_row = [1, *(a + b for a, b in zip(row, row[1:])), 1]
        terms.append(value)
        row[:] = next_row
    return terms[n]


def _series_q_denominator(order: int) -> list[Fraction]:
    # z + 3 - 2 e^z, coefficient by coefficient (at least through z^1)
    return [Fraction(1), Fraction(-1)] + [Fraction(-2, math.factorial(k)) for k in range(2, order)]


@_from_zero
def q_egf(n: int) -> int:
    """q(n) = n! times coefficient n of 1 / (z + 3 - 2 e^z)."""
    return _egf_term(_series_q_denominator(n + 1), n)


@_from_zero
def q_appendix(n: int) -> int:
    """The permuted double sum
    q(n) = sum_i (-2)^i sum_{k>=i} (-1)^k C(n,k-i) S(n-k+i,i) k!."""
    if n == 0:
        return 1
    binomial = _binomial_row(n)
    signed_factorial = [(-1) ** k * math.factorial(k) for k in range(n + 1)]
    stirling = _stirling2_rows(n)
    total = 0
    for i in range(n + 1):
        inner = 0
        for k in range(i, n + 1):
            inner += signed_factorial[k] * binomial[k - i] * stirling[n - k + i][i]
        total += (-1) ** i * (inner << i)
    return total


@_from_zero
def q_neutral(n: int) -> int:
    """Operations with a neutral element: n q(n-1); zero at n = 0."""
    return n * q_recurrence(n - 1) if n >= 1 else 0


@_from_zero
def q_annihilator(n: int) -> int:
    """Operations with an annihilator: also n q(n-1)."""
    return q_neutral(n)


@_from_zero
def q_both(n: int) -> int:
    """Operations with distinct neutral and annihilator: n(n-1) q(n-2)."""
    return n * (n - 1) * q_recurrence(n - 2) if n >= 2 else 0


# --- u: weakly single-peaked weak orderings ----------------------------------

U_GF = ((0, 1), (1, -3, 1, 1))  # z / (z^3 + z^2 - 3z + 1)
U_E_GF = ((0, -1), (-1, 2, 1))  # -z / (z^2 + 2z - 1)
V_GF = ((0, 1, 1), (1, -3, 0, 2))  # z(z+1) / (2z^3 - 3z + 1)
V_E_GF = ((0, -1), (-1, 2, 2))  # -z / (2z^2 + 2z - 1)


def _second_order(n: int, c1: int, c0: int, const: int, s0: int, s1: int) -> int:
    if n == 0:
        return s0
    a, b = s0, s1
    for _ in range(n - 1):
        a, b = b, c1 * b + c0 * a + const
    return b


def _exact_shifted_div(total: int, shift: int, divisor: int, label: str) -> int:
    q, r = divmod(total - shift, divisor)
    if r:
        raise ConsistencyError(f"{label}: {total} - {shift} not divisible by {divisor}")
    return q


@_from_zero
def u_recurrence(n: int) -> int:
    """u(n+2) = 2u(n+1) + u(n) + 1, u(0) = 0, u(1) = 1."""
    return _second_order(n, 2, 1, 1, 0, 1)


@_from_zero
def u_closed(n: int) -> int:
    """2u(n) + 1 = sum_k C(n+1, 2k) 2^k (the integer form of the radical
    expression)."""
    total = sum(c << k for k, c in enumerate(_binomial_row(n + 1)[::2]))
    return _exact_shifted_div(total, 1, 2, "u closed form")


@_from_zero
def u_gf(n: int) -> int:
    return rational_gf_term(*U_GF, n)


@_from_zero
def u_e_recurrence(n: int) -> int:
    """u_e(n+2) = 2u_e(n+1) + u_e(n): the Pell numbers."""
    return _second_order(n, 2, 1, 0, 0, 1)


@_from_zero
def u_e_closed(n: int) -> int:
    """u_e(n) = sum_k C(n, 2k+1) 2^k."""
    return sum(c << k for k, c in enumerate(_binomial_row(n)[1::2]))


@_from_zero
def u_e_gf(n: int) -> int:
    return rational_gf_term(*U_E_GF, n)


@_from_zero
def u_a(n: int) -> int:
    """u_a(n) = 2 u(n-1); zero at n = 0."""
    return 2 * u_recurrence(n - 1) if n >= 1 else 0


@_from_zero
def u_ea(n: int) -> int:
    """u_ea(n) = 2 u_e(n-1); zero at n = 0."""
    return 2 * u_e_recurrence(n - 1) if n >= 1 else 0


# --- v: associative quasitrivial order-preserving operations -----------------


@_from_zero
def v_recurrence(n: int) -> int:
    """v(n+2) = 2v(n+1) + 2v(n) + 2, v(0) = 0, v(1) = 1."""
    return _second_order(n, 2, 2, 2, 0, 1)


@_from_zero
def v_closed(n: int) -> int:
    """3v(n) + 2 = sum_k 3^k (2 C(n,2k) + 3 C(n,2k+1))."""
    row = _binomial_row(n)
    total, power = 0, 1
    for even, odd in zip(row[::2], row[1::2] + [0]):
        total += power * (2 * even + 3 * odd)
        power *= 3
    return _exact_shifted_div(total, 2, 3, "v closed form")


@_from_zero
def v_gf(n: int) -> int:
    return rational_gf_term(*V_GF, n)


@_from_zero
def v_e_recurrence(n: int) -> int:
    """v_e(n+2) = 2v_e(n+1) + 2v_e(n), v_e(0) = 0, v_e(1) = 1."""
    return _second_order(n, 2, 2, 0, 0, 1)


@_from_zero
def v_e_closed(n: int) -> int:
    """v_e(n) = sum_k C(n, 2k+1) 3^k."""
    total, power = 0, 1
    for odd in _binomial_row(n)[1::2]:
        total += power * odd
        power *= 3
    return total


@_from_zero
def v_e_gf(n: int) -> int:
    return rational_gf_term(*V_E_GF, n)


@_from_zero
def v_a(n: int) -> int:
    """v_a(n) = 2 v(n-1); zero at n = 0."""
    return 2 * v_recurrence(n - 1) if n >= 1 else 0


@_from_zero
def v_ea(n: int) -> int:
    """v_ea(n) = 2 v_e(n-1); zero at n = 0."""
    return 2 * v_e_recurrence(n - 1) if n >= 1 else 0


# --- direct theorem counts ----------------------------------------------------


def single_peaked_count(n: int) -> int:
    """Single-peaked total orderings (equivalently: commutative associative
    quasitrivial order-preserving operations): 2^(n-1)."""
    if n < 1:
        raise ValueError("single_peaked_count needs n >= 1")
    return 2 ** (n - 1)


def commutative_count(n: int) -> int:
    """Commutative associative quasitrivial operations: n!."""
    if n < 1:
        raise ValueError("commutative_count needs n >= 1")
    return math.factorial(n)


# --- the sequence registry -----------------------------------------------------


@dataclass(frozen=True)
class Sequence:
    """One counted sequence, every route to its terms, and its published terms.

    `derivations` maps a method name to a pure-arithmetic function; the first
    one is the default.  The enumeration route counts
    `FamilySpec(family, n, filters)` from `enumeration_start` on: below it the
    term is a convention with no population behind it.  `bruteforce`, if set,
    is the first index of the brute-force route and the name of the `oracle`
    search behind it, called with n alone; a name, looked up per call, so a
    wrapper installed in `oracle` after import is the one called.  Every route
    is valid only for n >= `start`.  `published` maps n to a published term
    (`oeis` names the source) that `verify` holds the default derivation to.

    A row states no verify ranges: each `verify` check runs its routes of
    every row up to one n of its own, and `route_values` skips a route that
    cannot reach that far.
    """

    derivations: dict[str, Callable[[int], int]]
    family: str
    filters: frozenset[str] = frozenset()
    enumeration_start: int = 1
    bruteforce: tuple[int, str] | None = None
    oeis: str | None = None
    start: int = 0
    published: dict[int, int] = field(default_factory=dict)


_MONOTONE = "monotone-for-reference"

# OEIS ids marked "shifted" start one index earlier than our n.  The n = 0
# terms (except p) are conventions; u_a(1) and v_a(1) are pinned to 0 by their
# shift formulas (2 u(0) resp. 2 v(0)) even though the one object on a
# singleton set does have a unique maximum / an annihilator, so their
# enumerations start at 2.
SEQUENCES: dict[str, Sequence] = {
    "q": Sequence(
        {"closed": q_closed, "recurrence": q_recurrence, "egf": q_egf, "appendix": q_appendix},
        "qt-semigroups", bruteforce=(1, "brute_count_quasitrivial_associative"),
        oeis="A292932", published={6: 12166},
    ),
    "q_e": Sequence({"closed": q_neutral}, "qt-semigroups", frozenset({"neutral"}),
                    oeis="A292933", published={6: 7092}),
    "q_a": Sequence({"closed": q_annihilator}, "qt-semigroups", frozenset({"annihilator"}),
                    oeis="A292933", published={6: 7092}),
    "q_ea": Sequence({"closed": q_both}, "qt-semigroups",
                     frozenset({"neutral-and-annihilator-distinct"}), oeis="A292934",
                     published={6: 4140}),
    "p": Sequence(
        {"closed": ordered_bell_formula, "recurrence": ordered_bell, "egf": ordered_bell_egf},
        "weak-orders", enumeration_start=0, oeis="A000670", published={6: 4683},
    ),
    "u": Sequence({"closed": u_closed, "recurrence": u_recurrence, "gf": u_gf},
                  "weakly-single-peaked-weak-orders", oeis="A048739 (shifted)",
                  published={6: 119}),
    "u_e": Sequence({"closed": u_e_closed, "recurrence": u_e_recurrence, "gf": u_e_gf},
                    "weakly-single-peaked-weak-orders", frozenset({"unique-min"}),
                    oeis="A000129", published={6: 70}),
    "u_a": Sequence({"closed": u_a}, "weakly-single-peaked-weak-orders",
                    frozenset({"unique-max"}), enumeration_start=2, oeis="A293004",
                    published={6: 98}),
    "u_ea": Sequence({"closed": u_ea}, "weakly-single-peaked-weak-orders",
                     frozenset({"unique-min-and-max-distinct"}), oeis="A163271 (shifted)",
                     published={6: 58}),
    "v": Sequence({"closed": v_closed, "recurrence": v_recurrence, "gf": v_gf},
                  "qt-semigroups", frozenset({_MONOTONE}), oeis="A293005",
                  published={6: 258}),
    "v_e": Sequence({"closed": v_e_closed, "recurrence": v_e_recurrence, "gf": v_e_gf},
                    "qt-semigroups", frozenset({_MONOTONE, "neutral"}), oeis="A002605",
                    published={6: 120}),
    "v_a": Sequence({"closed": v_a}, "qt-semigroups", frozenset({_MONOTONE, "annihilator"}),
                    enumeration_start=2, oeis="A293006", published={6: 188}),
    "v_ea": Sequence({"closed": v_ea}, "qt-semigroups",
                     frozenset({_MONOTONE, "neutral-and-annihilator-distinct"}),
                     oeis="A293007", published={6: 88}),
    "sp": Sequence({"closed": single_peaked_count}, "single-peaked-total-orders", start=1,
                   published={6: 32}),
    "comm": Sequence({"closed": commutative_count}, "qt-semigroups",
                     frozenset({"commutative"}), start=1, published={6: 720}),
}

# The derivation dicts themselves, so that replacing an entry here replaces
# it for every caller.
METHODS: dict[str, dict[str, Callable[[int], int]]] = {
    name: seq.derivations for name, seq in SEQUENCES.items()
}


def count_by_enumeration(name: str, n: int) -> int:
    """The sequence value by direct generation and filtering.

    Convention-valued terms (below the sequence's `enumeration_start`) raise
    ValueError: the definitional count would disagree with the published
    convention there.  That is no size limit, so it is not a CapacityError.
    """
    seq = SEQUENCES[name]
    if n < seq.enumeration_start:
        raise ValueError(f"{name}({n}) is a convention, not an enumeration")
    return count(FamilySpec(seq.family, n, seq.filters))


def routes(name: str, n: int) -> dict[str, tuple[int, Callable[[int], int]]]:
    """Every route to name(n) with its first index, in the order
    `count --method all` runs them: the derivations, then `enumerate`, then
    `bruteforce`.

    This is the one domain check: an unknown name or an n below the
    sequence's `start` raises ValueError.  Routes are looked up here, per
    call, so a replaced derivation or oracle function is the one called.
    """
    try:
        seq = SEQUENCES[name]
    except KeyError:
        raise ValueError(f"unknown sequence {name!r}; choices: {', '.join(SEQUENCES)}") from None
    if n < seq.start:
        raise ValueError(f"{name}(n) is defined for n >= {seq.start}, got {n}")
    found = {method: (seq.start, fn) for method, fn in seq.derivations.items()}
    found["enumerate"] = (seq.enumeration_start, lambda m: count_by_enumeration(name, m))
    if seq.bruteforce is not None:
        first, search = seq.bruteforce
        found["bruteforce"] = (first, lambda m: getattr(oracle, search)(m))
    return found


def route_values(
    name: str, n: int, methods: Collection[str] | None = None
) -> Iterator[tuple[str, int]]:
    """(method, name(n)) for each route in `routes` order, or for each of
    `methods` only, computed as the caller iterates.

    This is the one skip rule for running several routes: a route is skipped
    below its first index, or when it raises CapacityError (past what it can
    search).  Any other error propagates.
    """
    for method, (first, fn) in routes(name, n).items():
        if n < first or (methods is not None and method not in methods):
            continue
        try:
            value = fn(n)
        except CapacityError:
            continue
        yield method, value


def route(name: str, n: int, method: str | None = None) -> tuple[str, Callable[[int], int]]:
    """The named route to name(n) and its name (default: the first
    derivation).  Asked for below its first index, a route raises its own
    error."""
    available = routes(name, n)
    if method is None:
        method = next(iter(available))
    try:
        return method, available[method][1]
    except KeyError:
        raise ValueError(f"sequence {name!r} has no method {method!r}") from None


def sequence_value(name: str, n: int, method: str | None = None) -> int:
    """One sequence term by one named route (default: the first derivation)."""
    _, fn = route(name, n, method)
    return fn(n)
