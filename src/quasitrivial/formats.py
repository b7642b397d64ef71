"""Text encodings: Cayley tables, orderings, classification reports.

Canonical multi-line table form (row x holds F(x,1) .. F(x,n)):

    cayley <n>
    v11 v12 ... v1n
    ...
    vn1 vn2 ... vnn

One-line variants, used one object per line by the enumeration output:

    cayley <n> : v11 v12 ... vnn        (row-major)
    weakorder <n> : r1 r2 ... rn        (rank of each element)
    totalorder <n> : p1 p2 ... pn       (elements, smallest first)

Every n is at least 1, except on a `weakorder` line: `weakorder 0 : ` is the
one weak ordering of the empty set.

A profile file, read by `parse_profile`, is one `weakorder` line and at most
one `totalorder` line, in either order; blank lines are allowed, nothing else.

Parsers read the tokens of `text.split()` and reject malformed input with a
1-based line/column diagnostic; a token's position is computed only then, by
scanning the text again.  Emitters produce the canonical byte-deterministic
form.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import ParseError
from .magmas import FiniteBinOp
from .orders import TotalOrder, WeakOrder
from .structure import ClassificationReport, TableProperties

_TOKEN = re.compile(r"\S+")


def _error(text: str, index: int, message: str, shift: int = 0) -> ParseError:
    """A diagnostic at token `index` of `text.split()`, `shift` columns on.

    The tokens of `split()` are the matches of \\S+, and every line break of
    `splitlines` is whitespace, so the scan finds the same token line by line.
    """
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN.finditer(line):
            if not index:
                return ParseError(message, lineno, m.start() + 1 + shift)
            index -= 1
    raise IndexError("token index past the end of the text")


def _int(text: str, tokens: list[str], index: int, what: str) -> int:
    try:
        return int(tokens[index])
    except ValueError:
        raise _error(text, index, f"expected {what}, got {tokens[index]!r}") from None


def _header(text: str, tokens: list[str], keyword: str, one_line: bool, least: int = 1) -> int:
    """The cardinality after `keyword`, at least `least`; a one-line form puts ':' next."""
    if not tokens:
        raise ParseError("empty input", 1, 1)
    if one_line and (len(tokens) < 3 or tokens[2] != ":"):
        at = 2 if len(tokens) > 2 else len(tokens) - 1
        raise _error(text, at, f"expected ':' in one-line {keyword} form")
    if tokens[0] != keyword:
        raise _error(text, 0, f"expected {keyword!r}, got {tokens[0]!r}")
    if len(tokens) < 2:
        raise _error(text, 0, "missing cardinality after keyword", len(keyword))
    n = _int(text, tokens, 1, "a cardinality")
    if n < least:
        sign = "positive" if least else "nonnegative"
        raise _error(text, 1, f"cardinality must be {sign}, got {n}")
    return n


def _entries(text: str, tokens: list[str], start: int, count: int, n: int, what: str) -> list[int]:
    """tokens[start:] as exactly `count` integers in 1..n."""
    got = len(tokens) - start
    if got < count:
        message = f"expected {count} {what} entries, got {got}"
        raise _error(text, len(tokens) - 1, message) if got else ParseError(message, 1, 1)
    if got > count:
        raise _error(text, start + count, f"unexpected extra token {tokens[start + count]!r}")
    try:
        values = list(map(int, tokens[start:]))
        if 1 <= min(values, default=1) and max(values, default=n) <= n:
            return values
    except ValueError:
        pass
    # some entry is bad: report the first, in the order of the text
    for index in range(start, len(tokens)):
        v = _int(text, tokens, index, "an integer")
        if not 1 <= v <= n:
            raise _error(text, index, f"entry {v} out of range 1..{n}")
    raise AssertionError("unreachable: an entry failed above")


def _cayley(text: str, one_line: bool) -> FiniteBinOp:
    tokens = text.split()
    n = _header(text, tokens, "cayley", one_line)
    values = _entries(text, tokens, 3 if one_line else 2, n * n, n, "table")
    # `_entries` gave n * n ints in 1..n, so the table is built unchecked
    return FiniteBinOp._trusted(tuple(tuple(values[i * n : (i + 1) * n]) for i in range(n)))


def parse_cayley(text: str) -> FiniteBinOp:
    """Parse the multi-line table form."""
    return _cayley(text, one_line=False)


def emit_cayley(f: FiniteBinOp) -> str:
    lines = [f"cayley {f.n}"]
    lines += [" ".join(str(v) for v in row) for row in f.rows]
    return "\n".join(lines) + "\n"


def parse_cayley_line(text: str) -> FiniteBinOp:
    """Parse the one-line row-major form."""
    return _cayley(text, one_line=True)


@lru_cache(maxsize=4096)
def _row_text(row: tuple[int, ...]) -> str:
    # keyed by value: a stream at n <= 9 has at most n * 2^(n-1) <= 2304
    # distinct rows, so within one stream each row's text is made once
    return " ".join(map(str, row))


def emit_cayley_line(f: FiniteBinOp) -> str:
    return f"cayley {f.n} : " + " ".join(map(_row_text, f.rows))


def load_table(text: str) -> FiniteBinOp:
    """Accept either table form (one-line if the first line carries a ':')."""
    stripped = text.lstrip()
    return _cayley(text, one_line=bool(stripped) and ":" in stripped.splitlines()[0])


def parse_weak_order(text: str) -> WeakOrder:
    tokens = text.split()
    n = _header(text, tokens, "weakorder", one_line=True, least=0)
    ranks = _entries(text, tokens, 3, n, n, "rank")
    try:
        return WeakOrder(tuple(ranks))
    except ValueError as exc:
        raise _error(text, 0, str(exc)) from None


# the text of each small rank, looked up instead of formatted per element
_LABELS = tuple(map(str, range(64)))


def emit_weak_order(w: WeakOrder) -> str:
    ranks = w.ranks
    n = len(ranks)
    text = map(_LABELS.__getitem__ if n < len(_LABELS) else str, ranks)
    return f"weakorder {n} : " + " ".join(text)


def _listing(text: str, tokens: list[str], start: int, n: int) -> TotalOrder:
    elems = _entries(text, tokens, start, n, n, "element")
    try:
        return TotalOrder.from_ordered_elements(elems)
    except ValueError as exc:
        # an empty listing (n = 0) has no token to point at
        raise _error(text, 0, str(exc)) if tokens else ParseError(str(exc), 1, 1) from None


def parse_total_order(text: str) -> TotalOrder:
    tokens = text.split()
    return _listing(text, tokens, 3, _header(text, tokens, "totalorder", one_line=True))


def parse_listing(text: str, n: int) -> TotalOrder:
    """An ordering of 1..n written as its elements, smallest first: the part
    of a `totalorder` line after the ':'.  Diagnostics point into `text`;
    n < 0 is a ValueError."""
    if n < 0:
        raise ValueError(f"a listing needs n >= 0, got {n}")
    return _listing(text, text.split(), 0, n)


def parse_profile(text: str) -> tuple[WeakOrder, TotalOrder | None]:
    """The weak ordering of a profile file and its reference ordering, or
    None if it has no `totalorder` line.  Diagnostics give the line of the
    file."""
    parsers = {"weakorder": parse_weak_order, "totalorder": parse_total_order}
    found = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        keyword = tokens[0]
        column = line.index(keyword) + 1
        if keyword not in parsers:
            raise ParseError(f"expected 'weakorder' or 'totalorder', got {keyword!r}",
                             lineno, column)
        if keyword in found:
            raise ParseError(f"a profile has one {keyword} line", lineno, column)
        try:
            found[keyword] = parsers[keyword](line)
        except ParseError as exc:
            raise ParseError(exc.message, lineno, exc.column) from None
    if "weakorder" not in found:
        raise ParseError("profile input needs a 'weakorder <n> : ...' line", 1, 1)
    return found["weakorder"], found.get("totalorder")


def emit_total_order(t: TotalOrder) -> str:
    return f"totalorder {t.n} : " + " ".join(map(str, t.ordered_elements()))


def _bool(value: bool) -> str:
    return "true" if value else "false"


def _element_set(values) -> str:
    return " ".join(str(x) for x in sorted(values)) if values else "-"


def _property_lines(p: TableProperties) -> list[str]:
    return [
        f"n: {p.n}",
        f"associative: {_bool(p.associative)}",
        f"quasitrivial: {_bool(p.quasitrivial)}",
        f"commutative: {_bool(p.commutative)}",
        f"idempotent: {_bool(p.idempotent)}",
        f"neutral: {_element_set(p.neutral)}",
        f"annihilator: {_element_set(p.annihilator)}",
        "degree_sequence: " + " ".join(str(d) for d in p.degree_sequence),
    ]


def _order_preserving_line(value: bool) -> str:
    return f"order_preserving_for_reference: {_bool(value)}"


def emit_properties(p: TableProperties, order_preserving_for_reference: bool) -> str:
    """The `check` record: the fields it shares with `emit_classification`."""
    lines = _property_lines(p) + [_order_preserving_line(order_preserving_for_reference)]
    return "\n".join(lines) + "\n"


def emit_classification(report: ClassificationReport) -> str:
    """Flat key/value record, one field per line; field names are stable."""
    lines = _property_lines(report)
    lines.append(f"decomposable: {_bool(report.decomposition is not None)}")
    if report.decomposition is not None:
        d = report.decomposition
        lines.append("weak_order: " + " ".join(str(r) for r in d.order.ranks))
        if d.choices:
            lines.append("choices: " + ", ".join(f"{r}={s}" for r, s in d.choices))
        else:
            lines.append("choices: -")
    if report.max_of_total_order is not None:
        lines.append(
            "max_of_total_order: "
            + " ".join(str(x) for x in report.max_of_total_order.ordered_elements())
        )
    else:
        lines.append("max_of_total_order: -")
    lines.append(_order_preserving_line(report.order_preserving_for_reference))
    if report.weakly_single_peaked_for_reference is None:
        lines.append("weakly_single_peaked_for_reference: -")
    else:
        lines.append(
            "weakly_single_peaked_for_reference: "
            f"{_bool(report.weakly_single_peaked_for_reference)}"
        )
    lines.append(f"monotone_for_count: {len(report.monotone_for)}")
    lines.append(f"monotone_for_truncated: {_bool(report.monotone_for_truncated)}")
    for i, t in enumerate(report.monotone_for, start=1):
        lines.append(f"monotone_for_{i}: " + " ".join(str(x) for x in t.ordered_elements()))
    return "\n".join(lines) + "\n"
