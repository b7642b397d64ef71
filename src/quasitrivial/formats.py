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

Parsers reject malformed input with a 1-based line/column diagnostic;
emitters produce the canonical byte-deterministic form.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .errors import ParseError
from .magmas import FiniteBinOp
from .orders import TotalOrder, WeakOrder
from .structure import ClassificationReport, TableProperties

_TOKEN = re.compile(r"\S+")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    tokens = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        for m in _TOKEN.finditer(line):
            tokens.append((m.group(), lineno, m.start() + 1))
    return tokens


def _parse_int(token: tuple[str, int, int], what: str) -> int:
    text, line, col = token
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected {what}, got {text!r}", line, col) from None


def _parse_header(tokens, keyword: str):
    if not tokens:
        raise ParseError("empty input", 1, 1)
    head, line, col = tokens[0]
    if head != keyword:
        raise ParseError(f"expected {keyword!r}, got {head!r}", line, col)
    if len(tokens) < 2:
        raise ParseError("missing cardinality after keyword", line, col + len(head))
    n = _parse_int(tokens[1], "a cardinality")
    if n < 1:
        raise ParseError(f"cardinality must be positive, got {n}", tokens[1][1], tokens[1][2])
    return n


def _entries(tokens, n: int, count: int, low: int, high: int, what: str) -> list[int]:
    if len(tokens) < count:
        last = tokens[-1] if tokens else ("", 1, 1)
        raise ParseError(f"expected {count} {what} entries, got {len(tokens)}", last[1], last[2])
    if len(tokens) > count:
        extra = tokens[count]
        raise ParseError(f"unexpected extra token {extra[0]!r}", extra[1], extra[2])
    values = []
    for token in tokens:
        v = _parse_int(token, "an integer")
        if not low <= v <= high:
            raise ParseError(f"entry {v} out of range {low}..{high}", token[1], token[2])
        values.append(v)
    return values


def _strip_colon(tokens, keyword: str):
    # one-line form: keyword n : entries
    if not tokens:
        raise ParseError("empty input", 1, 1)
    if len(tokens) < 3 or tokens[2][0] != ":":
        t = tokens[2] if len(tokens) > 2 else tokens[-1]
        raise ParseError(f"expected ':' in one-line {keyword} form", t[1], t[2])
    return tokens[:2] + tokens[3:]


def _cayley_from_tokens(tokens) -> FiniteBinOp:
    n = _parse_header(tokens, "cayley")
    values = _entries(tokens[2:], n, n * n, 1, n, "table")
    return FiniteBinOp(tuple(tuple(values[i * n : (i + 1) * n]) for i in range(n)))


def parse_cayley(text: str) -> FiniteBinOp:
    """Parse the multi-line table form."""
    return _cayley_from_tokens(_tokenize(text))


def emit_cayley(f: FiniteBinOp) -> str:
    lines = [f"cayley {f.n}"]
    lines += [" ".join(str(v) for v in row) for row in f.rows]
    return "\n".join(lines) + "\n"


def parse_cayley_line(text: str) -> FiniteBinOp:
    """Parse the one-line row-major form."""
    return _cayley_from_tokens(_strip_colon(_tokenize(text), "cayley"))


@lru_cache(maxsize=4096)
def _row_text(row: tuple[int, ...]) -> str:
    # keyed by value: a stream at n <= 9 has at most n * 2^(n-1) <= 2304
    # distinct rows, so within one stream each row's text is made once
    return " ".join(map(str, row))


def emit_cayley_line(f: FiniteBinOp) -> str:
    return f"cayley {f.n} : " + " ".join(map(_row_text, f.rows))


def load_table(text: str) -> FiniteBinOp:
    """Accept either table form (one-line if the first line carries a ':')."""
    first = text.lstrip().splitlines()[0] if text.strip() else ""
    if ":" in first:
        return parse_cayley_line(text)
    return parse_cayley(text)


def parse_weak_order(text: str) -> WeakOrder:
    tokens = _strip_colon(_tokenize(text), "weakorder")
    n = _parse_header(tokens, "weakorder")
    ranks = _entries(tokens[2:], n, n, 1, n, "rank")
    try:
        return WeakOrder(tuple(ranks))
    except ValueError as exc:
        raise ParseError(str(exc), tokens[0][1], tokens[0][2]) from None


# the text of each small rank, looked up instead of formatted per element
_LABELS = tuple(map(str, range(64)))


def emit_weak_order(w: WeakOrder) -> str:
    ranks = w.ranks
    n = len(ranks)
    text = map(_LABELS.__getitem__ if n < len(_LABELS) else str, ranks)
    return f"weakorder {n} : " + " ".join(text)


def parse_total_order(text: str) -> TotalOrder:
    tokens = _strip_colon(_tokenize(text), "totalorder")
    n = _parse_header(tokens, "totalorder")
    elems = _entries(tokens[2:], n, n, 1, n, "element")
    try:
        return TotalOrder.from_ordered_elements(elems)
    except ValueError as exc:
        raise ParseError(str(exc), tokens[0][1], tokens[0][2]) from None


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
