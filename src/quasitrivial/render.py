"""Static visual output: contour plots of operations and profile plots of
weak orderings against a reference ordering.

Output is byte-deterministic for fixed inputs.  The ASCII contour form is the
raw value grid; the SVG form draws one polyline group per level set,
connecting the sorted points of the set first along rows, then along columns.
Profile plots mark plateaus as horizontal runs and annotate any V / L /
reversed-L violations, in exact agreement with `orders.profile_patterns`.
"""

from __future__ import annotations

from .magmas import FiniteBinOp
from .orders import TotalOrder, WeakOrder, profile_patterns

CELL = 40
MARGIN = 50

FORMATS = ("ascii", "svg")


def render_contour(f: FiniteBinOp, axis: TotalOrder | None = None, fmt: str = "ascii") -> str:
    axis = axis or TotalOrder.natural(f.n)
    if axis.n != f.n:
        raise ValueError("axis ordering has the wrong cardinality")
    if fmt == "ascii":
        return _contour_ascii(f, axis)
    if fmt == "svg":
        return _contour_svg(f, axis)
    raise ValueError(f"unknown format {fmt!r}")


def _contour_ascii(f: FiniteBinOp, axis: TotalOrder) -> str:
    elems = axis.ordered_elements()
    lines = []
    for x in elems:
        lines.append(" ".join(str(f(x, y)) for y in elems))
    return "\n".join(lines) + "\n"


def _svg_header(width: int, height: int) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]


def _contour_svg(f: FiniteBinOp, axis: TotalOrder) -> str:
    n = f.n
    elems = axis.ordered_elements()
    size = 2 * MARGIN + (n - 1) * CELL
    # the x and y coordinate of each element, from its position on the axis
    xs = [0] * (n + 1)
    ys = [0] * (n + 1)
    for i, v in enumerate(elems):
        xs[v] = MARGIN + i * CELL
        ys[v] = size - MARGIN - i * CELL
    # each level's points along every row and every column, by axis position;
    # the cells are walked in axis order, so each run is already sorted
    along_rows: dict[int, list[list[str]]] = {}
    along_cols: dict[int, list[list[str]]] = {}
    circles = []
    for i, x in enumerate(elems):
        row = f.rows[x - 1]
        for j, y in enumerate(elems):
            value = row[y - 1]
            if value not in along_rows:
                along_rows[value] = [[] for _ in elems]
                along_cols[value] = [[] for _ in elems]
            point = f"{xs[x]},{ys[y]}"
            along_rows[value][j].append(point)
            along_cols[value][i].append(point)
            circles.append(f'<circle cx="{xs[x]}" cy="{ys[y]}" r="3"/>')

    lines = _svg_header(size, size)
    for value in sorted(along_rows):
        lines.append(f'<g id="level-{value}" stroke="black" fill="none">')
        for run in along_rows[value] + along_cols[value]:
            if len(run) >= 2:
                lines.append(f'<polyline points="{" ".join(run)}"/>')
        lines.append("</g>")
    lines.append('<g id="points" fill="black">')
    lines += circles
    lines.append("</g>")
    lines.append('<g id="labels" font-size="14" fill="black">')
    for v in elems:
        lines.append(f'<text x="{xs[v] + 6}" y="{ys[v] - 6}">{v}</text>')
        lines.append(f'<text x="{xs[v] - 4}" y="{size - 8}">{v}</text>')
        lines.append(f'<text x="8" y="{ys[v] + 5}">{v}</text>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_profile(t: TotalOrder, w: WeakOrder, fmt: str = "ascii") -> str:
    if t.n != w.n:
        raise ValueError("reference and weak order have different cardinalities")
    if fmt == "ascii":
        return _profile_ascii(t, w)
    if fmt == "svg":
        return _profile_svg(t, w)
    raise ValueError(f"unknown format {fmt!r}")


def _violation_lines(t: TotalOrder, w: WeakOrder) -> list[str]:
    flags = profile_patterns(t, w)
    found = []
    if not flags.v_free:
        found.append("violation: V")
    if not flags.l_free:
        found.append("violation: L")
    if not flags.reversed_l_free:
        found.append("violation: reversed-L")
    return found or ["violations: none"]


def _profile_ascii(t: TotalOrder, w: WeakOrder) -> str:
    elems = t.ordered_elements()
    ranks = [w.ranks[x - 1] for x in elems]
    lines = []
    # one row per class, the bottom class on top
    for r in range(1, w.k + 1):
        row = []
        for i, rx in enumerate(ranks):
            if i:
                row.append("=" if rx == r == ranks[i - 1] else " ")
            row.append("*" if rx == r else ".")
        lines.append("".join(row))
    lines.append("x-axis: " + " ".join(str(x) for x in elems))
    lines.extend(_violation_lines(t, w))
    return "\n".join(lines) + "\n"


def _profile_svg(t: TotalOrder, w: WeakOrder) -> str:
    n, k = w.n, w.k
    width = 2 * MARGIN + (n - 1) * CELL
    height = 2 * MARGIN + (k - 1) * CELL
    elems = t.ordered_elements()
    # x from the reference position, y from the weak-order rank: the bottom
    # class sits on top
    points = [(MARGIN + i * CELL, MARGIN + (w.ranks[x - 1] - 1) * CELL)
              for i, x in enumerate(elems)]

    lines = _svg_header(width, height)
    coords = " ".join(f"{x},{y}" for x, y in points)
    lines.append(f'<polyline points="{coords}" stroke="black" fill="none"/>')
    lines.append('<g id="points" fill="black">')
    lines += [f'<circle cx="{x}" cy="{y}" r="3"/>' for x, y in points]
    lines.append("</g>")
    lines.append('<g id="labels" font-size="14" fill="black">')
    for (x, _), v in zip(points, elems):
        lines.append(f'<text x="{x - 4}" y="{height - 8}">{v}</text>')
    classes = w.classes()
    for r in range(k, 0, -1):
        label = "~".join(str(x) for x in sorted(classes[r - 1]))
        lines.append(f'<text x="4" y="{MARGIN + (r - 1) * CELL + 5}">{label}</text>')
    for i, note in enumerate(_violation_lines(t, w)):
        lines.append(f'<text x="{MARGIN}" y="{16 + 16 * i}">{note}</text>')
    lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
