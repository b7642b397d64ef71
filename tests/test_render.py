"""Render: golden outputs, pinned digests, determinism, SVG well-formedness,
marker agreement."""

import hashlib
import random
import xml.etree.ElementTree as ET

import pytest

from quasitrivial import FiniteBinOp, TotalOrder, WeakOrder, build, profile_patterns
from quasitrivial.enumeration import qt_semigroups, weak_orders
from quasitrivial.render import FORMATS, render_contour, render_profile

from conftest import as_weak, sampled_decomposition


class TestContourAscii:
    def test_max_grid(self):
        f = FiniteBinOp.max_under(TotalOrder.natural(3))
        assert render_contour(f) == "1 2 3\n2 2 3\n3 3 3\n"

    def test_showcase_on_its_own_axis_has_nested_levels(self, x6_single_peaked_max):
        axis = TotalOrder.from_ordered_elements([4, 3, 5, 2, 1, 6])
        got = render_contour(x6_single_peaked_max, axis)
        assert got == (
            "4 3 5 2 1 6\n"
            "3 3 5 2 1 6\n"
            "5 5 5 2 1 6\n"
            "2 2 2 2 1 6\n"
            "1 1 1 1 1 6\n"
            "6 6 6 6 6 6\n"
        )

    def test_deterministic(self, x4_peaked):
        assert render_contour(x4_peaked) == render_contour(x4_peaked)

    def test_unknown_format(self, x4_peaked):
        with pytest.raises(ValueError):
            render_contour(x4_peaked, fmt="png")


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("axis_n", [2, 4])
def test_contour_rejects_axis_of_wrong_size(fmt, axis_n):
    # neither a sub-grid nor an IndexError: every format rejects the axis
    f = FiniteBinOp.max_under(TotalOrder.natural(3))
    with pytest.raises(ValueError, match="wrong cardinality"):
        render_contour(f, TotalOrder.natural(axis_n), fmt)


class TestContourSvg:
    def test_valid_xml_with_one_group_per_level(self, x6_single_peaked_max):
        svg = render_contour(x6_single_peaked_max, fmt="svg")
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        groups = [g.get("id") for g in root.iter(f"{ns}g")]
        assert [g for g in groups if g and g.startswith("level-")] == [
            f"level-{v}" for v in range(1, 7)
        ]
        assert svg == render_contour(x6_single_peaked_max, fmt="svg")

    def test_every_grid_point_drawn(self, x4_peaked):
        svg = render_contour(x4_peaked, fmt="svg")
        root = ET.fromstring(svg)
        ns = "{http://www.w3.org/2000/svg}"
        circles = [c for c in root.iter(f"{ns}circle")]
        assert len(circles) == 16


def contour_cases():
    """Every qt-semigroup with n <= 3, then for each n = 4..9 three seeded
    factorizations and two seeded arbitrary tables; each table with the
    natural axis and a seeded shuffled one."""
    tables = [f for n in (1, 2, 3) for f in qt_semigroups(n)]
    for n in range(4, 10):
        rng = random.Random(f"contour:{n}")
        tables += [build(sampled_decomposition(n, rng)) for _ in range(3)]
        tables += [FiniteBinOp.from_function(n, lambda x, y: rng.randint(1, n)) for _ in range(2)]
    rng = random.Random("contour-axes")
    for f in tables:
        listing = list(range(1, f.n + 1))
        rng.shuffle(listing)
        yield f, TotalOrder.natural(f.n)
        yield f, TotalOrder.from_ordered_elements(listing)


# SHA-256 over the 110 renderings of `contour_cases`, in order, computed with
# the renderer that still sorted each level set by a rank key
CONTOUR_SHA256 = {
    "ascii": "3ae80ad2a49c0f0a85cc13e8c73b23d3127e24a2010e9dd7b0dfe218b2a41597",
    "svg": "6e0308633ce55eb39fd78826fbd94479d54b9e93691b7a21df9838edd9c13b6b",
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_contour_bytes_pinned(fmt):
    digest = hashlib.sha256()
    for f, axis in contour_cases():
        digest.update(render_contour(f, axis, fmt).encode())
    assert digest.hexdigest() == CONTOUR_SHA256[fmt]


class TestProfileAscii:
    def test_peaked_example(self):
        got = render_profile(TotalOrder.natural(4), WeakOrder((2, 1, 2, 3)))
        assert got == (
            ". * . .\n"
            "* . * .\n"
            ". . . *\n"
            "x-axis: 1 2 3 4\n"
            "violations: none\n"
        )

    def test_unpeaked_example_marks_all_three(self):
        got = render_profile(TotalOrder.natural(4), WeakOrder((1, 3, 3, 2)))
        assert got == (
            "* . . .\n"
            ". . . *\n"
            ". *=* .\n"
            "x-axis: 1 2 3 4\n"
            "violation: V\n"
            "violation: L\n"
            "violation: reversed-L\n"
        )

    def test_single_peaked_total_order_profile(self):
        w = as_weak(TotalOrder.from_ordered_elements([4, 3, 5, 2, 1, 6]))
        got = render_profile(TotalOrder.natural(6), w)
        assert got.endswith("violations: none\n")
        # strictly single-peaked: one star per row, none repeated
        rows = got.splitlines()[:6]
        assert all(row.count("*") == 1 for row in rows)

    def test_markers_agree_with_pattern_flags(self):
        for n in range(1, 6):
            t = TotalOrder.natural(n)
            for w in weak_orders(n):
                text = render_profile(t, w)
                flags = profile_patterns(t, w)
                assert ("violation: V" in text) == (not flags.v_free)
                assert ("violation: L\n" in text) == (not flags.l_free)
                assert ("violation: reversed-L" in text) == (not flags.reversed_l_free)
                assert ("violations: none" in text) == flags.all_free()


# SHA-256 over `render_profile(t, w, fmt)` for n = 1..5, t natural then
# reversed, every weak ordering w in `weak_orders` order, ascii then svg;
# computed with the renderer that still drew through a ProfilePlot
PROFILE_SHA256 = "237ee6926e3292b8aaac15e971b59ed0c331c711862646f3f7775e5b529c68c6"


def test_profile_bytes_pinned():
    digest = hashlib.sha256()
    for n in range(1, 6):
        for t in (TotalOrder.natural(n), TotalOrder.natural(n).inverse()):
            for w in weak_orders(n):
                for fmt in FORMATS:
                    digest.update(render_profile(t, w, fmt).encode())
    assert digest.hexdigest() == PROFILE_SHA256


def test_profile_rejects_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'png'"):
        render_profile(TotalOrder.natural(3), WeakOrder((1, 2, 1)), fmt="png")


class TestProfileSvg:
    def test_valid_and_deterministic(self):
        t, w = TotalOrder.natural(4), WeakOrder((1, 3, 3, 2))
        svg = render_profile(t, w, fmt="svg")
        ET.fromstring(svg)
        assert svg == render_profile(t, w, fmt="svg")
        assert "violation: V" in svg

    def test_levels_respect_equivalence(self):
        rows = render_profile(TotalOrder.natural(4), WeakOrder((1, 3, 3, 2))).splitlines()
        assert rows[0] == "* . . ."  # bottom class drawn on top
        assert rows[2] == ". *=* ."  # top class, one plateau, at the bottom

    def test_degenerate_sizes(self):
        # one class and one element are both valid plots
        ET.fromstring(render_profile(TotalOrder.natural(3), WeakOrder((1, 1, 1)), fmt="svg"))
        ET.fromstring(render_profile(TotalOrder.natural(1), WeakOrder((1,)), fmt="svg"))
        assert render_profile(TotalOrder.natural(1), WeakOrder((1,))) == (
            "*\nx-axis: 1\nviolations: none\n"
        )
