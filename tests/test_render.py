"""Render: golden outputs, determinism, SVG well-formedness, marker agreement."""

import xml.etree.ElementTree as ET

import pytest

from quasitrivial import FiniteBinOp, TotalOrder, WeakOrder, profile_patterns
from quasitrivial.enumeration import weak_orders
from quasitrivial.render import FORMATS, ContourPlot, ProfilePlot, render_contour, render_profile

from conftest import as_weak


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

    def test_level_sets_partition_grid(self, x4_unpeaked):
        plot = ContourPlot.from_operation(x4_unpeaked)
        points = [p for _, pts in plot.level_sets for p in pts]
        assert sorted(points) == [(x, y) for x in range(1, 5) for y in range(1, 5)]


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


class TestProfileSvg:
    def test_valid_and_deterministic(self):
        t, w = TotalOrder.natural(4), WeakOrder((1, 3, 3, 2))
        svg = render_profile(t, w, fmt="svg")
        ET.fromstring(svg)
        assert svg == render_profile(t, w, fmt="svg")
        assert "violation: V" in svg

    def test_levels_respect_equivalence(self):
        plot = ProfilePlot(4, TotalOrder.natural(4), WeakOrder((1, 3, 3, 2)))
        assert plot.level_of(2) == plot.level_of(3)
        assert plot.level_of(1) == 3  # bottom class drawn on top
        assert plot.level_of(2) == 1  # top class drawn at the bottom

    def test_degenerate_sizes(self):
        # one class and one element are both valid plots
        ET.fromstring(render_profile(TotalOrder.natural(3), WeakOrder((1, 1, 1)), fmt="svg"))
        ET.fromstring(render_profile(TotalOrder.natural(1), WeakOrder((1,)), fmt="svg"))
        assert render_profile(TotalOrder.natural(1), WeakOrder((1,))) == (
            "*\nx-axis: 1\nviolations: none\n"
        )
