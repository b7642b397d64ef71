"""Formats: parse/emit roundtrips, diagnostics with locations, report record."""

import pytest

from quasitrivial import FiniteBinOp, ParseError, TotalOrder, WeakOrder, classify
from quasitrivial.enumeration import qt_semigroups
from quasitrivial.formats import (
    emit_cayley,
    emit_cayley_line,
    emit_classification,
    emit_total_order,
    emit_weak_order,
    load_table,
    parse_cayley,
    parse_cayley_line,
    parse_total_order,
    parse_weak_order,
)
from conftest import X4_PEAKED


class TestCayley:
    def test_roundtrip(self):
        text = "cayley 2\n1 1\n1 2\n"
        f = parse_cayley(text)
        assert f.rows == ((1, 1), (1, 2))
        assert emit_cayley(f) == text

    def test_parse_emit_identity_on_canonical_text(self):
        assert emit_cayley(parse_cayley(X4_PEAKED)) == X4_PEAKED

    def test_emit_parse_canonicalizes(self):
        messy = "cayley   2\n  1 1\n\t1  2\n\n"
        assert emit_cayley(parse_cayley(messy)) == "cayley 2\n1 1\n1 2\n"
        # canonicalization is idempotent
        once = emit_cayley(parse_cayley(messy))
        assert emit_cayley(parse_cayley(once)) == once

    def test_out_of_range_entry_reports_location(self):
        bad = "cayley 3\n1 2 3\n2 2 5\n3 3 3\n"
        with pytest.raises(ParseError) as err:
            parse_cayley(bad)
        assert err.value.line == 3
        assert err.value.column == 5
        assert "out of range" in str(err.value)

    def test_header_and_count_errors(self):
        with pytest.raises(ParseError, match="expected 'cayley'"):
            parse_cayley("table 2\n1 1\n1 2\n")
        with pytest.raises(ParseError, match="expected 4 table entries"):
            parse_cayley("cayley 2\n1 1\n1\n")
        with pytest.raises(ParseError, match="unexpected extra token"):
            parse_cayley("cayley 2\n1 1\n1 2 2\n")
        with pytest.raises(ParseError, match="expected an integer"):
            parse_cayley("cayley 2\n1 x\n1 2\n")
        with pytest.raises(ParseError, match="empty input"):
            parse_cayley("")
        with pytest.raises(ParseError, match="positive"):
            parse_cayley("cayley 0\n")

    def test_single_line_form(self):
        f = parse_cayley(X4_PEAKED)
        line = emit_cayley_line(f)
        assert line == "cayley 4 : 1 1 3 4 1 2 3 4 1 3 3 4 4 4 4 4"
        assert parse_cayley_line(line) == f

    def test_line_text_is_keyed_by_row_value(self):
        # each row's text is made once and kept by value: equal rows held in
        # distinct tuple objects, and a table emitted once the kept texts
        # hold other rows, read the same as a cell-by-cell rendering
        def plain(f):
            return f"cayley {f.n} : " + " ".join(str(v) for row in f.rows for v in row)

        a = FiniteBinOp(((1, 2, 3), (2, 2, 3), (3, 3, 3)))
        b = FiniteBinOp((tuple(list(a.rows[0])), (2, 2, 2), tuple(list(a.rows[2]))))
        assert b.rows[0] == a.rows[0] and b.rows[0] is not a.rows[0]
        assert [emit_cayley_line(a), emit_cayley_line(b)] == [plain(a), plain(b)]
        for f in qt_semigroups(5):
            assert emit_cayley_line(f) == plain(f)
        wide = FiniteBinOp.from_function(12, lambda x, y: max(x, y))
        for f in (a, b, wide):
            assert emit_cayley_line(f) == plain(f)

    def test_load_table_dispatches_on_shape(self):
        f = parse_cayley(X4_PEAKED)
        assert load_table(X4_PEAKED) == f
        assert load_table(emit_cayley_line(f)) == f

    def test_random_tables_roundtrip_both_forms(self):
        import random

        rng = random.Random(4140)
        for _ in range(200):
            n = rng.randint(1, 8)
            f = FiniteBinOp.from_function(n, lambda x, y: rng.randint(1, n))
            assert parse_cayley(emit_cayley(f)) == f
            assert parse_cayley_line(emit_cayley_line(f)) == f


class TestOrderFormats:
    def test_weak_order_roundtrip(self):
        w = WeakOrder((2, 1, 2, 3))
        line = emit_weak_order(w)
        assert line == "weakorder 4 : 2 1 2 3"
        assert parse_weak_order(line) == w

    def test_weak_order_text_at_any_n(self):
        for ranks in ((1,), (10, 1, 9, 2, 8, 3, 7, 4, 6, 5), tuple(range(70, 0, -1))):
            expected = f"weakorder {len(ranks)} : " + " ".join(map(str, ranks))
            assert emit_weak_order(WeakOrder(ranks)) == expected

    def test_weak_order_rejects_gappy_ranks(self):
        with pytest.raises(ParseError, match="surjective"):
            parse_weak_order("weakorder 3 : 1 3 3")

    def test_total_order_roundtrip(self):
        t = TotalOrder.from_ordered_elements([4, 3, 5, 2, 1, 6])
        line = emit_total_order(t)
        assert line == "totalorder 6 : 4 3 5 2 1 6"
        assert parse_total_order(line) == t

    def test_total_order_rejects_repeats(self):
        with pytest.raises(ParseError):
            parse_total_order("totalorder 3 : 1 1 2")

    def test_missing_colon(self):
        with pytest.raises(ParseError, match="':'"):
            parse_weak_order("weakorder 3 1 2 3")


class TestClassificationRecord:
    def test_flat_record_for_peaked_example(self, x4_peaked):
        text = emit_classification(classify(x4_peaked, TotalOrder.natural(4)))
        lines = text.splitlines()
        assert "n: 4" in lines
        assert "associative: true" in lines
        assert "commutative: false" in lines
        assert "neutral: 2" in lines
        assert "annihilator: 4" in lines
        assert "degree_sequence: 0 3 3 6" in lines
        assert "weak_order: 2 1 2 3" in lines
        assert "choices: 2=right" in lines
        assert "max_of_total_order: -" in lines
        assert "weakly_single_peaked_for_reference: true" in lines
        # every line is a flat key: value pair
        assert all(": " in line for line in lines)

    def test_record_for_non_decomposable(self, x3_not_quasitrivial):
        text = emit_classification(classify(x3_not_quasitrivial))
        lines = text.splitlines()
        assert "quasitrivial: false" in lines
        assert "decomposable: false" in lines
        assert "annihilator: 2" in lines
        assert "neutral: -" in lines
        assert "weakly_single_peaked_for_reference: -" in lines
        assert not any(line.startswith("weak_order:") for line in lines)
