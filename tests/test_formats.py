"""Formats: parse/emit roundtrips, diagnostics with locations, report record."""

import pytest

from quasitrivial import FiniteBinOp, ParseError, TotalOrder, WeakOrder, classify, formats
from quasitrivial.enumeration import FAMILIES, FamilySpec, generate, qt_semigroups
from quasitrivial.formats import (
    emit_cayley,
    emit_cayley_line,
    emit_classification,
    emit_total_order,
    emit_weak_order,
    load_table,
    parse_cayley,
    parse_cayley_line,
    parse_listing,
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

    @pytest.mark.parametrize("text", ["", "  ", "\n\n"])
    def test_empty_listing_is_a_parse_error(self, text):
        # no ordering of the empty set: reported at the start of the text
        with pytest.raises(ParseError) as info:
            parse_listing(text, 0)
        assert (info.value.line, info.value.column) == (1, 1)

    @pytest.mark.parametrize("text", ["", "1"])
    def test_listing_of_negative_size_rejected(self, text):
        with pytest.raises(ValueError, match=r"needs n >= 0, got -1") as info:
            parse_listing(text, -1)
        assert not isinstance(info.value, ParseError)


PARSERS = {
    "emit_cayley_line": parse_cayley_line,
    "emit_weak_order": parse_weak_order,
    "emit_total_order": parse_total_order,
}


@pytest.mark.parametrize("family", list(FAMILIES))
def test_every_emitted_line_parses_back(family):
    # weak-orders alone has an object at n = 0: `weakorder 0 : `
    _, _, emitter = FAMILIES[family]
    emit, parse = getattr(formats, emitter), PARSERS[emitter]
    for n in range(0 if family == "weak-orders" else 1, 5):
        for obj in generate(FamilySpec(family, n)):
            assert parse(emit(obj)) == obj


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


# Malformed inputs and their exact diagnostics, each message pinned from the
# line-by-line regex tokenizer that preceded the split-token parser.
MALFORMED = [
    # multi-line cayley form
    (load_table, "", "line 1, column 1: empty input"),
    (load_table, "table 2\n1 1\n1 2\n", "line 1, column 1: expected 'cayley', got 'table'"),
    (load_table, "  cayley\n", "line 1, column 9: missing cardinality after keyword"),
    (load_table, "cayley two\n1 1\n1 2\n", "line 1, column 8: expected a cardinality, got 'two'"),
    (load_table, "cayley -3\n", "line 1, column 8: cardinality must be positive, got -3"),
    (load_table, "cayley 2\n", "line 1, column 1: expected 4 table entries, got 0"),
    (load_table, "cayley 2\n1 1\n1\n", "line 3, column 1: expected 4 table entries, got 3"),
    (load_table, "cayley 2\n1 1\n1 2 2\n", "line 3, column 5: unexpected extra token '2'"),
    (load_table, "cayley 2\n1 x\n1 2\n", "line 2, column 3: expected an integer, got 'x'"),
    (load_table, "cayley 2\n5 x\n1 2\n", "line 2, column 1: entry 5 out of range 1..2"),
    (load_table, "cayley 2\r\n1 1\r\n1 9\r\n", "line 3, column 3: entry 9 out of range 1..2"),
    (load_table, "cayley 2\u20281 1₅1 1.0\n",
     "line 2, column 7: expected 4 table entries, got 3"),
    # one-line cayley form
    (load_table, "cayley 2 : 1 1 1", "line 1, column 16: expected 4 table entries, got 3"),
    (load_table, "cayley 2 : 1 1 1 2 2", "line 1, column 20: unexpected extra token '2'"),
    (load_table, "cayley 2 : 1 1 1 0x1", "line 1, column 18: expected an integer, got '0x1'"),
    (load_table, "cayley 2 1 1 1 2 :", "line 1, column 10: expected ':' in one-line cayley form"),
    (load_table, "cayley : 2 1 1 1 2", "line 1, column 10: expected ':' in one-line cayley form"),
    (load_table, "table 2 : 1 1 1 2", "line 1, column 1: expected 'cayley', got 'table'"),
    (load_table, "cayley 2 : 1 1\n1 1__2\n", "line 2, column 3: expected an integer, got '1__2'"),
    (load_table, "cayley 1 : \u200b1", "line 1, column 12: expected an integer, got '\\u200b1'"),
    # weakorder
    (parse_weak_order, "weakorder", "line 1, column 1: expected ':' in one-line weakorder form"),
    (parse_weak_order, "weakorder 3 1 2 3",
     "line 1, column 13: expected ':' in one-line weakorder form"),
    (parse_weak_order, "weakorder 3 : 1 3 3",
     "line 1, column 1: rank vector (1, 3, 3) is not surjective onto 1..k"),
    (parse_weak_order, "weakorder 3 : 1 2", "line 1, column 17: expected 3 rank entries, got 2"),
    (parse_weak_order, "weakorder 3 : 1 2 4", "line 1, column 19: entry 4 out of range 1..3"),
    (parse_weak_order, "weakorder 2 : : 1 2", "line 1, column 19: unexpected extra token '2'"),
    (parse_weak_order, "totalorder 2 : 1 2",
     "line 1, column 1: expected 'weakorder', got 'totalorder'"),
    (parse_weak_order, "weakorder -1 : ",
     "line 1, column 11: cardinality must be nonnegative, got -1"),
    (parse_weak_order, "weakorder 0 : 1", "line 1, column 15: unexpected extra token '1'"),
    # totalorder
    (parse_total_order, "totalorder 3 : 1 1 2",
     "line 1, column 1: (1, 1, 2) is not a permutation of 1..n"),
    (parse_total_order, "totalorder 3 : 1 2 3 4", "line 1, column 22: unexpected extra token '4'"),
    (parse_total_order, "totalorder 3 : 1 2 _3",
     "line 1, column 20: expected an integer, got '_3'"),
    (parse_total_order, "  totalorder\t3 ;\n1 2 3",
     "line 1, column 16: expected ':' in one-line totalorder form"),
    (parse_total_order, "totalorder 0 : ",
     "line 1, column 12: cardinality must be positive, got 0"),
    (load_table, "cayley 0 : ", "line 1, column 8: cardinality must be positive, got 0"),
]


@pytest.mark.parametrize("parse, text, message", MALFORMED)
def test_malformed_input_diagnostic(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message
    assert message.startswith(f"line {err.value.line}, column {err.value.column}: ")


# Inputs accepted because entries are read with `int()`: a sign, digit
# separators and any Unicode decimal digit ('١' is ARABIC-INDIC DIGIT ONE).
ACCEPTED = [
    (load_table, "cayley ٢\n+1 ١\n0_1 2\n", FiniteBinOp(((1, 1), (1, 2)))),
    (load_table, "cayley +2 : １ 1 1 ٢", FiniteBinOp(((1, 1), (1, 2)))),
    (parse_weak_order, "weakorder 1_0 : 1 2 3 4 5 6 7 8 9 1_0", WeakOrder(tuple(range(1, 11)))),
    (parse_total_order, "totalorder 3 : +3 ١ 0_2", TotalOrder.from_ordered_elements([3, 1, 2])),
]


@pytest.mark.parametrize("parse, text, expected", ACCEPTED)
def test_accepted_int_spellings(parse, text, expected):
    assert parse(text) == expected


def test_arbitrary_text_raises_only_parse_error():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # a keyword and cardinality, then text drawn mostly from digits, signs,
    # separators and whitespace, so that many draws get past the header
    body = st.text(alphabet=st.sampled_from("0123456789+-_:x \t\n\r\x0b\u2028١"), max_size=40)
    headed = st.builds(
        lambda keyword, n, rest: f"{keyword} {n} {rest}",
        st.sampled_from(("cayley", "weakorder", "totalorder")), st.integers(-1, 4), body,
    )

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(st.text() | headed)
    def check(text):
        for parse in (load_table, parse_weak_order, parse_total_order):
            try:
                parse(text)
            except ParseError as exc:
                assert str(exc).startswith(f"line {exc.line}, column {exc.column}: ")

    check()
