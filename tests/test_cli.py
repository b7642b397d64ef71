"""CLI: subcommand behavior, exit codes, stream separation, determinism."""

import hashlib
import io
import random
import subprocess
import sys
from pathlib import Path

import pytest

from quasitrivial import ConsistencyError, FiniteBinOp, build, counting, is_associative, verify
from quasitrivial.cli import ENUMERATE_CHUNK_LINES, ORACLE_CHECKS, build_parser, main
from quasitrivial.formats import emit_cayley, emit_cayley_line
from conftest import X3_NOT_QUASITRIVIAL, X4_NEVER_MONOTONE, X4_PEAKED, sampled_decomposition

# `python -m` finds the package from here whether or not it is installed
PACKAGE_PARENT = Path(counting.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_stdin(capsys, monkeypatch, text, *argv):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    return run(capsys, *argv)


@pytest.fixture
def peaked_file(tmp_path):
    path = tmp_path / "peaked.cayley"
    path.write_text(X4_PEAKED)
    return str(path)


class TestCount:
    def test_default_method(self, capsys):
        code, out, err = run(capsys, "count", "u", "6")
        assert code == 0
        assert out == "u 6 119 closed\n"
        assert err == ""

    def test_specific_method(self, capsys):
        code, out, _ = run(capsys, "count", "q", "6", "--method", "appendix")
        assert code == 0
        assert out == "q 6 12166 appendix\n"

    def test_all_methods_match(self, capsys):
        code, out, err = run(capsys, "count", "q", "6", "--method", "all")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "q 6 MATCH"
        methods = {line.split()[-1] for line in lines[:-1]}
        assert methods == {"closed", "recurrence", "egf", "appendix", "enumerate"}
        assert all(line.split()[2] == "12166" for line in lines[:-1])

    def test_all_includes_bruteforce_within_capacity(self, capsys):
        code, out, _ = run(capsys, "count", "q", "3", "--method", "all")
        assert code == 0
        assert "q 3 20 bruteforce" in out.splitlines()

    def test_mismatch_detected(self, capsys, monkeypatch):
        # each value is held to the first route's; the mismatching line is
        # printed before the run stops
        monkeypatch.setitem(counting.METHODS["q"], "closed", lambda n: 1)
        code, out, err = run(capsys, "count", "q", "4", "--method", "all")
        assert code == 1
        assert out == "q 4 1 closed\nq 4 138 recurrence\n"
        assert err == "q 4 MISMATCH\n"

    def test_unknown_sequence(self, capsys):
        code, _, err = run(capsys, "count", "zz", "3")
        assert code == 2
        assert "unknown sequence" in err

    def test_unknown_method(self, capsys):
        code, _, err = run(capsys, "count", "u", "3", "--method", "egf")
        assert code == 2
        assert "no method" in err

    def test_inconsistent_derivation_is_a_failed_check(self, capsys, monkeypatch):
        def inconsistent(n):
            raise ConsistencyError("u_gf: tampered")

        monkeypatch.setitem(counting.METHODS["u"], "gf", inconsistent)
        code, _, err = run(capsys, "count", "u", "3", "--method", "all")
        assert code == 1
        assert err == "inconsistency: u_gf: tampered\n"

    def test_capacity_exceeded(self, capsys):
        code, _, err = run(capsys, "count", "q", "6", "--method", "bruteforce")
        assert code == 2
        assert "capacity" in err

    def test_values_past_the_int_to_str_limit_print(self, capsys):
        # v(10000) has 4365 digits, past the 4300 Python >= 3.11 converts by
        # default; the CLI lifts that limit for its run and puts it back
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        code, out, err = run(capsys, "count", "v", "10000", "--method", "recurrence")
        assert (code, err) == (0, "")
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        name, n, digits, method = out.split()
        assert (name, n, method) == ("v", "10000", "recurrence")
        assert len(digits) == 4365
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            assert digits == str(counting.v_gf(10000))
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("name", list(counting.SEQUENCES))
    def test_below_domain_rejected(self, capsys, name):
        below = counting.SEQUENCES[name].start - 1
        for extra in ((), ("--method", "all")):
            code, out, err = run(capsys, "count", name, str(below), *extra)
            assert code == 2
            assert out == ""
            assert err.startswith("error: ")
        with pytest.raises(ValueError):
            counting.sequence_value(name, below)

    def test_convention_term_not_enumerable(self, capsys):
        code, _, err = run(capsys, "count", "v_a", "1", "--method", "enumerate")
        assert code == 2
        assert "convention" in err
        assert err.startswith("error: ")  # bad input, not a capacity limit
        # but the all sweep still works, skipping the enumeration
        code, out, _ = run(capsys, "count", "v_a", "1", "--method", "all")
        assert code == 0
        assert out.splitlines()[-1] == "v_a 1 MATCH"


class TestEnumerate:
    def test_twenty_tables(self, capsys):
        code, out, err = run(capsys, "enumerate", "qt-semigroups", "--n", "3")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 20
        assert lines[0] == "cayley 3 : 1 1 1 2 2 2 3 3 3"
        assert err == ""

    def test_weak_order_stream(self, capsys):
        code, out, _ = run(capsys, "enumerate", "weak-orders", "--n", "3")
        assert code == 0
        assert len(out.splitlines()) == 13
        assert out.splitlines()[0] == "weakorder 3 : 1 1 1"

    def test_filters(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "qt-semigroups", "--n", "4",
            "--filter", "neutral", "--filter", "monotone-for-reference",
        )
        assert code == 0
        assert len(out.splitlines()) == 16  # v_e(4)

    def test_sharding_splits_stream(self, capsys):
        whole = run(capsys, "enumerate", "weak-orders", "--n", "4")[1].splitlines()
        pieces = []
        for i in range(3):
            out = run(
                capsys, "enumerate", "weak-orders", "--n", "4",
                "--shards", "3", "--shard", str(i),
            )[1].splitlines()
            pieces.extend(out)
        assert sorted(pieces) == sorted(whole)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "orders.txt"
        code, out, _ = run(
            capsys, "enumerate", "total-orders", "--n", "3", "--output", str(target)
        )
        assert code == 0
        assert out == ""
        assert len(target.read_text().splitlines()) == 6

    def test_capacity_error(self, capsys):
        code, _, err = run(capsys, "enumerate", "weak-orders", "--n", "12")
        assert code == 2
        assert "capacity" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("qt-semigroups", "--n", "10"),
            ("qt-semigroups", "--n", "3", "--shards", "2", "--shard", "2"),
        ],
    )
    def test_rejected_run_creates_no_file(self, capsys, tmp_path, argv):
        target = tmp_path / "out.txt"
        code, out, err = run(capsys, "enumerate", *argv, "--output", str(target))
        assert code == 2
        assert out == ""
        assert err
        assert not target.exists()

    @pytest.mark.parametrize(
        "family",
        [
            "qt-semigroups",
            "total-orders",
            "single-peaked-total-orders",
            "weakly-single-peaked-weak-orders",
        ],
    )
    def test_empty_set_is_an_input_error(self, capsys, family):
        code, out, err = run(capsys, "enumerate", family, "--n", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_listing_longer_than_one_write(self, capsys, tmp_path):
        # q(6) = 12166 lines span several write chunks
        target = tmp_path / "q6.txt"
        code, _, _ = run(capsys, "enumerate", "qt-semigroups", "--n", "6", "--output", str(target))
        assert code == 0
        assert ENUMERATE_CHUNK_LINES < 12166
        text = target.read_text()
        assert text.count("\n") == len(text.splitlines()) == 12166
        assert text.endswith("\n")

    def test_bad_filter(self, capsys):
        code, _, err = run(capsys, "enumerate", "weak-orders", "--n", "3", "--filter", "neutral")
        assert code == 2
        assert "do not apply" in err


class TestCheck:
    def test_report(self, capsys, peaked_file):
        code, out, err = run(capsys, "check", peaked_file)
        assert code == 0
        lines = out.splitlines()
        assert "associative: true" in lines
        assert "quasitrivial: true" in lines
        assert "neutral: 2" in lines
        assert "annihilator: 4" in lines
        assert "degree_sequence: 0 3 3 6" in lines
        assert "order_preserving_for_reference: true" in lines
        assert err == ""

    def test_reference_flag(self, capsys, peaked_file):
        # monotone for the natural ordering but not for 2 < 1 < 3 < 4
        code, out, _ = run(capsys, "check", peaked_file, "--reference", "2 1 3 4")
        assert code == 0
        assert "order_preserving_for_reference: false" in out.splitlines()

    def test_find_order_negative(self, capsys, tmp_path):
        path = tmp_path / "never.cayley"
        path.write_text(X4_NEVER_MONOTONE)
        code, out, _ = run(capsys, "check", str(path), "--find-order")
        assert code == 0
        assert "no order-preserving total ordering exists (24/24 rejected)" in out

    def test_find_order_positive(self, capsys, peaked_file):
        code, out, _ = run(capsys, "check", peaked_file, "--find-order")
        assert code == 0
        assert "found: totalorder 4 : " in out

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(X4_PEAKED))
        code, out, _ = run(capsys, "check", "-")
        assert code == 0
        assert "quasitrivial: true" in out

    def test_parse_error_location(self, capsys, tmp_path):
        path = tmp_path / "bad.cayley"
        path.write_text("cayley 3\n1 2 3\n2 2 5\n3 3 3\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == 2
        assert "line 3, column 5" in err

    def test_reference_diagnostic_points_into_the_flag(self, capsys, monkeypatch):
        text = "cayley 2\n1 1\n1 2\n"
        code, out, err = run_stdin(capsys, monkeypatch, text, "check", "--reference", "1 2 3", "-")
        assert (code, out) == (2, "")
        assert err == "error: --reference: line 1, column 5: unexpected extra token '3'\n"


class TestClassifyDecompose:
    def test_classify_full_record(self, capsys, peaked_file):
        code, out, _ = run(capsys, "classify", peaked_file)
        assert code == 0
        assert "weak_order: 2 1 2 3" in out.splitlines()
        assert "choices: 2=right" in out.splitlines()

    def test_rejected_listed_order_is_a_failed_check(self, capsys, monkeypatch, peaked_file):
        monkeypatch.setattr("quasitrivial.structure.is_order_preserving", lambda f, t: False)
        code, out, err = run(capsys, "classify", peaked_file)
        assert (code, out) == (1, "")
        assert err.startswith("inconsistency: the ordering (")
        assert err.endswith("is listed, but the table is not order-preserving for it\n")

    @pytest.mark.parametrize("n", (9, 12))
    def test_find_order_past_search_cap_is_first_classified(self, capsys, monkeypatch, n):
        # a factorization lists the orders at any n: `check --find-order`
        # prints the first of those `classify` lists
        rng = random.Random(n)
        for thin in (True, True, False):
            text = emit_cayley_line(build(sampled_decomposition(n, rng, thin))) + "\n"
            code, classified, _ = run_stdin(capsys, monkeypatch, text, "classify", "-")
            assert code == 0
            fields = dict(line.split(": ", 1) for line in classified.splitlines())
            code, checked, _ = run_stdin(capsys, monkeypatch, text, "check", "--find-order", "-")
            assert code == 0
            if "monotone_for_1" in fields:
                assert f"found: totalorder {n} : {fields['monotone_for_1']}" in checked
            else:
                assert fields["monotone_for_count"] == "0"
                assert "no order-preserving total ordering exists" in checked

    def test_past_search_cap_without_factorization(self, capsys, monkeypatch):
        rows = [list(row) for row in FiniteBinOp.projection(9, "left").rows]
        rows[0][1] = 2  # quasitrivial, not associative
        text = emit_cayley_line(FiniteBinOp(rows)) + "\n"
        code, out, _ = run_stdin(capsys, monkeypatch, text, "classify", "-")
        assert code == 0
        assert "monotone_for_count: 0\nmonotone_for_truncated: true\n" in out
        code, out, err = run_stdin(capsys, monkeypatch, text, "check", "--find-order", "-")
        assert (code, out) == (2, "")
        assert err.startswith("capacity: ")

    def test_decompose(self, capsys, peaked_file):
        code, out, err = run(capsys, "decompose", peaked_file)
        assert code == 0
        assert out == "weakorder 4 : 2 1 2 3\nchoice 2 : right\n"
        assert err == ""

    def test_decompose_rejects_non_quasitrivial(self, capsys, tmp_path):
        path = tmp_path / "nq.cayley"
        path.write_text(X3_NOT_QUASITRIVIAL)
        code, out, err = run(capsys, "decompose", str(path))
        assert code == 1
        assert out == ""
        assert "not quasitrivial" in err

    def test_decompose_rejects_non_associative(self, capsys, tmp_path):
        path = tmp_path / "na.cayley"
        path.write_text("cayley 3\n1 1 3\n2 2 2\n3 3 3\n")  # quasitrivial, not associative
        code, out, err = run(capsys, "decompose", str(path))
        assert code == 1
        assert out == ""
        assert "not associative" in err


class TestRender:
    def test_contour_ascii(self, capsys, tmp_path):
        path = tmp_path / "max3.cayley"
        path.write_text("cayley 3\n1 2 3\n2 2 3\n3 3 3\n")
        code, out, _ = run(capsys, "render", "contour", str(path))
        assert code == 0
        assert out == "1 2 3\n2 2 3\n3 3 3\n"

    def test_contour_with_axis(self, capsys, peaked_file):
        code, out, _ = run(capsys, "render", "contour", peaked_file, "--axis", "2 1 3 4")
        assert code == 0
        assert out.splitlines()[0] == "2 1 3 4"

    def test_axis_diagnostic_points_into_the_flag(self, capsys, monkeypatch):
        text = "cayley 2\n1 1\n1 2\n"
        argv = ("render", "contour", "-", "--axis", "2 2")
        code, out, err = run_stdin(capsys, monkeypatch, text, *argv)
        assert (code, out) == (2, "")
        assert err == "error: --axis: line 1, column 1: (2, 2) is not a permutation of 1..n\n"

    def test_profile_from_file(self, capsys, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("weakorder 4 : 1 3 3 2\n")
        code, out, _ = run(capsys, "render", "profile", str(path))
        assert code == 0
        assert "violation: V" in out

    def test_profile_svg_output_file(self, capsys, tmp_path):
        src = tmp_path / "profile.txt"
        src.write_text("weakorder 4 : 2 1 2 3\ntotalorder 4 : 1 2 3 4\n")
        dst = tmp_path / "plot.svg"
        code, out, _ = run(
            capsys, "render", "profile", str(src), "--format", "svg", "--output", str(dst)
        )
        assert code == 0
        assert out == ""
        assert dst.read_text().startswith("<?xml")

    def test_profile_requires_weakorder_line(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("totalorder 3 : 1 2 3\n")
        code, _, err = run(capsys, "render", "profile", str(path))
        assert code == 2
        assert "weakorder" in err

    @pytest.mark.parametrize("text, err", [
        # once, the stray line was skipped and the last weakorder line drawn
        ("weakorder 2 : 1 2\nhello\nweakorder 3 : 1 2 1\n",
         "line 2, column 1: expected 'weakorder' or 'totalorder', got 'hello'"),
        ("weakorder 3 : 1 2 1\ntotalorder 3 : 1 2 3\n\n  totalorder 3 : 3 2 1\n",
         "line 4, column 3: a profile has one totalorder line"),
        ("\nweakorder 3 : 1 2 1\ntotalorder 3 : 1 2 3 # natural\n",
         "line 3, column 22: unexpected extra token '#'"),
    ])
    def test_profile_rejects_what_it_does_not_read(self, capsys, tmp_path, text, err):
        path = tmp_path / "profile.txt"
        path.write_text(text)
        code, out, got = run(capsys, "render", "profile", str(path))
        assert (code, out) == (2, "")
        assert got == f"parse error: {err}\n"

    def test_profile_reference_overrides_file_line(self, capsys, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("weakorder 4 : 2 1 2 3\ntotalorder 4 : 1 2 3 4\n")
        _, out, _ = run(capsys, "render", "profile", str(path))
        assert "x-axis: 1 2 3 4" in out.splitlines()
        code, out, _ = run(capsys, "render", "profile", str(path), "--reference", "4 3 2 1")
        assert code == 0
        assert "x-axis: 4 3 2 1" in out.splitlines()

    def test_profile_reference_line_of_another_size(self, capsys, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("weakorder 4 : 2 1 2 3\ntotalorder 3 : 1 2 3\n")
        code, out, err = run(capsys, "render", "profile", str(path))
        assert (code, out) == (2, "")
        assert err == "error: reference and weak order have different cardinalities\n"

    @pytest.mark.parametrize("kind, flag", [("profile", "--axis"), ("contour", "--reference")])
    def test_each_kind_takes_only_its_own_flag(self, capsys, monkeypatch, kind, flag):
        monkeypatch.setattr("sys.stdin", io.StringIO(PROFILE_OR_TABLE[kind]))
        with pytest.raises(SystemExit) as exc:
            main(["render", kind, "-", flag, "2 1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + flag in capsys.readouterr().err


# a profile file or a Cayley table, both on {1, 2}
PROFILE_OR_TABLE = {"profile": "weakorder 2 : 1 2\n", "contour": "cayley 2\n1 1\n1 2\n"}


@pytest.mark.parametrize("argv", [
    ("check", "-", "--reference", ""),
    ("classify", "-", "--reference", ""),
    ("render", "contour", "-", "--axis", ""),
    ("render", "profile", "-", "--reference", ""),
])
def test_empty_ordering_flag_is_an_input_error(capsys, monkeypatch, argv):
    # an empty value is malformed, not the natural ordering
    text = PROFILE_OR_TABLE["profile" if "profile" in argv else "contour"]
    code, out, err = run_stdin(capsys, monkeypatch, text, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {argv[-2]}: line 1, column 1: expected 2 element entries, got 0\n"


class TestOracle:
    def test_count(self, capsys):
        code, out, _ = run(capsys, "oracle", "qt-associative-count", "--n", "3")
        assert code == 0
        assert out == "20\n"

    def test_count_sharded(self, capsys):
        total = 0
        for i in range(4):
            code, out, _ = run(
                capsys, "oracle", "qt-associative-count", "--n", "4",
                "--shards", "4", "--shard", str(i),
            )
            assert code == 0
            total += int(out)
        assert total == 138

    def test_implication_pass(self, capsys):
        code, out, _ = run(capsys, "oracle", "neutral-implies-quasitrivial", "--n", "3")
        assert code == 0
        assert out == "PASS\n"

    @pytest.mark.parametrize("check, search", [
        ("neutral-implies-quasitrivial", "check_neutral_monotone_implies_quasitrivial"),
        ("commutative-implies-associative", "check_commutative_monotone_implies_associative"),
    ])
    def test_implication_fail_prints_witness(self, capsys, monkeypatch, check, search):
        monkeypatch.setattr(f"quasitrivial.oracle.{search}", lambda n: (False, "cayley 2 : 1 2 2 1"))
        code, out, err = run(capsys, "oracle", check, "--n", "2")
        assert (code, out, err) == (1, "FAIL\ncayley 2 : 1 2 2 1\n", "")

    def test_monotonizable(self, capsys):
        code, out, _ = run(capsys, "oracle", "monotonizable-count", "--n", "4")
        assert code == 0
        assert out == "130\n"

    def test_capacity(self, capsys):
        code, _, err = run(capsys, "oracle", "qt-associative-count", "--n", "7")
        assert code == 2
        assert "capacity" in err

    @pytest.mark.parametrize("check", [c for c in ORACLE_CHECKS if c != "qt-associative-count"])
    def test_unsharded_check_rejects_a_shard(self, capsys, check):
        # a shard of a whole-search check would print the full answer, so
        # the shards would not sum to it
        code, out, err = run(capsys, "oracle", check, "--n", "3", "--shards", "2", "--shard", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "--shards 1 --shard 0" in err
        code, out, err = run(capsys, "oracle", check, "--n", "2", "--shards", "1", "--shard", "0")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("check", ORACLE_CHECKS)
    def test_empty_set_is_bad_input_not_capacity(self, capsys, check):
        code, out, err = run(capsys, "oracle", check, "--n", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "n >= 1" in err


class TestVerify:
    def test_tampered_constant_fails_naming_sequence_and_index(self, capsys, monkeypatch):
        original = counting.q_closed

        def inconsistent(n):
            raise ConsistencyError("u_gf: tampered division")

        tampered = (
            # a wrong value, held to the first derivation's
            ("q", "closed", lambda n: 999 if n == 5 else original(n),
             "q(5): recurrence gives 1182, earlier method gave 999"),
            # a derivation that finds its own inconsistency fails the check,
            # not the run
            ("u", "gf", inconsistent, "u_gf: tampered division"),
        )
        for name, method, fn, detail in tampered:
            with monkeypatch.context() as patch:
                patch.setitem(counting.METHODS[name], method, fn)
                code, out, err = run(capsys, "verify", "quick")
            assert code == 1
            assert f"FAIL method-agreement: {detail}" in out.splitlines()
            assert "of 3 checks failed" in err

    @staticmethod
    def add_q_copy(monkeypatch, search="brute_count_quasitrivial_associative", published=12166):
        """A new `SEQUENCES` row, q_copy: q's derivations (a copy of the
        dict), a brute-force route by `search` and a published n = 6 term."""
        q = counting.SEQUENCES["q"]
        row = counting.Sequence(
            dict(q.derivations), q.family, bruteforce=(1, search), published={6: published}
        )
        monkeypatch.setitem(counting.SEQUENCES, "q_copy", row)
        return row

    def test_new_registry_row_is_checked(self, monkeypatch):
        row = self.add_q_copy(monkeypatch)
        indices = []

        def recorded(n):
            indices.append(n)
            return counting.q_recurrence(n)

        row.derivations["recurrence"] = recorded
        checks = dict(verify.FULL_CHECKS)
        assert checks["published-values"]() == "16 published values reproduced"
        assert checks["method-agreement"]() == "all derivations of every sequence agree for n <= 6"
        assert indices == list(range(7))
        assert checks["oracle-counts"]() == (
            "raw table search reproduces q(n), q_copy(n) for n <= 5 (q_copy(5) oracle = 1182)"
        )

    def test_new_registry_row_fails_naming_row_and_index(self, monkeypatch):
        checks = dict(verify.FULL_CHECKS)
        with monkeypatch.context() as patch:
            self.add_q_copy(patch, published=12167)
            with pytest.raises(verify.CheckFailure) as info:
                checks["published-values"]()
        assert str(info.value) == "q_copy(6) = 12166, published value is 12167"

        def tampered(n):
            return counting.q_recurrence(n) + (n == 3)

        monkeypatch.setattr("quasitrivial.oracle.tampered_search", tampered, raising=False)
        self.add_q_copy(monkeypatch, search="tampered_search")
        with pytest.raises(verify.CheckFailure) as info:
            checks["oracle-counts"]()
        assert str(info.value) == "raw search gives q_copy(3) = 21, expected 20"


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "quasitrivial", "count", "q", "4"],
            capture_output=True,
            cwd=PACKAGE_PARENT,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "q 4 138 closed\n"
        assert proc.stderr == ""

    def test_stdin_pipe(self):
        proc = subprocess.run(
            [sys.executable, "-m", "quasitrivial", "decompose", "-"],
            input=X4_PEAKED,
            capture_output=True,
            cwd=PACKAGE_PARENT,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "weakorder 4 : 2 1 2 3"


class TestParserReuse:
    # one parser serves every call in a process; no call may see another's
    # arguments
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_filter_list_starts_empty(self, capsys):
        filtered = run(capsys, "enumerate", "qt-semigroups", "--n", "3", "--filter", "commutative")
        plain = run(capsys, "enumerate", "qt-semigroups", "--n", "3")
        assert [len(out.splitlines()) for _, out, _ in (filtered, plain)] == [6, 20]

    def test_find_order_not_kept(self, capsys, monkeypatch):
        _, out, _ = run_stdin(capsys, monkeypatch, X4_PEAKED, "check", "--find-order", "-")
        assert "found: " in out
        _, out, _ = run_stdin(capsys, monkeypatch, X4_PEAKED, "check", "-")
        assert "found: " not in out

    def test_reference_not_kept(self, capsys, monkeypatch):
        text = "cayley 3 : 1 2 3 2 2 3 3 3 3\n"  # the maximum for 1 < 2 < 3
        _, out, _ = run_stdin(capsys, monkeypatch, text, "classify", "--reference", "1 3 2", "-")
        assert "order_preserving_for_reference: false" in out.splitlines()
        _, out, _ = run_stdin(capsys, monkeypatch, text, "classify", "-")
        assert "order_preserving_for_reference: true" in out.splitlines()


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "q", "5", "--method", "all"),
            ("enumerate", "qt-semigroups", "--n", "3"),
            ("verify", "quick"),
        ],
    )
    def test_identical_invocations_identical_bytes(self, capsys, argv):
        first = run(capsys, *argv)
        pinned = self.ONE_RUN_SHA256.get(argv)
        if pinned is None:
            assert first == run(capsys, *argv)
        else:
            code, out, err = first
            assert (code, err) == (0, "")
            assert hashlib.sha256(out.encode()).hexdigest() == pinned

    # the raw 2^20-table search of `count q 5 --method all` takes seconds and
    # `verify quick` repeats checks the acceptance tests run, so each runs
    # once, against the stdout SHA-256 of a run at an earlier commit (the
    # quick digest is VERIFY_SHA256["quick"])
    ONE_RUN_SHA256 = {
        ("count", "q", "5", "--method", "all"):
            "36f17686b5cc52bdc4b1a367890511af118b7fc20ca993bd47accc0721ebdea0",
        ("verify", "quick"):
            "4bde4926924d33c8ecd815281f5a6c66a1d87dcb361331cf56fb4444f8d63e23",
    }

    # stdout SHA-256 of each listing: the first five computed at a commit that
    # built every table cell by cell and sliced shards after building, the
    # rest at the last commit before the families shared one table of streams
    PINNED_SHA256 = {
        ("qt-semigroups", "--n", "5"):
            "aa01c3100679882a96d82e79309c6510045ce7ad21eeed1783f47c9475fb2e48",
        ("qt-semigroups", "--n", "5", "--shards", "3", "--shard", "0"):
            "648dfc1889a21f3cf52b295cf441f9d2d4419b304bab80115fcb4710c766ae19",
        ("qt-semigroups", "--n", "5", "--shards", "3", "--shard", "1"):
            "e7b5a5fa831aca97aa4209cdbfd38d65e83d4ed233ea83a3ac80954d9408aaab",
        ("qt-semigroups", "--n", "5", "--shards", "3", "--shard", "2"):
            "0dd5fb0d7f0c5c3ffc4245b582154e1f2734d833d0142325e2c15fa46bf7c03f",
        ("weak-orders", "--n", "6"):
            "73bc92bd24f48a07f16974a6c2a9c4b9bb53094e815a09ebc35ce19edc9eb202",
        ("total-orders", "--n", "5"):
            "6369f1bd927cad58711577a88ea1fff2c0f82ffe739601bfc47188a4dd14f0f0",
        ("single-peaked-total-orders", "--n", "7"):
            "87616a54c6852dda0fddafac6ac164abd27e07418c607a8173e5815883af03fb",
        ("weakly-single-peaked-weak-orders", "--n", "6"):
            "87d69a7d3e8b1e0953a0e148b4367842fb61c43e231a7640bf0b923624918888",
        # the peakedness families are sliced after their test, so a shard
        # indexes only the orderings that pass
        ("single-peaked-total-orders", "--n", "7", "--shards", "3", "--shard", "1"):
            "5f57b70527e7bf0756f4b9cbe65feefe210376a79cbae5321c160243d56d6566",
        ("weakly-single-peaked-weak-orders", "--n", "6", "--shards", "3", "--shard", "1"):
            "c396a0e9e5468e5cb14023f7ca42ae2cdcb4a6cb73265f57fbe9c8915c986526",
    }

    @pytest.mark.parametrize("argv", list(PINNED_SHA256))
    def test_pinned_listing_bytes(self, capsys, argv):
        code, out, err = run(capsys, "enumerate", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_SHA256[argv]

    # stdout SHA-256 of each verify level, computed at a commit whose
    # acceptance tests still re-implemented verify's checks
    VERIFY_SHA256 = {
        "quick": "4bde4926924d33c8ecd815281f5a6c66a1d87dcb361331cf56fb4444f8d63e23",
        "full": "09126d4964ded937e5cc92726cc5052acbd64120f8de076df9de391d51421183",
    }

    @pytest.mark.parametrize("level", list(VERIFY_SHA256))
    def test_pinned_verify_bytes(self, capsys, monkeypatch, verify_runs, level):
        # each check reports the session's one run of it, which the
        # acceptance tests also assert; the CLI formats and prints the report
        def replay(name):
            def check():
                detail, _ = verify_runs(name)
                if isinstance(detail, verify.CheckFailure):
                    raise detail
                return detail

            return check

        for registry in ("QUICK_CHECKS", "FULL_CHECKS"):
            checks = getattr(verify, registry)
            monkeypatch.setattr(verify, registry, tuple((n, replay(n)) for n, _ in checks))
        code, out, err = run(capsys, "verify", level)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.VERIFY_SHA256[level]


def mutant(f, kind, rng):
    """f with one off-diagonal cell changed: flipped to the other argument so
    that the table stops being associative ("A"), or set to a third value
    ("Q"); None if no flip breaks associativity."""
    n = f.n
    cells = [(x, y) for x in range(n) for y in range(n) if x != y]
    rng.shuffle(cells)
    for x, y in cells:
        rows = [list(row) for row in f.rows]
        if kind == "A":
            rows[x][y] = y + 1 if rows[x][y] == x + 1 else x + 1
            if is_associative(FiniteBinOp(rows)):
                continue
        else:
            rows[x][y] = rng.choice([z for z in range(1, n + 1) if z not in (x + 1, y + 1)])
        return FiniteBinOp(rows)
    return None


def read_path_inputs():
    """Seeded tables for n = 5..8: six factorizations, two flipped-cell and
    two third-value mutants of further ones, each in a random text form."""
    rng = random.Random("read-path")
    for n in range(5, 9):
        for kind in "DDDDDDAAQQ":
            f = build(sampled_decomposition(n, rng, thin=rng.random() < 0.5))
            if kind != "D":
                f = mutant(f, kind, rng) or f
            yield emit_cayley(f) if rng.random() < 0.5 else emit_cayley_line(f) + "\n"


READ_COMMANDS = (
    ("classify", "-"),
    ("check", "--find-order", "-"),
    ("decompose", "-"),
    ("render", "contour", "-", "--format", "svg"),
)
# SHA-256 over the exit code, stdout and stderr of every command on every
# table of `read_path_inputs`, computed with the line-by-line regex tokenizer,
# the rank-sorting SVG renderer and a `classify` that re-checked the
# preconditions of `decompose`
READ_PATH_SHA256 = "fcdabeaba18826af2f5efe68f90eff72a7d5d39c70838d023faaa10d7dd1c57a"


def test_read_path_bytes_pinned(capsys, monkeypatch):
    digest = hashlib.sha256()
    for text in read_path_inputs():
        for argv in READ_COMMANDS:
            code, out, err = run_stdin(capsys, monkeypatch, text, *argv)
            digest.update(f"{code}\n{out}\n{err}\n".encode())
    assert digest.hexdigest() == READ_PATH_SHA256
