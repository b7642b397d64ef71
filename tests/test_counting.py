"""Counting: golden tables, cross-method agreement, series, the registry."""

import copy
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from quasitrivial import CapacityError, ConsistencyError
from quasitrivial import counting as C

from conftest import (
    TABLE_Q,
    TABLE_U,
    TABLE_V,
    exp_bounds,
    series_coefficient_by_fractions,
    singularity_bracket,
    stirling2_explicit,
)


def brute_force_stirling(n, k):
    """Oracle: count k-block set partitions of {1..n} by direct generation."""
    if n == 0:
        return 1 if k == 0 else 0

    def partitions(elements):
        if not elements:
            yield []
            return
        head, rest = elements[0], elements[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[head] + sub[i]] + sub[i + 1 :]
            yield [[head]] + sub

    return sum(1 for p in partitions(list(range(1, n + 1))) if len(p) == k)


class TestBasics:
    def test_stirling_against_brute_force(self):
        for n in range(7):
            for k in range(n + 1):
                assert C.stirling2(n, k) == brute_force_stirling(n, k)

    def test_stirling_listed_values(self):
        assert C.stirling2(4, 2) == 7 == brute_force_stirling(4, 2)
        for n in range(1, 8):
            assert C.stirling2(n, n) == 1
            assert C.stirling2(n, 0) == 0

    def test_stirling_two_derivations_agree(self):
        for n in range(31):
            for k in range(0, n + 1, max(1, n // 5)):
                assert C.stirling2(n, k) == stirling2_explicit(n, k)
        assert C.stirling2(600, 300) == stirling2_explicit(600, 300)  # past the stack limit

    def test_stirling_range_check(self):
        with pytest.raises(ValueError):
            C.stirling2(2, 3)

    def test_stirling_holds_one_row_at_a_time(self):
        # row n alone: two rows at the peak, not the whole triangle
        tracemalloc.start()
        try:
            C.stirling2(300, 150)
            row_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            triangle = list(C._stirling2_rows(300))
            triangle_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert triangle[300][150] == C.stirling2(300, 150)
        assert 20 * row_peak < triangle_peak


class TestPowerSeries:
    """`_series_coefficient`, the one series division behind every gf and egf
    derivation, works in integers scaled by `scale`: the quotient convolved
    with the denominator gives back scale times the numerator."""

    @staticmethod
    def convolved(numerator, denominator, order, scale):
        quotient = [C._series_coefficient(numerator, denominator, m, scale) for m in range(order)]
        assert quotient == [
            scale * series_coefficient_by_fractions(numerator, denominator, m) for m in range(order)
        ]
        return [
            sum(denominator[j] * quotient[m - j] for j in range(min(m + 1, len(denominator))))
            for m in range(order)
        ]

    def test_reciprocal_multiplies_to_one(self):
        # coefficient m of the reciprocal has a power of 2 up to 2^(m+1) below it
        denominator = [Fraction(v) for v in (2, -1, 3, 5, -7, 11)]
        assert self.convolved((1,), denominator, 8, 2**8) == [2**8] + [0] * 7
        # a numerator longer than the denominator, over rational coefficients:
        # 1/(1/3 + 2z/7) = 3 sum (-6z/7)^m, so 7^8 clears every coefficient
        numerator = (3, 0, -4, 1, 9, 2, -5)
        expected = [7**8 * v for v in numerator] + [0]
        assert self.convolved(numerator, [Fraction(1, 3), Fraction(2, 7)], 8, 7**8) == expected

    def test_too_small_scale_is_an_inconsistency(self):
        denominator = [Fraction(v) for v in (2, -1, 3, 5, -7, 11)]
        assert (2**5 * series_coefficient_by_fractions((1,), denominator, 5)).denominator != 1
        with pytest.raises(ConsistencyError):
            C._series_coefficient((1,), denominator, 5, 2**5)

    def test_egf_scale_makes_every_coefficient_whole(self):
        # n! clears every coefficient through z^n of 1/(z + 3 - 2e^z)
        for n in range(12):
            denominator = C._series_q_denominator(n + 1)
            reference = series_coefficient_by_fractions((1,), denominator, n)
            assert C._egf_term(denominator, n) == reference * math.factorial(n) == C.q_recurrence(n)

    def test_reciprocal_needs_unit_constant_term(self):
        with pytest.raises(ValueError):
            C._series_coefficient((1,), (Fraction(0), Fraction(1)), 3, 1)

    @pytest.mark.parametrize("gf", [C.U_GF, C.V_GF])
    @pytest.mark.parametrize("n", [-1, -4])
    def test_negative_index_is_a_value_error(self, gf, n):
        # bad input, not an IndexError from past the solved coefficients
        with pytest.raises(ValueError, match=f"no coefficient {n}"):
            C.rational_gf_term(*gf, n)


class TestOrderedBell:
    def test_listed_values(self):
        assert C.ordered_bell(3) == 13
        assert C.ordered_bell(0) == 1
        assert C.ordered_bell(4) == 75

    def test_three_derivations_agree(self):
        for n in range(31):
            assert C.ordered_bell(n) == C.ordered_bell_formula(n) == C.ordered_bell_egf(n)

    def test_formula_reads_one_stirling_row(self, monkeypatch):
        # not stirling2 once per k, which would walk the triangle n + 1 times
        monkeypatch.setattr(C, "stirling2", None)
        assert C.ordered_bell_formula(30) == C.ordered_bell(30)


def q_terms_by_pascal_rows(n):
    """q(0..n) by q(m) = 2 sum_{k<m} C(m,k) q(k) - m q(m-1), each row of
    Pascal's triangle added up from the last."""
    terms, row = [1], [1]
    for m in range(1, n + 1):
        row = [1] + [a + b for a, b in zip(row, row[1:])] + [1]
        terms.append(2 * sum(c * t for c, t in zip(row, terms)) - m * terms[-1])
    return terms


class TestQ:
    @pytest.mark.parametrize("method", ["q_closed", "q_recurrence", "q_egf", "q_appendix"])
    def test_table_row(self, method):
        fn = getattr(C, method)
        assert [fn(n) for n in range(7)] == TABLE_Q["q"]

    def test_conventions(self):
        assert C.q_closed(0) == C.q_recurrence(0) == C.q_egf(0) == C.q_appendix(0) == 1

    def test_methods_agree_far_out(self):
        for n in (7, 10, 30, 200):
            values = {C.q_closed(n), C.q_recurrence(n), C.q_egf(n), C.q_appendix(n)}
            assert len(values) == 1

    def test_recurrence_deep_index(self):
        # past the stack limit, against a reference recurrence of its own
        assert C.q_recurrence(600) == q_terms_by_pascal_rows(600)[600]
        with pytest.raises(ValueError):
            C.q_recurrence(-1)

    def test_recurrence_answers_in_any_order(self):
        # asked out of order, each term is computed afresh from n
        reference = q_terms_by_pascal_rows(120)
        for n in (50, 10, 120):
            assert C.q_recurrence(n) == reference[n]

    def test_derived_families(self):
        assert [C.q_neutral(n) for n in range(7)] == TABLE_Q["q_e"]
        assert [C.q_annihilator(n) for n in range(7)] == TABLE_Q["q_a"]
        assert [C.q_both(n) for n in range(7)] == TABLE_Q["q_ea"]
        assert C.q_neutral(6) == 7092
        assert C.q_both(5) == 400
        assert C.q_both(1) == 0


class TestUFamily:
    def test_table_rows(self):
        for name, row in TABLE_U.items():
            assert [C.sequence_value(name, n) for n in range(7)] == row

    def test_closed_form_inner_sum(self):
        # 2 u(4) + 1 must equal C(5,0) + 2 C(5,2) + 4 C(5,4) = 41
        assert 2 * C.u_closed(4) + 1 == 41
        assert C.u_closed(4) == 20

    def test_inexact_shifted_division_is_an_inconsistency(self):
        assert C._exact_shifted_div(41, 1, 2, "u closed form") == 20
        with pytest.raises(ConsistencyError, match="u closed form: 42 - 1 not divisible by 2"):
            C._exact_shifted_div(42, 1, 2, "u closed form")

    def test_methods_agree_far_out(self):
        for n in range(31):
            assert C.u_recurrence(n) == C.u_closed(n) == C.u_gf(n)
            assert C.u_e_recurrence(n) == C.u_e_closed(n) == C.u_e_gf(n)

    def test_shift_identities(self):
        for n in range(1, 31):
            assert C.u_a(n) == 2 * C.u_recurrence(n - 1)
            assert C.u_ea(n) == 2 * C.u_e_recurrence(n - 1)

    def test_pell_numbers(self):
        assert [C.u_e_recurrence(n) for n in range(10)] == [0, 1, 2, 5, 12, 29, 70, 169, 408, 985]

    def test_radical_forms_as_float_diagnostics(self):
        r2 = math.sqrt(2)
        for n in range(20):
            via_radicals = ((1 + r2) ** (n + 1) + (1 - r2) ** (n + 1)) / 2
            assert abs(via_radicals - (2 * C.u_closed(n) + 1)) < 1e-6 * max(1, via_radicals)
            via_radicals_e = (r2 / 4) * ((1 + r2) ** n - (1 - r2) ** n)
            assert abs(via_radicals_e - C.u_e_closed(n)) < 1e-6 * max(1, via_radicals_e)


class TestVFamily:
    def test_table_rows(self):
        for name, row in TABLE_V.items():
            assert [C.sequence_value(name, n) for n in range(7)] == row

    def test_closed_form_inner_sum(self):
        # 3 v(2) + 2 = 14: the k = 0 term contributes 8, the k = 1 term 6
        assert 3 * C.v_closed(2) + 2 == 14
        assert C.v_closed(2) == 4

    def test_methods_agree_far_out(self):
        for n in range(31):
            assert C.v_recurrence(n) == C.v_closed(n) == C.v_gf(n)
            assert C.v_e_recurrence(n) == C.v_e_closed(n) == C.v_e_gf(n)

    def test_shift_identities(self):
        for n in range(1, 31):
            assert C.v_a(n) == 2 * C.v_recurrence(n - 1)
            assert C.v_ea(n) == 2 * C.v_e_recurrence(n - 1)

    def test_radical_forms_as_float_diagnostics(self):
        r3 = math.sqrt(3)
        for n in range(20):
            via_radicals = ((2 + r3) / 2) * (1 + r3) ** n + ((2 - r3) / 2) * (1 - r3) ** n
            assert abs(via_radicals - (3 * C.v_closed(n) + 2)) < 1e-6 * max(1, via_radicals)


class TestDirectCounts:
    def test_single_peaked(self):
        assert C.single_peaked_count(3) == 4
        assert C.single_peaked_count(1) == 1
        with pytest.raises(ValueError):
            C.single_peaked_count(0)

    def test_commutative(self):
        assert C.commutative_count(3) == 6
        assert C.commutative_count(6) == 720


class TestRationalGf:
    def test_denominator_recurrences_reproduce_sequences(self):
        # the linear recurrence induced by each published denominator
        for n in range(25):
            assert C.rational_gf_term(*C.U_GF, n) == C.u_recurrence(n)
            assert C.rational_gf_term(*C.U_E_GF, n) == C.u_e_recurrence(n)
            assert C.rational_gf_term(*C.V_GF, n) == C.v_recurrence(n)
            assert C.rational_gf_term(*C.V_E_GF, n) == C.v_e_recurrence(n)

    def test_rejects_zero_constant_denominator(self):
        with pytest.raises(ValueError):
            C.rational_gf_term((1,), (0, 1), 3)


class TestSingularityProbe:
    def test_root_location(self):
        a, b = singularity_bracket()
        assert Fraction(1, 2) < a < b < Fraction(3, 5)
        assert b - a < Fraction(1, 10**31)
        # z + 3 - 2e^z changes sign across [a, b], with e^z bounded exactly
        assert a + 3 - 2 * exp_bounds(a)[1] > 0
        assert b + 3 - 2 * exp_bounds(b)[0] < 0
        root = float(a)
        assert abs(root - 0.583) < 1e-3
        assert abs(1 / root - 1.715) < 1e-3
        assert abs(root + 3 - 2 * math.exp(root)) <= 1e-12


class TestRegistry:
    def test_every_sequence_has_methods(self):
        for name, seq in C.SEQUENCES.items():
            assert seq.derivations and C.METHODS[name] is seq.derivations

    def test_sequence_value_dispatch(self):
        assert C.sequence_value("q", 6) == 12166
        assert C.sequence_value("q", 6, "appendix") == 12166
        with pytest.raises(ValueError):
            C.sequence_value("zz", 3)
        with pytest.raises(ValueError):
            C.sequence_value("q", 3, "gf")

    @pytest.mark.parametrize(
        "name,method",
        [(name, method) for name, seq in C.SEQUENCES.items() for method in seq.derivations],
    )
    def test_derivation_rejects_index_below_start(self, name, method):
        # called directly, past the registry's domain check: bad input is a
        # ValueError, never a number, a ConsistencyError or an IndexError
        fn = C.METHODS[name][method]
        for n in (C.SEQUENCES[name].start - 1, -3):
            with pytest.raises(ValueError):
                fn(n)

    def test_convention_term_is_not_a_capacity_limit(self):
        with pytest.raises(ValueError, match="convention") as info:
            C.count_by_enumeration("v_a", 1)
        assert not isinstance(info.value, CapacityError)

    def test_derivations_keep_no_module_state(self):
        # every derivation of every row, at n <= 60 in a shuffled order,
        # leaves every module-level name bound to an equal value: the same
        # object, and for a container the same contents
        def snapshot():
            return {
                name: copy.deepcopy(value) if isinstance(value, (list, dict, set)) else value
                for name, value in vars(C).items()
                if name != "__builtins__"
            }

        calls = [
            (fn, n)
            for seq in C.SEQUENCES.values()
            for fn in seq.derivations.values()
            for n in range(seq.start, 61)
        ]
        random.Random(1).shuffle(calls)
        before = snapshot()
        for fn, n in calls:
            fn(n)
        assert snapshot() == before
        # and no container but the registries, which a memo filled earlier
        # in the session could hide in
        containers = {
            name for name, value in before.items()
            if isinstance(value, (list, dict, set)) and not name.startswith("__")
        }
        assert containers == {"SEQUENCES", "METHODS"}


def test_u_counts_tie_to_subset_sums():
    # u against a direct count of the weakly single-peaked weak orderings
    from quasitrivial.enumeration import FamilySpec, count

    for n in range(1, 7):
        assert count(FamilySpec("weakly-single-peaked-weak-orders", n)) == C.u_recurrence(n)
