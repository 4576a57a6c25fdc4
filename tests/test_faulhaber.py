"""Bernoulli numbers, power-sum polynomials, T-forms, and the identity checks."""

import copy
import hashlib
import pickle
import random
import threading
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powersums import faulhaber
from powersums.faulhaber import (
    BernoulliTable,
    FaulhaberForm,
    VerificationReport,
    bernoulli,
    faulhaber_coefficients,
    infer_odd_bernoulli,
    power_sum_direct,
    power_sum_poly_n,
    power_sum_tform,
    telescoping_check,
    verify_faulhaber,
    verify_pascal_identity,
)
from powersums.polynomial import Polynomial, monomial, poly_eval, t_to_n


def lagrange_eval(points, x):
    """Exact Lagrange interpolation through the given (x, y) pairs."""
    total = Fraction(0)
    for i, (xi, yi) in enumerate(points):
        term = Fraction(yi)
        for j, (xj, _) in enumerate(points):
            if i != j:
                term *= Fraction(x - xj, xi - xj)
        total += term
    return total


def fraction_recurrence(top):
    """B_0..B_top by the defining recurrence in plain Fraction arithmetic."""
    values = [Fraction(1)]
    for n in range(1, top + 1):
        values.append(-sum(comb(n + 1, k) * values[k] for k in range(n)) / (n + 1))
    return values


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(6) == Fraction(1, 42)

    def test_small_odd_values_vanish(self):
        assert bernoulli(3) == 0
        assert bernoulli(5) == 0

    def test_negative_index_is_a_domain_error(self):
        with pytest.raises(ValueError):
            bernoulli(-1)

    def test_repeated_calls_consistent(self):
        assert bernoulli(30) == bernoulli(30)

    def test_fresh_table_matches_shared(self):
        table = BernoulliTable()
        assert [table.get(k) for k in range(25)] == [bernoulli(k) for k in range(25)]

    def test_defining_recurrence_rechecks(self):
        # The recurrence that generated the table must re-verify from the
        # stored values alone, for every n up to 200.
        table = BernoulliTable()
        table.get(200)
        for n in range(1, 201):
            assert sum(comb(n + 1, k) * table.get(k) for k in range(n + 1)) == 0

    def test_denominators_follow_von_staudt_clausen(self):
        # den(B_2k) is the product of the primes p with (p - 1) | 2k: an
        # oracle that shares nothing with the recurrence.
        primes = [p for p in range(2, 502) if all(p % d for d in range(2, int(p**0.5) + 1))]
        assert bernoulli(1).denominator == 2
        for even in range(2, 501, 2):
            expected = 1
            for p in primes:
                if even % (p - 1) == 0:
                    expected *= p
            assert bernoulli(even).denominator == expected, even

    def test_table_reads_no_binomial(self, monkeypatch):
        # The table comes from the zigzag triangle alone, so the recurrence
        # rechecks and fraction_recurrence are oracles independent of it.
        def refuse(n, k):
            raise AssertionError("the Bernoulli table computed a binomial")

        monkeypatch.setattr(faulhaber, "comb", refuse)
        BernoulliTable().get(120)

    @pytest.mark.parametrize("order", ["one step", "one at a time", "shuffled"])
    def test_growth_order_does_not_change_values(self, order):
        # However the table grows, one triangle row at a time, every value
        # equals the plain Fraction recurrence.
        top = 300
        table = BernoulliTable()
        if order == "one step":
            table.get(top)
        else:
            indices = list(range(top + 1))
            if order == "shuffled":
                random.Random(2018).shuffle(indices)
            for k in indices:
                table.get(k)
        assert len(table) == top + 1
        assert [table.get(k) for k in range(top + 1)] == fraction_recurrence(top)

    def test_concurrent_extension_is_consistent(self):
        table = BernoulliTable()
        results = [None] * 8

        def worker(slot):
            results[slot] = table.get(80)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)
        assert len(table) == 81
        assert results[0] == bernoulli(80)

    def test_concurrent_memoised_forms_are_consistent(self):
        power_sum_tform.cache_clear()
        power_sum_poly_n.cache_clear()
        results = [None] * 8

        def worker(slot):
            results[slot] = (str(power_sum_tform(40).p), power_sum_poly_n(41))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r == results[0] for r in results)


class TestPowerSumPolynomial:
    def test_gauss_closed_form(self):
        assert power_sum_poly_n(1) == Polynomial((0, Fraction(1, 2), Fraction(1, 2)), "n")

    def test_cubes(self):
        expected = Polynomial((0, 0, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)), "n")
        assert power_sum_poly_n(3) == expected

    def test_fourth_powers(self):
        # (6n^5 + 15n^4 + 10n^3 - n)/30, frozen from an interpolation fit.
        expected = Polynomial(
            (0, Fraction(-1, 30), 0, Fraction(1, 3), Fraction(1, 2), Fraction(1, 5)), "n"
        )
        assert power_sum_poly_n(4) == expected

    def test_fourth_powers_against_interpolation_oracle(self):
        # Fit a degree-5 polynomial through brute-force sums at n = 0..5,
        # then demand agreement with both the fit and brute force at 6..10.
        points = [(n, power_sum_direct(4, n)) for n in range(6)]
        poly = power_sum_poly_n(4)
        for n in range(11):
            direct = power_sum_direct(4, n)
            assert lagrange_eval(points, n) == direct
            assert poly_eval(poly, n) == direct

    def test_domain_error_below_one(self):
        with pytest.raises(ValueError):
            power_sum_poly_n(0)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_structure(self, m):
        poly = power_sum_poly_n(m)
        assert poly.var == "n"
        assert poly.degree == m + 1
        assert poly.coefficient(0) == 0
        assert poly.coeffs[-1] == Fraction(1, m + 1)

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=60))
    def test_matches_direct_summation(self, m, n):
        assert poly_eval(power_sum_poly_n(m), n) == power_sum_direct(m, n)

    def test_matches_per_coefficient_fractions(self):
        # The reference builds each coefficient of n^(m+1-j) as its own
        # Fraction, (-1)^j * C(m+1, j) * B_j / (m+1).
        for m in range(1, 121):
            order = m + 1
            reference = [Fraction(0)] * (order + 1)
            for j in range(order):
                reference[order - j] = Fraction((-1) ** j * comb(order, j), order) * bernoulli(j)
            assert power_sum_poly_n(m) == Polynomial(reference, "n")


class TestPowerSumDirect:
    def test_examples(self):
        assert power_sum_direct(3, 3) == 36
        assert power_sum_direct(7, 2) == 129
        assert power_sum_direct(9, 0) == 0
        assert power_sum_direct(0, 5) == 5

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            power_sum_direct(-1, 3)
        with pytest.raises(ValueError):
            power_sum_direct(3, -1)


class TestPascalIdentity:
    @pytest.mark.parametrize("m", [2, 4, 7])
    def test_examples_hold(self, m):
        report = verify_pascal_identity(m)
        assert report.holds
        assert report.lhs.var == "n"

    def test_full_range_holds(self):
        assert all(verify_pascal_identity(m).holds for m in range(2, 51))

    def test_numeric_confirmation_m7(self):
        # Independent of the symbolic route: evaluate both sides of the
        # m = 7 instance numerically at n = 1..10 via literal summation.
        for n in range(1, 11):
            lhs = 2**6 * Fraction(n * (n + 1), 2) ** 7
            rhs = sum(comb(7, j) * power_sum_direct(7 + j, n) for j in (0, 2, 4, 6))
            assert lhs == rhs

    def test_domain_error_below_two(self):
        with pytest.raises(ValueError):
            verify_pascal_identity(1)


class TestTelescoping:
    def test_special_case(self):
        report = telescoping_check(5, 3)
        assert report.holds
        assert report.lhs == Polynomial((7776,), "n")
        assert report.rhs == Polynomial((7776,), "n")

    def test_smallest_case(self):
        report = telescoping_check(1, 1)
        assert report.holds
        assert report.lhs == Polynomial((1,), "n")

    def test_fourth_power_at_ten(self):
        report = telescoping_check(4, 10)
        assert report.holds
        assert report.lhs == Polynomial((9150625,), "n")

    def test_grid_holds(self):
        assert all(telescoping_check(m, n).holds for m in range(1, 11) for n in range(1, 51))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            telescoping_check(0, 5)
        with pytest.raises(ValueError):
            telescoping_check(5, 0)


class TestTForm:
    def test_base_case(self):
        form = power_sum_tform(1)
        assert form.p == Polynomial((1,), "T")

    def test_fifth_powers(self):
        assert power_sum_tform(2).p == Polynomial((Fraction(-1, 3), Fraction(4, 3)), "T")

    def test_seventh_powers(self):
        expected = Polynomial((Fraction(1, 3), Fraction(-4, 3), 2), "T")
        assert power_sum_tform(3).p == expected

    def test_domain_error_below_one(self):
        with pytest.raises(ValueError):
            power_sum_tform(0)

    @pytest.mark.parametrize("m", range(1, 41))
    def test_structural_invariants(self, m):
        form = power_sum_tform(m)
        assert form.p.var == "T"
        assert form.p.degree == m - 1
        assert form.p.coeffs[-1] == Fraction(2**m, m + 1)
        if m >= 2:
            assert form.p.coeffs[1] == -4 * form.p.coeffs[0]

    @pytest.mark.parametrize("m", range(2, 41))
    def test_descending_coefficients_alternate_in_sign(self, m):
        descending = faulhaber_coefficients(m)
        assert descending[0] > 0
        for left, right in zip(descending, descending[1:]):
            assert left * right < 0

    @pytest.mark.parametrize("m", range(1, 41))
    def test_numeric_against_direct_sums(self, m):
        # n = 1..m+1 gives m+1 distinct nonzero T, more than the m
        # coefficients of P, so brute force alone pins the whole form.
        form = power_sum_tform(m)
        for n in range(0, max(11, m + 1) + 1):
            t = Fraction(n * (n + 1), 2)
            assert poly_eval(form.p, t) * t**2 == power_sum_direct(2 * m + 1, n)

    def test_forms_match_their_pinned_digest(self):
        # SHA-256 of "str(P_m)\n" for m = 1..120, captured before the ladder
        # became one integer combination per form.
        digest = hashlib.sha256()
        for m in range(1, 121):
            digest.update(f"{power_sum_tform(m).p}\n".encode())
        assert digest.hexdigest() == "97640eec9f19920280c3a359aaa0b6c01006aef659d8f39bbe6f59b2bf37828a"

    def test_reads_no_bernoulli_number(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the T-route read a Bernoulli number")

        monkeypatch.setattr(faulhaber.BernoulliTable, "get", refuse)
        monkeypatch.setattr(faulhaber, "bernoulli", refuse)
        power_sum_tform.cache_clear()
        for m in range(1, 41):
            power_sum_tform(m)
            faulhaber_coefficients(m)
            assert infer_odd_bernoulli(m) == 0

    def test_bad_shape_is_an_invariant_violation(self):
        with pytest.raises(AssertionError):
            FaulhaberForm(3, Polynomial((1,), "T"))  # degree too small
        with pytest.raises(AssertionError):
            FaulhaberForm(1, Polynomial((2,), "T"))  # wrong leading coefficient
        with pytest.raises(AssertionError):
            # right degree and leading coefficient, broken tail relation
            FaulhaberForm(3, Polynomial((1, 1, 2), "T"))

    def test_str_is_the_factored_display(self):
        form = power_sum_tform(3)
        assert str(form) == "(2*T^2 - 4/3*T + 1/3) * T^2"
        assert str(power_sum_tform(1)) == "(1) * T^2"
        assert repr(form) == (
            "FaulhaberForm(m=3, p=Polynomial(coeffs=(Fraction(1, 3), Fraction(-4, 3), Fraction(2, 1)), var='T'))"
        )


class TestFaulhaberCoefficients:
    @pytest.mark.parametrize(
        "m, expected",
        [
            (1, [Fraction(1)]),
            (2, [Fraction(4, 3), Fraction(-1, 3)]),
            (3, [Fraction(2), Fraction(-4, 3), Fraction(1, 3)]),
        ],
    )
    def test_known_sequences(self, m, expected):
        assert faulhaber_coefficients(m) == expected

    @pytest.mark.parametrize("m", range(1, 21))
    def test_head_term(self, m):
        assert faulhaber_coefficients(m)[0] == Fraction(2**m, m + 1)


class TestCrossRepresentation:
    def test_smallest_instance_explicit(self):
        report = verify_faulhaber(1)
        expected = Polynomial((0, 0, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)), "n")
        assert report.holds
        assert report.lhs == expected
        assert report.rhs == expected

    def test_second_instance_explicit(self):
        report = verify_faulhaber(2)
        expected = Polynomial(
            (0, 0, Fraction(-1, 12), 0, Fraction(5, 12), Fraction(1, 2), Fraction(1, 6)), "n"
        )
        assert report.holds
        assert report.lhs == expected

    def test_tenth_instance_with_numeric_spot_check(self):
        report = verify_faulhaber(10)
        assert report.holds
        for n in range(1, 6):
            assert poly_eval(report.lhs, n) == power_sum_direct(21, n)

    def test_full_range(self):
        assert all(verify_faulhaber(m).holds for m in range(1, 41))


class TestOddBernoulli:
    @pytest.mark.parametrize("m", [1, 3, 12])
    def test_examples_vanish(self, m):
        assert infer_odd_bernoulli(m) == 0

    @pytest.mark.parametrize("m", range(1, 41))
    def test_matches_recurrence_table(self, m):
        inferred = infer_odd_bernoulli(m)
        assert inferred == 0
        assert inferred == bernoulli(2 * m + 1)

    @pytest.mark.parametrize("m", range(1, 41))
    def test_no_linear_or_constant_term(self, m):
        expanded = t_to_n(power_sum_tform(m).p * monomial(1, 2, "T"))
        assert expanded.coefficient(0) == 0
        assert expanded.coefficient(1) == 0


class TestRecords:
    def test_frozen_value_semantics(self):
        form = power_sum_tform(2)
        report = VerificationReport("x", Polynomial((1,), "n"), Polynomial((1,), "n"))
        suite = faulhaber.SUITES["pascal"]
        assert form == FaulhaberForm(m=2, p=form.p)
        assert report == VerificationReport(label="x", lhs=report.lhs, rhs=report.rhs)
        assert hash(form) == hash(FaulhaberForm(2, form.p))
        assert report != VerificationReport("y", report.lhs, report.rhs)
        assert report != ("x", report.lhs, report.rhs)
        assert repr(form) == f"FaulhaberForm(m=2, p={form.p!r})"
        assert repr(report) == f"VerificationReport(label='x', lhs={report.lhs!r}, rhs={report.rhs!r})"
        assert repr(suite).startswith("Suite(defaults={'max': 40}, first=2, check=<function")
        for record, field in ((form, "m"), (report, "label"), (suite, "first"), (form.p, "var")):
            with pytest.raises(AttributeError):
                setattr(record, field, 0)
            with pytest.raises(AttributeError):
                delattr(record, field)
            with pytest.raises(AttributeError):
                record.extra = 0
        assert pickle.loads(pickle.dumps(form)) == form
        assert copy.deepcopy(report) == report


class TestVerificationReport:
    def test_holds_requires_matching_tags(self):
        same = Polynomial((1, 2), "n")
        assert VerificationReport("x", same, Polynomial((1, 2), "n")).holds
        assert not VerificationReport("x", same, Polynomial((1, 2), "T")).holds

    def test_holds_requires_identical_coefficients(self):
        assert not VerificationReport("x", Polynomial((1,), "n"), Polynomial((2,), "n")).holds
