"""Bernoulli numbers, power-sum polynomials, T-forms, and the identity checks."""

import copy
import pickle
import random
import re
import threading
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from powersums import faulhaber
from powersums.cli import SUITES
from powersums.faulhaber import (
    BernoulliTable,
    FaulhaberForm,
    VerificationReport,
    bernoulli,
    bernoulli_from_recurrence,
    check_odd_bernoulli,
    faulhaber_coefficients,
    infer_odd_bernoulli,
    power_sum_direct,
    power_sum_poly_n,
    power_sum_tform,
    telescoping_check,
    verify_pascal_identity,
)
from powersums.polynomial import Polynomial, monomial, poly_eval, t_to_n


# The --max of the CI verification sweep (.github/workflows/tier1.yml),
# whose every Bernoulli number tier-1 rechecks against the recurrence.
CI_SWEEP_MAX = 200


def fraction_recurrence(top):
    """B_0..B_top by the defining recurrence in plain Fraction arithmetic."""
    values = [Fraction(1)]
    for n in range(1, top + 1):
        values.append(-sum(comb(n + 1, k) * values[k] for k in range(n)) / (n + 1))
    return values


class TestBernoulli:
    def test_negative_index_is_a_domain_error(self):
        with pytest.raises(ValueError):
            bernoulli(-1)

    def test_recurrence_matches_the_fraction_oracle(self):
        values = fraction_recurrence(300)
        for n in range(1, 301):
            assert bernoulli_from_recurrence(values[:n]) == values[n], n

    def test_recurrence_refuses_a_row_without_b0(self):
        with pytest.raises(ValueError, match="B_0"):
            bernoulli_from_recurrence([])

    def test_every_value_a_deep_sweep_reads_rechecks(self):
        # B_{2*max+1} is the highest index `verify ... --max max` reads
        # (faulhaber's S_{2m+1}, odd-bernoulli's B_{2m+1}).
        top = 2 * CI_SWEEP_MAX + 1
        values = [bernoulli(k) for k in range(top + 1)]
        for n in range(1, top + 1):
            assert bernoulli_from_recurrence(values[:n]) == values[n], n

    def test_the_ci_sweep_runs_at_the_rechecked_bound(self):
        workflow = (Path(__file__).resolve().parent.parent / ".github/workflows/tier1.yml").read_text()
        bounds = re.findall(r'powersums verify "\$suite" --max (\d+)', workflow)
        assert bounds == [str(CI_SWEEP_MAX)]

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
            t.join(60)
            assert not t.is_alive()
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
            t.join(60)
            assert not t.is_alive()
        assert all(r == results[0] for r in results)


class TestPowerSumPolynomial:
    def test_domain_error_below_one(self):
        with pytest.raises(ValueError):
            power_sum_poly_n(0)

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
    def test_domain_error_below_two(self):
        with pytest.raises(ValueError):
            verify_pascal_identity(1)


class TestTelescoping:
    def test_domain_errors(self):
        with pytest.raises(ValueError):
            telescoping_check(0, 5)
        with pytest.raises(ValueError):
            telescoping_check(5, 0)


class TestTForm:
    def test_base_case(self):
        form = power_sum_tform(1)
        assert form.p == Polynomial((1,), "T")

    def test_domain_error_below_one(self):
        with pytest.raises(ValueError):
            power_sum_tform(0)

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

    def test_n_basis_polynomial_is_a_domain_error(self):
        with pytest.raises(ValueError):
            FaulhaberForm(1, Polynomial((1,), "n"))

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


class TestOddBernoulli:
    def test_proof_expands_nothing_in_n(self, monkeypatch):
        def refuse(p):
            raise AssertionError("the odd-Bernoulli proof expanded a T-polynomial in n")

        monkeypatch.setattr(faulhaber, "t_to_n", refuse)
        for m in range(1, 21):
            assert infer_odd_bernoulli(m) == 0
            assert check_odd_bernoulli(m) is True

    @pytest.mark.parametrize("m", range(1, 61))
    def test_no_linear_or_constant_term(self, m):
        expanded = t_to_n(power_sum_tform(m).p * monomial(1, 2, "T"))
        assert expanded.coefficient(0) == 0
        assert expanded.coefficient(1) == 0
        # The inference reads the same value without expanding.
        assert infer_odd_bernoulli(m) == -expanded.coefficient(1)


class TestRecords:
    def test_frozen_value_semantics(self):
        form = power_sum_tform(2)
        report = VerificationReport(Polynomial((1,), "n"), Polynomial((1,), "n"))
        suite = SUITES["pascal"]
        assert form == FaulhaberForm(m=2, p=form.p)
        assert report == VerificationReport(lhs=report.lhs, rhs=report.rhs)
        assert hash(form) == hash(FaulhaberForm(2, form.p))
        assert report != VerificationReport(report.lhs, Polynomial((2,), "n"))
        assert report != (report.lhs, report.rhs)
        assert repr(form) == f"FaulhaberForm(m=2, p={form.p!r})"
        assert repr(report) == f"VerificationReport(lhs={report.lhs!r}, rhs={report.rhs!r})"
        assert repr(suite).startswith("Suite(defaults={'max': 40}, first=2, check=<function")
        for record, field in ((form, "m"), (report, "lhs"), (suite, "first"), (form.p, "var")):
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
        assert VerificationReport(same, Polynomial((1, 2), "n")).holds
        assert not VerificationReport(same, Polynomial((1, 2), "T")).holds

    def test_holds_requires_identical_coefficients(self):
        assert not VerificationReport(Polynomial((1,), "n"), Polynomial((2,), "n")).holds
