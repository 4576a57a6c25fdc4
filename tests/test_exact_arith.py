"""Scalar substrate: the Rational alias, the float guard and the index guard.

``Rational`` is CPython's ``fractions.Fraction``, whose algebraic laws are
not retested here: ``test_alias_is_fraction`` pins the alias, and
``TestAgainstFractionReference`` in ``test_polynomial.py`` pins the
polynomial arithmetic built on it. ``TestRationalArithmetic`` keeps five
worked examples: reduction to lowest terms, and division, which the
polynomial reference never performs.
"""

from fractions import Fraction

import pytest

from powersums.exact_arith import Rational, as_rational
from powersums.faulhaber import (
    BernoulliTable,
    FaulhaberForm,
    power_sum_direct,
    power_sum_poly_n,
    power_sum_tform,
    telescoping_check,
    verify_pascal_identity,
)
from powersums.polynomial import Polynomial, monomial, poly_combination, poly_from_numerators


class TestRationalArithmetic:
    def test_textbook_addition(self):
        assert as_rational("1/2") + as_rational("1/3") == Fraction(5, 6)

    def test_reduction_on_multiply(self):
        result = as_rational("-1/2") * as_rational(2)
        assert result == Fraction(-1)
        assert (result.numerator, result.denominator) == (-1, 1)

    def test_division(self):
        assert as_rational("3/4") / as_rational("3/2") == Fraction(1, 2)

    def test_division_by_zero_is_a_domain_error(self):
        with pytest.raises(ZeroDivisionError):
            as_rational(1) / as_rational(0)

    def test_zero_is_zero_over_one(self):
        z = as_rational("1/2") + as_rational("-1/2")
        assert (z.numerator, z.denominator) == (0, 1)


class TestRationalConstruction:
    def test_floats_refused(self):
        with pytest.raises(TypeError):
            as_rational(0.5)

    def test_string_form_accepted(self):
        assert as_rational("-3/9") == Fraction(-1, 3)

    def test_alias_is_fraction(self):
        assert Rational is Fraction


# Every integer argument that the arithmetic layers bound, as a call of
# that one argument and its lower bound.
INDEX_SITES = {
    "BernoulliTable.get": (lambda k: BernoulliTable().get(k), 0),
    "power_sum_direct-m": (lambda m: power_sum_direct(m, 3), 0),
    "power_sum_direct-n": (lambda n: power_sum_direct(3, n), 0),
    "power_sum_poly_n": (power_sum_poly_n, 1),
    "FaulhaberForm": (lambda m: FaulhaberForm(m, Polynomial((1,), "T")), 1),
    "verify_pascal_identity": (verify_pascal_identity, 2),
    "telescoping_check-m": (lambda m: telescoping_check(m, 3), 1),
    "telescoping_check-N": (lambda n: telescoping_check(3, n), 1),
    "power_sum_tform": (power_sum_tform, 1),
    "Polynomial.coefficient": (lambda k: Polynomial((1, 2), "n").coefficient(k), 0),
    "Polynomial.__pow__": (lambda e: Polynomial((1, 1), "n") ** e, 0),
    "monomial": (lambda degree: monomial(1, degree, "n"), 0),
    "poly_from_numerators": (lambda den: poly_from_numerators([1], den, "n"), 1),
    "poly_combination": (lambda divisor: poly_combination([(1, Polynomial((1,), "n"))], "n", divisor), 1),
}


class TestIndexGuard:
    @pytest.mark.parametrize("call, lower", INDEX_SITES.values(), ids=INDEX_SITES)
    def test_below_the_bound_is_a_value_error(self, call, lower):
        with pytest.raises(ValueError, match=f"must be >= {lower}, got {lower - 1}$"):
            call(lower - 1)

    @pytest.mark.parametrize("call, lower", INDEX_SITES.values(), ids=INDEX_SITES)
    def test_a_float_index_is_a_type_error(self, call, lower):
        # An integral float above the bound: refused, not truncated or let through.
        with pytest.raises(TypeError):
            call(float(lower + 1))

    def test_a_float_never_computes_inexactly(self):
        with pytest.raises(TypeError):
            power_sum_direct(2.5, 3)  # the sum of k**2.5 would be a float

    def test_a_rejected_index_grows_no_table(self):
        table = BernoulliTable()
        for k in (50.0, 0.0, -1):
            with pytest.raises((TypeError, ValueError)):
                table.get(k)
        assert len(table) == 1
