"""Scalar substrate: reduced rationals and the float guard."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powersums.exact_arith import Rational, as_rational

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=200)


def assert_reduced(q: Fraction) -> None:
    """The representation invariant: positive denominator, lowest terms."""
    assert q.denominator > 0
    assert math.gcd(abs(q.numerator), q.denominator) == 1


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

    @given(rationals)
    def test_additive_identity(self, x):
        assert x + as_rational(0) == x

    @given(rationals, rationals)
    def test_results_always_reduced(self, a, b):
        for op in (operator.add, operator.sub, operator.mul):
            assert_reduced(op(a, b))
        if b != 0:
            assert_reduced(a / b)

    @given(rationals, rationals, rationals)
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(rationals, rationals, rationals)
    def test_associativity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)

    @given(rationals, rationals)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(rationals)
    def test_inverses(self, a):
        assert a + (-a) == 0
        if a != 0:
            assert a * (1 / a) == 1

    def test_zero_is_zero_over_one(self):
        z = as_rational("1/2") + as_rational("-1/2")
        assert (z.numerator, z.denominator) == (0, 1)


class TestRationalConstruction:
    def test_floats_refused(self):
        with pytest.raises(TypeError):
            as_rational(0.5)

    def test_string_form_accepted(self):
        assert as_rational("-3/9") == Fraction(-1, 3)

    def test_rendering_grammar(self):
        # The CLI prints rationals as p/q with /q omitted when q == 1.
        assert str(Fraction(-1, 2)) == "-1/2"
        assert str(Fraction(0)) == "0"
        assert str(Fraction(5)) == "5"
        assert str(Fraction(10, 2)) == "5"

    def test_alias_is_fraction(self):
        assert Rational is Fraction
