"""Cross-checks against sympy, an independent computer-algebra oracle.

Skipped when sympy is not installed.  sympy >= 1.12 uses B_1 = +1/2,
this package B_1 = -1/2, so B_1 is negated before comparing.
"""

from fractions import Fraction

import pytest

from powersums.faulhaber import bernoulli, power_sum_poly_n, power_sum_tform
from powersums.polynomial import monomial, t_to_n

sympy = pytest.importorskip("sympy")

n, k, T = sympy.symbols("n k T")


def sympy_coeffs(expr, var) -> tuple[Fraction, ...]:
    """Ascending exact coefficients of a sympy polynomial, as Fractions."""
    ascending = reversed(sympy.Poly(expr, var).all_coeffs())
    coeffs = [Fraction(int(c.p), int(c.q)) for c in ascending]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@pytest.mark.parametrize("m", range(1, 31))
def test_power_sum_poly_n_matches_symbolic_summation(m):
    assert power_sum_poly_n(m).coeffs == sympy_coeffs(sympy.summation(k**m, (k, 1, n)), n)


@pytest.mark.parametrize("m", range(1, 31))
def test_t_to_n_of_tform_matches_symbolic_substitution(m):
    p = power_sum_tform(m).p
    p_of_t = sum(sympy.Rational(c.numerator, c.denominator) * T**i for i, c in enumerate(p.coeffs))
    expected = sympy_coeffs((p_of_t * T**2).subs(T, (n**2 + n) / 2), n)
    assert t_to_n(monomial(1, 2, "T") * p).coeffs == expected


def test_bernoulli_numbers_match():
    for j in range(200):
        b = sympy.bernoulli(j)
        expected = Fraction(int(b.p), int(b.q))
        assert bernoulli(j) == (-expected if j == 1 else expected), j
