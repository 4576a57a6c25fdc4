"""Cross-checks against independent oracles: sympy, Jacobi's recurrence for the T-forms, and two for the Bernoulli numbers.

The Bernoulli numbers are rechecked by their recurrence mod p and by
von Staudt-Clausen, which fixes each even denominator exactly.  Jacobi's
recurrence pins every T-form the CLI serves, up to ``cli._FORM_MAX``.

The sympy checks are skipped when sympy is not installed.  sympy >= 1.12
uses B_1 = +1/2, this package B_1 = -1/2, so B_1 is negated before
comparing.  Jacobi's recurrence needs nothing beyond ``fractions``, and
the recurrence mod p nothing beyond ints.
"""

import operator
from fractions import Fraction
from math import isqrt

import pytest

from powersums.cli import _BERNOULLI_MAX, _FORM_MAX
from powersums.faulhaber import bernoulli, power_sum_poly_n, power_sum_tform
from powersums.polynomial import monomial, t_to_n

try:
    import sympy
except ImportError:
    sympy = None

needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")


def sympy_coeffs(expr, var) -> tuple[Fraction, ...]:
    """Ascending exact coefficients of a sympy polynomial, as Fractions."""
    ascending = reversed(sympy.Poly(expr, var).all_coeffs())
    coeffs = [Fraction(int(c.p), int(c.q)) for c in ascending]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@needs_sympy
@pytest.mark.parametrize("m", range(1, 31))
def test_power_sum_poly_n_matches_symbolic_summation(m):
    n, k = sympy.symbols("n k")
    assert power_sum_poly_n(m).coeffs == sympy_coeffs(sympy.summation(k**m, (k, 1, n)), n)


@needs_sympy
@pytest.mark.parametrize("m", range(1, 31))
def test_t_to_n_of_tform_matches_symbolic_substitution(m):
    n, T = sympy.symbols("n T")
    p = power_sum_tform(m).p
    p_of_t = sum(sympy.Rational(c.numerator, c.denominator) * T**i for i, c in enumerate(p.coeffs))
    expected = sympy_coeffs((p_of_t * T**2).subs(T, (n**2 + n) / 2), n)
    assert t_to_n(monomial(1, 2, "T") * p).coeffs == expected


@needs_sympy
def test_bernoulli_numbers_match():
    for j in range(200):
        b = sympy.bernoulli(j)
        expected = Fraction(int(b.p), int(b.q))
        assert bernoulli(j) == (-expected if j == 1 else expected), j


def jacobi_odd_sums(top: int):
    """Yield F_1, ..., F_top as ascending coefficient lists, F_m(u) = S_{2m+1}(n) in u = n(n+1) = 2T.

    Jacobi's recurrence (Knuth, "Johann Faulhaber and Sums of Powers",
    Math. Comp. 61, 1993, after Jacobi, 1834): (4u+1) F_m'' + 2 F_m' =
    (2m+1)(2m) F_{m-1} + c, with F_0 = u/2.  With b the coefficients of
    F_{m-1}, a_{k+1} = ((2m+1)(2m) b_k - (k+2)(k+1) a_{k+2}) / (2(k+1)(2k+1))
    for k = m down to 1, from a_{m+2} = 0; a_0 = 0, and
    F_m(2) = S_{2m+1}(1) = 1 fixes a_1.  It reads neither the ladder nor a
    Bernoulli number.
    """
    b = [Fraction(0), Fraction(1, 2)]
    for m in range(1, top + 1):
        a = [Fraction(0)] * (m + 3)
        for k in range(m, 0, -1):
            a[k + 1] = ((2 * m + 1) * (2 * m) * b[k] - (k + 2) * (k + 1) * a[k + 2]) / (2 * (k + 1) * (2 * k + 1))
        a[1] = (1 - sum(c * 2**j for j, c in enumerate(a))) / 2
        b = a[: m + 2]
        yield b


def test_jacobi_recurrence_matches_the_ladder():
    # Every form the CLI serves, m <= cli._FORM_MAX.  a_1 = 0 derives the
    # T^2 factor that the ladder presupposes; then P_m's coefficient of T^j
    # is a_{j+2} * 2^(j+2), since u = 2T.
    for m, a in enumerate(jacobi_odd_sums(_FORM_MAX), start=1):
        assert a[1] == 0, m
        assert tuple(a[j + 2] * 2 ** (j + 2) for j in range(m)) == power_sum_tform(m).p.coeffs, m


@pytest.mark.parametrize("argv", ["tform 300", "coeffs 300", "powersum 601 --basis t"])
def test_the_cli_serves_the_largest_pinned_form(cli, argv):
    # Run after the pin above, these requests reuse the forms it built.
    code, out, err = cli(*argv.split())
    assert (code, err) == (0, "")
    assert out.count("\n") == 1


def test_every_served_bernoulli_number_satisfies_the_recurrence_mod_p():
    # sum_{k<=n} C(n+1, k) B_k = 0 for n >= 1, in Z/p with a rolling row of
    # C(n+1, k) mod p, for two primes: a wrong B_n escapes only if its
    # error's numerator is divisible by both.  Each p > _BERNOULLI_MAX + 1,
    # so every denominator, a product of primes <= k + 1 (von
    # Staudt-Clausen), is invertible.
    values = [bernoulli(k) for k in range(_BERNOULLI_MAX + 1)]
    for p in (2**61 - 1, 2**31 - 1):
        residues = [b.numerator * pow(b.denominator, -1, p) % p for b in values]
        row = [1, 1]
        for n in range(1, _BERNOULLI_MAX + 1):
            row = [1, *((a + b) % p for a, b in zip(row, row[1:])), 1]
            assert sum(map(operator.mul, row, residues[: n + 1])) % p == 0, (p, n)


def test_every_served_even_bernoulli_number_satisfies_von_staudt_clausen():
    # von Staudt (J. reine angew. Math. 21, 1840) and Clausen (Astron.
    # Nachr. 17, 1840): for even n >= 2, B_n + sum of 1/p over the primes p
    # with (p - 1) | n is an integer.  So every served even denominator is
    # checked exactly, and by no recurrence.
    primes = [p for p in range(2, _BERNOULLI_MAX + 2) if all(p % q for q in range(2, isqrt(p) + 1))]
    for n in range(2, _BERNOULLI_MAX + 1, 2):
        assert (bernoulli(n) + sum(Fraction(1, p) for p in primes if n % (p - 1) == 0)).denominator == 1, n
