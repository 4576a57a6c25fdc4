"""Polynomial algebra over exact rationals and the T -> n substitution."""

import copy
import math
import pickle
import random
from fractions import Fraction
from itertools import zip_longest

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powersums.polynomial import (
    Polynomial,
    monomial,
    poly_combination,
    poly_eval,
    poly_from_numerators,
    poly_scale,
    t_to_n,
)

# T as a polynomial in n, the triangular number n(n+1)/2: the inner
# polynomial of the composition that t_to_n computes.
T_AS_N_POLY = Polynomial((0, Fraction(1, 2), Fraction(1, 2)), "n")

small_rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def polys(var: str, max_degree: int = 5):
    return st.lists(small_rationals, max_size=max_degree + 1).map(
        lambda cs: Polynomial(tuple(cs), var)
    )


class TestRepresentation:
    def test_trailing_zeros_stripped(self):
        p = Polynomial((1, 2, 0, 0), "n")
        assert p.coeffs == (Fraction(1), Fraction(2))
        assert p.degree == 1

    def test_zero_polynomial_is_empty(self):
        assert Polynomial((0, 0), "n").coeffs == ()
        assert Polynomial((), "n").degree == -1

    def test_unknown_variable_tag_rejected(self):
        with pytest.raises(ValueError):
            Polynomial((1,), "x")

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            Polynomial((0.5,), "n")

    def test_structural_equality_includes_tag(self):
        assert Polynomial((1, 2), "n") == Polynomial((1, 2), "n")
        assert Polynomial((1, 2), "n") != Polynomial((1, 2), "T")


class TestArithmetic:
    def test_mixed_tags_are_a_domain_error(self):
        with pytest.raises(ValueError):
            Polynomial((1,), "n") + Polynomial((1,), "T")
        with pytest.raises(ValueError):
            Polynomial((1,), "n") - Polynomial((1,), "T")
        with pytest.raises(ValueError):
            Polynomial((1, 1), "n") * Polynomial((1, 1), "T")

    def test_non_polynomial_operands_are_type_errors(self):
        p = Polynomial((1, 1), "n")
        with pytest.raises(TypeError):
            p + 1
        with pytest.raises(TypeError):
            p - 1
        with pytest.raises(TypeError):
            p * "x"


class TestCombination:
    @given(
        st.lists(st.tuples(st.integers(-50, 50), polys("T", 7)), max_size=6),
        st.integers(1, 30),
    )
    def test_matches_the_fraction_reference(self, terms, divisor):
        # ref_add is the tuple-of-Fractions reference of TestAgainstFractionReference.
        total = ()
        for c, p in terms:
            total = ref_add(total, tuple(c * x for x in p.coeffs))
        assert poly_combination(terms, "T").coeffs == total
        assert poly_combination(terms, "T", divisor).coeffs == tuple(x / divisor for x in total)

    def test_empty_and_zero_coefficients_give_the_zero_polynomial(self):
        p = Polynomial((Fraction(1, 3), 2), "n")
        for terms in ([], [(0, p)], [(0, p), (0, T_AS_N_POLY)]):
            assert poly_combination(terms, "n", 7) == Polynomial((), "n")

    def test_cancelling_terms_give_the_zero_polynomial(self):
        p = Polynomial((Fraction(1, 3), 2, Fraction(-5, 6)), "T")
        assert poly_combination([(2, p), (-1, p), (-1, p)], "T", 5) == Polynomial((), "T")
        assert poly_combination([(3, p), (-2, poly_scale(Fraction(3, 2), p))], "T") == Polynomial((), "T")

    def test_divisor_divides_the_sum(self):
        p, q = Polynomial((1, 1), "n"), Polynomial((0, 1, 1), "n")
        assert poly_combination([(3, p), (3, q)], "n", 6) == Polynomial((Fraction(1, 2), 1, Fraction(1, 2)), "n")
        assert poly_combination([(-1, p)], "n", 2) == Polynomial((Fraction(-1, 2), Fraction(-1, 2)), "n")

    def test_divisor_below_one_is_a_domain_error(self):
        for divisor in (0, -2):
            with pytest.raises(ValueError):
                poly_combination([(1, T_AS_N_POLY)], "n", divisor)

    def test_mixed_tags_are_a_domain_error(self):
        n_poly, t_poly = Polynomial((1,), "n"), Polynomial((1,), "T")
        with pytest.raises(ValueError):
            poly_combination([(1, n_poly), (1, t_poly)], "n")
        with pytest.raises(ValueError):
            poly_combination([(0, t_poly)], "n")  # a zero coefficient does not excuse the tag
        with pytest.raises(ValueError):
            poly_combination([], "x")


class TestMonomial:
    @given(small_rationals, st.integers(0, 8), st.sampled_from(["n", "T"]))
    def test_matches_the_constructor(self, c, degree, var):
        assert monomial(c, degree, var) == Polynomial((0,) * degree + (c,), var)

    def test_one_rational_coercion(self, monkeypatch):
        seen = []

        def counting(value):
            seen.append(value)
            return Fraction(value)

        monkeypatch.setattr("powersums.polynomial.as_rational", counting)
        assert monomial(Fraction(2, 3), 40, "T").coefficient(40) == Fraction(2, 3)
        assert seen == [Fraction(2, 3)]

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            monomial(1, -1, "n")
        with pytest.raises(ValueError):
            monomial(0, 2, "x")
        with pytest.raises(TypeError):
            monomial(0.5, 2, "n")


class TestFromNumerators:
    @given(st.lists(st.integers(-(10**6), 10**6), max_size=7), st.integers(1, 720))
    def test_matches_the_rational_constructor(self, nums, den):
        expected = Polynomial([Fraction(c, den) for c in nums], "n")
        assert poly_from_numerators(nums, den, "n") == expected

    def test_domain_errors(self):
        for den in (0, -3):
            with pytest.raises(ValueError):
                poly_from_numerators([1], den, "n")
        with pytest.raises(ValueError):
            poly_from_numerators([1], 1, "x")


class TestEval:
    def test_zero_polynomial(self):
        assert poly_eval(Polynomial((), "n"), Fraction(7, 3)) == 0


class TestCompose:
    """t_to_n is composition with the inner polynomial T_AS_N_POLY."""

    def test_t_squared_under_substitution(self):
        for k in range(42):
            assert t_to_n(monomial(1, k, "T")) == T_AS_N_POLY**k

    @given(polys("T"))
    def test_linear_coefficient_is_half_the_linear_t_coefficient(self, q):
        # [n^1] Q(T(n)) = q_1 / 2: only T's own linear term reaches n^1.
        # Q + T has q_1 one larger, so at least one of the two is nonzero.
        for poly in (q, q + monomial(1, 1, "T")):
            assert t_to_n(poly).coefficient(1) == poly.coefficient(1) / 2


class TestTtoN:
    def test_wrong_tag_is_a_domain_error(self):
        with pytest.raises(ValueError):
            t_to_n(Polynomial((1, 1), "n"))

    def test_injective_on_corpus(self):
        rng = random.Random(20240811)
        corpus = set()
        while len(corpus) < 30:
            degree = rng.randrange(0, 6)
            coeffs = tuple(
                Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(degree + 1)
            )
            corpus.add(Polynomial(coeffs, "T"))
        corpus = sorted(corpus, key=str)
        images = [t_to_n(p) for p in corpus]
        for i in range(len(corpus)):
            for j in range(i + 1, len(corpus)):
                assert images[i] != images[j]


class TestRendering:
    @pytest.mark.parametrize(
        "poly, text",
        [
            (Polynomial((0, 0, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)), "n"),
             "1/4*n^4 + 1/2*n^3 + 1/4*n^2"),
            (Polynomial((Fraction(-1, 3), Fraction(4, 3)), "T"), "4/3*T - 1/3"),
            (Polynomial((Fraction(1, 3), Fraction(-4, 3), 2), "T"), "2*T^2 - 4/3*T + 1/3"),
            (Polynomial((), "n"), "0"),
            (Polynomial((1,), "T"), "1"),
            (Polynomial((0, 0, 1), "T"), "T^2"),
            (Polynomial((0, -1), "n"), "-n"),
            (Polynomial((5, 0, -1), "n"), "-n^2 + 5"),
            (Polynomial((0, Fraction(1, 2), Fraction(1, 2)), "n"), "1/2*n^2 + 1/2*n"),
        ],
    )
    def test_display_grammar(self, poly, text):
        assert str(poly) == text


# Reference arithmetic on plain ascending tuples of Fractions, the
# representation Polynomial used to store; results are trimmed the same way.
def ref_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    return ref_trim(x + y for x, y in zip_longest(a, b, fillvalue=Fraction(0)))


def ref_mul(a, b):
    prod = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return ref_trim(prod)


def ref_pow(a, k):
    result = (Fraction(1),)
    for _ in range(k):
        result = ref_mul(result, a)
    return result


def ref_eval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def ref_t_to_n(a):
    result = ()
    for c in reversed(a):
        result = ref_add(ref_mul(result, (Fraction(0), Fraction(1, 2), Fraction(1, 2))), (c,))
    return result


wide_rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=720)
coeff_lists = st.lists(st.one_of(small_rationals, wide_rationals), max_size=7)


class TestAgainstFractionReference:
    @given(coeff_lists, coeff_lists, wide_rationals, st.integers(0, 4))
    def test_operations_match(self, a, b, c, k):
        p, q = Polynomial(a, "T"), Polynomial(b, "T")
        a, b = ref_trim(a), ref_trim(b)
        assert p.coeffs == a
        assert (p + q).coeffs == ref_add(a, b)
        assert (p - q).coeffs == ref_add(a, tuple(-y for y in b))
        assert (-p).coeffs == tuple(-x for x in a)
        assert (p * q).coeffs == ref_mul(a, b)
        assert (p**k).coeffs == ref_pow(a, k)
        assert poly_scale(c, p).coeffs == ref_trim(c * x for x in a)
        assert poly_eval(p, c) == ref_eval(a, c)
        assert t_to_n(p).coeffs == ref_t_to_n(a)
        for i in range(len(a) + 2):
            assert p.coefficient(i) == (a[i] if i < len(a) else 0)


def assert_canonical(p: Polynomial) -> None:
    nums, den = p._nums, p._den
    assert type(nums) is tuple and all(type(c) is int for c in nums)
    assert type(den) is int and den > 0
    assert math.gcd(den, *nums) == 1
    assert not nums or nums[-1] != 0


class TestCanonicalForm:
    def test_zero_polynomial_layout(self):
        for zero in (Polynomial((), "n"), Polynomial((0, Fraction(0, 5)), "n"),
                     poly_scale(0, T_AS_N_POLY), T_AS_N_POLY - T_AS_N_POLY, monomial(0, 4, "n"),
                     poly_combination([(1, T_AS_N_POLY), (-1, T_AS_N_POLY)], "n", 3),
                     Polynomial((), "T") * monomial(3, 2, "T"), monomial(3, 2, "T") * Polynomial((), "T"),
                     -Polynomial((), "n"), t_to_n(Polynomial((), "T"))):
            assert (zero._nums, zero._den) == ((), 1)

    @given(coeff_lists, coeff_lists, wide_rationals, st.integers(0, 3))
    def test_every_result_is_canonical(self, a, b, c, k):
        p, q = Polynomial(a, "T"), Polynomial(b, "T")
        results = [p, q, p + q, p - q, -p, p * q, p**k, poly_scale(c, p), t_to_n(p),
                   monomial(c, k, "T"), monomial(0, k, "T"), poly_combination([(k, p), (-3, q)], "T", 4),
                   poly_from_numerators([c.numerator, k, 0], c.denominator * 6, "T")]
        for r in results:
            assert_canonical(r)

    @given(coeff_lists, coeff_lists, wide_rationals)
    def test_equal_polynomials_have_equal_hashes(self, a, b, c):
        p, q = Polynomial(a, "T"), Polynomial(b, "T")
        rebuilt = [(p + q) - q, Polynomial(p.coeffs, "T"), Polynomial(map(str, p.coeffs), "T"),
                   -(-p)]
        if c != 0:
            rebuilt.append(poly_scale(1 / c, poly_scale(c, p)))
        for r in rebuilt:
            assert r == p
            assert hash(r) == hash(p)

    def test_reading_a_polynomial_writes_nothing(self):
        # Every slot is a value field set once by _canonical; no read fills
        # a cache, so sharing a polynomial across threads needs no lock.
        p = Polynomial((1, Fraction(2, 3), -5), "T")
        before = [getattr(p, s) for s in type(p).__slots__]
        p.coeffs, p.coefficient(1), p.degree, str(p), repr(p), hash(p)
        assert p == Polynomial(p.coeffs, "T") == copy.deepcopy(p) == pickle.loads(pickle.dumps(p))
        assert [getattr(p, s) for s in type(p).__slots__] == before
