"""Univariate polynomials over exact rationals, tagged by variable.

A polynomial is stored as a tuple of integer numerators over one shared
positive denominator: index i of the tuple holds the numerator of the
coefficient of var**i.  The pair is always canonical -- the denominator
is positive, it shares no common factor with all the numerators, and the
highest stored numerator is nonzero; the zero polynomial is ``((), 1)``.
Arithmetic therefore runs on plain ints and ends in one gcd pass per
result, instead of one reduced Fraction per coefficient per operation.
The layout is private to this module: callers see ``coeffs``, an
ascending tuple of Fractions built on first use and then cached.

Every polynomial carries a variable tag, ``"n"`` or ``"T"``: the first
is the summation limit of a power sum, the second the triangular number
T = n(n+1)/2.  Mixing tags in arithmetic is a domain error, never a
silent coercion -- the two bases mean different things and confusing
them must not pass quietly.  Substituting T = (n^2+n)/2 (``t_to_n``) is
the one sanctioned bridge between them.

Polynomials are immutable: equality is structural (same tag, same
coefficients), instances are hashable, and sharing across threads is
safe.

Display order is highest degree first, e.g. ``1/4*n^4 + 1/2*n^3 +
1/4*n^2``; this exact grammar is what the CLI prints and what golden
tests pin down.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable

from .exact_arith import Rational, as_rational

VARIABLES = ("n", "T")


class Polynomial:
    """``Polynomial(coeffs, var)``: coefficients ascending by degree, tag ``"n"`` or ``"T"``."""

    __slots__ = ("_nums", "_den", "var", "_coeffs")

    def __init__(self, coeffs: Iterable[int | str | Rational], var: str) -> None:
        if var not in VARIABLES:
            raise ValueError(f"unknown variable tag {var!r}; expected one of {VARIABLES}")
        rationals = [as_rational(c) for c in coeffs]
        while rationals and rationals[-1] == 0:
            rationals.pop()
        # Over the lcm of reduced denominators the numerators are already
        # coprime to it, so no gcd pass is needed here.
        den = lcm(*[q.denominator for q in rationals])
        nums = tuple([q.numerator * (den // q.denominator) for q in rationals])
        _init(self, nums, den, var, tuple(rationals))

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Polynomial, (self.coeffs, self.var)

    @property
    def coeffs(self) -> tuple[Rational, ...]:
        """Coefficients ascending by degree, as reduced Fractions; no trailing zero."""
        coeffs = self._coeffs
        if coeffs is None:
            den = self._den
            coeffs = tuple(Rational(c, den) for c in self._nums)
            object.__setattr__(self, "_coeffs", coeffs)
        return coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._nums) - 1

    def coefficient(self, k: int) -> Rational:
        """Coefficient of var**k (zero beyond the stored degree)."""
        if k < 0:
            raise ValueError(f"coefficient index must be >= 0, got {k}")
        return Rational(self._nums[k], self._den) if k < len(self._nums) else Rational(0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.var == other.var and self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self.var, self._nums, self._den))

    def __repr__(self) -> str:
        return f"Polynomial(coeffs={self.coeffs!r}, var={self.var!r})"

    def _require_same_var(self, other: "Polynomial") -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def _combine(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign*other over the lcm of the two denominators."""
        self._require_same_var(other)
        g = gcd(self._den, other._den)
        fa, fb = other._den // g, sign * (self._den // g)
        nums = [a * fa + b * fb for a, b in zip_longest(self._nums, other._nums, fillvalue=0)]
        return _canonical(nums, fa * self._den, self.var)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._combine(other, 1)

    def __neg__(self) -> "Polynomial":
        return _make(tuple(-c for c in self._nums), self._den, self.var)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._combine(other, -1)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._require_same_var(other)
            a, b = self._nums, other._nums
            if not a or not b:
                return _make((), 1, self.var)
            if len(a) > len(b):
                a, b = b, a
            # Outer loop over the shorter factor: powers of T_AS_N_POLY
            # multiply a long polynomial by a three-term one.
            prod = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b, i):
                        prod[j] += x * y
            return _canonical(prod, self._den * other._den, self.var)
        if isinstance(other, (int, Rational)):
            return poly_scale(other, self)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError(f"polynomial exponent must be >= 0, got {exponent}")
        result = _make((1,), 1, self.var)
        for _ in range(exponent):
            result = result * self
        return result

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        parts = []
        for deg in range(len(coeffs) - 1, -1, -1):
            c = coeffs[deg]
            if c == 0:
                continue
            magnitude = abs(c)
            if deg == 0:
                body = str(magnitude)
            else:
                head = "" if magnitude == 1 else f"{magnitude}*"
                power = self.var if deg == 1 else f"{self.var}^{deg}"
                body = head + power
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


def _init(p: Polynomial, nums: tuple[int, ...], den: int, var: str, coeffs: tuple | None) -> None:
    setter = object.__setattr__
    setter(p, "_nums", nums)
    setter(p, "_den", den)
    setter(p, "var", var)
    setter(p, "_coeffs", coeffs)


def _make(nums: tuple[int, ...], den: int, var: str) -> Polynomial:
    """Wrap numerators and denominator that are already canonical."""
    p = object.__new__(Polynomial)
    _init(p, nums, den, var, None)
    return p


def _canonical(nums: list[int], den: int, var: str) -> Polynomial:
    """Strip trailing zeros and divide out the common factor of den (> 0) and nums."""
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    return _make(tuple(nums), den, var)


def monomial(coeff: int | Rational, degree: int, var: str) -> Polynomial:
    """The polynomial coeff * var**degree."""
    if degree < 0:
        raise ValueError(f"monomial degree must be >= 0, got {degree}")
    return Polynomial((0,) * degree + (coeff,), var)


def poly_scale(c: int | Rational, p: Polynomial) -> Polynomial:
    """Multiply every coefficient by the rational c."""
    c = as_rational(c)
    num = c.numerator
    return _canonical([a * num for a in p._nums], p._den * c.denominator, p.var)


def poly_eval(p: Polynomial, x: int | Rational) -> Rational:
    """Exact value of p at x, by Horner's scheme on the integer numerators."""
    x = as_rational(x)
    a, b = x.numerator, x.denominator
    # Homogeneous Horner: acc = sum of nums[k] * a^k * b^(d-k), and scale
    # ends as b^(d+1) for degree d, so p(x) = acc / (den * b^d).
    acc, scale = 0, 1
    for c in reversed(p._nums):
        acc = acc * a + c * scale
        scale *= b
    return Rational(acc * b, p._den * scale)


# T as a polynomial in n: the triangular number n(n+1)/2.
T_AS_N_POLY = Polynomial((0, Rational(1, 2), Rational(1, 2)), "n")


def t_to_n(p: Polynomial) -> Polynomial:
    """Substitute T = (n^2+n)/2 into a T-basis polynomial.

    With p = (1/den) * sum of nums[k] * T^k and degree d, the image is
    (1/(den * 2^d)) * sum of nums[k] * 2^(d-k) * (n^2+n)^k, expanded by
    Horner's scheme in n^2+n: multiplying by n^2+n is two shifted
    additions, so the whole substitution is integer additions only.
    """
    if p.var != "T":
        raise ValueError(f"t_to_n needs a T-basis polynomial, got variable {p.var!r}")
    nums = p._nums
    if not nums:
        return _make((), 1, "n")
    d = len(nums) - 1
    acc = [nums[d]]
    for k in range(d - 1, -1, -1):
        acc = [nums[k] << (d - k)] + [x + y for x, y in zip(acc + [0], [0] + acc)]
    return _canonical(acc, p._den << d, "n")
