"""Univariate polynomials over exact rationals, tagged by variable.

A polynomial is stored as a tuple of integer numerators over one shared
positive denominator: index i of the tuple holds the numerator of the
coefficient of var**i.  The pair is always canonical -- the denominator
is positive, it shares no common factor with all the numerators, and the
highest stored numerator is nonzero; the zero polynomial is ``((), 1)``.
Arithmetic therefore runs on plain ints and ends in one gcd pass per
result, instead of one reduced Fraction per coefficient per operation.
The layout is private to this module: callers see ``coeffs``, an
ascending tuple of Fractions.

Every polynomial is built by ``_canonical``, the one function that
turns an int layout into a ``Polynomial``, so ``==`` and ``hash`` may
compare layouts.  ``Polynomial(coeffs, var)`` brings the rational
coefficients over their lcm in ``__init__`` and hands that layout, with
the instance itself, to ``_canonical``; every other builder gets a new
instance from it.  ``monomial`` and ``poly_from_numerators`` pass one
term or int numerators.  The arithmetic has two kernels: the
convolution in ``*``, and ``poly_combination``, the integer linear
combination (sum of c_i * p_i) / d -- one lcm, int accumulation, one
gcd pass -- which ``+``, ``-``, unary ``-`` and ``poly_scale`` each are.

Every polynomial carries a variable tag, ``"n"`` or ``"T"``: the first
is the summation limit of a power sum, the second the triangular number
T = n(n+1)/2.  Mixing tags in arithmetic is a domain error, never a
silent coercion -- the two bases mean different things and confusing
them must not pass quietly.  Substituting T = (n^2+n)/2 (``t_to_n``) is
the one sanctioned bridge between them.  ``_check_var(var, *operands)``
is the one tag check: every function that takes a tag or operands whose
tags must agree calls it.  Integer arguments (a degree, an exponent, a
denominator or divisor) go through ``exact_arith._at_least``, the one
index guard, so a float there is a TypeError, as it is for a value.

Polynomials are immutable (assignment raises AttributeError, and no
read writes anything): equality is structural (same tag, same
coefficients), instances are hashable, and sharing across threads is
safe.  ``Polynomial`` takes ``==`` and ``hash`` by its fields from
``_Record``, the package's one frozen-value base (``powersums/__init__.py``).

Display order is highest degree first, e.g. ``1/4*n^4 + 1/2*n^3 +
1/4*n^2``; this exact grammar is what the CLI prints and what golden
tests pin down.  Each nonzero coefficient prints as its sign and then
its magnitude, ``str()`` of a reduced ``Rational``: the ``p/q`` grammar
of ``exact_arith``, with ``/q`` omitted when q == 1, in which the CLI
prints every rational as text.  A magnitude of 1 is left off before
the variable, the exponent 1 is left off, and the constant term has no
variable.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd, lcm

from . import _Record
from .exact_arith import Rational, _at_least, as_rational

VARIABLES = ("n", "T")


class Polynomial(_Record):
    """``Polynomial(coeffs, var)``: coefficients ascending by degree, tag ``"n"`` or ``"T"``.

    The fields are the canonical layout and the tag, so ``==`` and
    ``hash`` are ``_Record``'s; repr and pickling go by ``coeffs`` instead.
    """

    __slots__ = ("_nums", "_den", "var")

    def __init__(self, coeffs: Iterable[int | str | Rational], var: str) -> None:
        _check_var(var)
        rationals = [as_rational(c) for c in coeffs]
        den = lcm(*[q.denominator for q in rationals])
        _canonical([q.numerator * (den // q.denominator) for q in rationals], den, var, self)

    def __reduce__(self):
        return Polynomial, (self.coeffs, self.var)

    @property
    def coeffs(self) -> tuple[Rational, ...]:
        """Coefficients ascending by degree, as reduced Fractions; no trailing zero."""
        den = self._den
        return tuple([Rational(c, den) for c in self._nums])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._nums) - 1

    def coefficient(self, k: int) -> Rational:
        """Coefficient of var**k (zero beyond the stored degree)."""
        _at_least(k, 0, "coefficient index k")
        return Rational(self._nums[k], self._den) if k < len(self._nums) else Rational(0)

    def __repr__(self) -> str:
        return f"Polynomial(coeffs={self.coeffs!r}, var={self.var!r})"

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return poly_combination([(1, self), (1, other)], self.var)

    def __neg__(self) -> "Polynomial":
        return poly_combination([(-1, self)], self.var)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return poly_combination([(1, self), (-1, other)], self.var)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            _check_var(self.var, other)
            a, b = self._nums, other._nums
            prod = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b, i):
                    prod[j] += x * y
            return _canonical(prod, self._den * other._den, self.var)
        if isinstance(other, (int, Rational)):
            return poly_scale(other, self)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "Polynomial":
        _at_least(exponent, 0, "polynomial exponent")
        result = _canonical([1], 1, self.var)
        for _ in range(exponent):
            result = result * self
        return result

    def __str__(self) -> str:
        if not self._nums:
            return "0"
        terms = []
        for deg in range(self.degree, -1, -1):
            if c := self._nums[deg]:
                body = str(Rational(abs(c), self._den))
                if deg:
                    power = self.var if deg == 1 else f"{self.var}^{deg}"
                    body = power if body == "1" else f"{body}*{power}"
                terms.append(("+ " if c > 0 else "- ") + body)
        # Every term opens with "+ " or "- "; the first keeps only a "-".
        text = " ".join(terms)
        return text[2:] if text[0] == "+" else "-" + text[2:]


def _check_var(var: str, *operands: Polynomial) -> None:
    """The one tag check: var is a known tag, and every operand carries it."""
    if var not in VARIABLES:
        raise ValueError(f"unknown variable tag {var!r}; expected one of {VARIABLES}")
    for p in operands:
        if p.var != var:
            raise ValueError(f"variable mismatch: {var!r} vs {p.var!r}")


def _canonical(nums: list[int], den: int, var: str, p: Polynomial | None = None) -> Polynomial:
    """The polynomial sum of (nums[i] / den) * var**i, for den > 0, in canonical layout.

    Strips trailing zeros and divides out the common factor of den and
    nums.  Every polynomial is built here, so every layout is canonical:
    the constructor passes its own instance as p, and every other builder
    gets a new one.
    """
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    if p is None:
        p = object.__new__(Polynomial)
    _Record.__init__(p, tuple(nums), den, var)
    return p


def monomial(coeff: int | Rational, degree: int, var: str) -> Polynomial:
    """The polynomial coeff * var**degree."""
    _at_least(degree, 0, "monomial degree")
    _check_var(var)
    c = as_rational(coeff)
    return _canonical([0] * degree + [c.numerator], c.denominator, var)


def poly_from_numerators(nums: Iterable[int], den: int, var: str) -> Polynomial:
    """The polynomial sum of (nums[i] / den) * var**i, for ints nums and an int den >= 1."""
    _check_var(var)
    _at_least(den, 1, "poly_from_numerators denominator")
    return _canonical(list(nums), den, var)


def poly_combination(terms: Iterable[tuple[int, Polynomial]], var: str, divisor: int = 1) -> Polynomial:
    """(sum of c * p over the (c, p) in terms) / divisor, for int c and an int divisor >= 1.

    Every term joins the sum over the lcm of all the denominators, so the
    whole combination ends in one gcd pass, not one per term.  Each p must
    carry the tag var: mixing tags is a ValueError, as with ``+``.
    """
    terms = list(terms)
    _check_var(var, *[p for _, p in terms])
    _at_least(divisor, 1, "poly_combination divisor")
    den = lcm(*[p._den for _, p in terms])
    acc = [0] * max([len(p._nums) for _, p in terms], default=0)
    for c, p in terms:
        f = c * (den // p._den)
        acc[: len(p._nums)] = [x + f * y for x, y in zip(acc, p._nums)]
    return _canonical(acc, den * divisor, var)


def poly_scale(c: int | Rational, p: Polynomial) -> Polynomial:
    """Multiply every coefficient by the rational c."""
    c = as_rational(c)
    return poly_combination([(c.numerator, p)], p.var, c.denominator)


def poly_eval(p: Polynomial, x: int | Rational) -> Rational:
    """Exact value of p at x, by Horner's scheme on the integer numerators, then one division.

    An int x stays an int, so the loop is int arithmetic alone; any other
    x goes through ``as_rational`` (a float is a TypeError) and the loop
    runs in Fractions.
    """
    if not isinstance(x, int):
        x = as_rational(x)
    acc = 0
    for c in reversed(p._nums):
        acc = acc * x + c
    return Rational(acc, p._den)


def t_to_n(p: Polynomial) -> Polynomial:
    """Substitute T = (n^2+n)/2 into a T-basis polynomial.

    With p = (1/den) * sum of nums[k] * T^k and degree d, the image is
    (1/(den * 2^d)) * sum of nums[k] * 2^(d-k) * (n^2+n)^k, expanded by
    Horner's scheme in n^2+n: multiplying by n^2+n is two shifted
    additions, so the whole substitution is integer additions only.
    """
    _check_var("T", p)
    nums = p._nums
    if not nums:
        return _canonical([], 1, "n")
    d = len(nums) - 1
    acc = [nums[d]]
    for k in range(d - 1, -1, -1):
        acc = [nums[k] << (d - k)] + [x + y for x, y in zip(acc + [0], [0] + acc)]
    return _canonical(acc, p._den << d, "n")
