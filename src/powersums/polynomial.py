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
compare layouts.  The constructor brings rational coefficients over
their lcm first; ``monomial`` and ``poly_from_numerators`` pass one term
or int numerators.  The arithmetic has two kernels: the convolution in
``*``, and ``poly_combination``, the integer linear combination
(sum of c_i * p_i) / d -- one lcm, int accumulation, one gcd pass --
which ``+``, ``-``, unary ``-`` and ``poly_scale`` each are.

Every polynomial carries a variable tag, ``"n"`` or ``"T"``: the first
is the summation limit of a power sum, the second the triangular number
T = n(n+1)/2.  Mixing tags in arithmetic is a domain error, never a
silent coercion -- the two bases mean different things and confusing
them must not pass quietly.  Substituting T = (n^2+n)/2 (``t_to_n``) is
the one sanctioned bridge between them.

Polynomials are immutable (assignment raises AttributeError, and no
read writes anything): equality is structural (same tag, same
coefficients), instances are hashable, and sharing across threads is
safe.  ``_Record`` is the one frozen-value base: every value class,
``Polynomial`` and the records of ``faulhaber`` alike, takes ``==`` and
``hash`` from it, by its fields.  A record is hashable only when its
fields are: a ``Suite`` holds a dict, so ``hash(SUITES["pascal"])``
raises TypeError.

Display order is highest degree first, e.g. ``1/4*n^4 + 1/2*n^3 +
1/4*n^2``; this exact grammar is what the CLI prints and what golden
tests pin down.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd, lcm

from .exact_arith import Rational, as_rational

VARIABLES = ("n", "T")


class _Record:
    """Base of the immutable value classes, with frozen-dataclass manners.

    The fields are the subclass's ``__slots__``, set once by ``__init__``
    in that order; assignment raises AttributeError, and equality (same
    class only), hashing, repr and pickling go by the fields.
    """

    __slots__ = ()

    def __init__(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class Polynomial(_Record):
    """``Polynomial(coeffs, var)``: coefficients ascending by degree, tag ``"n"`` or ``"T"``.

    The fields are the canonical layout and the tag, so ``==`` and
    ``hash`` are ``_Record``'s; repr and pickling go by ``coeffs`` instead.
    """

    __slots__ = ("_nums", "_den", "var")

    def __new__(cls, coeffs: Iterable[int | str | Rational], var: str) -> "Polynomial":
        _check_var(var)
        rationals = [as_rational(c) for c in coeffs]
        den = lcm(*[q.denominator for q in rationals])
        return _canonical([q.numerator * (den // q.denominator) for q in rationals], den, var)

    def __init__(self, coeffs: Iterable[int | str | Rational], var: str) -> None:
        """Nothing left to set: ``__new__`` built the instance through ``_canonical``."""

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
        if k < 0:
            raise ValueError(f"coefficient index must be >= 0, got {k}")
        return Rational(self._nums[k], self._den) if k < len(self._nums) else Rational(0)

    def __repr__(self) -> str:
        return f"Polynomial(coeffs={self.coeffs!r}, var={self.var!r})"

    def _require_same_var(self, other: "Polynomial") -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

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
            self._require_same_var(other)
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
        if exponent < 0:
            raise ValueError(f"polynomial exponent must be >= 0, got {exponent}")
        result = _canonical([1], 1, self.var)
        for _ in range(exponent):
            result = result * self
        return result

    def __str__(self) -> str:
        nums, den = self._nums, self._den
        if not nums:
            return "0"
        parts = []
        for deg in range(len(nums) - 1, -1, -1):
            c = nums[deg]
            if not c:
                continue
            g = gcd(c, den)
            magnitude = str(abs(c) // g) if g == den else f"{abs(c) // g}/{den // g}"
            if deg == 0:
                body = magnitude
            else:
                head = "" if magnitude == "1" else f"{magnitude}*"
                power = self.var if deg == 1 else f"{self.var}^{deg}"
                body = head + power
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


def _check_var(var: str) -> None:
    if var not in VARIABLES:
        raise ValueError(f"unknown variable tag {var!r}; expected one of {VARIABLES}")


def _canonical(nums: list[int], den: int, var: str) -> Polynomial:
    """The polynomial sum of (nums[i] / den) * var**i, for den > 0, in canonical layout.

    Strips trailing zeros and divides out the common factor of den and
    nums.  Every polynomial is built here, so every layout is canonical.
    """
    while nums and not nums[-1]:
        nums.pop()
    g = gcd(den, *nums)
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    p = object.__new__(Polynomial)
    _Record.__init__(p, tuple(nums), den, var)
    return p


def monomial(coeff: int | Rational, degree: int, var: str) -> Polynomial:
    """The polynomial coeff * var**degree."""
    if degree < 0:
        raise ValueError(f"monomial degree must be >= 0, got {degree}")
    _check_var(var)
    c = as_rational(coeff)
    return _canonical([0] * degree + [c.numerator], c.denominator, var)


def poly_from_numerators(nums: Iterable[int], den: int, var: str) -> Polynomial:
    """The polynomial sum of (nums[i] / den) * var**i, for ints nums and an int den >= 1."""
    _check_var(var)
    if den < 1:
        raise ValueError(f"denominator must be >= 1, got {den}")
    return _canonical(list(nums), den, var)


def poly_combination(terms: Iterable[tuple[int, Polynomial]], var: str, divisor: int = 1) -> Polynomial:
    """(sum of c * p over the (c, p) in terms) / divisor, for int c and an int divisor >= 1.

    Every term joins the sum over the lcm of all the denominators, so the
    whole combination ends in one gcd pass, not one per term.  Each p must
    carry the tag var: mixing tags is a ValueError, as with ``+``.
    """
    _check_var(var)
    if divisor < 1:
        raise ValueError(f"divisor must be >= 1, got {divisor}")
    terms = list(terms)
    for _, p in terms:
        if p.var != var:
            raise ValueError(f"variable mismatch: {var!r} vs {p.var!r}")
    den = lcm(*[p._den for _, p in terms])
    acc = [0] * max([len(p._nums) for _, p in terms], default=0)
    for c, p in terms:
        f = c * (den // p._den)
        if f:
            nums = p._nums
            acc[: len(nums)] = [x + f * y for x, y in zip(acc, nums)]
    return _canonical(acc, den * divisor, var)


def poly_scale(c: int | Rational, p: Polynomial) -> Polynomial:
    """Multiply every coefficient by the rational c."""
    c = as_rational(c)
    return poly_combination([(c.numerator, p)], p.var, c.denominator)


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
        return _canonical([], 1, "n")
    d = len(nums) - 1
    acc = [nums[d]]
    for k in range(d - 1, -1, -1):
        acc = [nums[k] << (d - k)] + [x + y for x, y in zip(acc + [0], [0] + acc)]
    return _canonical(acc, p._den << d, "n")
