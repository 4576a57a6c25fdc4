"""Exact scalar arithmetic: unbounded integers and reduced rationals.

Python ints are already arbitrary precision, and ``fractions.Fraction``
already maintains every invariant the rest of the package relies on:
denominators are strictly positive, values are stored in lowest terms,
and zero is exactly 0/1.  ``Rational`` is therefore an alias rather than
a reimplementation; this module pins the conventions (and the textual
``p/q`` grammar, with ``/q`` omitted when q == 1) that the polynomial,
faulhaber, and cli layers build on.  Beside the alias there is only the
float guard ``as_rational``; binomial coefficients come straight from
``math.comb`` wherever they are needed.

All values are immutable and all operations are pure functions, so
everything here may be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction


def as_rational(value: int | str | Rational) -> Rational:
    """Coerce to an exact Rational, rejecting floats outright.

    Floats are refused even though ``Fraction`` would accept them: the
    conversion is exact for the binary value but silently wrong for the
    decimal the caller almost certainly meant (0.1 is not 1/10).
    """
    if isinstance(value, float):
        raise TypeError(f"refusing inexact float {value!r}; use Fraction or a string like '1/10'")
    return Fraction(value)
