"""Exact scalar arithmetic: unbounded integers and reduced rationals.

Python ints are already arbitrary precision, and ``fractions.Fraction``
already maintains every invariant the rest of the package relies on:
denominators are strictly positive, values are stored in lowest terms,
and zero is exactly 0/1.  ``Rational`` is therefore an alias rather than
a reimplementation; this module pins the conventions (and the textual
``p/q`` grammar, with ``/q`` omitted when q == 1) that the polynomial
and faulhaber layers build on; the CLI's JSON records read a value's
numerator and denominator directly.  Beside the alias there are only
the two input guards: ``as_rational``, which refuses floats as values,
and the private ``_at_least``, the one index guard, which every
function taking an integer index or bound (an m, n, k, degree, exponent
or divisor) calls instead of writing its own check.  Binomial
coefficients come straight from ``math.comb`` wherever they are needed.
Importing this module loads ``fractions`` (and with it ``decimal``); the
CLI's help and usage errors compute nothing and never import it.

All values are immutable and all operations are pure functions, so
everything here may be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index

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


def _at_least(value: int, lower: int, name: str) -> int:
    """``value`` as an int, refusing a value below ``lower`` or one that is not an integer.

    ``operator.index`` raises TypeError for a float, so 2.0 is refused
    like 0.5 (and like a float value in ``as_rational``), never truncated
    or let through to compute inexactly; an int below ``lower`` is a
    ValueError naming ``name``.  Private: perfbench's span tracer wraps
    only public functions, so the guard adds no span to a traced call.
    """
    value = index(value)
    if value < lower:
        raise ValueError(f"{name} must be >= {lower}, got {value}")
    return value
