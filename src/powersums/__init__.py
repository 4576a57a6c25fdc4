"""Exact power-sum polynomials, Bernoulli numbers, and Faulhaber T-forms.

The package computes S_m(n) = 1^m + ... + n^m exactly over rationals,
in two coordinate systems (powers of n, and powers of the triangular
number T = n(n+1)/2), and mechanically verifies the identities that
connect them -- including the vanishing of the odd Bernoulli numbers.

The namespace is lazy (PEP 562): ``import powersums`` loads no
submodule, and each name of ``__all__`` is resolved one way, on every
access: ``import_module`` of the submodule that defines it, then that
module's attribute.  So it is always that module's current binding, and
while that module is still importing in another thread the lookup waits
on its import lock until the import finishes: no name is read from a
half-built module.  ``_HOME`` is the one place that knows which
submodule that is: the CLI reads every name through this namespace too.
A process thus loads only the layers it uses: the CLI's ``--help``
loads no arithmetic at all.

``_Record`` is the one frozen-value base: every value class,
``Polynomial``, the records of ``faulhaber`` and the CLI's ``Suite``
alike, takes ``==`` and ``hash`` from it, by its fields.  A record is
hashable only when its fields are: a ``Suite`` holds a dict, so
``hash(SUITES["pascal"])`` raises TypeError.
"""

from importlib import import_module

# Each public name and the submodule that defines it.
_HOME = {
    "BernoulliTable": "faulhaber",
    "FaulhaberForm": "faulhaber",
    "Polynomial": "polynomial",
    "Rational": "exact_arith",
    "VerificationReport": "faulhaber",
    "as_rational": "exact_arith",
    "bernoulli": "faulhaber",
    "check_odd_bernoulli": "faulhaber",
    "infer_odd_bernoulli": "faulhaber",
    "monomial": "polynomial",
    "poly_combination": "polynomial",
    "poly_eval": "polynomial",
    "poly_from_numerators": "polynomial",
    "poly_scale": "polynomial",
    "power_sum_direct": "faulhaber",
    "power_sum_poly_n": "faulhaber",
    "power_sum_tform": "faulhaber",
    "t_to_n": "polynomial",
    "telescoping_check": "faulhaber",
    "verify_faulhaber": "faulhaber",
    "verify_pascal_identity": "faulhaber",
}

__all__ = list(_HOME)


def __getattr__(name: str) -> object:
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


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
