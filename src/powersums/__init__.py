"""Exact power-sum polynomials, Bernoulli numbers, and Faulhaber T-forms.

The package computes S_m(n) = 1^m + ... + n^m exactly over rationals,
in two coordinate systems (powers of n, and powers of the triangular
number T = n(n+1)/2), and mechanically verifies the identities that
connect them -- including the vanishing of the odd Bernoulli numbers.
"""

from .exact_arith import Rational, as_rational
from .faulhaber import (
    BernoulliTable,
    FaulhaberForm,
    VerificationReport,
    bernoulli,
    faulhaber_coefficients,
    infer_odd_bernoulli,
    power_sum_direct,
    power_sum_poly_n,
    power_sum_tform,
    telescoping_check,
    verify_faulhaber,
    verify_pascal_identity,
)
from .polynomial import (
    Polynomial,
    monomial,
    poly_combination,
    poly_eval,
    poly_from_numerators,
    poly_scale,
    t_to_n,
)

__all__ = [
    "BernoulliTable",
    "FaulhaberForm",
    "Polynomial",
    "Rational",
    "VerificationReport",
    "as_rational",
    "bernoulli",
    "faulhaber_coefficients",
    "infer_odd_bernoulli",
    "monomial",
    "poly_combination",
    "poly_eval",
    "poly_from_numerators",
    "poly_scale",
    "power_sum_direct",
    "power_sum_poly_n",
    "power_sum_tform",
    "t_to_n",
    "telescoping_check",
    "verify_faulhaber",
    "verify_pascal_identity",
]
