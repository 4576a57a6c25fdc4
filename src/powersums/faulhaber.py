"""Power-sum polynomials, Bernoulli numbers, and triangular-basis forms.

Everything here revolves around three classical facts about the power
sums S_m(n) = 1^m + 2^m + ... + n^m and the triangular numbers
T = n(n+1)/2:

* Bernoulli numbers.  B_0 = 1 and sum_{k=0}^{n} C(n+1, k) * B_k = 0 for
  n >= 1, which pins B_1 = -1/2 and yields S_m(n) as the degree-(m+1)
  polynomial whose coefficient of n^(m+1-j) is
  (-1)^j * C(m+1, j) * B_j / (m+1).  The table does not run that
  recurrence: it reads each even B_n off the zigzag number E_{n-1} of
  the Seidel boustrophedon triangle, by integer additions alone, and
  lists the odd ones past B_1 as 0.  The recurrence stays the oracle the
  tests and ``scripts/run_verification.py`` recheck it against.

* The telescoping ladder.  Summing the telescoped differences
  (T_k)^m - (T_{k-1})^m = (k/2)^m * ((k+1)^m - (k-1)^m) and expanding by
  the binomial theorem gives, for every m >= 2,

      2^(m-1) * T^m  =  sum over j of C(m, j) * S_{m+j}(n)

  where j runs over {0, 2, ..., m-1} for odd m and {1, 3, ..., m-1} for
  even m (whichever parity makes the chain end at C(m, m-1)).  All
  exponents m+j on the right are odd.

* Faulhaber forms.  Solving the ladder for its top term shows every odd
  power sum is a polynomial in T divisible by T^2:
  S_{2m+1}(n) = P(T) * T^2 with deg P = m-1.  ``power_sum_tform`` builds
  P_m from the order-(m+1) ladder divided through by T^2,
  2^m * T^(m-1) = sum over j of C(m+1, j) * P_{(m+j)/2}(T), whose top
  term is (m+1) * P_m, by eliminating the lower forms.

Comparing the two representations coefficient by coefficient is a
mechanical proof that the odd Bernoulli numbers B_3, B_5, ... vanish:
expanding P(T) * T^2 in n produces no linear term, yet the Bernoulli
form says the linear coefficient is -B_{2m+1}.  ``infer_odd_bernoulli``
performs exactly that extraction, and it is what the table's listed
zeros rest on.

``SUITES`` is the one registry of verification suites: for each of
pascal, faulhaber, odd-bernoulli and telescoping it holds the default
bounds, the lowest allowed index and the check that returns one
instance's ``(label, ok)`` pair.  ``Suite.sweep`` runs that check on
every index from the lowest one up to its bound.  The CLI's ``verify``
command and ``scripts/run_verification.py`` both run suites from it.

All operations are deterministic and observationally pure.  The shared
Bernoulli table only ever grows, under a lock.  The memoized T-forms and
S_m sit in ``functools.cache``, which holds no lock: two threads that
miss together may both build a value, and the values are equal, so
concurrent callers always observe consistent values.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterator
from functools import cache
from itertools import accumulate, product
from math import comb, lcm

from .exact_arith import Rational
from .polynomial import Polynomial, _Record, monomial, poly_combination, poly_from_numerators, t_to_n


class BernoulliTable:
    """Memoized B_0, B_1, ... under the B_1 = -1/2 convention.

    Values come from the zigzag numbers E_0, E_1, E_2, ... = 1, 1, 1, 2,
    5, 16, ..., built by the Seidel boustrophedon triangle and retained
    for the lifetime of the table.  Beside its values the table keeps one
    row of the triangle, row len - 1, whose last entry is E_{len-1}.
    Each new index n moves that row forward once: a 0, then the running
    sums of the old row read backwards, n integer additions and no
    binomial.  The even values are then
    B_n = (-1)^(n/2 - 1) * n * E_{n-1} / (2^n * (2^n - 1)), reduced by a
    single gcd; B_1 = -1/2, and B_3 = B_5 = ... = 0 is listed, not
    computed: ``infer_odd_bernoulli`` proves it by the T-route.
    Extension happens under a lock, so a table may be shared by
    concurrent readers.
    """

    def __init__(self) -> None:
        self._values: list[Rational] = [Rational(1)]
        self._row: list[int] = [1]  # boustrophedon row len - 1, ending in E_{len-1}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._values)

    def get(self, k: int) -> Rational:
        if k < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {k}")
        if k >= len(self._values):
            with self._lock:
                while len(self._values) <= k:
                    n = len(self._values)
                    if n % 2 == 0:
                        num = n * self._row[-1]  # n * E_{n-1}; positive for n = 2 mod 4
                        value = Rational(num if n % 4 else -num, ((1 << n) - 1) << n)
                    else:
                        value = Rational(-1, 2) if n == 1 else Rational(0)
                    self._row = list(accumulate(reversed(self._row), initial=0))
                    self._values.append(value)
        return self._values[k]


_SHARED_TABLE = BernoulliTable()


def bernoulli(k: int) -> Rational:
    """B_k, from the process-wide shared table."""
    return _SHARED_TABLE.get(k)


def power_sum_direct(m: int, n: int) -> int:
    """Literal summation 1^m + 2^m + ... + n^m, the independent oracle."""
    if m < 0 or n < 0:
        raise ValueError(f"power_sum_direct requires m >= 0 and n >= 0, got m={m}, n={n}")
    return sum(k**m for k in range(1, n + 1))


@cache
def power_sum_poly_n(m: int) -> Polynomial:
    """S_m as an exact polynomial in n, via the Bernoulli-number formula.

    The coefficient of n^(m+1-j) is (-1)^j * C(m+1, j) * B_j / (m+1).  All
    of them are built as integer numerators over L * (m+1), with L the lcm
    of the denominators of B_0..B_m, and reduced once at the end.
    """
    if m < 1:
        raise ValueError(f"power_sum_poly_n requires m >= 1, got {m}")
    order = m + 1
    values = [bernoulli(j) for j in range(order)]
    common = lcm(*[b.denominator for b in values])
    nums = [
        (-1 if j % 2 else 1) * comb(order, j) * b.numerator * (common // b.denominator)
        for j, b in enumerate(values)
    ]
    # nums[j] belongs to n^(m+1-j); the constant term is 0.
    return poly_from_numerators([0] + nums[::-1], common * order, "n")


class FaulhaberForm(_Record):
    """The factored odd power sum S_{2m+1}(n) = p(T) * T^2.

    Construction enforces the structural shape: deg p = m - 1, leading
    coefficient 2^m / (m+1), and for m >= 2 the two lowest coefficients
    lock together as c1 = -4*c0 (the tail of p is proportional to
    (4T - 1)/3).  Violations are invariant failures, not domain errors.
    ``str`` gives the one factored display, ``(p) * T^2``.
    """

    __slots__ = ("m", "p")

    def __init__(self, m: int, p: Polynomial) -> None:
        super().__init__(m, p)
        if self.m < 1:
            raise ValueError(f"FaulhaberForm index must be >= 1, got {self.m}")
        if self.p.var != "T":
            raise ValueError(f"FaulhaberForm polynomial must be T-basis, got {self.p.var!r}")
        if self.p.degree != self.m - 1:
            raise AssertionError(f"deg p = {self.p.degree}, expected {self.m - 1} for m={self.m}")
        lead = self.p.coefficient(self.p.degree)
        if lead != Rational(2**self.m, self.m + 1):
            raise AssertionError(f"leading coefficient {lead} != 2^{self.m}/{self.m + 1}")
        if self.m >= 2 and self.p.coefficient(1) != -4 * self.p.coefficient(0):
            raise AssertionError(f"tail relation c1 = -4*c0 broken for m={self.m}")

    def __str__(self) -> str:
        return f"({self.p}) * T^2"


class VerificationReport(_Record):
    """Both sides of a symbolic identity check, as canonical polynomials."""

    __slots__ = ("label", "lhs", "rhs")

    def __init__(self, label: str, lhs: Polynomial, rhs: Polynomial) -> None:
        super().__init__(label, lhs, rhs)

    @property
    def holds(self) -> bool:
        """True exactly when both sides match tag-for-tag and coefficient-for-coefficient."""
        return self.lhs == self.rhs


def _ladder_indices(m: int) -> range:
    """Index set of the ladder right side: {0,2,..,m-1} for odd m, {1,3,..,m-1} for even."""
    return range(0 if m % 2 else 1, m, 2)


def verify_pascal_identity(m: int) -> VerificationReport:
    """Check 2^(m-1) * T^m = sum_j C(m, j) * S_{m+j}(n) symbolically in n."""
    if m < 2:
        raise ValueError(f"verify_pascal_identity requires m >= 2, got {m}")
    lhs = t_to_n(monomial(2 ** (m - 1), m, "T"))
    rhs = poly_combination([(comb(m, j), power_sum_poly_n(m + j)) for j in _ladder_indices(m)], "n")
    return VerificationReport(f"pascal m={m}", lhs, rhs)


def telescoping_check(m: int, n: int) -> VerificationReport:
    """Confirm (T_n)^m equals its telescoped sum by exact integer evaluation.

    Both sides are integers here, reported as constant polynomials so the
    report shape stays uniform with the symbolic checks.
    """
    if m < 1 or n < 1:
        raise ValueError(f"telescoping_check requires m >= 1 and N >= 1, got m={m}, N={n}")
    lhs_value = (n * (n + 1) // 2) ** m
    rhs_value = sum((k * (k + 1) // 2) ** m - ((k - 1) * k // 2) ** m for k in range(1, n + 1))
    return VerificationReport(
        f"telescoping m={m} N={n}",
        Polynomial((lhs_value,), "n"),
        Polynomial((rhs_value,), "n"),
    )


@cache
def power_sum_tform(m: int) -> FaulhaberForm:
    """Build P with S_{2m+1}(n) = P(T) * T^2, by ladder elimination.

    Every odd sum in the order-(m+1) ladder carries T^2; divided by it,
    the ladder reads 2^m * T^(m-1) = sum_j C(m+1, j) * P_{(m+j)/2}(T),
    with top term (m+1) * P_m.  So P_m is the one integer combination
    (2^m * T^(m-1) - sum over the lower j of C(m+1, j) * P_{(m+j)/2}) / (m+1),
    reduced once; for m = 1 there is no lower term and P_1 = 2/2 = 1, so
    S_3 = T^2.
    """
    if m < 1:
        raise ValueError(f"power_sum_tform requires m >= 1, got {m}")
    terms = [(2**m, monomial(1, m - 1, "T"))]
    terms += [(-comb(m + 1, j), power_sum_tform((m + j) // 2).p) for j in _ladder_indices(m + 1)[:-1]]
    return FaulhaberForm(m, poly_combination(terms, "T", m + 1))


def faulhaber_coefficients(m: int) -> list[Rational]:
    """Coefficients of power_sum_tform(m).p in descending degree order."""
    return list(reversed(power_sum_tform(m).p.coeffs))


def _t_route(m: int) -> Polynomial:
    """S_{2m+1} in n by the T-route: P_m(T) * T^2 with T = (n^2+n)/2 substituted."""
    return t_to_n(monomial(1, 2, "T") * power_sum_tform(m).p)


def verify_faulhaber(m: int) -> VerificationReport:
    """Cross-check the T-route against the Bernoulli route for S_{2m+1}."""
    return VerificationReport(f"faulhaber m={m}", _t_route(m), power_sum_poly_n(2 * m + 1))


def infer_odd_bernoulli(m: int) -> Rational:
    """Read B_{2m+1} off the expanded T-form; always exactly zero.

    The Bernoulli form of S_{2m+1} carries the linear coefficient
    -C(2m+2, 2m+1) * B_{2m+1} / (2m+2) = -B_{2m+1}, while the expansion
    of P(T) * T^2 in n has no linear term at all.  Negating the linear
    coefficient found on the T-route therefore *is* B_{2m+1}.
    """
    return -_t_route(m).coefficient(1)


class Suite(_Record):
    """One verification suite of the registry.

    ``defaults`` maps each bound (``max``, or ``max_m`` and ``max_n``) to
    its default, in the order ``check`` and ``sweep`` take them; ``first``
    is the lowest allowed index.  ``check(*indices)`` runs one instance
    and returns its ``(label, ok)`` pair.
    """

    __slots__ = ("defaults", "first", "check")

    def __init__(self, defaults: dict[str, int], first: int, check: Callable[..., tuple[str, bool]]) -> None:
        super().__init__(defaults, first, check)

    def sweep(self, *bounds: int) -> Iterator[tuple[str, bool]]:
        """A generator of ``check`` on each index tuple, every index from ``first`` to its bound.

        The first index varies slowest, as in nested loops.
        """
        ranges = [range(self.first, top + 1) for top in bounds]
        return (self.check(*indices) for indices in product(*ranges))


def _outcome(report: VerificationReport) -> tuple[str, bool]:
    return report.label, report.holds


# The checks look their functions up as module globals at call time, so a
# patched or wrapped ``verify_faulhaber`` (say) is the one that runs.
SUITES: dict[str, Suite] = {
    "pascal": Suite({"max": 40}, 2, lambda m: _outcome(verify_pascal_identity(m))),
    "faulhaber": Suite({"max": 40}, 1, lambda m: _outcome(verify_faulhaber(m))),
    # The table's odd zeros are structural, listed rather than computed, so
    # this suite's proof rests on infer_odd_bernoulli, the T-route; the
    # table's entry is only checked to agree with it.
    "odd-bernoulli": Suite(
        {"max": 40},
        1,
        lambda m: (f"odd-bernoulli m={m}", infer_odd_bernoulli(m) == 0 and bernoulli(2 * m + 1) == 0),
    ),
    "telescoping": Suite({"max_m": 10, "max_n": 50}, 1, lambda m, n: _outcome(telescoping_check(m, n))),
}
