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
  table is rechecked against: ``bernoulli_from_recurrence`` is its one
  implementation, which ``check_odd_bernoulli`` calls.

* The telescoping ladder.  Summing the telescoped differences
  (T_k)^m - (T_{k-1})^m = (k/2)^m * ((k+1)^m - (k-1)^m) and expanding by
  the binomial theorem gives, for every m >= 2,

      2^(m-1) * T^m  =  sum over j of C(m, j) * S_{m+j}(n)

  where j runs over {0, 2, ..., m-1} for odd m and {1, 3, ..., m-1} for
  even m (whichever parity makes the chain end at C(m, m-1)).  All
  exponents m+j on the right are odd.  ``verify_pascal_identity``
  checks it symbolically in n; ``telescoping_check`` evaluates both
  sides at one n by brute-force sums, with no polynomial and no
  Bernoulli number.

* Faulhaber forms.  Solving the ladder for its top term shows every odd
  power sum is a polynomial in T divisible by T^2:
  S_{2m+1}(n) = P(T) * T^2 with deg P = m-1.  ``power_sum_tform`` builds
  P_m from the order-(m+1) ladder divided through by T^2,
  2^m * T^(m-1) = sum over j of C(m+1, j) * P_{(m+j)/2}(T), whose top
  term is (m+1) * P_m, by eliminating the lower forms.

Comparing the two representations is a mechanical proof that the odd
Bernoulli numbers B_3, B_5, ... vanish: the Bernoulli form says the
linear n-coefficient of S_{2m+1} is -B_{2m+1}, and P(T) * T^2 has none.
No expansion in n is needed to see it.  Under T = (n^2 + n)/2 only T's
own linear term reaches n^1, so [n^1] Q(T(n)) = q_1 / 2 for every
T-polynomial Q, and T^2 makes q_1 = 0.  ``infer_odd_bernoulli`` reads
B_{2m+1} off the T-route that way.  ``check_odd_bernoulli`` makes both
steps of the argument for one m: it pins the T-route against brute-force
sums, and it computes B_{2m+1} from the recurrence to compare with the
inferred value and with the table's listed zero, which rests on it.
``_t_route`` is the one place that builds P_m(T) * T^2.

The verification suites that run these checks are registered in the
CLI (``powersums.cli.SUITES``), whose ``verify`` command is their one
front end and writes each instance's label; a check here returns only
its report or its verdict.  Each check reads its function through the
lazy ``powersums`` namespace at every call, so a patched function here
is the one that runs.

All operations are deterministic and observationally pure.  The shared
Bernoulli table only ever grows, under a lock.  The memoized T-forms and
S_m sit in ``functools.cache``, which holds no lock: two threads that
miss together may both build a value, and the values are equal, so
concurrent callers always observe consistent values.
"""

from __future__ import annotations

import threading
from functools import cache
from itertools import accumulate
from math import comb, lcm

from . import _Record
from .exact_arith import Rational, _at_least
from .polynomial import Polynomial, _check_var, monomial, poly_combination, poly_eval, poly_from_numerators, t_to_n


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
    computed: ``check_odd_bernoulli`` proves it by the T-route.
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
        # A stored index costs one test; a float within range fails at the indexing below.
        if not 0 <= k < len(self._values):
            _at_least(k, 0, "Bernoulli index k")
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
    _at_least(m, 0, "power_sum_direct m")
    _at_least(n, 0, "power_sum_direct n")
    return sum(k**m for k in range(1, n + 1))


@cache
def power_sum_poly_n(m: int) -> Polynomial:
    """S_m as an exact polynomial in n, via the Bernoulli-number formula.

    The coefficient of n^(m+1-j) is (-1)^j * C(m+1, j) * B_j / (m+1).  All
    of them are built as integer numerators over L * (m+1), with L the lcm
    of the denominators of B_0..B_m, and reduced once at the end.
    """
    _at_least(m, 1, "power_sum_poly_n m")
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
        _at_least(m, 1, "FaulhaberForm m")
        _check_var("T", p)
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
    """``VerificationReport(lhs, rhs)``: both sides of a symbolic identity check, as canonical polynomials.

    It names no instance: the CLI's ``verify`` writes each instance's label.
    """

    __slots__ = ("lhs", "rhs")

    @property
    def holds(self) -> bool:
        """True exactly when both sides match tag-for-tag and coefficient-for-coefficient."""
        return self.lhs == self.rhs


def _ladder_indices(m: int) -> range:
    """Index set of the ladder right side: {0,2,..,m-1} for odd m, {1,3,..,m-1} for even."""
    return range(0 if m % 2 else 1, m, 2)


def verify_pascal_identity(m: int) -> VerificationReport:
    """Check 2^(m-1) * T^m = sum_j C(m, j) * S_{m+j}(n) symbolically in n."""
    _at_least(m, 2, "verify_pascal_identity m")
    lhs = t_to_n(monomial(2 ** (m - 1), m, "T"))
    rhs = poly_combination([(comb(m, j), power_sum_poly_n(m + j)) for j in _ladder_indices(m)], "n")
    return VerificationReport(lhs, rhs)


def telescoping_check(m: int, n: int) -> VerificationReport:
    """Check the telescoped ladder at one point: T_n^m = sum_j C(m, j) * S_{m+j}(n) / 2^(m-1).

    The differences T_k^m - T_{k-1}^m, expanded by the binomial theorem
    and summed over k = 1..n, give the ladder; here it is evaluated by
    brute-force sums (``power_sum_direct``), with no polynomial arithmetic
    and no Bernoulli number, so a wrong index set or binomial fails it.
    It holds for m = 1 too, where T = S_1.  Both sides are reported as
    constant polynomials, so the report shape stays uniform with the
    symbolic checks.
    """
    _at_least(m, 1, "telescoping_check m")
    _at_least(n, 1, "telescoping_check N")
    ladder = sum(comb(m, j) * power_sum_direct(m + j, n) for j in _ladder_indices(m))
    return VerificationReport(
        poly_from_numerators(((n * (n + 1) // 2) ** m,), 1, "n"),
        poly_from_numerators((ladder,), 2 ** (m - 1), "n"),
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
    _at_least(m, 1, "power_sum_tform m")
    terms = [(2**m, monomial(1, m - 1, "T"))]
    terms += [(-comb(m + 1, j), power_sum_tform((m + j) // 2).p) for j in _ladder_indices(m + 1)[:-1]]
    return FaulhaberForm(m, poly_combination(terms, "T", m + 1))


def _t_route(m: int) -> Polynomial:
    """S_{2m+1} by the T-route, P_m(T) * T^2, still in T."""
    return monomial(1, 2, "T") * power_sum_tform(m).p


def verify_faulhaber(m: int) -> VerificationReport:
    """Cross-check the T-route, expanded in n, against the Bernoulli route for S_{2m+1}."""
    return VerificationReport(t_to_n(_t_route(m)), power_sum_poly_n(2 * m + 1))


def infer_odd_bernoulli(m: int) -> Rational:
    """Read B_{2m+1} off the T-route, without expanding it; always exactly zero.

    The Bernoulli form of S_{2m+1} carries the linear coefficient
    -C(2m+2, 2m+1) * B_{2m+1} / (2m+2) = -B_{2m+1}.  Under
    T = (n^2 + n)/2 only T's own linear term reaches n^1, so for every
    T-polynomial Q the n-coefficient [n^1] Q(T(n)) is q_1 / 2.  The T-route
    P(T) * T^2 has q_1 = 0, hence no linear term in n, and negating that
    coefficient *is* B_{2m+1}, once the route is shown right
    (``check_odd_bernoulli``).
    """
    return -_t_route(m).coefficient(1) / 2


def bernoulli_from_recurrence(row: list[Rational]) -> Rational:
    """B_n from row = B_0..B_{n-1}, n >= 1, by sum_{k <= n} C(n+1, k) * B_k = 0.

    The row is summed in ints over one common denominator, the lcm of its
    denominators, and reduced once.  This is the oracle the table is
    rechecked against: it shares nothing with the zigzag numbers.  An
    empty row, without B_0, is a ``ValueError``.
    """
    n = len(row)
    if not n:
        raise ValueError("bernoulli_from_recurrence requires n >= 1: the row must hold B_0")
    common = lcm(*[b.denominator for b in row])
    total = sum(comb(n + 1, k) * b.numerator * (common // b.denominator) for k, b in enumerate(row))
    return Rational(-total, common * (n + 1))


def check_odd_bernoulli(m: int) -> bool:
    """Whether both steps of the proof that B_{2m+1} = 0 hold for one m; the odd-bernoulli check.

    (a) The T-route is right: P_m(T_n) * T_n^2 = S_{2m+1}(n) at
    n = 1..m, against running integer sums.  The route has degree below
    m + 2 (checked), so these m points pin P_m; this step reads no
    Bernoulli number.
    (b) B_{2m+1} from ``bernoulli_from_recurrence`` over the stored
    B_0..B_{2m} equals ``infer_odd_bernoulli(m)`` and the table's listed
    entry.  The inferred value is the route's linear T-coefficient over 2,
    0 because of the T^2 factor: [n^1] Q(T(n)) = q_1 / 2 for every
    T-polynomial Q, so no expansion in n is needed.  Swept upward in m,
    the odd values the row reads are those that earlier instances checked.
    """
    route = _t_route(m)
    sums = accumulate(n ** (2 * m + 1) for n in range(1, m + 1))
    pinned = route.degree < m + 2 and all(poly_eval(route, t) == s for t, s in zip(accumulate(range(1, m + 1)), sums))
    value = bernoulli_from_recurrence([bernoulli(k) for k in range(2 * m + 1)])
    return pinned and value == infer_odd_bernoulli(m) == bernoulli(2 * m + 1)
