"""Acceptance suite: every exit criterion, checked exactly (tolerance zero).

Each test prints one ``criterion N ...: PASS/FAIL`` line; run with
``pytest -s tests/test_acceptance.py`` to watch them scroll by.  Timing
bounds are measured on cold subprocesses (or fresh tables) so warm
caches cannot flatter the numbers.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

from powersums.faulhaber import (
    BernoulliTable,
    bernoulli,
    infer_odd_bernoulli,
    power_sum_direct,
    power_sum_poly_n,
    power_sum_tform,
    telescoping_check,
    verify_faulhaber,
    verify_pascal_identity,
)
from powersums.polynomial import Polynomial, monomial, poly_eval, poly_scale


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_bernoulli_table():
    with criterion(1, "bernoulli table values and speed"):
        table = BernoulliTable()
        start = time.monotonic()
        table.get(200)
        elapsed = time.monotonic() - start
        assert table.get(0) == 1
        assert table.get(1) == Fraction(-1, 2)
        assert table.get(3) == 0
        assert table.get(5) == 0
        assert table.get(2) == Fraction(1, 6)
        assert table.get(4) == Fraction(-1, 30)
        assert table.get(6) == Fraction(1, 42)
        assert elapsed < 10.0, f"B_0..B_200 took {elapsed:.2f}s"


def test_criterion_2_displayed_polynomials():
    with criterion(2, "displayed closed forms"):
        assert power_sum_poly_n(3) == Polynomial(
            (0, 0, Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)), "n"
        )
        t = monomial(1, 1, "T")
        one = Polynomial((1,), "T")
        bracket5 = poly_scale(Fraction(1, 3), 4 * t - one)  # (1/3)(4T - 1)
        assert power_sum_tform(2).p == bracket5
        bracket7 = poly_scale(Fraction(1, 4), 8 * t**2 - 4 * bracket5)
        assert power_sum_tform(3).p == bracket7


def test_criterion_3_ladder_suite(cli_subprocess):
    with criterion(3, "ladder identities m=2..6 and pascal sweep to 50"):
        for m in range(2, 7):
            assert verify_pascal_identity(m).holds, f"displayed identity m={m}"
        start = time.monotonic()
        proc = cli_subprocess("verify", "pascal", "--max", "50")
        elapsed = time.monotonic() - start
        lines = proc.stdout.splitlines()
        assert proc.returncode == 0
        assert lines[:49] == [f"PASS pascal m={m}" for m in range(2, 51)]
        assert lines[49] == "pascal: 49/49 passed"
        assert elapsed < 10.0, f"pascal sweep took {elapsed:.2f}s"


def test_criterion_4_telescoping_suite():
    with criterion(4, "telescoping grid m<=10, N<=50"):
        for m in range(1, 11):
            for n in range(1, 51):
                assert telescoping_check(m, n).holds
        special = telescoping_check(5, 3)
        assert special.lhs == Polynomial((7776,), "n")
        assert special.holds


def test_criterion_5_cross_representation(cli_subprocess):
    with criterion(5, "T-route equals Bernoulli route for m<=40"):
        start = time.monotonic()
        proc = cli_subprocess("verify", "faulhaber", "--max", "40")
        elapsed = time.monotonic() - start
        lines = proc.stdout.splitlines()
        assert proc.returncode == 0
        assert lines[:40] == [f"PASS faulhaber m={m}" for m in range(1, 41)]
        assert lines[40] == "faulhaber: 40/40 passed"
        assert elapsed < 30.0, f"faulhaber sweep took {elapsed:.2f}s"
        assert all(verify_faulhaber(m).holds for m in range(1, 41))


def test_criterion_6_odd_bernoulli_vanishing():
    with criterion(6, "odd Bernoulli numbers vanish"):
        for m in range(1, 41):
            assert infer_odd_bernoulli(m) == 0
        for m in range(1, 101):
            assert bernoulli(2 * m + 1) == 0


def test_criterion_7_oracle_equivalence():
    with criterion(7, "polynomial evaluation equals brute force, m<=20, n<=200"):
        for m in range(1, 21):
            poly = power_sum_poly_n(m)
            for n in range(201):
                assert poly_eval(poly, n) == power_sum_direct(m, n)


def test_criterion_8_structural_invariants():
    with criterion(8, "T-form structure for m<=40"):
        for m in range(1, 41):
            form = power_sum_tform(m)  # construction itself asserts divisibility
            assert form.p.degree == m - 1
            assert form.p.coeffs[-1] == Fraction(2**m, m + 1)
            if m >= 2:
                assert form.p.coeffs[1] == -4 * form.p.coeffs[0]


def test_criterion_9_cli_golden(cli):
    with criterion(9, "CLI golden invocations"):
        code, out, err = cli("bernoulli", "5")
        assert (code, err) == (0, "")
        assert out == "0\t1\n1\t-1/2\n2\t1/6\n3\t0\n4\t-1/30\n5\t0\n"

        code, out, err = cli("powersum", "3", "--basis", "n")
        assert (code, out, err) == (0, "1/4*n^4 + 1/2*n^3 + 1/4*n^2\n", "")

        code, out, err = cli("eval", "7", "2")
        assert (code, out, err) == (0, "polynomial\t129\ndirect\t129\nagree\ttrue\n", "")

        code, out, err = cli("verify", "odd-bernoulli", "--max", "40")
        lines = out.splitlines()
        assert code == 0
        assert lines[:40] == [f"PASS odd-bernoulli m={m}" for m in range(1, 41)]
        assert lines[40] == "odd-bernoulli: 40/40 passed"

        code, out, err = cli("powersum", "nope")
        assert (code, out) == (2, "")
        assert err != ""
