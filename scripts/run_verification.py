#!/usr/bin/env python3
"""Run every identity-verification sweep at configurable bounds, with timings.

This is the batch counterpart of ``powersums verify ...``: one process,
all four suites, a wall-clock figure per suite, and a nonzero exit if
any instance fails (none ever should).
"""

import argparse
import sys
import time
from dataclasses import dataclass

from powersums.faulhaber import (
    BernoulliTable,
    bernoulli,
    infer_odd_bernoulli,
    telescoping_check,
    verify_faulhaber,
    verify_pascal_identity,
)


@dataclass
class SweepBounds:
    pascal_max: int = 200
    faulhaber_max: int = 200
    odd_bernoulli_max: int = 200
    table_max: int = 400
    telescoping_max_m: int = 10
    telescoping_max_n: int = 50


def run_sweeps(bounds: SweepBounds) -> bool:
    all_ok = True

    def report(name: str, ok: bool, count: int, seconds: float) -> None:
        nonlocal all_ok
        all_ok = all_ok and ok
        print(f"{name:<16} {'ok' if ok else 'FAILED':<7} {count:>5} instances  {seconds:7.3f}s")

    start = time.monotonic()
    table = BernoulliTable()
    table.get(bounds.table_max)
    ok = all(bernoulli(k, table) == bernoulli(k) for k in range(bounds.table_max + 1))
    report("bernoulli", ok, bounds.table_max + 1, time.monotonic() - start)

    start = time.monotonic()
    results = [verify_pascal_identity(m).holds for m in range(2, bounds.pascal_max + 1)]
    report("pascal", all(results), len(results), time.monotonic() - start)

    start = time.monotonic()
    results = [
        telescoping_check(m, n).holds
        for m in range(1, bounds.telescoping_max_m + 1)
        for n in range(1, bounds.telescoping_max_n + 1)
    ]
    report("telescoping", all(results), len(results), time.monotonic() - start)

    start = time.monotonic()
    results = [verify_faulhaber(m).holds for m in range(1, bounds.faulhaber_max + 1)]
    report("faulhaber", all(results), len(results), time.monotonic() - start)

    start = time.monotonic()
    results = [
        infer_odd_bernoulli(m) == 0 and bernoulli(2 * m + 1) == 0
        for m in range(1, bounds.odd_bernoulli_max + 1)
    ]
    report("odd-bernoulli", all(results), len(results), time.monotonic() - start)

    return all_ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    defaults = SweepBounds()
    parser.add_argument("--pascal-max", type=int, default=defaults.pascal_max)
    parser.add_argument("--faulhaber-max", type=int, default=defaults.faulhaber_max)
    parser.add_argument("--odd-bernoulli-max", type=int, default=defaults.odd_bernoulli_max)
    parser.add_argument("--table-max", type=int, default=defaults.table_max)
    parser.add_argument("--telescoping-max-m", type=int, default=defaults.telescoping_max_m)
    parser.add_argument("--telescoping-max-n", type=int, default=defaults.telescoping_max_n)
    args = parser.parse_args()
    bounds = SweepBounds(
        pascal_max=args.pascal_max,
        faulhaber_max=args.faulhaber_max,
        odd_bernoulli_max=args.odd_bernoulli_max,
        table_max=args.table_max,
        telescoping_max_m=args.telescoping_max_m,
        telescoping_max_n=args.telescoping_max_n,
    )
    ok = run_sweeps(bounds)
    print("all suites passed" if ok else "FAILURES PRESENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
