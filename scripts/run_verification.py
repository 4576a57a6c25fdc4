#!/usr/bin/env python3
"""Run every identity-verification suite at sweep bounds, with timings.

This is the batch counterpart of ``powersums verify ...``: one process,
the Bernoulli recurrence recheck and then every suite of the registry
``powersums.faulhaber.SUITES``, a wall-clock figure per line, and a
nonzero exit if any instance fails (none ever should).
"""

import argparse
import signal
import sys
import time
from math import comb

from powersums.faulhaber import SUITES, bernoulli


def main() -> int:
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=200, help="largest m of pascal, faulhaber, odd-bernoulli")
    parser.add_argument("--max-m", type=int, default=10, help="telescoping: largest exponent m")
    parser.add_argument("--max-n", type=int, default=50, help="telescoping: largest upper limit N")
    parser.add_argument("--table-max", type=int, default=400, help="largest Bernoulli index rechecked")
    bounds = vars(parser.parse_args())
    # A bound below the lowest index of a suite that takes it would sweep
    # nothing and still report a pass.
    floors = {"table_max": 1}
    for suite in SUITES.values():
        for key in suite.defaults:
            floors[key] = max(floors.get(key, 0), suite.first)
    for key, floor in floors.items():
        if bounds[key] < floor:
            parser.error(f"--{key.replace('_', '-')} must be at least {floor}, got {bounds[key]}")
    all_ok = True

    def report(name: str, ok: bool, count: int, start: float) -> None:
        nonlocal all_ok
        all_ok = all_ok and ok
        print(f"{name:<16} {'ok' if ok else 'FAILED':<7} {count:>5} instances  {time.monotonic() - start:7.3f}s")

    # The table must satisfy its defining recurrence from the stored values alone.
    start = time.monotonic()
    top = bounds["table_max"]
    values = [bernoulli(k) for k in range(top + 1)]
    ok = all(sum(comb(n + 1, k) * values[k] for k in range(n + 1)) == 0 for n in range(1, top + 1))
    report("bernoulli", ok, top + 1, start)

    for name, suite in SUITES.items():
        start = time.monotonic()
        results = [ok for _, ok in suite.sweep(*(bounds[key] for key in suite.defaults))]
        report(name, all(results), len(results), start)

    print("all suites passed" if all_ok else "FAILURES PRESENT")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
