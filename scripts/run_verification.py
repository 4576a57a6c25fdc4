#!/usr/bin/env python3
"""Run every identity-verification suite at sweep bounds, with timings.

This is the batch counterpart of ``powersums verify ...``: one process,
the Bernoulli recurrence recheck and then every suite of the registry
``powersums.faulhaber.SUITES``, a wall-clock figure per line.  The
process ends through ``powersums.cli.end_process`` with the exit codes of
the ``powersums`` command: 1 only if an instance fails (none ever should),
2 on a usage error, 141 on a closed pipe, and 3 on a crash or an
unwritable output stream.
"""

import time

from powersums.cli import _Parser, end_process
from powersums.faulhaber import SUITES, bernoulli, bernoulli_from_recurrence


def main() -> int:
    # The CLI's parser class: help and usage errors reach end_process unprinted.
    parser = _Parser(description=__doc__)
    parser.add_argument("--max", type=int, default=200, help="largest m of pascal, faulhaber, odd-bernoulli")
    parser.add_argument("--max-m", type=int, default=10, help="telescoping: largest exponent m")
    parser.add_argument("--max-n", type=int, default=50, help="telescoping: largest upper limit N")
    bounds = vars(parser.parse_args())
    # A bound below the lowest index of a suite that takes it would sweep
    # nothing and still report a pass.
    floors = {}
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

    # Each stored B_n, up to B_{2 max + 1} (the highest index the suites
    # read), must be what the defining recurrence gives from B_0..B_{n-1}.
    start = time.monotonic()
    top = 2 * bounds["max"] + 1
    values = [bernoulli(k) for k in range(top + 1)]
    ok = all(bernoulli_from_recurrence(values[:n]) == values[n] for n in range(1, top + 1))
    report("bernoulli", ok, top + 1, start)

    for name, suite in SUITES.items():
        start = time.monotonic()
        results = [ok for _, ok in suite.sweep(*(bounds[key] for key in suite.defaults))]
        report(name, all(results), len(results), start)

    print("all suites passed" if all_ok else "FAILURES PRESENT")
    return 0 if all_ok else 1


if __name__ == "__main__":
    end_process(main)
