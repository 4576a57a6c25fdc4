#!/usr/bin/env python3
"""Print the factored T-basis forms of the first odd power sums.

For each m the sum 1^(2m+1) + ... + n^(2m+1) equals P(T) * T^2 with
T = n(n+1)/2; the table below lists P and its coefficients, highest
degree first.  Note the strictly alternating signs and the head term
2^m/(m+1).
"""

import argparse
import signal
import sys

from powersums.faulhaber import faulhaber_coefficients, power_sum_tform


def main() -> int:
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=12, help="largest form index m (default 12)")
    args = parser.parse_args()
    if args.max < 1:
        parser.error("--max must be at least 1")

    print(f"{'m':>3} {'exponent':>9}  factored form")
    for m in range(1, args.max + 1):
        form = power_sum_tform(m)
        print(f"{m:>3} {2 * m + 1:>9}  {form}")
        coeffs = " ".join(str(c) for c in faulhaber_coefficients(m))
        print(f"{'':>3} {'':>9}  descending coefficients: {coeffs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
