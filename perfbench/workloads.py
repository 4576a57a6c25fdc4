"""Request generators for the three benchmark workloads.

Every workload is a sequence of *rounds*.  A round is a list of CLI argv
lists drawn from a ``random.Random`` seeded by ``--seed``, so the same
seed always yields the same rounds.  Each generator draws only from a
finite pool (``pool(name)``), and every argv in every pool has its
expected exit code and stdout digest in ``golden.json``, captured from
the seed commit: the CLI's output bytes are frozen, so any byte change is
a failed request.

Request sizes come from narrow bands, chosen so that every request of a
cold workload costs about the same (0.4 to 0.9 s on a 2-core x86 VM).
The latency distribution is then unimodal, so its median and 90th
percentile do not jump between size classes from one seed to the next,
and the run-to-run spread reflects the program and the machine, not the
draw.
"""

from __future__ import annotations

import random

# A band is (argv prefix, smallest size, number of sizes, formats).  Each
# request of a round draws its size and format from its own band.
TEXT, JSON = (), ("--format", "json")

# bernoulli-table: cold `bernoulli K`.  The Bernoulli recurrence is
# O(K^2) big-rational operations, so K sets the cost; the polynomial
# layer is never entered.
BERNOULLI_BANDS = ((("bernoulli",), 300, 40, (TEXT,)),) * 4 + ((("bernoulli",), 300, 40, (JSON,)),) * 4
# ladder-verify: cold ladder-elimination requests, one of each kind per round.
LADDER_BANDS = (
    (("tform",), 56, 8, (TEXT, JSON)),
    (("coeffs",), 56, 8, (TEXT, JSON)),
    (("verify", "pascal", "--max"), 38, 4, (TEXT,)),
    (("verify", "faulhaber", "--max"), 36, 4, (TEXT,)),
    (("verify", "odd-bernoulli", "--max"), 36, 4, (TEXT,)),
)

# warm-requests: one long-lived process, many short requests whose
# indices come from small pools, so the memo caches mostly hit.
WARM_ROUND = 600
WARM_INDEX = range(1, 31)
WARM_EVAL_N = (0, 1, 2, 7, 50, 300)
WARM_BERNOULLI_K = range(0, 41)
WARM_TELESCOPING = tuple((m, n) for m in range(1, 4) for n in (5, 10, 20))
# Malformed argv: each must exit 2 with nothing on stdout.
WARM_MALFORMED = (
    ("bernoulli", "-1"),
    ("bernoulli", "x"),
    ("powersum", "4", "--basis", "t"),
    ("tform", "0"),
    ("verify", "pascal", "--max", "1"),
    ("verify", "telescoping", "--max", "3"),
    ("eval", "3"),
    ("frobnicate",),
    (),
)
# The request kinds of a warm round, drawn with equal weights.  The
# equal mix is not taken from any user's traffic; it is chosen because it
# reproduces the cache profile this workload is meant to have: three of
# the eight kinds (powersum-t, coeffs, tform-json) go through
# power_sum_tform, so a 600-request round makes about 225 such requests
# and, with the recursion of its 30 misses, about 420 power_sum_tform
# cache hits against those 30 misses.
WARM_KINDS = ("eval", "powersum-n", "powersum-t", "coeffs", "tform-json", "bernoulli", "telescoping", "malformed")

WORKLOADS = ("bernoulli-table", "ladder-verify", "warm-requests")


def _banded_round(bands, rng: random.Random) -> list[list[str]]:
    round_ = [[*rng.choice(formats), *prefix, str(lo + rng.randrange(count))] for prefix, lo, count, formats in bands]
    rng.shuffle(round_)
    return round_


def _band_pool(bands) -> list[list[str]]:
    pool = {
        (*fmt, *prefix, str(lo + j)) for prefix, lo, count, formats in bands for j in range(count) for fmt in formats
    }
    return [list(argv) for argv in sorted(pool)]


def _warm_request(kind: str, rng: random.Random) -> list[str]:
    index = str(rng.choice(WARM_INDEX))
    if kind == "eval":
        return ["eval", index, str(rng.choice(WARM_EVAL_N))]
    if kind == "powersum-n":
        return ["powersum", index]
    if kind == "powersum-t":
        return ["powersum", str(2 * int(index) + 1), "--basis", "t"]
    if kind == "coeffs":
        return ["coeffs", index]
    if kind == "tform-json":
        return ["--format", "json", "tform", index]
    if kind == "bernoulli":
        return ["bernoulli", str(rng.choice(WARM_BERNOULLI_K))]
    if kind == "telescoping":
        m, n = rng.choice(WARM_TELESCOPING)
        return ["verify", "telescoping", "--max-m", str(m), "--max-n", str(n)]
    return list(rng.choice(WARM_MALFORMED))


def _warm_round(rng: random.Random) -> list[list[str]]:
    return [_warm_request(rng.choice(WARM_KINDS), rng) for _ in range(WARM_ROUND)]


_ROUNDS = {
    "bernoulli-table": lambda rng: _banded_round(BERNOULLI_BANDS, rng),
    "ladder-verify": lambda rng: _banded_round(LADDER_BANDS, rng),
    "warm-requests": _warm_round,
}


def rounds(workload: str, seed: int):
    """Endless, seed-determined sequence of rounds for ``workload``."""
    rng = random.Random(f"{workload}:{seed}")
    make = _ROUNDS[workload]
    while True:
        yield make(rng)


def pool(workload: str) -> list[list[str]]:
    """Every argv the workload's generator can produce."""
    if workload == "bernoulli-table":
        return _band_pool(BERNOULLI_BANDS)
    if workload == "ladder-verify":
        return _band_pool(LADDER_BANDS)
    if workload == "warm-requests":
        out = []
        for i in WARM_INDEX:
            out += [["eval", str(i), str(n)] for n in WARM_EVAL_N]
            out += [
                ["powersum", str(i)],
                ["powersum", str(2 * i + 1), "--basis", "t"],
                ["coeffs", str(i)],
                ["--format", "json", "tform", str(i)],
            ]
        out += [["bernoulli", str(k)] for k in WARM_BERNOULLI_K]
        out += [["verify", "telescoping", "--max-m", str(m), "--max-n", str(n)] for m, n in WARM_TELESCOPING]
        out += [list(argv) for argv in WARM_MALFORMED]
        return out
    raise KeyError(workload)


def key(argv: list[str]) -> str:
    """Golden-table key of one request."""
    return " ".join(argv) if argv else "<no arguments>"
