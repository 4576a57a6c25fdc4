"""End-to-end and per-layer benchmark of the powersums CLI.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and BENCHMARK.json for why each exists):

* ``bernoulli-table`` -- cold ``python -m powersums bernoulli K`` processes.
* ``ladder-verify``   -- cold ``verify``/``tform``/``coeffs`` processes.
* ``warm-requests``   -- one long-lived process per round serving 600
  short requests through ``powersums.cli.run`` (``worker.py``).

Requests are sent in a closed loop by one caller: the next request
starts when the previous one has returned.  Rounds of requests repeat
until ``--seconds`` have passed; the round in progress is finished, so
every round holds each size stratum once.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median wall time of a cold ``python -m powersums --help``, probed three
times before each round and at least 21 times a run), ``wall_s``
(median round time), ``req_p50_s`` / ``req_p90_s`` (request latency
percentiles over every request of the run) and ``peak_rss_mb`` (median
over rounds of the largest resident set among the round's processes,
i.e. of the processes doing the work).
With ``--trace 1`` each round runs twice, untraced and then under
``tracing`` in ``worker.py`` (for the cold workloads, one fresh
interpreter per request), and the run reports the per-layer metrics of
the traced rounds (median over rounds) and ``trace_overhead_frac``; it
also checks the layer-share predictions in ``PREDICTIONS`` and prints
their outcome as a JSON line just above the result.

Every response is checked after the timed region: its exit code and
the SHA-256 of its stdout must match ``golden.json``, captured from the
seed commit because the CLI's output bytes are frozen.  A mismatch, a
crash or a timeout is a failed request.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
above it give every metric with its unit and the environment (Python
version, CPU count, git sha, source digest, seed).  The full record,
and the spans of the first traced round, are written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import operator
import os
import platform
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "req_p50_s": "s",
    "req_p90_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "faulhaber.BernoulliTable.get.self_s": "s",
    "faulhaber.BernoulliTable.get.self_share": "frac",
    "faulhaber.bernoulli.entries_grown": "count",
    "exact_arith.binomial.calls": "count",
    "exact_arith.as_rational.calls": "count",
    "polynomial.t_to_n.s": "s",
    "polynomial.poly_scale.s": "s",
    "polynomial.poly_eval.s": "s",
    "faulhaber.power_sum_tform.self_s": "s",
    "faulhaber.power_sum_tform.calls": "count",
    "faulhaber.power_sum_tform.hit_ratio": "frac",
    "faulhaber.power_sum_poly_n.self_s": "s",
    "faulhaber.power_sum_poly_n.hit_ratio": "frac",
    "faulhaber.verify_pascal_identity.self_s": "s",
    "faulhaber.verify_faulhaber.self_s": "s",
    "faulhaber.infer_odd_bernoulli.self_s": "s",
    "faulhaber.power_sum_direct.s": "s",
    "faulhaber.telescoping_check.self_s": "s",
    "faulhaber.max_coeff_bits": "bits",
    "cli.run.self_s": "s",
    "cli.build_parser.s": "s",
    "cli.self_s": "s",
    "cli.self_share": "frac",
    "faulhaber.self_s": "s",
    "faulhaber.self_share": "frac",
    "polynomial.self_s": "s",
    "polynomial.self_share": "frac",
    "traced_s": "s",
    "trace_overhead_frac": "frac",
}
# Layer-share predictions, checked on every traced run: per workload,
# (per-layer metric, comparison, threshold).  Each one's text, as
# ``prediction_text`` writes it, is also in the workload's ``why`` in
# BENCHMARK.json.
PREDICTIONS = {
    "bernoulli-table": (("faulhaber.BernoulliTable.get.self_share", ">", 0.5), ("polynomial.self_share", "<", 0.01)),
    "ladder-verify": (("polynomial.self_share", ">", 0.5), ("faulhaber.BernoulliTable.get.self_share", "<", 0.1)),
    "warm-requests": (("cli.self_share", ">", 0.5),),
}
# Set-up probes (cold ``--help``) run before each round, and the run
# takes at least SETUP_RUNS of them.
SETUP_PER_ROUND = 3
SETUP_RUNS = 21
# Hard stop for child processes, so a run ends well within 180 s.
DEADLINE_S = 165.0


@dataclass
class Response:
    argv: list[str]
    code: int | str
    stdout: bytes
    seconds: float
    rss_mb: float = 0.0


class Clock:
    """Time left before the run must stop starting children."""

    def __init__(self) -> None:
        self.start = perf_counter()

    def left(self) -> float:
        return DEADLINE_S - (perf_counter() - self.start)


def _spawn(cmd: list[str], clock: Clock, stdin: bytes | None = None):
    """Run one child to completion.

    Returns (exit code, or "timeout", stdout, the child's peak RSS in MB).
    The child is reaped with ``os.wait4`` so its own ``ru_maxrss`` is
    known; it is killed if it outlives the run's deadline.  Its stderr
    goes to ``out/child-stderr.txt``.
    """
    OUT.mkdir(exist_ok=True)
    with open(OUT / "child-stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
        )
    expired = []

    def expire() -> None:
        expired.append(True)
        proc.kill()

    timer = threading.Timer(max(clock.left(), 1.0), expire)
    timer.start()
    try:
        if stdin is not None:
            try:
                proc.stdin.write(stdin)
                proc.stdin.close()
            except BrokenPipeError:
                pass
        out = proc.stdout.read()
        proc.stdout.close()
    finally:
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ("timeout" if expired else proc.returncode), out, usage.ru_maxrss / 1024


def cold(argv: list[str], clock: Clock) -> Response:
    start = perf_counter()
    code, out, rss = _spawn([sys.executable, "-m", "powersums", *argv], clock)
    return Response(argv, code, out, perf_counter() - start, rss)


def batch(requests: list[list[str]], trace: bool, clock: Clock):
    """Serve ``requests`` in one worker process; returns (responses, wall_s, rss_mb, worker document)."""
    job = json.dumps({"src": str(SRC), "trace": trace, "requests": requests}).encode()
    start = perf_counter()
    code, out, rss = _spawn([sys.executable, str(HERE / "worker.py")], clock, job)
    elapsed = perf_counter() - start
    if code != 0:
        tail = (OUT / "child-stderr.txt").read_text(errors="replace")[-300:]
        reason = f"worker exited {code}: {tail}"
        return [Response(argv, reason, b"", elapsed) for argv in requests], elapsed, rss, None
    doc = json.loads(out)
    results = doc["results"]
    responses = [
        Response(argv, exit_code, text.encode(), t1 - t0)
        for argv, (exit_code, text, t0, t1) in zip(requests, results)
    ]
    return responses, results[-1][3] - results[0][2], rss, doc


def traced_cold(requests: list[list[str]], clock: Clock):
    """Replay each request in a fresh interpreter under the tracing shim; merge their spans."""
    responses, spans, counts, bits = [], [], {}, 0
    for index, argv in enumerate(requests):
        start = perf_counter()
        (response,), _, _, doc = batch([argv], True, clock)
        response.seconds = perf_counter() - start
        responses.append(response)
        if doc is None:
            continue
        offset = len(spans)
        spans += [(n, s, e, p + offset if p >= 0 else -1, index) for n, s, e, p, _ in doc["spans"]]
        for name, value in doc["counts"].items():
            counts[name] = counts.get(name, 0) + value
        bits = max(bits, doc["max_coeff_bits"])
    return responses, {"spans": spans, "counts": counts, "max_coeff_bits": bits}


def is_cold(workload: str) -> bool:
    return workload != "warm-requests"


def run_round(workload: str, requests: list[list[str]], clock: Clock):
    """One untraced round; returns (responses, round wall time, peak RSS of its processes)."""
    if is_cold(workload):
        start = perf_counter()
        responses = [cold(argv, clock) for argv in requests]
        return responses, perf_counter() - start, max(r.rss_mb for r in responses)
    responses, wall, rss, _ = batch(requests, False, clock)
    return responses, wall, rss


def run_traced_round(workload: str, requests: list[list[str]], clock: Clock):
    """One traced round; returns (responses, round wall time, spans document)."""
    if is_cold(workload):
        responses, doc = traced_cold(requests, clock)
        return responses, sum(r.seconds for r in responses), doc
    responses, wall, _, doc = batch(requests, True, clock)
    return responses, wall, doc or {"spans": [], "counts": {}, "max_coeff_bits": 0}


def prediction_text(metric: str, op: str, threshold: float) -> str:
    return f"{metric} {op} {threshold}"


def predictions(workload: str, metrics: dict) -> dict[str, bool]:
    """Whether each layer-share prediction of ``workload`` holds on ``metrics``."""
    compare = {">": operator.gt, "<": operator.lt}
    return {
        prediction_text(metric, op, threshold): compare[op](metrics[metric], threshold)
        for metric, op, threshold in PREDICTIONS[workload]
    }


def check(responses: list[Response], golden: dict) -> list[str]:
    """Describe every response whose exit code or stdout differs from the golden one."""
    failures = []
    for r in responses:
        expected = golden.get(workloads.key(r.argv))
        digest = hashlib.sha256(r.stdout).hexdigest()
        if expected is None:
            failures.append(f"{workloads.key(r.argv)}: no golden output")
        elif [r.code, digest] != expected:
            failures.append(f"{workloads.key(r.argv)}: exit {r.code!r}, stdout sha256 {digest[:12]}")
    return failures


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1] if len(values) > 1 else values[0]


def environment(args) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git_sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args, clock: Clock):
    """Run the workload; returns (responses, metrics, extra record fields)."""
    rounds = workloads.rounds(args.workload, args.seed)
    responses, walls = [], []
    if not args.trace:
        # Set-up probes (cold ``--help``) go between rounds, so that they
        # sample the same stretch of machine time as the rounds do.
        cold(["--help"], clock)
        setup, peaks = [], []
        start = perf_counter()
        while not walls or (perf_counter() - start < args.seconds and clock.left() > 0):
            setup += [cold(["--help"], clock).seconds for _ in range(SETUP_PER_ROUND)]
            got, wall, rss = run_round(args.workload, next(rounds), clock)
            responses += got
            walls.append(wall)
            peaks.append(rss)
        while len(setup) < SETUP_RUNS:
            setup.append(cold(["--help"], clock).seconds)
        latencies = [r.seconds for r in responses]
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "req_p50_s": statistics.median(latencies),
            "req_p90_s": percentile(latencies, 90),
            "peak_rss_mb": statistics.median(peaks),
        }
        detail = {
            "setup_s": f"median of {len(setup)} cold --help",
            "wall_s": f"median of {len(walls)} rounds",
            "req_p50_s": f"n={len(latencies)}",
            "req_p90_s": f"n={len(latencies)}",
            "peak_rss_mb": f"median of {len(walls)} round peaks",
        }
        return responses, metrics, {"detail": detail, "round_walls": walls}
    traced_walls, per_round, first_spans = [], [], None
    start = perf_counter()
    while not walls or (perf_counter() - start < args.seconds and clock.left() > 0):
        requests = next(rounds)
        got, wall, _ = run_round(args.workload, requests, clock)
        responses += got
        walls.append(wall)
        got, wall, doc = run_traced_round(args.workload, requests, clock)
        responses += got
        traced_walls.append(wall)
        per_round.append(tracing.summarize(doc["spans"], doc["counts"], doc["max_coeff_bits"]))
        first_spans = first_spans or doc
    metrics = {name: statistics.median(m[name] for m in per_round) for name in PER_LAYER if name in per_round[0]}
    metrics["trace_overhead_frac"] = sum(traced_walls) / sum(walls) - 1
    return responses, metrics, {
        "detail": {"trace_overhead_frac": f"{len(per_round)} traced rounds"},
        "round_walls": walls,
        "traced_round_walls": traced_walls,
        "predictions": predictions(args.workload, metrics),
        "spans": first_spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "powersums" / "cli.py").is_file():
        print(f"run.py: no powersums sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())
    env = environment(args)
    clock = Clock()
    responses, metrics, record = measure(args, clock)
    failures = check(responses, golden)
    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not failures,
        "attempted": len(responses),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans["spans"]))
    (OUT / f"{stem}.json").write_text(
        json.dumps({"environment": env, **result, **record, "failures": failures[:20]}, indent=1)
    )
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in units.items():
        print(f"{name:42s} {metrics[name]:.6g} {unit} {record['detail'].get(name, '')}".rstrip())
    print(f"{'failed_frac':42s} {len(failures) / len(responses):.6g} frac ({len(failures)}/{len(responses)})")
    if "predictions" in record:
        for text, holds in record["predictions"].items():
            print(f"prediction {'holds' if holds else 'MISSED'}: {text}")
        print(json.dumps({"predictions_hold": all(record["predictions"].values()), **record["predictions"]}))
    for line in failures[:5]:
        print(f"FAILED {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
