"""Serve a batch of CLI requests in one interpreter through ``powersums.cli.run``.

Usage: ``python3 perfbench/worker.py`` with one JSON job on stdin::

    {"src": "<path of src/>", "trace": false, "requests": [["eval", "3", "7"], ...]}

Requests run one after another (a closed loop with one caller), each
with fresh StringIO sinks, timed by ``perf_counter`` around the call.
The job's answer is one JSON document on stdout::

    {"results": [[exit_code, stdout_text, start, end], ...],
     "spans": [...], "counts": {...}, "max_coeff_bits": n}

An exception escaping ``cli.run`` is recorded as the exit code string
``"crash: <type>: <message>"`` and the batch goes on.  With ``"trace":
true`` the public API is wrapped by ``tracing.install`` before the first
request and the spans are returned; otherwise ``spans`` is empty.
"""

from __future__ import annotations

import io
import json
import sys
from time import perf_counter


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    from powersums import cli

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    results = []
    for index, argv in enumerate(job["requests"]):
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.request = index
        start = perf_counter()
        try:
            code = cli.run(argv, out, err)
        except Exception as exc:  # a crash is a failed request, not the end of the batch
            code = f"crash: {type(exc).__name__}: {exc}"
        end = perf_counter()
        results.append([code, out.getvalue(), start, end])
    json.dump(
        {
            "results": results,
            "spans": tracer.spans if tracer else [],
            "counts": dict(tracer.counts) if tracer else {},
            "max_coeff_bits": tracer.max_coeff_bits if tracer else 0,
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
