"""Capture the expected exit code and stdout digest of every benchmark request.

Usage, from the root of a checkout: ``python3 perfbench/make_golden.py``.

Runs every argv in every workload pool through ``powersums.cli.run`` and
writes ``perfbench/golden.json`` as ``{request: [exit_code, stdout_sha256]}``.
The committed file was captured at the seed commit; the CLI's output
bytes are frozen, so it is regenerated only when a workload's pool
changes, and only from a commit whose output is known to be right.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402
from powersums.cli import run  # noqa: E402


def main() -> None:
    golden = {}
    for workload in workloads.WORKLOADS:
        for argv in workloads.pool(workload):
            out, err = io.StringIO(), io.StringIO()
            code = run(argv, out, err)
            golden[workloads.key(argv)] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(golden.items())]
    (HERE / "golden.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(golden)} requests")


if __name__ == "__main__":
    main()
