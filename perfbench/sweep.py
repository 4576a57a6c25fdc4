"""Run the benchmark over several seeds and report each metric's median and spread.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py                       # every workload, seeds 1..10
    python3 perfbench/sweep.py --seeds 1 --trace     # one run each, plus a traced run
    python3 perfbench/sweep.py --save perfbench/baseline.json

For every workload it runs ``run.py`` once per seed, for
BENCHMARK.json's ``run_seconds``, then prints each end-to-end metric
with its unit, the median of its values, their quartiles and the spread
(interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound from BENCHMARK.json; a spread of at least a third of the bound is
flagged ``WIDE``. ``failed_frac`` is failed over attempted requests,
summed over the runs. ``--trace`` adds one traced run per workload
(first seed) with its per-layer metrics and layer-share predictions.
``--save`` writes the whole summary, with the environment of the first
run, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One run of the benchmark; returns its full record from ``perfbench/out``."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    assert record["metrics"] == last["metrics"], "record and printed result disagree"
    return record


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10, help="run seeds 1..N")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--save", type=Path)
    args = parser.parse_args()
    seeds = list(range(1, args.seeds + 1))
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in workloads.WORKLOADS:
        records = [run_once(workload, seed, seconds, 0) for seed in seeds]
        env = {k: v for k, v in records[0]["environment"].items() if k not in ("workload", "seed", "trace")}
        summary.setdefault("environment", env)
        attempted = sum(r["attempted"] for r in records)
        failed = sum(r["failed"] for r in records)
        entry = {"attempted": attempted, "failed": failed, "failed_frac": failed / attempted, "end_to_end": {}}
        print(f"== {workload}: {len(seeds)} runs of {seconds} s, seeds {seeds[0]}..{seeds[-1]}")
        print(f"   {'metric':14s} {'unit':5s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in records]
            stats = spread(values)
            entry["end_to_end"][name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  WIDE"
            print(f"   {name:14s} {records[0]['metrics'][name]['unit']:5s} {stats['median']:10.6g} "
                  f"{stats['q1']:10.6g} {stats['q3']:10.6g} {stats['spread']:7.3f} {bound:6.2f}{flag}")
        print(f"   {'failed_frac':14s} {'frac':5s} {entry['failed_frac']:10.6g}  ({failed}/{attempted} requests)")
        if args.trace:
            traced = run_once(workload, seeds[0], seconds, 1)
            entry["per_layer"] = {name: m["value"] for name, m in traced["metrics"].items()}
            entry["predictions"] = traced["predictions"]
            entry["trace_failed"] = traced["failed"]
            for name, m in traced["metrics"].items():
                print(f"   {name:42s} {m['value']:.6g} {m['unit']}")
            for text, holds in traced["predictions"].items():
                print(f"   prediction {'holds' if holds else 'MISSED'}: {text}")
        summary["workloads"][workload] = entry
    if args.save:
        args.save.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
