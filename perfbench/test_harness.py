"""Self-tests of the benchmark harness (fast; run with pytest from the repo root)."""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from powersums import cli, faulhaber, polynomial  # noqa: E402

GOLDEN = json.loads((HERE / "golden.json").read_text())


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    first = list(islice(workloads.rounds(workload, 7), 3))
    assert first == list(islice(workloads.rounds(workload, 7), 3))
    assert first != list(islice(workloads.rounds(workload, 8), 3))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_request_has_a_golden_output(workload):
    pool = {workloads.key(argv) for argv in workloads.pool(workload)}
    assert pool <= GOLDEN.keys()
    for round_ in islice(workloads.rounds(workload, 3), 20):
        assert {workloads.key(argv) for argv in round_} <= pool


def _response(*argv: str) -> run.Response:
    out = io.StringIO()
    code = cli.run(list(argv), out, io.StringIO())
    return run.Response(list(argv), code, out.getvalue().encode(), 0.001)


def test_correct_responses_pass_the_check():
    good = [_response("bernoulli", "12"), _response("eval", "3", "7"), _response("tform", "0")]
    assert good[-1].code == 2 and good[-1].stdout == b""
    assert run.check(good, GOLDEN) == []


def test_corrupted_response_counts_as_failed():
    good = _response("coeffs", "5")
    flipped = bytearray(good.stdout)
    flipped[0] ^= 1
    corrupted = [
        run.Response(good.argv, good.code, bytes(flipped), 0.001),
        run.Response(good.argv, 1, good.stdout, 0.001),
        run.Response(good.argv, "crash: ValueError: boom", b"", 0.001),
        run.Response(["bernoulli", "100000"], 0, b"", 0.001),
    ]
    assert len(run.check([good, *corrupted], GOLDEN)) == len(corrupted)


def _bernoulli_akiyama_tanigawa(k: int) -> list[Fraction]:
    """B_0..B_k by the Akiyama-Tanigawa transform, converted to B_1 = -1/2."""
    row, out = [], []
    for m in range(k + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if k >= 1:
        out[1] = -out[1]
    return out


def test_golden_outputs_agree_with_independent_oracles():
    values = _bernoulli_akiyama_tanigawa(max(workloads.WARM_BERNOULLI_K))
    for k in workloads.WARM_BERNOULLI_K:
        text = "".join(f"{i}\t{v}\n" for i, v in enumerate(values[: k + 1]))
        assert GOLDEN[f"bernoulli {k}"] == [0, _sha(text)], k
    for m in workloads.WARM_INDEX:
        for n in workloads.WARM_EVAL_N:
            s = sum(i**m for i in range(1, n + 1))
            assert GOLDEN[f"eval {m} {n}"] == [0, _sha(f"polynomial\t{s}\ndirect\t{s}\nagree\ttrue\n")]
    for m, n in workloads.WARM_TELESCOPING:
        assert GOLDEN[f"verify telescoping --max-m {m} --max-n {n}"][0] == 0
    for argv in workloads.WARM_MALFORMED:
        assert GOLDEN[workloads.key(list(argv))] == [2, _sha("")]


def test_traced_self_times_fit_in_request_wall_time():
    originals = (cli.run, faulhaber.BernoulliTable.get, polynomial.Polynomial.__mul__, polynomial.t_to_n)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    requests = [["verify", "faulhaber", "--max", "6"], ["eval", "4", "9"], ["bernoulli", "30"],
                ["--format", "json", "tform", "7"], ["frobnicate"]]
    walls = []
    try:
        for index, argv in enumerate(requests):
            tracer.request = index
            start = perf_counter()
            cli.run(argv, io.StringIO(), io.StringIO())
            walls.append(perf_counter() - start)
    finally:
        uninstall()
    assert originals == (cli.run, faulhaber.BernoulliTable.get, polynomial.Polynomial.__mul__, polynomial.t_to_n)
    own = tracing.self_times(tracer.spans)
    names = {span[0] for span in tracer.spans}
    assert {"cli.run", "cli.build_parser", "polynomial.t_to_n", "faulhaber.BernoulliTable.get"} <= names
    for index, wall in enumerate(walls):
        mine = [t for span, t in zip(tracer.spans, own) if span[4] == index]
        roots = [span for span in tracer.spans if span[4] == index and span[3] == -1]
        assert [span[0] for span in roots] == ["cli.run"]
        assert all(t >= -1e-9 for t in mine)
        assert sum(mine) <= wall
        assert sum(mine) == pytest.approx(roots[0][2] - roots[0][1], rel=1e-6, abs=1e-9)
    assert tracer.counts["exact_arith.as_rational.calls"] > 0
    metrics = tracing.summarize(tracer.spans, tracer.counts, tracer.max_coeff_bits)
    assert set(run.PER_LAYER) - set(metrics) == {"trace_overhead_frac"}


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(run.PREDICTIONS) == set(workloads.WORKLOADS)
    for workload in spec["workloads"]:
        for prediction in run.PREDICTIONS[workload["name"]]:
            assert run.prediction_text(*prediction) in workload["why"]


def test_predictions_are_checked_against_the_metrics():
    metrics = {"faulhaber.BernoulliTable.get.self_share": 0.98, "polynomial.self_share": 0.0}
    assert all(run.predictions("bernoulli-table", metrics).values())
    metrics["polynomial.self_share"] = 0.3
    assert list(run.predictions("bernoulli-table", metrics).values()) == [True, False]


def test_warm_round_mostly_hits_the_tform_cache():
    """The equal warm mix gives about 425 power_sum_tform hits per 30 misses in a fresh process."""
    faulhaber.power_sum_tform.cache_clear()
    faulhaber.power_sum_poly_n.cache_clear()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        for argv in next(workloads.rounds("warm-requests", 1)):
            cli.run(argv, io.StringIO(), io.StringIO())
    finally:
        uninstall()
    assert tracer.counts["faulhaber.power_sum_tform.misses"] == len(workloads.WARM_INDEX)
    assert 380 <= tracer.counts["faulhaber.power_sum_tform.hits"] <= 470


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm-requests", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
