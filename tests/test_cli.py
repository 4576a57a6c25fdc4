"""Golden output, exit codes, and process behaviour of the CLI."""

import gc
import hashlib
import io
import json
import os
import random
import signal
import sys
import threading
from fractions import Fraction
from math import comb
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import powersums.cli
import powersums.faulhaber
from powersums.cli import _BERNOULLI_MAX, SUITES
from powersums.faulhaber import (
    VerificationReport,
    bernoulli,
    power_sum_tform,
)
from powersums.polynomial import Polynomial, monomial

# Each perfbench request's exit code and stdout SHA-256, by its argv joined with spaces.
BENCHMARK_GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden.json"

# Exact `--format json` stdout: key order, indentation and the rational and
# polynomial records are all part of the output contract.
JSON_GOLDEN = {
    ("powersum", "3"): """\
{
  "command": "powersum",
  "exponent": 3,
  "basis": "n",
  "polynomial": {
    "var": "n",
    "coefficients": [
      {
        "num": "0",
        "den": "1"
      },
      {
        "num": "0",
        "den": "1"
      },
      {
        "num": "1",
        "den": "4"
      },
      {
        "num": "1",
        "den": "2"
      },
      {
        "num": "1",
        "den": "4"
      }
    ]
  }
}
""",
    ("powersum", "5", "--basis", "t"): """\
{
  "command": "powersum",
  "exponent": 5,
  "basis": "t",
  "index": 2,
  "p": {
    "var": "T",
    "coefficients": [
      {
        "num": "-1",
        "den": "3"
      },
      {
        "num": "4",
        "den": "3"
      }
    ]
  },
  "t_power": 2
}
""",
    ("eval", "3", "2"): """\
{
  "command": "eval",
  "exponent": 3,
  "n": 2,
  "polynomial": {
    "num": "9",
    "den": "1"
  },
  "direct": {
    "num": "9",
    "den": "1"
  },
  "agree": true
}
""",
}


class TestBenchmarkGoldens:
    def test_every_request_replays_byte_identical(self, cli):
        """Each request of perfbench/golden.json gives its recorded exit code and stdout SHA-256."""
        golden = json.loads(BENCHMARK_GOLDEN.read_text())
        assert golden
        mismatched = []
        for key, expected in golden.items():
            code, out, _ = cli(*([] if key == "<no arguments>" else key.split(" ")))
            if [code, hashlib.sha256(out.encode()).hexdigest()] != expected:
                mismatched.append(key)
        assert mismatched == []


_FAILED = VerificationReport(Polynomial((1,), "n"), Polynomial((2,), "n"))

# For each suite: the faulhaber module function its check calls, and a
# stand-in for it that makes every instance fail.
_BROKEN_CHECKS = {
    "pascal": ("verify_pascal_identity", lambda m: _FAILED),
    "faulhaber": ("verify_faulhaber", lambda m: _FAILED),
    "odd-bernoulli": ("infer_odd_bernoulli", lambda m: 1),
    "telescoping": ("telescoping_check", lambda m, n: _FAILED),
}

# Cheap stand-ins of the right types for every public function a command
# computes with: any request inside the envelope then runs in milliseconds,
# and every verification instance fails.
CHEAP = {
    "bernoulli": lambda k: Fraction(-1, 2),
    "power_sum_poly_n": lambda m: Polynomial((0, 1), "n"),
    "power_sum_direct": lambda m, n: n,
    "power_sum_tform": lambda m: power_sum_tform(1),
    "verify_pascal_identity": lambda m: _FAILED,
    "verify_faulhaber": lambda m: _FAILED,
    "check_odd_bernoulli": lambda m: False,
    "telescoping_check": lambda m, n: _FAILED,
}

# Every command with each of its integer positions as a {}.
ARGV_SHAPES = (
    "bernoulli {}", "powersum {}", "powersum {} --basis t", "tform {}", "coeffs {}",
    "verify pascal --max {}", "verify faulhaber --max {}", "verify odd-bernoulli --max {}",
    "verify telescoping --max-m {} --max-n {}", "eval {} {}",
)

# For each suite: the bounds of a small sweep, in registry order, and the
# labels `verify` prints for it, the first at the suite's first index.
SMALL_SWEEPS = {
    "pascal": ({"max": 3}, [f"pascal m={m}" for m in (2, 3)]),
    "faulhaber": ({"max": 3}, [f"faulhaber m={m}" for m in (1, 2, 3)]),
    "odd-bernoulli": ({"max": 3}, [f"odd-bernoulli m={m}" for m in (1, 2, 3)]),
    "telescoping": ({"max_m": 2, "max_n": 3}, [f"telescoping m={m} N={n}" for m in (1, 2) for n in (1, 2, 3)]),
}


def _vanishing_at_the_pin(m):
    """7 * (T - T_1) * ... * (T - T_m): zero at every T_n that the odd-bernoulli pin evaluates."""
    poly = monomial(7, 0, "T")
    for n in range(1, m + 1):
        poly = poly * Polynomial((-n * (n + 1) // 2, 1), "T")
    return poly


# Errors added to P_m: one of the same degree, and one of degree m that
# the m points of the pin cannot see.
WRONG_TFORMS = {"constant": lambda m: monomial(7, 0, "T"), "degree-m": _vanishing_at_the_pin}

# Wrong ladders, as a faulhaber name and its stand-in: the other parity
# of index set, and a wrong binomial coefficient.
WRONG_LADDERS = {
    "parity": ("_ladder_indices", lambda m: range(1 if m % 2 else 0, m, 2)),
    "binomial": ("comb", lambda n, k: comb(n, k) + 1),
}


@pytest.mark.parametrize("name", sorted(SUITES))
@pytest.mark.parametrize("holds", [True, False], ids=["holds", "broken"])
def test_small_sweep_of_every_suite(cli, monkeypatch, holds, name):
    # Each suite's check looks up its module function at call time, so
    # patching that function alone must fail every instance.
    bounds, labels = SMALL_SWEEPS[name]
    if not holds:
        monkeypatch.setattr(powersums.faulhaber, *_BROKEN_CHECKS[name])
    code, passed, verdict = (0, len(labels), "PASS") if holds else (1, 0, "FAIL")
    options = [arg for key, value in bounds.items() for arg in ("--" + key.replace("_", "-"), str(value))]

    lines = [f"{verdict} {label}" for label in labels] + [f"{name}: {passed}/{len(labels)} passed"]
    assert cli("verify", name, *options) == (code, "".join(line + "\n" for line in lines), "")
    # The JSON bytes themselves: a parsed comparison would take 1 for true.
    payload = {
        "command": "verify",
        "suite": name,
        **bounds,
        "results": [{"label": label, "holds": holds} for label in labels],
        "passed": passed,
        "total": len(labels),
        "all_pass": holds,
    }
    assert cli("verify", name, *options, "--format", "json") == (code, json.dumps(payload, indent=2) + "\n", "")


@pytest.mark.parametrize("name", sorted(SUITES))
def test_bounds_default_to_the_registry(cli, monkeypatch, name):
    # Broken checks cost nothing, so the default sweep is cheap.
    monkeypatch.setattr(powersums.faulhaber, *_BROKEN_CHECKS[name])
    code, out, err = cli("verify", name, "--format", "json")
    assert (code, err) == (1, "")
    # The bounds follow "command" and "suite" and precede the four result keys.
    assert list(json.loads(out).items())[2:-4] == list(SUITES[name].defaults.items())


# Every integer argument: its argv, its largest value, the step to the
# next value it reads, the argument's own maximum (which refuses a value
# with more digits than it has before converting it), and the public
# functions that a request computes with.  That the T-form limits are
# served for real is tested in tests/test_oracles.py, beside the pin of
# every form, and ``bernoulli`` at its limit by TestProcessEntryPoint.
LIMITS = {
    "bernoulli": ("bernoulli {}", 3000, 1, 3000, "bernoulli"),
    "powersum": ("powersum {}", 3000, 1, 3000, "power_sum_poly_n"),
    "powersum-t": ("powersum {} --basis t", 601, 2, 3000, "power_sum_tform"),
    "tform": ("tform {}", 300, 1, 300, "power_sum_tform"),
    "coeffs": ("coeffs {}", 300, 1, 300, "power_sum_tform"),
    "verify-max": ("verify pascal --max {}", 300, 1, 300, "verify_pascal_identity"),
    "verify-max-m": ("verify telescoping --max-m {}", 50, 1, 50, "telescoping_check"),
    "verify-max-n": ("verify telescoping --max-n {}", 200, 1, 200, "telescoping_check"),
    "eval-m": ("eval {} 1", 3000, 1, 3000, "power_sum_poly_n poly_eval power_sum_direct"),
    "eval-n": ("eval 1 {}", 10000, 1, 10000, "power_sum_poly_n poly_eval power_sum_direct"),
}

# Argument combinations that a handler refuses before computing, each with
# a neighbour that it serves.
MISFITS = {
    "powersum 4 --basis t": "powersum 5 --basis t",
    "powersum 1 --basis t": "powersum 3 --basis t",
    "verify pascal --max 1": "verify pascal --max 2",
    "verify telescoping --max 3": "verify telescoping --max-m 3",
    "verify pascal --max-m 2": "verify pascal --max 2",
}


class TestExitCodes:
    def test_unknown_subcommand(self, cli):
        code, out, err = cli("frobnicate")
        assert code == 2
        assert out == ""
        assert "usage" in err

    def test_no_arguments(self, cli):
        code, out, err = cli()
        assert code == 2
        assert out == ""
        assert err != ""

    def test_malformed_integers(self, cli):
        # Only ASCII digits: not Arabic-Indic, fullwidth or superscript ones.
        for bad in ("-1", "1.5", "1_0", "+5", "ten", "", "\u0663", "\uff13", "\u00b2", " 3"):
            code, out, err = cli("bernoulli", bad)
            assert code == 2, bad
            assert out == "", bad
            assert err != "", bad

    def test_leading_zeros_are_decimal(self, cli):
        assert cli("bernoulli", "007") == cli("bernoulli", "7")
        # More characters than the interpreter's 4300-digit limit, and more
        # than the maximum has digits, but the value is 7.
        assert cli("tform", "0" * 5000 + "7") == cli("tform", "7")

    def test_out_of_range_integers(self, cli):
        assert cli("powersum", "0")[0] == 2
        assert cli("coeffs", "0")[0] == 2
        assert cli("tform", "0")[0] == 2
        assert cli("eval", "0", "4")[0] == 2

    def test_even_exponent_t_basis_rejected(self, cli):
        code, out, err = cli("powersum", "4", "--basis", "t")
        assert (code, out) == (2, "")
        assert "odd" in err

    def test_one_exponent_t_basis_rejected(self, cli):
        assert cli("powersum", "1", "--basis", "t")[0] == 2

    @pytest.mark.parametrize("argv, limit, step, cap, computes", LIMITS.values(), ids=LIMITS)
    def test_past_the_limit_is_refused_before_computing(self, cli, monkeypatch, argv, limit, step, cap, computes):
        # One cheap stand-in serves every command's text: a passing report,
        # a form without coefficients, or a value (eval's two are equal).
        # It replaces each function in its home module, which the CLI reads.
        calls = []

        def stand_in(*indices):
            calls.append(indices)
            return SimpleNamespace(holds=True, m=1, p=SimpleNamespace(coeffs=()))

        for name in computes.split():
            monkeypatch.setattr(f"powersums.{powersums._HOME[name]}.{name}", stand_in)
        assert cli(*argv.format(limit).split())[0] == 0
        assert calls
        calls.clear()
        code, out, err = cli(*argv.format(limit + step).split())
        assert (code, out, calls) == (2, "", [])
        assert f"M <= {limit}\n" in err or f"at most {limit}, got {limit + step}\n" in err
        # A longer value is refused by its digit count, unconverted and not echoed.
        for text in (str(10**20 + 1), "9" * 5000, "9" * 120000):
            code, out, err = cli(*argv.format(text).split())
            assert (code, out, calls) == (2, "", []), len(text)
            assert err.endswith(f": must be at most {cap}, got a {len(text)}-digit number\n"), len(text)
            assert text not in err

    def test_every_argv_exits_0_1_or_2(self, monkeypatch):
        # Integers up to 10**20 in every position, half of them drawn within
        # the largest limit, as text and as JSON: a refusal (2) writes
        # nothing to stdout.  The stand-ins keep admitted requests cheap, so
        # this covers parsing, validation and rendering; the goldens cover
        # the values.
        for name, stand_in in CHEAP.items():
            monkeypatch.setattr(f"powersums.{powersums._HOME[name]}.{name}", stand_in)
        number = st.integers(0, 10**20) | st.integers(0, 10000)

        @settings(max_examples=300)
        @given(st.sampled_from(ARGV_SHAPES), st.lists(number, min_size=2, max_size=2), st.booleans())
        def exits_0_1_or_2(shape, numbers, as_json):
            argv = shape.format(*numbers).split() + ["--format", "json"] * as_json
            out, err = io.StringIO(), io.StringIO()
            code = powersums.cli.run(argv, out, err)
            assert code in (0, 1, 2)
            assert code != 2 or out.getvalue() == ""

        exits_0_1_or_2()

    @pytest.mark.parametrize("misfit, neighbour", MISFITS.items(), ids=MISFITS)
    def test_a_misfit_combination_computes_nothing(self, cli, monkeypatch, misfit, neighbour):
        # Every function a command computes with, patched in its home
        # module, records its call; the neighbour shows that it is the one
        # the CLI reads.
        calls = []

        def recording(stand_in):
            return lambda *indices: calls.append(indices) or stand_in(*indices)

        for name, stand_in in CHEAP.items():
            monkeypatch.setattr(f"powersums.{powersums._HOME[name]}.{name}", recording(stand_in))
        assert cli(*neighbour.split())[0] in (0, 1)
        assert calls
        calls.clear()
        code, out, err = cli(*misfit.split())
        assert (code, out, calls) == (2, "", [])
        assert err.startswith("usage: powersums [-h]")

    @pytest.mark.parametrize("argv", ["tform {}", "{}", "bernoulli 5 {}", "--format {} bernoulli 5", "verify {}"])
    def test_a_huge_refused_argument_is_not_echoed(self, cli, argv):
        # argparse's own messages and ``_uint``'s quote the argument; the
        # parser keeps the two ends of such a message.
        code, out, err = cli(*argv.format("x" * 120000).split())
        assert (code, out) == (2, "")
        assert len(err.encode()) < 1024

    def test_verify_flag_mismatches(self, cli):
        assert cli("verify", "telescoping", "--max", "5")[0] == 2
        assert cli("verify", "pascal", "--max-m", "5")[0] == 2
        assert cli("verify", "pascal", "--max", "1")[0] == 2

    def test_help_exits_zero(self, cli):
        code, out, _ = cli("--help")
        assert code == 0
        assert "usage" in out

    @pytest.mark.parametrize("error", WRONG_TFORMS.values(), ids=WRONG_TFORMS)
    def test_wrong_tform_fails_odd_bernoulli(self, cli, monkeypatch, error):
        # A wrong P_m still expands to a multiple of T^2, so its linear
        # n-coefficient, the inferred B_{2m+1}, stays 0; only the pin of the
        # T-route against brute-force sums can catch it.
        right = {m: power_sum_tform(m).p for m in (1, 2, 3)}
        monkeypatch.setattr(
            powersums.faulhaber, "power_sum_tform", lambda m: SimpleNamespace(m=m, p=right[m] + error(m))
        )
        code, out, _ = cli("verify", "odd-bernoulli", "--max", "3")
        assert code == 1
        assert out.splitlines() == [f"FAIL odd-bernoulli m={m}" for m in (1, 2, 3)] + ["odd-bernoulli: 0/3 passed"]

    def test_wrong_even_bernoulli_fails_odd_bernoulli(self, cli, monkeypatch):
        # Only the recurrence row reads the even values: a wrong B_4 makes the
        # row's B_5 and B_7 nonzero, so m = 2 and 3 fail, and m = 1 passes.
        monkeypatch.setattr(powersums.faulhaber, "bernoulli", lambda k: Fraction(1, 7) if k == 4 else bernoulli(k))
        code, out, _ = cli("verify", "odd-bernoulli", "--max", "3")
        assert code == 1
        assert out.splitlines() == [
            "PASS odd-bernoulli m=1",
            "FAIL odd-bernoulli m=2",
            "FAIL odd-bernoulli m=3",
            "odd-bernoulli: 1/3 passed",
        ]

    @pytest.mark.parametrize("plant", WRONG_LADDERS.values(), ids=WRONG_LADDERS)
    def test_wrong_ladder_fails_telescoping(self, cli, monkeypatch, plant):
        # The telescoped differences sum to the ladder, which the check
        # evaluates by brute-force sums: a wrong one fails every instance.
        monkeypatch.setattr(powersums.faulhaber, *plant)
        code, out, _ = cli("verify", "telescoping", "--max-m", "3", "--max-n", "3")
        assert code == 1
        labels = [f"telescoping m={m} N={n}" for m in (1, 2, 3) for n in (1, 2, 3)]
        assert out.splitlines() == [f"FAIL {label}" for label in labels] + ["telescoping: 0/9 passed"]

    def test_disagreeing_eval_exits_one(self, cli, monkeypatch):
        monkeypatch.setattr(powersums.faulhaber, "power_sum_direct", lambda m, n: 0)
        code, out, _ = cli("eval", "3", "3")
        assert code == 1
        assert out.endswith("agree\tfalse\n")

    @pytest.mark.parametrize("error", [RuntimeError("boom"), KeyboardInterrupt()], ids=["crash", "interrupt"])
    def test_in_process_run_raises_uncaught_errors(self, monkeypatch, error):
        # Only the process maps them to exit codes (TestProcessEnd: 3 with a
        # traceback, 130); in-process callers see the exception.
        def handler(args):
            raise error

        monkeypatch.setattr(powersums.cli, "_cmd_eval", handler)
        with pytest.raises(type(error)):
            powersums.cli.run(["eval", "3", "4"], io.StringIO(), io.StringIO())


class TestHelpAndUsageBytes:
    """Exact (exit code, stdout, stderr) of every --help and of the usage errors.

    ``cli_help.json`` holds one record per argv, taken from ``cli.run`` with
    COLUMNS=80; argparse wraps help and usage to the terminal width, and its
    layout changes between Python versions, so the bytes are pinned on 3.11.
    """

    CASES = json.loads((Path(__file__).resolve().parent / "cli_help.json").read_text())

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse layout pinned on Python 3.11")
    @pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case["argv"]) or "<no arguments>")
    def test_bytes(self, cli, monkeypatch, case):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli(*case["argv"]) == (case["code"], case["stdout"], case["stderr"])


class _HookedSink(io.StringIO):
    """A StringIO that calls ``hook`` before each write."""

    def __init__(self, hook) -> None:
        super().__init__()
        self.hook = hook

    def write(self, text: str) -> int:
        self.hook()
        return super().write(text)


class TestConcurrentRuns:
    def test_overlapping_parses_restore_the_process_streams(self, cli):
        # A prints its help and then waits (up to 0.3 s) for B to write; B's
        # sink waits for A to finish.  Two calls that overlap so must leave
        # sys.stdout and sys.stderr as they found them, whichever ends last.
        a_writing, b_wrote, a_done = threading.Event(), threading.Event(), threading.Event()

        def a_hook():
            a_writing.set()
            b_wrote.wait(0.3)

        def b_hook():
            b_wrote.set()
            a_done.wait(10)

        sinks = {"a": (_HookedSink(a_hook), io.StringIO()), "b": (_HookedSink(b_hook), io.StringIO())}
        codes = {}

        def call(name: str) -> None:
            codes[name] = powersums.cli.run(["--help"], *sinks[name])
            if name == "a":
                a_done.set()

        stdout, stderr = sys.stdout, sys.stderr
        a = threading.Thread(target=call, args=("a",))
        b = threading.Thread(target=call, args=("b",))
        try:
            a.start()
            assert a_writing.wait(10)
            b.start()
            a.join(10)
            b.join(10)
            assert not a.is_alive() and not b.is_alive()
            streams = sys.stdout, sys.stderr
        finally:
            sys.stdout, sys.stderr = stdout, stderr
        assert streams[0] is stdout and streams[1] is stderr
        expected = cli("--help")
        for name, (out, err) in sinks.items():
            assert (codes[name], out.getvalue(), err.getvalue()) == expected, name

    @pytest.mark.parametrize(
        "argv",
        [["--help"], ["tform", "0"], ["tform", "3"], ["--format", "json", "bernoulli", "3"]],
        ids=["help", "usage-error", "text-result", "json-result"],
    )
    def test_other_threads_output_stays_out_of_the_sinks(self, cli, capsys, argv):
        # While run writes its help, usage error or result, a second thread
        # prints to the process streams; that text must reach them, not the
        # call's sinks.
        streams, seen = (sys.stdout, sys.stderr), []

        def stray():
            print("stray out")
            print("stray err", file=sys.stderr)

        def hook():
            if not seen:
                seen.append((sys.stdout, sys.stderr))
                thread = threading.Thread(target=stray)
                thread.start()
                thread.join(10)
                assert not thread.is_alive()

        out, err = _HookedSink(hook), _HookedSink(hook)
        code = powersums.cli.run(argv, out, err)
        # run never rebinds sys.stdout or sys.stderr, while it writes or after.
        assert seen == [streams]
        assert (sys.stdout, sys.stderr) == streams
        assert (code, out.getvalue(), err.getvalue()) == cli(*argv)
        assert capsys.readouterr() == ("stray out\n", "stray err\n")

    # Valid commands, help and usage errors, for one parser shared by threads.
    SHARED_PARSES = (
        ("tform", "5"),
        ("--format", "json", "bernoulli", "12"),
        ("coeffs", "3", "--format", "text"),
        ("powersum", "7", "--basis", "t"),
        ("verify", "telescoping", "--max-m", "2", "--max-n", "3"),
        ("verify", "pascal"),
        ("eval", "3", "4"),
        ("--help",),
        ("verify", "--help"),
        ("tform", "0"),
        ("bernoulli", "x"),
        ("coeffs", "3", "--bogus"),
        ("frobnicate",),
        (),
    )

    def test_one_parser_serves_concurrent_parses(self):
        # Sharing one build_parser() result across threads (memoising it)
        # needs concurrent parse_args calls on it not to interfere.
        parser = powersums.cli.build_parser()

        def parse(argv):
            try:
                return parser.parse_args(list(argv))
            except powersums.cli._ParserExit as exc:
                return exc.args

        expected = {argv: parse(argv) for argv in self.SHARED_PARSES}
        start = threading.Barrier(4)
        results = {}

        def worker(seed: int) -> None:
            argvs = random.Random(seed).choices(self.SHARED_PARSES, k=200)
            start.wait(10)
            results[seed] = [(argv, parse(argv)) for argv in argvs]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, mid-parse
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(results) == [0, 1, 2, 3]
        for parses in results.values():
            assert [result for _, result in parses] == [expected[argv] for argv, _ in parses]

    # One request of each warm-requests kind, all started at once in a fresh
    # interpreter: every thread's first read of the namespace may land while
    # another thread is still importing that name's layer.
    COLD_FIRST_USE = (
        "bernoulli 30",
        "eval 4 7",
        "powersum 12",
        "powersum 9 --basis t",
        "coeffs 5",
        "--format json tform 7",
        "verify telescoping --max-m 2 --max-n 10",
        "tform 0",
    )
    COLD_CHILD = """
import hashlib, io, sys, threading
from powersums import cli

start = threading.Barrier(len(sys.argv) - 1)
results = []


def call(key):
    out = io.StringIO()
    start.wait(60)
    code = cli.run(key.split(" "), out, io.StringIO())
    results.append(f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()} {key}")


sys.setswitchinterval(1e-5)  # switch threads often, mid-import
threads = [threading.Thread(target=call, args=(key,)) for key in sys.argv[1:]]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
    assert not thread.is_alive()
print(*results, sep="\\n")
"""

    def test_concurrent_first_use_in_a_cold_process_matches_the_goldens(self, popen):
        golden = json.loads(BENCHMARK_GOLDEN.read_text())
        proc = popen("-c", self.COLD_CHILD, *self.COLD_FIRST_USE)
        out, err = proc.communicate(timeout=120)
        assert (proc.returncode, err) == (0, b"")
        results = {}
        for line in out.decode().splitlines():
            code, digest, key = line.split(" ", 2)
            results[key] = [int(code), digest]
        assert results == {key: golden[key] for key in self.COLD_FIRST_USE}


class TestJson:
    @pytest.mark.parametrize("argv", list(JSON_GOLDEN), ids=" ".join)
    def test_golden_bytes(self, cli, argv):
        assert cli(*argv, "--format", "json") == (0, JSON_GOLDEN[argv], "")

    def test_format_flag_position_independent(self, cli):
        before = cli("--format", "json", "coeffs", "2")
        after = cli("coeffs", "2", "--format", "json")
        assert before == after


# The process entry point, as ``python`` arguments for a short run that passes.
ENTRY_POINT = ("-m", "powersums", "tform", "3")

# ``python -c LAUNCH -m powersums ARGS...`` runs ``python -m powersums
# ARGS...``, the module entry users run, after PLANT has run in the same
# process, with ``sys`` and ``faulhaber`` imported.  A plant patches a
# function or registers a handler (atexit, SIGINT).  The CLI reads every
# function through the ``powersums`` namespace when it runs, so a patched
# function is what runs.
LAUNCH = """
import runpy, sys
from powersums import faulhaber
{plant}
del sys.argv[:2]
runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
"""

# Runs under -X dev, as ``python`` arguments: the CLI's exits 0 and 2.
DEV_MODE_RUNS = {
    "help": ("-m", "powersums", "--help"),
    "bernoulli-text": ("-m", "powersums", "bernoulli", "30"),
    "verify-text": ("-m", "powersums", "verify", "faulhaber", "--max", "5"),
    "verify-json": ("-m", "powersums", "--format", "json", "verify", "faulhaber", "--max", "5"),
    "bernoulli-json": ("-m", "powersums", "--format", "json", "bernoulli", "30"),
    "usage-error": ("-m", "powersums", "tform", "0"),
}


class TestSubprocess:
    def test_closed_pipe_exits_141_without_traceback(self, popen):
        # About 108 KB of output, more than a pipe buffers, so the CLI is
        # still writing when the reader goes away, as with `| head -1`.
        proc = popen("-m", "powersums", "verify", "telescoping", "--max-m", "20", "--max-n", "200")
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert first == b"PASS telescoping m=1 N=1\n"
        assert err == b""

    def test_shutdown_still_runs_atexit_handlers(self, popen, cli):
        # The handler runs after main has frozen the heap, and says so.
        plant = (
            "import atexit, gc\n"
            "atexit.register(lambda: sys.stderr.write(f'atexit ran, heap frozen: {gc.get_freeze_count() > 0}\\n'))\n"
        )
        proc = popen("-c", LAUNCH.format(plant=plant), "-m", "powersums", "bernoulli", "400")
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"atexit ran, heap frozen: True\n")
        assert out.decode() == cli("bernoulli", "400")[1]

    @pytest.mark.parametrize("args", DEV_MODE_RUNS.values(), ids=DEV_MODE_RUNS)
    def test_dev_mode_exit_is_silent(self, popen, cli, monkeypatch, args):
        # -X dev shows ResourceWarnings and unraisable exceptions at exit, so
        # the child writes exactly the in-process bytes (a usage error's too,
        # from the same argparse) only if it shows none.
        monkeypatch.setenv("COLUMNS", "80")  # one usage width for both processes
        proc = popen("-X", "dev", *args)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out.decode(), err.decode()) == cli(*args[2:])


class TestProcessEntryPoint:
    # The CLI in a child, with power_sum_poly_n patched to return a
    # 5001-digit constant: Python refuses by default to print an int of
    # more than 4300 digits.
    HUGE = LAUNCH.format(plant=(
        "from powersums.polynomial import Polynomial\n"
        "faulhaber.power_sum_poly_n = lambda m: Polynomial((10**5000,), 'n')\n"
    ))

    def test_huge_integers_print_in_full(self, popen):
        proc = popen("-c", self.HUGE, "-m", "powersums", "powersum", "1")
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")
        assert out == b"1" + b"0" * 5000 + b"\n"

    def test_huge_integers_print_in_full_as_json(self, popen):
        proc = popen("-c", self.HUGE, "-m", "powersums", "--format", "json", "powersum", "1")
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")
        coefficient = json.loads(out)["polynomial"]["coefficients"][0]
        assert coefficient == {"num": "1" + "0" * 5000, "den": "1"}

    @pytest.fixture(scope="class")
    def bernoulli_children(self, class_popen):
        # B_2064 is the first value past 4300 digits.  Both children start
        # before either case reads one, so the two cold tables overlap.
        return {
            fmt: class_popen("-m", "powersums", "--format", fmt, "bernoulli", str(_BERNOULLI_MAX))
            for fmt in ("text", "json")
        }

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_bernoulli_past_the_default_digit_limit(self, bernoulli_children, fmt):
        top = _BERNOULLI_MAX
        proc = bernoulli_children[fmt]
        last = bernoulli(top)  # built here while the children build their own tables
        out, err = proc.communicate(timeout=300)
        assert (proc.returncode, err) == (0, b"")
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)  # to render the expected value
        try:
            if fmt == "text":
                lines = out.decode().splitlines()
                assert len(lines) == top + 1
                assert lines[-1] == f"{top}\t{last}"
            else:
                values = json.loads(out)["values"]
                assert len(values) == top + 1
                expected = {"num": str(last.numerator), "den": str(last.denominator)}
                assert values[-1] == {"index": top, "value": expected}
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
    def test_in_process_run_keeps_the_int_str_limit(self, cli):
        # Only main lifts the limit; pin a nonzero one so a lift would show.
        outer = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert cli("bernoulli", "5")[0] == 0
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(outer)

    def test_in_process_run_never_freezes(self, cli):
        # Only main freezes the heap, and only on its way out.
        frozen = gc.get_freeze_count()
        assert cli("tform", "5")[0] == 0
        assert gc.get_freeze_count() == frozen

    def test_import_loads_no_crash_or_json_machinery(self, popen):
        # -S keeps site-packages .pth files from importing these first.
        lazy = ("dataclasses", "inspect", "json", "traceback")
        proc = popen("-S", "-c", f"import sys, powersums.cli; print(*[m for m in {lazy!r} if m in sys.modules])")
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (0, b"\n", b"")
        # Then one child per command path: each loads only the layers it runs.
        # Help and usage errors load no arithmetic; every command that
        # computes loads every arithmetic layer, bernoulli too, because the
        # Bernoulli table lives in faulhaber.
        arithmetic = ("decimal", "fractions", "powersums.exact_arith", "powersums.faulhaber", "powersums.polynomial")
        child = (
            "import io, sys\n"
            "from powersums import cli\n"
            "cli.run(sys.argv[1:], io.StringIO(), io.StringIO())\n"
            f"print(*[m for m in {lazy + arithmetic!r} if m in sys.modules])\n"
        )
        expected = {
            ("--help",): (),
            ("tform", "0"): (),
            ("bernoulli", "5"): arithmetic,
            ("--format", "json", "bernoulli", "5"): ("json", *arithmetic),
            ("tform", "3"): arithmetic,
            ("verify", "pascal", "--max", "3"): arithmetic,
            ("eval", "3", "3"): arithmetic,
            ("verify", "odd-bernoulli", "--max", "3"): arithmetic,
        }
        loaded = {}
        for argv in expected:
            proc = popen("-S", "-c", child, *argv)
            out, err = proc.communicate(timeout=60)
            assert (proc.returncode, err) == (0, b""), argv
            loaded[argv] = tuple(out.decode().split())
        assert loaded == expected


NO_STDOUT = "error: cannot write to stdout: "


class TestProcessEnd:
    """The process entry point, ``cli.main``, ends every process by one exit table.

    ``main`` takes no arguments and runs only as the process, so every case
    here is a real child started as ``python -m powersums`` (through
    ``LAUNCH`` when it plants code), with its streams redirected or piped.
    """

    # (extra arguments, redirect, exit code, stderr), the same buffered or
    # not; None for a usage error's stderr, whose usage line is argparse's.
    REDIRECTS = {
        "help-full": (("--help",), ">/dev/full", 3, f"{NO_STDOUT}[Errno 28] No space left on device\n"),
        "both-full": ((), ">/dev/full 2>/dev/full", 3, ""),
        "usage-stderr-full": (("--bogus",), "2>/dev/full", 3, ""),
        "full": ((), ">/dev/full", 3, f"{NO_STDOUT}[Errno 28] No space left on device\n"),
        "closed": ((), ">&-", 3, f"{NO_STDOUT}[Errno 9] Bad file descriptor\n"),
        "usage": (("--bogus",), "", 2, None),
        "stderr-full-unused": ((), ">/dev/null 2>/dev/full", 0, ""),
        "stderr-closed-unused": ((), ">/dev/null 2>&-", 0, ""),
        "usage-stderr-closed": (("--bogus",), "2>&-", 3, ""),
    }

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("case", REDIRECTS.values(), ids=REDIRECTS)
    def test_exit_code_does_not_depend_on_buffering(self, redirected, case, unbuffered):
        extra, redirect, code, err = case
        if "/dev/full" in redirect and not Path("/dev/full").exists():
            pytest.skip("no /dev/full")
        proc = redirected(redirect, *ENTRY_POINT, *extra, unbuffered=unbuffered)
        assert (proc.returncode, proc.stdout) == (code, "")
        if err is None:
            assert proc.stderr.startswith("usage: ")
            assert proc.stderr.endswith(": error: unrecognized arguments: --bogus\n")
        else:
            assert proc.stderr == err

    def test_crash_exits_3_with_traceback(self, popen):
        proc = popen("-c", LAUNCH.format(plant="faulhaber.power_sum_tform = lambda m: 1 / 0"), *ENTRY_POINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 3
        assert err.startswith(b"Traceback (most recent call last):\n")
        assert err.endswith(b"ZeroDivisionError: division by zero\n")

    def test_wrong_table_value_fails_the_sweep_recheck(self, popen):
        # A wrong B_10 must fail the suite that reads it: faulhaber's
        # Bernoulli route reads B_10 first for S_11 (m = 5).
        plant = (
            "get = faulhaber.BernoulliTable.get\n"
            "faulhaber.BernoulliTable.get = lambda table, k: faulhaber.Rational(1, 7) if k == 10 else get(table, k)\n"
        )
        proc = popen("-c", LAUNCH.format(plant=plant), "-m", "powersums", "verify", "faulhaber", "--max", "5")
        out, err = proc.communicate(timeout=60)
        lines = out.decode().splitlines()
        assert (proc.returncode, err) == (1, b"")
        assert lines == [f"PASS faulhaber m={m}" for m in range(1, 5)] + ["FAIL faulhaber m=5", "faulhaber: 4/5 passed"]

    @pytest.mark.parametrize("argv", [("tform", "0"), ("tform", "3", "--bogus")], ids=["bad-value", "bad-option"])
    def test_usage_error_into_a_closed_stderr_pipe_exits_141(self, popen, argv):
        # The reader is gone before the child starts, so its usage message
        # meets a broken pipe, like stdout's in ``... | head -1``.
        read, write = os.pipe()
        os.close(read)
        proc = popen("-m", "powersums", *argv, stderr=write)
        os.close(write)
        out, _ = proc.communicate(timeout=60)
        assert (proc.returncode, out) == (141, b"")

    def test_interrupt_exits_130(self, popen):
        # Uninterrupted, the sweep runs for seconds; it signals ready at m = 2.
        # Python's own SIGINT handler is set again in case the test runner
        # ignores SIGINT, which a child would otherwise inherit.
        plant = (
            "import signal\n"
            "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
            "check = faulhaber.verify_pascal_identity\n"
            "def announced(m):\n"
            "    if m == 2:\n"
            "        sys.stderr.write('ready\\n')\n"
            "        sys.stderr.flush()\n"
            "    return check(m)\n"
            "faulhaber.verify_pascal_identity = announced\n"
        )
        proc = popen("-c", LAUNCH.format(plant=plant), "-m", "powersums", "verify", "pascal", "--max", "300")
        assert proc.stderr.readline() == b"ready\n"
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (130, b"", b"")
