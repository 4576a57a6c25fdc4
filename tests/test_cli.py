"""Golden output, exit codes, and JSON round-trips for the CLI."""

import gc
import hashlib
import io
import json
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

import powersums.cli
import powersums.faulhaber
from powersums.faulhaber import (
    SUITES,
    VerificationReport,
    bernoulli,
    power_sum_poly_n,
    power_sum_tform,
)
from powersums.polynomial import Polynomial

BERNOULLI_5_GOLDEN = (
    "0\t1\n"
    "1\t-1/2\n"
    "2\t1/6\n"
    "3\t0\n"
    "4\t-1/30\n"
    "5\t0\n"
)

EVAL_7_2_GOLDEN = (
    "polynomial\t129\n"
    "direct\t129\n"
    "agree\ttrue\n"
)

# Exact `--format json` stdout: key order, indentation and the rational and
# polynomial records are all part of the output contract.
JSON_GOLDEN = {
    ("bernoulli", "2"): """\
{
  "command": "bernoulli",
  "max_index": 2,
  "values": [
    {
      "index": 0,
      "value": {
        "num": "1",
        "den": "1"
      }
    },
    {
      "index": 1,
      "value": {
        "num": "-1",
        "den": "2"
      }
    },
    {
      "index": 2,
      "value": {
        "num": "1",
        "den": "6"
      }
    }
  ]
}
""",
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
    ("tform", "2"): """\
{
  "command": "tform",
  "index": 2,
  "exponent": 5,
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
    ("coeffs", "2"): """\
{
  "command": "coeffs",
  "index": 2,
  "order": "descending",
  "coefficients": [
    {
      "num": "4",
      "den": "3"
    },
    {
      "num": "-1",
      "den": "3"
    }
  ]
}
""",
    ("verify", "faulhaber", "--max", "1"): """\
{
  "command": "verify",
  "suite": "faulhaber",
  "max": 1,
  "results": [
    {
      "label": "faulhaber m=1",
      "holds": true
    }
  ],
  "passed": 1,
  "total": 1,
  "all_pass": true
}
""",
    ("verify", "telescoping", "--max-m", "1", "--max-n", "1"): """\
{
  "command": "verify",
  "suite": "telescoping",
  "max_m": 1,
  "max_n": 1,
  "results": [
    {
      "label": "telescoping m=1 N=1",
      "holds": true
    }
  ],
  "passed": 1,
  "total": 1,
  "all_pass": true
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


def as_fraction(record):
    return Fraction(int(record["num"]), int(record["den"]))


class TestGoldenText:
    def test_bernoulli_5(self, cli):
        code, out, err = cli("bernoulli", "5")
        assert (code, out, err) == (0, BERNOULLI_5_GOLDEN, "")

    def test_powersum_3_basis_n(self, cli):
        code, out, err = cli("powersum", "3", "--basis", "n")
        assert (code, out, err) == (0, "1/4*n^4 + 1/2*n^3 + 1/4*n^2\n", "")

    def test_eval_7_2(self, cli):
        code, out, err = cli("eval", "7", "2")
        assert (code, out, err) == (0, EVAL_7_2_GOLDEN, "")

    def test_verify_odd_bernoulli_max_40(self, cli):
        code, out, err = cli("verify", "odd-bernoulli", "--max", "40")
        lines = out.splitlines()
        assert code == 0
        assert err == ""
        assert lines[:40] == [f"PASS odd-bernoulli m={m}" for m in range(1, 41)]
        assert lines[40] == "odd-bernoulli: 40/40 passed"
        assert len(lines) == 41

    def test_powersum_t_basis(self, cli):
        assert cli("powersum", "3", "--basis", "t")[1] == "(1) * T^2\n"
        assert cli("powersum", "5", "--basis", "t")[1] == "(4/3*T - 1/3) * T^2\n"
        assert cli("powersum", "7", "--basis", "t")[1] == "(2*T^2 - 4/3*T + 1/3) * T^2\n"

    def test_tform_matches_powersum_t(self, cli):
        assert cli("tform", "3")[1] == cli("powersum", "7", "--basis", "t")[1]

    def test_coeffs(self, cli):
        assert cli("coeffs", "2")[1] == "4/3 -1/3\n"
        assert cli("coeffs", "3")[1] == "2 -4/3 1/3\n"

    def test_verify_pascal_lines(self, cli):
        code, out, _ = cli("verify", "pascal", "--max", "6")
        assert code == 0
        assert out == (
            "PASS pascal m=2\n"
            "PASS pascal m=3\n"
            "PASS pascal m=4\n"
            "PASS pascal m=5\n"
            "PASS pascal m=6\n"
            "pascal: 5/5 passed\n"
        )

    def test_verify_telescoping_lines(self, cli):
        code, out, _ = cli("verify", "telescoping", "--max-m", "1", "--max-n", "2")
        assert code == 0
        assert out == (
            "PASS telescoping m=1 N=1\n"
            "PASS telescoping m=1 N=2\n"
            "telescoping: 2/2 passed\n"
        )

    def test_output_uses_lf_only(self, cli):
        for args in (("bernoulli", "3"), ("verify", "faulhaber", "--max", "2")):
            _, out, _ = cli(*args)
            assert "\r" not in out


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, cli):
        first = cli("verify", "pascal", "--max", "5")
        second = cli("verify", "pascal", "--max", "5")
        assert first == second

    def test_json_identical_across_runs(self, cli):
        assert cli("bernoulli", "8", "--format", "json") == cli("bernoulli", "8", "--format", "json")


class TestBenchmarkGoldens:
    def test_every_request_replays_byte_identical(self, cli):
        """Each request of perfbench/golden.json gives its recorded exit code and stdout SHA-256."""
        golden = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text())
        assert golden
        mismatched = []
        for key, expected in golden.items():
            code, out, _ = cli(*([] if key == "<no arguments>" else key.split(" ")))
            if [code, hashlib.sha256(out.encode()).hexdigest()] != expected:
                mismatched.append(key)
        assert mismatched == []


def _failed(label):
    return VerificationReport(label, Polynomial((1,), "n"), Polynomial((2,), "n"))


# For each suite: the faulhaber module function its check calls, and a
# stand-in for it that makes every instance fail.
_BROKEN_CHECKS = {
    "pascal": ("verify_pascal_identity", lambda m: _failed(f"pascal m={m}")),
    "faulhaber": ("verify_faulhaber", lambda m: _failed(f"faulhaber m={m}")),
    "odd-bernoulli": ("infer_odd_bernoulli", lambda m: 1),
    "telescoping": ("telescoping_check", lambda m, n: _failed(f"telescoping m={m} N={n}")),
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
        for bad in ("-1", "1.5", "1_0", "+5", "ten", ""):
            code, out, err = cli("bernoulli", bad)
            assert code == 2, bad
            assert out == "", bad
            assert err != "", bad

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

    def test_verify_flag_mismatches(self, cli):
        assert cli("verify", "telescoping", "--max", "5")[0] == 2
        assert cli("verify", "pascal", "--max-m", "5")[0] == 2
        assert cli("verify", "pascal", "--max", "1")[0] == 2

    def test_help_exits_zero(self, cli):
        code, out, _ = cli("--help")
        assert code == 0
        assert "usage" in out

    def test_failing_verification_exits_one(self, cli, monkeypatch):
        def broken(m):
            return VerificationReport(f"faulhaber m={m}", Polynomial((1,), "n"), Polynomial((2,), "n"))

        monkeypatch.setattr(powersums.faulhaber, "verify_faulhaber", broken)
        code, out, _ = cli("verify", "faulhaber", "--max", "2")
        assert code == 1
        assert out == (
            "FAIL faulhaber m=1\n"
            "FAIL faulhaber m=2\n"
            "faulhaber: 0/2 passed\n"
        )

    @pytest.mark.parametrize("name", sorted(SUITES))
    def test_failing_check_fails_every_suite(self, cli, monkeypatch, name):
        # Each suite's check looks up its module function at call time, so
        # patching that function alone must fail every instance.
        suite = SUITES[name]
        bounds = {key: {"max": 3, "max_m": 2, "max_n": 3}[key] for key in suite.defaults}
        labels = [label for label, _ in suite.sweep(*bounds.values())]
        function, broken = _BROKEN_CHECKS[name]
        monkeypatch.setattr(powersums.faulhaber, function, broken)
        options = [arg for key, value in bounds.items() for arg in ("--" + key.replace("_", "-"), str(value))]

        code, out, _ = cli("verify", name, *options)
        assert code == 1
        assert out.splitlines() == [f"FAIL {label}" for label in labels] + [f"{name}: 0/{len(labels)} passed"]
        code, out, _ = cli("verify", name, *options, "--format", "json")
        assert code == 1
        assert '"all_pass": false' in out
        payload = json.loads(out)
        assert (payload["passed"], payload["total"]) == (0, len(labels))

    def test_disagreeing_eval_exits_one(self, cli, monkeypatch):
        monkeypatch.setattr(powersums.cli, "power_sum_direct", lambda m, n: 0)
        code, out, _ = cli("eval", "3", "3")
        assert code == 1
        assert out.endswith("agree\tfalse\n")


    @pytest.mark.parametrize("error, expected", [(RuntimeError("boom"), 3), (KeyboardInterrupt(), 130)])
    def test_uncaught_errors_get_their_own_exit_codes(self, monkeypatch, capsys, error, expected):
        def handler(args):
            raise error

        monkeypatch.setattr(powersums.cli, "_cmd_eval", handler)
        with pytest.raises(type(error)):
            powersums.cli.run(["eval", "3", "4"])  # in-process callers see the exception
        with pytest.raises(SystemExit) as exit_info:
            powersums.cli.main(["eval", "3", "4"])
        assert exit_info.value.code == expected
        err = capsys.readouterr().err
        assert ("RuntimeError: boom" in err) == (expected == 3)


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
        # sink waits for A to finish.  Were the two redirects to interleave,
        # B would exit last and leave sys.stdout pointing at A's sink.
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
            streams = sys.stdout, sys.stderr
        finally:
            sys.stdout, sys.stderr = stdout, stderr
        assert streams[0] is stdout and streams[1] is stderr
        expected = cli("--help")
        for name, (out, err) in sinks.items():
            assert (codes[name], out.getvalue(), err.getvalue()) == expected, name


class TestJson:
    @pytest.mark.parametrize("argv", list(JSON_GOLDEN), ids=" ".join)
    def test_golden_bytes(self, cli, argv):
        assert cli(*argv, "--format", "json") == (0, JSON_GOLDEN[argv], "")

    def test_bernoulli_round_trip(self, cli):
        code, out, _ = cli("bernoulli", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["command"] == "bernoulli"
        values = [as_fraction(entry["value"]) for entry in payload["values"]]
        assert values == [bernoulli(k) for k in range(7)]

    def test_powersum_round_trip(self, cli):
        _, out, _ = cli("powersum", "4", "--format", "json")
        payload = json.loads(out)
        rebuilt = Polynomial(
            tuple(as_fraction(c) for c in payload["polynomial"]["coefficients"]),
            payload["polynomial"]["var"],
        )
        assert rebuilt == power_sum_poly_n(4)

    def test_tform_round_trip(self, cli):
        _, out, _ = cli("tform", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["exponent"] == 5
        assert payload["t_power"] == 2
        rebuilt = Polynomial(
            tuple(as_fraction(c) for c in payload["p"]["coefficients"]), payload["p"]["var"]
        )
        assert rebuilt == power_sum_tform(2).p

    def test_rationals_never_floats(self, cli):
        _, out, _ = cli("coeffs", "5", "--format", "json")
        payload = json.loads(out)
        for record in payload["coefficients"]:
            assert set(record) == {"num", "den"}
            assert isinstance(record["num"], str)
            assert isinstance(record["den"], str)

    def test_verify_json_summary(self, cli):
        code, out, _ = cli("verify", "faulhaber", "--max", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "faulhaber"
        assert payload["max"] == 3
        assert payload["passed"] == payload["total"] == 3
        assert payload["all_pass"] is True
        assert [r["label"] for r in payload["results"]] == [f"faulhaber m={m}" for m in (1, 2, 3)]

    def test_eval_json(self, cli):
        _, out, _ = cli("eval", "7", "2", "--format", "json")
        payload = json.loads(out)
        assert as_fraction(payload["polynomial"]) == 129
        assert as_fraction(payload["direct"]) == 129
        assert payload["agree"] is True

    def test_format_flag_position_independent(self, cli):
        before = cli("--format", "json", "coeffs", "2")
        after = cli("coeffs", "2", "--format", "json")
        assert before == after


class TestSubprocess:
    def test_module_entry_point(self, cli_subprocess, cli):
        proc = cli_subprocess("bernoulli", "5")
        assert proc.returncode == 0
        assert proc.stdout == cli("bernoulli", "5")[1]

    def test_usage_error_in_subprocess(self, cli_subprocess):
        proc = cli_subprocess("powersum", "4", "--basis", "t")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr != ""

    def test_closed_pipe_exits_141_without_traceback(self, cli_popen):
        # About 108 KB of output, more than a pipe buffers, so the CLI is
        # still writing when the reader goes away, as with `| head -1`.
        proc = cli_popen("verify", "telescoping", "--max-m", "20", "--max-n", "200")
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
        assert first == b"PASS telescoping m=1 N=1\n"
        assert err == b""

    def test_shutdown_still_runs_atexit_handlers(self, popen, cli):
        child = (
            "import atexit, sys\n"
            "from powersums import cli\n"
            "atexit.register(lambda: sys.stderr.write('atexit ran\\n'))\n"
            "cli.main(['bernoulli', '400'])\n"
        )
        proc = popen("-c", child)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"atexit ran\n")
        assert out.decode() == cli("bernoulli", "400")[1]

    def test_dev_mode_exit_is_silent(self, popen, cli):
        # -X dev shows ResourceWarnings and unraisable exceptions at exit.
        argv = ("--format", "json", "verify", "faulhaber", "--max", "5")
        proc = popen("-X", "dev", "-m", "powersums", *argv)
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")
        assert out.decode() == cli(*argv)[1]


class TestProcessEntryPoint:
    # Run main in a child, with power_sum_poly_n patched to return a
    # 5001-digit constant: Python refuses by default to print an int of
    # more than 4300 digits.
    HUGE = """
import sys
from powersums import cli
from powersums.polynomial import Polynomial
cli.power_sum_poly_n = lambda m: Polynomial((10**5000,), "n")
cli.main(sys.argv[1:])
"""

    def test_huge_integers_print_in_full(self, popen):
        proc = popen("-c", self.HUGE, "powersum", "1")
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")
        assert out == b"1" + b"0" * 5000 + b"\n"

    def test_huge_integers_print_in_full_as_json(self, popen):
        proc = popen("-c", self.HUGE, "--format", "json", "powersum", "1")
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (0, b"")
        coefficient = json.loads(out)["polynomial"]["coefficients"][0]
        assert coefficient == {"num": "1" + "0" * 5000, "den": "1"}

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_bernoulli_past_the_default_digit_limit(self, cli_subprocess, fmt):
        # B_2064 is the first value past 4300 digits; B_2100's numerator has 4419.
        proc = cli_subprocess("--format", fmt, "bernoulli", "2100")
        assert (proc.returncode, proc.stderr) == (0, "")
        if hasattr(sys, "set_int_max_str_digits"):
            sys.set_int_max_str_digits(0)  # to render the expected value; restored after the test
        last = bernoulli(2100)
        if fmt == "text":
            lines = proc.stdout.splitlines()
            assert len(lines) == 2101
            assert lines[-1] == f"2100\t{last}"
        else:
            values = json.loads(proc.stdout)["values"]
            assert len(values) == 2101
            expected = {"num": str(last.numerator), "den": str(last.denominator)}
            assert values[-1] == {"index": 2100, "value": expected}

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
    def test_in_process_run_keeps_the_int_str_limit(self, cli):
        # Only main lifts the limit; pin a nonzero one so a lift would show.
        outer = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert cli("bernoulli", "5") == (0, BERNOULLI_5_GOLDEN, "")
            assert sys.get_int_max_str_digits() == 4300
        finally:
            sys.set_int_max_str_digits(outer)

    def test_in_process_run_never_freezes(self, cli):
        # Only main freezes the heap, and only on its way out.
        frozen = gc.get_freeze_count()
        assert cli("tform", "5")[0] == 0
        assert gc.get_freeze_count() == frozen

    def test_main_freezes_the_heap_before_exit(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            powersums.cli.main(["bernoulli", "5"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out == BERNOULLI_5_GOLDEN
        assert gc.get_freeze_count() > 0  # thawed by conftest after the test

    def test_import_loads_no_crash_or_json_machinery(self, popen):
        # -S keeps site-packages .pth files from importing these first.
        lazy = ("dataclasses", "inspect", "json", "traceback")
        proc = popen("-S", "-c", f"import sys, powersums.cli; print(*[m for m in {lazy!r} if m in sys.modules])")
        out, err = proc.communicate(timeout=60)
        assert (proc.returncode, out, err) == (0, b"\n", b"")
