"""Command-line front-end: computation and verification as subcommands.

Each command handler is attached to its subparser, computes once and
returns its result: an exit code, a JSON payload holding the exact
``Fraction`` and ``Polynomial`` values, and the text lines.  ``run`` is
the only writer and renders that result as text or as JSON.  Output is
deterministic byte-for-byte.  Text tables are tab-separated; polynomials
use the display grammar of the polynomial module.  With ``--format json``
every rational is emitted as a two-field record of decimal strings
(``{"num": ..., "den": ...}``) -- never as a float, because the
coefficients outgrow 64-bit range almost immediately.

Exit codes: 0 on success with all verifications passing, 1 if any
verification instance fails, 2 on usage or parse errors (which print a
usage message to stderr and nothing to stdout).  The process entry point
``main`` adds three more: 141 when stdout is closed early (a broken pipe,
as in ``powersums ... | head -1``; no traceback), 130 on an interrupt,
and 3 on any other uncaught error, whose traceback goes to stderr.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys
import threading
from collections.abc import Callable, Iterable
from contextlib import redirect_stderr, redirect_stdout
from io import TextIOBase

from .exact_arith import Rational
from .faulhaber import (
    SUITES,
    bernoulli,
    faulhaber_coefficients,
    power_sum_direct,
    power_sum_poly_n,
    power_sum_tform,
)
from .polynomial import Polynomial, poly_eval

_DECIMAL_INT = re.compile(r"[0-9]+")
# Every bound option of ``verify``, as argparse dests: max, max_m, max_n.
_BOUNDS = tuple(dict.fromkeys(key for suite in SUITES.values() for key in suite.defaults))
# A command's result: exit code, JSON payload (without "command") and text
# lines, as values that ``print`` formats.  Costly lines come from a
# generator, so JSON output never formats them.
_Result = tuple[int, dict[str, object], Iterable[object]]
# Held while a parse redirects the process-wide sys.stdout and sys.stderr.
_REDIRECT_LOCK = threading.Lock()


def _uint(minimum: int):
    """argparse type for a nonnegative decimal integer with a lower bound."""

    def parse(text: str) -> int:
        if not _DECIMAL_INT.fullmatch(text):
            raise argparse.ArgumentTypeError(f"expected a nonnegative decimal integer, got {text!r}")
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return parse


def _json_value(value: object) -> dict:
    """``json.dumps`` hook: the one JSON encoding of rationals and polynomials."""
    if isinstance(value, Polynomial):
        # Coefficients ascending by degree, matching the in-memory layout.
        return {"var": value.var, "coefficients": value.coeffs}
    if isinstance(value, Rational):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    raise TypeError(f"no JSON encoding for {type(value).__name__}")


def build_parser() -> argparse.ArgumentParser:
    # The one --format option, shared by the root and every subcommand so it
    # may come before or after the command.  SUPPRESS leaves it unset unless
    # given, so a subcommand never clobbers a value the root parsed; ``run``
    # reads an absent one as text.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS,
                        help="output format (default: text)")
    parser = argparse.ArgumentParser(
        prog="powersums",
        description="Exact power-sum polynomials, Bernoulli numbers, and T-basis forms.",
        parents=[output],
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(
        name: str, help_text: str, handler: Callable[[argparse.Namespace], _Result]
    ) -> argparse.ArgumentParser:
        command = sub.add_parser(name, help=help_text, description=help_text, parents=[output])
        command.set_defaults(handler=handler)
        return command

    p_bernoulli = add("bernoulli", "print B_0..B_K, one 'index<TAB>value' line per number", _cmd_bernoulli)
    p_bernoulli.add_argument("k", type=_uint(0), metavar="K", help="largest index, K >= 0")

    p_powersum = add("powersum", "print the power-sum polynomial S_M", _cmd_powersum)
    p_powersum.add_argument("exponent", type=_uint(1), metavar="M", help="exponent, M >= 1")
    p_powersum.add_argument("--basis", choices=("n", "t"), default="n",
                            help="n: polynomial in n; t: factored (P) * T^2, odd M >= 3 only")

    p_tform = add("tform", "print the factored T-basis form of S_{2M+1} as (P) * T^2", _cmd_tform)
    p_tform.add_argument("index", type=_uint(1), metavar="M", help="form index, M >= 1 (exponent 2M+1)")

    p_coeffs = add("coeffs", "print the T-form coefficients of S_{2M+1}, highest degree first", _cmd_coeffs)
    p_coeffs.add_argument("index", type=_uint(1), metavar="M", help="form index, M >= 1")

    p_verify = add("verify", "run an identity suite and print one PASS/FAIL line per instance", _cmd_verify)
    pascal, telescoping = SUITES["pascal"], SUITES["telescoping"]
    p_verify.add_argument("suite", choices=tuple(SUITES))
    p_verify.add_argument("--max", type=_uint(1), default=None, metavar="M",
                          help=f"largest index m (default {pascal.defaults['max']}; "
                               f"pascal starts at m={pascal.first})")
    p_verify.add_argument("--max-m", type=_uint(1), default=None, metavar="M",
                          help=f"telescoping only: largest exponent m (default {telescoping.defaults['max_m']})")
    p_verify.add_argument("--max-n", type=_uint(1), default=None, metavar="N",
                          help=f"telescoping only: largest upper limit N (default {telescoping.defaults['max_n']})")

    p_eval = add("eval", "evaluate S_M at N both symbolically and by direct summation", _cmd_eval)
    p_eval.add_argument("exponent", type=_uint(1), metavar="M", help="exponent, M >= 1")
    p_eval.add_argument("n", type=_uint(0), metavar="N", help="upper summation limit, N >= 0")

    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Cross-field checks that argparse types cannot express; errors exit 2."""
    if args.command == "powersum" and args.basis == "t":
        if args.exponent < 3 or args.exponent % 2 == 0:
            parser.error("--basis t requires an odd exponent M >= 3")
    if args.command == "verify":
        args.bounds = _suite_bounds(parser, args)


def _suite_bounds(parser: argparse.ArgumentParser, args: argparse.Namespace) -> dict[str, int]:
    """The suite's bounds from the registry, options over defaults; a misfit option exits 2."""
    suite, given = SUITES[args.suite], vars(args)

    def flags(keys: Iterable[str]) -> str:
        return "/".join("--" + key.replace("_", "-") for key in keys)

    foreign = [key for key in _BOUNDS if key not in suite.defaults]
    if any(given[key] is not None for key in foreign):
        parser.error(f"suite {args.suite!r} takes {flags(suite.defaults)}, not {flags(foreign)}")
    if args.max is not None and args.max < suite.first:
        parser.error(f"suite {args.suite!r} requires --max >= {suite.first}")
    return {key: default if given[key] is None else given[key] for key, default in suite.defaults.items()}


def _cmd_bernoulli(args: argparse.Namespace) -> _Result:
    values = [bernoulli(i) for i in range(args.k + 1)]
    payload = {"max_index": args.k, "values": [{"index": i, "value": v} for i, v in enumerate(values)]}
    return 0, payload, (f"{i}\t{v}" for i, v in enumerate(values))


def _cmd_powersum(args: argparse.Namespace) -> _Result:
    if args.basis == "n":
        poly = power_sum_poly_n(args.exponent)
        return 0, {"exponent": args.exponent, "basis": "n", "polynomial": poly}, [poly]
    form = power_sum_tform((args.exponent - 1) // 2)
    payload = {"exponent": args.exponent, "basis": "t", "index": form.m, "p": form.p, "t_power": 2}
    return 0, payload, [form]


def _cmd_tform(args: argparse.Namespace) -> _Result:
    form = power_sum_tform(args.index)
    payload = {"index": form.m, "exponent": 2 * form.m + 1, "p": form.p, "t_power": 2}
    return 0, payload, [form]


def _cmd_coeffs(args: argparse.Namespace) -> _Result:
    coeffs = faulhaber_coefficients(args.index)
    payload = {"index": args.index, "order": "descending", "coefficients": coeffs}
    return 0, payload, (" ".join(map(str, cs)) for cs in [coeffs])


def _cmd_verify(args: argparse.Namespace) -> _Result:
    results = list(SUITES[args.suite].sweep(*args.bounds.values()))
    passed = sum(1 for _, ok in results if ok)
    total = len(results)
    payload = {
        "suite": args.suite,
        **args.bounds,
        "results": [{"label": label, "holds": ok} for label, ok in results],
        "passed": passed,
        "total": total,
        "all_pass": passed == total,
    }
    lines = [f"{'PASS' if ok else 'FAIL'} {label}" for label, ok in results]
    lines.append(f"{args.suite}: {passed}/{total} passed")
    return 0 if passed == total else 1, payload, lines


def _cmd_eval(args: argparse.Namespace) -> _Result:
    symbolic = poly_eval(power_sum_poly_n(args.exponent), args.n)
    direct = power_sum_direct(args.exponent, args.n)
    agree = symbolic == direct
    # Rational(direct) keeps "direct" a {"num", "den"} record, not a bare JSON int.
    payload = {"exponent": args.exponent, "n": args.n, "polynomial": symbolic, "direct": Rational(direct),
               "agree": agree}
    lines = [f"polynomial\t{symbolic}", f"direct\t{direct}", f"agree\t{'true' if agree else 'false'}"]
    return 0 if agree else 1, payload, lines


def run(argv: Iterable[str], stdout: TextIOBase | None = None, stderr: TextIOBase | None = None) -> int:
    """Parse and execute one invocation; render its result as text or JSON to the given sinks."""
    out = sys.stdout if stdout is None else stdout
    err = sys.stderr if stderr is None else stderr
    parser = build_parser()
    try:
        # argparse prints usage/help straight to sys.std{out,err}; route both,
        # one call at a time, so overlapping calls restore the streams in order.
        with _REDIRECT_LOCK, redirect_stdout(out), redirect_stderr(err):
            args = parser.parse_args(list(argv))
            _validate(parser, args)
    except SystemExit as exc:
        return exc.code
    code, payload, lines = args.handler(args)
    if getattr(args, "format", "text") == "json":
        import json  # only JSON output pays for loading the encoder

        print(json.dumps({"command": args.command, **payload}, indent=2, default=_json_value), file=out)
    else:
        for line in lines:
            print(line, file=out)
    return code


def main(argv: list[str] | None = None) -> None:
    """Process entry point: ``run`` on sys.argv, with exit codes for failures.

    Two process-wide settings are ``main``'s alone; ``run`` leaves both as
    its caller set them.  ``main`` lifts the int-to-str digit limit before
    it runs the command, and once the exit code is fixed and stdout is
    flushed it freezes the garbage collector (``gc.freeze``), so the
    interpreter's shutdown collections skip the objects the process holds:
    atexit handlers, stream flushing and module teardown still run, and
    the output bytes and exit codes stay the same.
    """
    # Print integers of any size: Python 3.11+ (and 3.10.7+) refuse by
    # default to convert an int of more than 4300 digits to str.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        code = run(sys.argv[1:] if argv is None else argv)
        # Flush inside the try, so that a closed pipe surfaces here.
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again at shutdown; point it at
        # devnull so that flush cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 141
    except KeyboardInterrupt:
        code = 130
    except Exception:
        import traceback  # only a crash pays for loading it

        traceback.print_exc()
        code = 3
    # Every object alive now lives until exit; frozen, the shutdown
    # collections need not traverse them (about 12k after the import).
    gc.freeze()
    raise SystemExit(code)
