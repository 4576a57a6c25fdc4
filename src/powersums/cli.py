"""Command-line front-end: computation and verification as subcommands.

Each command handler is attached to its subparser, and ``run`` parses
the arguments and calls it.  A handler first refuses a combination of
arguments that does not fit (``powersum --basis t`` with an even M, or
another suite's bound option for ``verify``) as a usage error, exit 2,
through the root parser's ``error``, before it computes anything.  Then
it reads the functions it runs from the lazy ``powersums`` namespace,
which loads their layers, computes once and returns its result: an exit
code, a function that builds the JSON payload from JSON-ready records,
and the text lines.  ``run`` is the only writer of a call and
renders that result as text or as JSON.  Its parser prints nothing
either: help and usage errors come back as text (``_ParserExit``),
which ``run`` writes to the call's own sinks.  A usage error keeps the
two ends of an over-long message, so a huge refused argument is not
echoed whole.  ``run`` writes to no stream but the two sinks its caller
passes (it never names ``sys.stdout`` or ``sys.stderr``), so concurrent
calls need no lock.  This module itself imports no arithmetic, so
``--help`` and usage errors load none.  Output is deterministic
byte-for-byte.  Text tables are tab-separated; polynomials use the
display grammar of the polynomial module.  With ``--format json`` every
rational is emitted as a two-field record of decimal strings
(``{"num": ..., "den": ...}``) -- never as a float, because the
coefficients outgrow 64-bit range almost immediately.

Exit codes: 0 on success with all verifications passing, 1 if any
verification instance fails, 2 on usage or parse errors (which print a
usage message to stderr and nothing to stdout).  ``main`` takes no
arguments and runs only as the process (the ``powersums`` command and
``python -m powersums``): it passes ``run`` ``sys.argv[1:]`` and the
process streams, ends the process and adds three more codes: 141 when an
output pipe's reader has gone (stdout closed early, as in ``powersums ...
| head -1``, or a usage error written into a closed stderr pipe; nothing
on stderr), 130 on an interrupt, and 3 on any other uncaught error
(traceback on stderr) or when an output stream cannot be written
otherwise (one line on stderr, if stderr can take it).  Each of these
codes is the same whether or not the streams are buffered.  In-process
callers use ``run``.

``SUITES`` is the one registry of verification suites: for each of
pascal, faulhaber, odd-bernoulli and telescoping it holds the default
bounds, the lowest allowed index and the check that returns whether one
instance holds.  It lives beside the parser that reads its names and
defaults.  ``verify`` is the one front end that runs suites from it: it
runs the check on every index from the lowest one up to its bound, and
writes each instance's label, the one place labels are made: the suite
name, then ``m=<m>``, then ``N=<n>`` for telescoping.  Each check reads
its function from the ``powersums`` namespace at every call, so a
patched or wrapped function in its home module is the one that runs.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from collections.abc import Callable, Iterable
from io import TextIOBase
from itertools import product

import powersums


class Suite(powersums._Record):
    """One verification suite of the registry.

    ``defaults`` maps each bound (``max``, or ``max_m`` and ``max_n``) to
    its default, in the order ``check`` takes the indices; ``first`` is
    the lowest allowed index.  ``check(*indices)`` runs one instance and
    returns whether it holds.
    """

    __slots__ = ("defaults", "first", "check")


SUITES: dict[str, Suite] = {
    "pascal": Suite({"max": 40}, 2, lambda m: powersums.verify_pascal_identity(m).holds),
    "faulhaber": Suite({"max": 40}, 1, lambda m: powersums.verify_faulhaber(m).holds),
    "odd-bernoulli": Suite({"max": 40}, 1, lambda m: powersums.check_odd_bernoulli(m)),
    "telescoping": Suite({"max_m": 10, "max_n": 50}, 1, lambda m, n: powersums.telescoping_check(m, n).holds),
}

# Every bound option of ``verify``, as argparse dests: max, max_m, max_n.
_BOUNDS = tuple(dict.fromkeys(key for suite in SUITES.values() for key in suite.defaults))
# A command's result: exit code, JSON payload (without "command") and text
# lines, as values that ``print`` formats.  The payload comes from a
# function and costly lines from a generator, so each format builds only
# its own output.
_Result = tuple[int, Callable[[], dict[str, object]], Iterable[object]]


class _ParserExit(Exception):
    """Help (exit code 0) or a usage error (2); its args are the code and the text argparse would print."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises its help and usage errors as ``_ParserExit`` instead of printing them."""

    def print_help(self, file: TextIOBase | None = None) -> None:
        raise _ParserExit(0, self.format_help())

    def error(self, message: str) -> None:
        if len(message) > 200:  # it may echo an argument of any length
            message = f"{message[:100]}...{message[-100:]}"
        raise _ParserExit(2, f"{self.format_usage()}{self.prog}: error: {message}\n")


def _uint(minimum: int, maximum: int):
    """argparse type for a decimal integer from ``minimum`` to ``maximum``.

    Only ASCII digits 0-9: no sign, ``_`` or space, which ``int`` takes,
    and no digits of other scripts, which ``str.isdecimal`` takes.
    Leading zeros read as decimal.  A value with more digits than the
    maximum is refused by its digit count, before ``int`` converts it, so
    a huge argument costs nothing and its refusal does not echo it.
    """

    def parse(text: str) -> int:
        if not (text.isascii() and text.isdecimal()):
            raise argparse.ArgumentTypeError(f"expected a nonnegative decimal integer, got {text!r}")
        digits = text.lstrip("0") or "0"
        if len(digits) > len(str(maximum)):
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got a {len(digits)}-digit number")
        value = int(digits)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


def _rational(value) -> dict[str, str]:
    """The one JSON record of a rational (or an int): numerator and denominator as decimal strings."""
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _polynomial(poly) -> dict[str, object]:
    """The one JSON record of a polynomial: its tag and its coefficients ascending by degree."""
    return {"var": poly.var, "coefficients": [_rational(c) for c in poly.coeffs]}


# The input envelope: the largest value of each integer argument, so that
# every request finishes in seconds (cold, 2 vCPU) and a larger one is a
# usage error before anything is computed.  ``_FORM_MAX`` is the largest
# T-form index M that ``tform``, ``coeffs`` and ``powersum --basis t``
# (exponent 2M + 1) serve, and the largest ``verify --max``: a cold
# ``tform 300`` builds every lower form by ladder elimination, the cost
# grows as M^3, and a huge M exhausts memory on 2**M.  Tier-1 pins every
# form up to it against Jacobi's recurrence.  ``_BERNOULLI_MAX`` is the
# largest K of ``bernoulli`` and M of ``powersum`` and ``eval``, which all
# read B_0..B_K; the table's cost grows about as K^3.  Tier-1 rechecks
# every B_n up to it.  ``verify telescoping`` takes ``--max-m`` up to 50
# and ``--max-n`` up to 200, and ``eval`` takes N up to 10000, one bound
# for every M: its direct sum of N terms n^M costs most at M = 3000.
_FORM_MAX = 300
_BERNOULLI_MAX = 3000


def build_parser() -> argparse.ArgumentParser:
    # The one --format option, shared by the root and every subcommand so it
    # may come before or after the command.  SUPPRESS leaves it unset unless
    # given, so a subcommand never clobbers a value the root parsed; ``run``
    # reads an absent one as text.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("text", "json"), default=argparse.SUPPRESS,
                        help="output format (default: text)")
    parser = _Parser(
        prog="powersums",
        description="Exact power-sum polynomials, Bernoulli numbers, and T-basis forms.",
        parents=[output],
    )
    # Each handler refuses a misfit combination through ``args.error``, as
    # a usage error of the root parser.
    parser.set_defaults(error=parser.error)
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add(name: str, help_text: str, handler: Callable[[argparse.Namespace], _Result]) -> argparse.ArgumentParser:
        command = sub.add_parser(name, help=help_text, description=help_text, parents=[output])
        command.set_defaults(handler=handler)
        return command

    p_bernoulli = add("bernoulli", "print B_0..B_K, one 'index<TAB>value' line per number", _cmd_bernoulli)
    p_bernoulli.add_argument("k", type=_uint(0, _BERNOULLI_MAX), metavar="K", help="largest index, K >= 0")

    p_powersum = add("powersum", "print the power-sum polynomial S_M", _cmd_powersum)
    p_powersum.add_argument("exponent", type=_uint(1, _BERNOULLI_MAX), metavar="M", help="exponent, M >= 1")
    p_powersum.add_argument("--basis", choices=("n", "t"), default="n",
                            help="n: polynomial in n; t: factored (P) * T^2, odd M >= 3 only")

    p_tform = add("tform", "print the factored T-basis form of S_{2M+1} as (P) * T^2", _cmd_tform)
    p_tform.add_argument("index", type=_uint(1, _FORM_MAX), metavar="M", help="form index, M >= 1 (exponent 2M+1)")

    p_coeffs = add("coeffs", "print the T-form coefficients of S_{2M+1}, highest degree first", _cmd_coeffs)
    p_coeffs.add_argument("index", type=_uint(1, _FORM_MAX), metavar="M", help="form index, M >= 1")

    p_verify = add("verify", "run an identity suite and print one PASS/FAIL line per instance", _cmd_verify)
    pascal, telescoping = SUITES["pascal"], SUITES["telescoping"]
    p_verify.add_argument("suite", choices=tuple(SUITES))
    p_verify.add_argument("--max", type=_uint(1, _FORM_MAX), default=None, metavar="M",
                          help=f"largest index m (default {pascal.defaults['max']}; "
                               f"pascal starts at m={pascal.first})")
    p_verify.add_argument("--max-m", type=_uint(1, 50), default=None, metavar="M",
                          help=f"telescoping only: largest exponent m (default {telescoping.defaults['max_m']})")
    p_verify.add_argument("--max-n", type=_uint(1, 200), default=None, metavar="N",
                          help=f"telescoping only: largest upper limit N (default {telescoping.defaults['max_n']})")

    p_eval = add("eval", "evaluate S_M at N both symbolically and by direct summation", _cmd_eval)
    p_eval.add_argument("exponent", type=_uint(1, _BERNOULLI_MAX), metavar="M", help="exponent, M >= 1")
    p_eval.add_argument("n", type=_uint(0, 10000), metavar="N", help="upper summation limit, N >= 0")

    return parser


def _cmd_bernoulli(args: argparse.Namespace) -> _Result:
    bernoulli = powersums.bernoulli
    values = [bernoulli(i) for i in range(args.k + 1)]
    return 0, lambda: {
        "max_index": args.k, "values": [{"index": i, "value": _rational(v)} for i, v in enumerate(values)],
    }, (f"{i}\t{v}" for i, v in enumerate(values))


def _cmd_powersum(args: argparse.Namespace) -> _Result:
    if args.basis == "n":
        poly = powersums.power_sum_poly_n(args.exponent)
        return 0, lambda: {"exponent": args.exponent, "basis": "n", "polynomial": _polynomial(poly)}, [poly]
    if args.exponent < 3 or args.exponent % 2 == 0:
        args.error("--basis t requires an odd exponent M >= 3")
    if args.exponent > 2 * _FORM_MAX + 1:
        args.error(f"--basis t requires M <= {2 * _FORM_MAX + 1}")
    form = powersums.power_sum_tform((args.exponent - 1) // 2)
    return 0, lambda: {
        "exponent": args.exponent, "basis": "t", "index": form.m, "p": _polynomial(form.p), "t_power": 2,
    }, [form]


def _cmd_tform(args: argparse.Namespace) -> _Result:
    form = powersums.power_sum_tform(args.index)
    return 0, lambda: {"index": form.m, "exponent": 2 * form.m + 1, "p": _polynomial(form.p), "t_power": 2}, [form]


def _cmd_coeffs(args: argparse.Namespace) -> _Result:
    coeffs = powersums.power_sum_tform(args.index).p.coeffs[::-1]
    return 0, lambda: {
        "index": args.index, "order": "descending", "coefficients": [_rational(c) for c in coeffs],
    }, (" ".join(map(str, cs)) for cs in [coeffs])


def _cmd_verify(args: argparse.Namespace) -> _Result:
    # The suite's bounds from the registry, options over defaults; another
    # suite's bound option, or a --max below the first index, exits 2.
    suite, given = SUITES[args.suite], vars(args)

    def flags(keys: Iterable[str]) -> str:
        return "/".join("--" + key.replace("_", "-") for key in keys)

    foreign = [key for key in _BOUNDS if key not in suite.defaults]
    if any(given[key] is not None for key in foreign):
        args.error(f"suite {args.suite!r} takes {flags(suite.defaults)}, not {flags(foreign)}")
    if args.max is not None and args.max < suite.first:
        args.error(f"suite {args.suite!r} requires --max >= {suite.first}")
    bounds = {key: default if given[key] is None else given[key] for key, default in suite.defaults.items()}
    # Every index from the suite's first to its bound; the first index
    # varies slowest, as in nested loops.  Each label is the suite name,
    # then m=<m>, then N=<n> for telescoping.
    sweep = product(*[range(suite.first, top + 1) for top in bounds.values()])
    results = [(" ".join([args.suite, *(f"{k}={i}" for k, i in zip("mN", ix))]), suite.check(*ix)) for ix in sweep]
    passed, total = sum(ok for _, ok in results), len(results)
    lines = [f"{'PASS' if ok else 'FAIL'} {label}" for label, ok in results]
    lines.append(f"{args.suite}: {passed}/{total} passed")
    return 0 if passed == total else 1, lambda: {
        "suite": args.suite,
        **bounds,
        "results": [{"label": label, "holds": ok} for label, ok in results],
        "passed": passed,
        "total": total,
        "all_pass": passed == total,
    }, lines


def _cmd_eval(args: argparse.Namespace) -> _Result:
    symbolic = powersums.poly_eval(powersums.power_sum_poly_n(args.exponent), args.n)
    direct = powersums.power_sum_direct(args.exponent, args.n)
    agree = symbolic == direct
    lines = [f"polynomial\t{symbolic}", f"direct\t{direct}", f"agree\t{'true' if agree else 'false'}"]
    # Both values are {"num", "den"} records, the int "direct" too, never bare JSON ints.
    return 0 if agree else 1, lambda: {
        "exponent": args.exponent, "n": args.n, "polynomial": _rational(symbolic), "direct": _rational(direct),
        "agree": agree,
    }, lines


def run(argv: Iterable[str], out: TextIOBase, err: TextIOBase) -> int:
    """Parse and execute one invocation; render its result as text or JSON to ``out``, usage errors to ``err``."""
    try:
        args = build_parser().parse_args(list(argv))
        code, payload, lines = args.handler(args)
    except _ParserExit as exc:
        # Where argparse would write it: help to stdout, errors to stderr.
        code, text = exc.args
        (err if code else out).write(text)
        return code
    if getattr(args, "format", "text") == "json":
        import json  # only JSON output pays for loading the encoder

        print(json.dumps({"command": args.command, **payload()}, indent=2), file=out)
    else:
        for line in lines:
            print(line, file=out)
    return code


def _flushed(stream: TextIOBase | None, fd: int, text: str = "") -> bool:
    """Write ``text`` to a process stream and flush it; False if the stream cannot be written.

    A stream that fails gets its fd pointed at devnull, so that the
    interpreter's shutdown flush cannot fail on it a second time.
    """
    if stream is None:  # the fd was closed when the process started
        return not text
    try:
        if text:
            stream.write(text)
        stream.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return False
    return True


def main() -> None:
    """The ``powersums`` process: ``run`` on ``sys.argv[1:]``, then the package's one exit policy.

    It takes no arguments and never returns, so only a process runs it;
    in-process callers use ``run``.  ``run`` returns 0, 1 or 2 by its
    verdict.  The process exits 141 on any broken pipe (stdout closed
    early, as in ``... | head -1``, or a usage error written into a stderr
    pipe whose reader has gone; nothing on stderr), 3 when an output
    stream cannot be written otherwise (closed from the start, or a full
    device; one line on stderr if stderr can still take it), 130 on an
    interrupt, and 3 with a traceback on any other uncaught error, so a
    crash never reads as a failed verification.  Both streams are flushed
    here, so the exit code is the same whether or not they are buffered.

    Two process-wide settings are ``main``'s alone; ``run`` leaves both as
    its caller set them.  It lifts the int-to-str digit limit before the
    call, and once the exit code is fixed and both streams are flushed it
    freezes the garbage collector (``gc.freeze``), so the interpreter's
    shutdown collections skip the objects the process holds: atexit
    handlers, stream flushing and module teardown still run, and the
    output bytes and exit codes stay the same.
    """
    # Print integers of any size: Python 3.11+ (and 3.10.7+) refuse by
    # default to convert an int of more than 4300 digits to str.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    report = ""
    try:
        if sys.stdout is None:  # fd 1 was closed when the process started
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        code = run(sys.argv[1:], sys.stdout, sys.stderr)
        # Flush inside the try, so that a closed pipe surfaces here.
        sys.stdout.flush()
    except BrokenPipeError:
        code = 141
    except OSError as exc:
        # ``run`` does no I/O but writing its output, so that write failed.
        # Were it stderr's, the report fails as well and nothing shows.
        code, report = 3, f"error: cannot write to stdout: {exc}\n"
    except KeyboardInterrupt:
        code = 130
    except Exception:
        import traceback  # only a crash pays for loading it

        code, report = 3, traceback.format_exc()
    # An unwritable stream turns a verdict (0 to 2) into 3; a closed pipe
    # and an interrupt keep their own codes.
    written = _flushed(sys.stdout, 1)
    if not (_flushed(sys.stderr, 2, report) and written):
        code = max(code, 3)
    # Every object alive now lives until exit; frozen, the shutdown
    # collections need not traverse them (about 12k after the import).
    gc.freeze()
    raise SystemExit(code)
