"""The table script ``scripts/show_faulhaber_forms.py``: output, usage errors, closed pipes."""

import signal

# Exact stdout of ``--max 3``.
FORMS_TO_3 = """\
  m  exponent  factored form
  1         3  (1) * T^2
               descending coefficients: 1
  2         5  (4/3*T - 1/3) * T^2
               descending coefficients: 4/3 -1/3
  3         7  (2*T^2 - 4/3*T + 1/3) * T^2
               descending coefficients: 2 -4/3 1/3
"""


def test_show_forms_golden(script_subprocess):
    proc = script_subprocess("show_faulhaber_forms.py", "--max", "3")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, FORMS_TO_3, "")


def test_show_forms_refuses_an_empty_table(script_subprocess):
    proc = script_subprocess("show_faulhaber_forms.py", "--max", "0")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "--max must be at least 1" in proc.stderr


def test_show_forms_dies_quietly_on_a_closed_pipe(script_popen):
    # About 195 KB of output, more than a pipe buffers, so the script is
    # still writing when the reader goes away, as with `| head -1`.
    proc = script_popen("show_faulhaber_forms.py", "--max", "60")
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert first == b"  m  exponent  factored form\n"
    assert err == b""
