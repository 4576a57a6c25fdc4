import gc
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from powersums.cli import run

# Exact rational arithmetic makes some examples slow out of proportion to
# their value count; wall-clock deadlines only add flakiness here.
settings.register_profile("exact", deadline=None)
settings.load_profile("exact")

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def _restore_int_str_limit():
    """Put back the int-to-str digit limit that an in-process ``cli.main`` lifts."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    yield
    sys.set_int_max_str_digits(limit)


@pytest.fixture(autouse=True)
def _unfreeze_gc():
    """Thaw the heap that an in-process ``cli.main`` froze before its SystemExit."""
    frozen = gc.get_freeze_count()
    yield
    if gc.get_freeze_count() != frozen:
        gc.unfreeze()


@pytest.fixture
def cli():
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def invoke(*args: str):
        out, err = io.StringIO(), io.StringIO()
        code = run(list(args), out, err)
        return code, out.getvalue(), err.getvalue()

    return invoke


def _subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return env


@pytest.fixture
def cli_subprocess():
    """Invoke the CLI as a cold subprocess; returns CompletedProcess."""

    def invoke(*args: str):
        return subprocess.run(
            [sys.executable, "-m", "powersums", *args],
            capture_output=True,
            text=True,
            env=_subprocess_env(),
        )

    return invoke


@pytest.fixture
def redirected():
    """Run ``python *args`` with its streams redirected by the shell, as in ``>&-``; returns CompletedProcess.

    ``unbuffered`` sets PYTHONUNBUFFERED to 1 (True) or unsets it (False);
    by default the child inherits it.
    """

    def invoke(redirect: str, *args: str, unbuffered: bool | None = None):
        env = _subprocess_env()
        if unbuffered is not None:
            env.pop("PYTHONUNBUFFERED", None)
            if unbuffered:
                env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run(
            ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )

    return invoke


@pytest.fixture
def popen():
    """Start ``python *args`` with piped stdout and stderr; returns the Popen."""
    started = []

    def start(*args: str):
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_subprocess_env(),
        )
        started.append(proc)
        return proc

    yield start
    for proc in started:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        for stream in (proc.stdout, proc.stderr):
            stream.close()


@pytest.fixture
def cli_popen(popen):
    """Start the CLI as a subprocess with piped stdout and stderr; returns the Popen."""
    return lambda *args: popen("-m", "powersums", *args)
