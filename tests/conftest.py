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
            timeout=300,
        )

    return invoke


@pytest.fixture
def redirected():
    """Run ``python *args`` with its streams redirected by the shell, as in ``>&-``; returns CompletedProcess.

    ``unbuffered`` sets PYTHONUNBUFFERED to 1 (True) or unsets it (False).
    """

    def invoke(redirect: str, *args: str, unbuffered: bool):
        env = _subprocess_env()
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
    """Start ``python *args`` with piped stdout and, unless ``stderr`` names another file, stderr; returns the Popen."""
    started = []

    def start(*args: str, stderr=subprocess.PIPE):
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdout=subprocess.PIPE,
            stderr=stderr,
            env=_subprocess_env(),
        )
        started.append(proc)
        return proc

    yield start
    for proc in started:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        for stream in filter(None, (proc.stdout, proc.stderr)):
            stream.close()
