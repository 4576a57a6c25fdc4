"""The project configuration in pyproject.toml: a failing test is reported, and every source parses at the Python floor."""

import ast
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_always_fails(x):
    assert x != x
"""


def test_a_failing_property_reports_its_falsifying_example(tmp_path):
    # Reporting a hypothesis failure imports modules that warn on import;
    # under the config's warnings-as-errors filters that must not turn the
    # failure into an INTERNALERROR (exit 3) that hides the example.
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output


def test_every_source_parses_at_the_required_python_floor():
    # A regex, not tomllib, which the oldest supported Python lacks.
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', PYPROJECT.read_text(), re.MULTILINE)
    assert floor, "requires-python is not a plain lower bound"
    version = (int(floor[1]), int(floor[2]))
    sources = [path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py")]
    assert sources
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=version)
