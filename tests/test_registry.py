"""The suite registry: the CLI's ``verify`` and the sweep script both run from it."""

import json

import pytest

from powersums.faulhaber import SUITES

SMALL = {"max": 4, "max_m": 2, "max_n": 3}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_verify_prints_the_registry_labels(cli, name):
    suite = SUITES[name]
    bounds = {key: SMALL[key] for key in suite.defaults}
    labels = [label for label, _ in suite.sweep(*bounds.values())]
    options = [arg for key, value in bounds.items() for arg in ("--" + key.replace("_", "-"), str(value))]

    code, out, err = cli("verify", name, *options)
    assert (code, err) == (0, "")
    assert out.splitlines() == [f"PASS {label}" for label in labels] + [
        f"{name}: {len(labels)}/{len(labels)} passed"
    ]

    payload = json.loads(cli("verify", name, "--format", "json")[1])
    assert [key for key in payload if key in SMALL] == list(suite.defaults)
    assert {key: payload[key] for key in suite.defaults} == suite.defaults


@pytest.mark.parametrize("name", sorted(SUITES))
def test_sweeps_start_at_the_first_index(name):
    suite = SUITES[name]
    label, ok = next(suite.sweep(*(suite.first for _ in suite.defaults)))
    assert ok
    assert label.startswith(f"{name} m={suite.first}")


def test_sweep_script_runs_every_suite(script_subprocess):
    proc = script_subprocess(
        "run_verification.py", "--max", "3", "--max-m", "2", "--max-n", "3", "--table-max", "12"
    )
    lines = proc.stdout.splitlines()
    assert (proc.returncode, proc.stderr) == (0, "")
    assert [line.split()[:3] for line in lines[:-1]] == [
        ["bernoulli", "ok", "13"],
        ["pascal", "ok", "2"],
        ["faulhaber", "ok", "3"],
        ["odd-bernoulli", "ok", "3"],
        ["telescoping", "ok", "6"],
    ]
    assert lines[-1] == "all suites passed"


@pytest.mark.parametrize(
    "option, value",
    [("--max", "1"), ("--max", "0"), ("--max-m", "0"), ("--max-n", "0"), ("--table-max", "0"), ("--table-max", "-1")],
)
def test_sweep_script_refuses_bounds_that_sweep_nothing(script_subprocess, option, value):
    proc = script_subprocess("run_verification.py", option, value)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"{option} must be at least" in proc.stderr
