"""The suite registry: the CLI's ``verify`` runs every suite from it."""

import json

import pytest

from powersums.cli import SUITES

SMALL = {"max": 4, "max_m": 2, "max_n": 3}

# The labels `verify` prints for each suite at the SMALL bounds.
LABELS = {
    "pascal": [f"pascal m={m}" for m in (2, 3, 4)],
    "faulhaber": [f"faulhaber m={m}" for m in (1, 2, 3, 4)],
    "odd-bernoulli": [f"odd-bernoulli m={m}" for m in (1, 2, 3, 4)],
    "telescoping": [f"telescoping m={m} N={n}" for m in (1, 2) for n in (1, 2, 3)],
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_verify_prints_the_registry_labels(cli, name):
    suite = SUITES[name]
    bounds = {key: SMALL[key] for key in suite.defaults}
    labels = LABELS[name]
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
    first = tuple(suite.first for _ in suite.defaults)
    assert next(suite.sweep(*first)) == (first, True)
