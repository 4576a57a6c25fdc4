"""The suite registry: the CLI's ``verify`` runs every suite from it."""

import pytest

from powersums.cli import SUITES


@pytest.mark.parametrize("name", sorted(SUITES))
def test_verify_prints_the_registry_labels(cli, name):
    # One line per instance of the registry's own sweep, in its order: the
    # verdict, the suite name and that instance's indices.  The label text
    # itself is pinned once, in test_cli.SMALL_SWEEPS.
    suite = SUITES[name]
    sweep = list(suite.sweep(*(3 for _ in suite.defaults)))
    options = [arg for key in suite.defaults for arg in ("--" + key.replace("_", "-"), "3")]

    code, out, err = cli("verify", name, *options)
    assert (code, err) == (0, "")
    *lines, summary = out.splitlines()
    assert [
        (verdict, suite_name, tuple(int(field.split("=")[1]) for field in fields))
        for verdict, suite_name, *fields in map(str.split, lines)
    ] == [("PASS" if holds else "FAIL", name, indices) for indices, holds in sweep]
    assert summary == f"{name}: {len(sweep)}/{len(sweep)} passed"


@pytest.mark.parametrize("name", sorted(SUITES))
def test_sweeps_start_at_the_first_index(name):
    suite = SUITES[name]
    first = tuple(suite.first for _ in suite.defaults)
    assert next(suite.sweep(*first)) == (first, True)
