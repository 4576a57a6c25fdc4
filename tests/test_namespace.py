"""The lazy package namespace: each public name resolves in the module that defines it."""

import importlib

import pytest

import powersums
from powersums import faulhaber

HOMES = {
    "exact_arith": ("Rational", "as_rational"),
    "faulhaber": (
        "BernoulliTable", "FaulhaberForm", "VerificationReport", "bernoulli", "check_odd_bernoulli",
        "faulhaber_coefficients", "infer_odd_bernoulli", "power_sum_direct", "power_sum_poly_n", "power_sum_tform", "telescoping_check",
        "verify_faulhaber", "verify_pascal_identity",
    ),
    "polynomial": ("Polynomial", "monomial", "poly_combination", "poly_eval", "poly_from_numerators", "poly_scale",
                   "t_to_n"),
}


def test_every_public_name_is_its_home_modules_object():
    assert sorted(powersums.__all__) == sorted(name for names in HOMES.values() for name in names)
    star = {}
    exec("from powersums import *", star)
    assert star.keys() - {"__builtins__"} == set(powersums.__all__)
    for home, names in HOMES.items():
        module = importlib.import_module(f"powersums.{home}")
        for name in names:
            assert getattr(powersums, name) is getattr(module, name), name
            assert star[name] is getattr(module, name), name


def test_a_name_follows_its_home_modules_binding(monkeypatch):
    def sentinel(k):
        return k

    monkeypatch.setattr(faulhaber, "bernoulli", sentinel)
    assert powersums.bernoulli is sentinel


def test_dir_covers_all():
    assert set(powersums.__all__) <= set(dir(powersums))


def test_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'powersums' has no attribute 'no_such_name'"):
        powersums.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from powersums import no_such_name", {})


def test_bare_import_loads_no_submodule(popen):
    # -S keeps site-packages .pth files from importing anything first.
    proc = popen("-S", "-c", "import sys, powersums; print(*sorted(m for m in sys.modules if 'powersums' in m))")
    out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out, err) == (0, b"powersums\n", b"")
