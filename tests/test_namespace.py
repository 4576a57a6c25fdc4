"""The lazy package namespace: each public name resolves in the module that defines it."""

import importlib

import pytest

import powersums
from powersums import faulhaber
from powersums.polynomial import Polynomial

HOMES = {
    "exact_arith": ("Rational", "as_rational"),
    "faulhaber": (
        "BernoulliTable", "FaulhaberForm", "VerificationReport", "bernoulli", "check_odd_bernoulli",
        "infer_odd_bernoulli", "power_sum_direct", "power_sum_poly_n", "power_sum_tform", "telescoping_check",
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


# Thread A imports powersums.polynomial and pauses on the first line after
# ``class Polynomial`` is bound, before the helpers its constructor calls;
# thread B then reads powersums.Polynomial and builds one.  B must wait
# for A's import to finish, not build from the half-built module.
FIRST_USE_DURING_IMPORT = """
import sys, threading
import powersums

bound, release = threading.Event(), threading.Event()


def pause_once_bound(frame, event, arg):
    if event == "line" and "Polynomial" in frame.f_globals and not bound.is_set():
        bound.set()
        release.wait(60)
    return pause_once_bound


def tracer(frame, event, arg):
    if frame.f_code.co_name == "<module>" and frame.f_globals["__name__"] == "powersums.polynomial":
        return pause_once_bound
    return None


def load():
    sys.settrace(tracer)
    import powersums.polynomial


built, raised = [], []


def use():
    try:
        built.append(powersums.Polynomial((1, 2), "n"))
    except Exception as exc:
        raised.append(repr(exc))


a, b = threading.Thread(target=load), threading.Thread(target=use)
a.start()
assert bound.wait(60)
b.start()
b.join(3)
waited = b.is_alive()
release.set()
a.join(60)
b.join(60)
print(waited, built, raised)
"""


def test_a_name_read_during_its_modules_import_waits_for_it(popen):
    proc = popen("-c", FIRST_USE_DURING_IMPORT)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    assert out.decode() == f"True {[Polynomial((1, 2), 'n')]} []\n"
