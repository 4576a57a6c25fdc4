"""Span tracing of the powersums public API, installed from outside the package.

``install`` replaces each public function of the four layers (``cli``,
``faulhaber``, ``polynomial``, ``exact_arith``) -- and the public methods
of ``BernoulliTable`` and ``Polynomial`` -- with a timing wrapper, in
every ``powersums`` module namespace that bound the original.  Nothing
under ``src/`` is edited.  Each call becomes one span
``(name, start, end, parent, request)`` kept in memory; ``parent`` is the
index of the enclosing span, or -1 for a root.  The two scalar helpers of
``exact_arith`` run millions of times per ladder request, so they are
counted, not timed: their time stays in the caller's self time.

``summarize`` turns one batch of spans into the per-layer metrics the
benchmark reports.  A span's self time is its duration minus the
durations of its direct children; spans nest properly in one thread, so
the self times of a request sum to the duration of its root span.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from fractions import Fraction
from time import perf_counter

PACKAGE = "powersums"
LAYERS = ("cli", "faulhaber", "polynomial", "exact_arith")
COUNT_ONLY = frozenset({"exact_arith.as_rational", "exact_arith.binomial"})
METHODS = {
    "faulhaber.BernoulliTable": ("get",),
    "polynomial.Polynomial": (
        "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__str__", "coefficient",
    ),
}
BERNOULLI_GET = "faulhaber.BernoulliTable.get"


def coeff_bits(value) -> int:
    """Largest numerator or denominator bit length inside a faulhaber result."""
    if isinstance(value, (int, Fraction)):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    if isinstance(value, (list, tuple)):
        return max((coeff_bits(v) for v in value), default=0)
    parts = [getattr(value, attr) for attr in ("coeffs", "p", "lhs", "rhs") if hasattr(value, attr)]
    return max((coeff_bits(p) for p in parts), default=0)


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counts: Counter = Counter()
        self.max_coeff_bits = 0
        self.request = -1
        self._stack: list[int] = []

    def counted(self, name: str, fn):
        counts = self.counts
        calls = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    def spanned(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        cached = hasattr(fn, "cache_info")
        grows = name == BERNOULLI_GET
        sized = name.startswith("faulhaber.") and not grows

        def wrapper(*args, **kwargs):
            if cached:
                misses = fn.cache_info().misses
            if grows:
                before = len(args[0])
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, stack[-1] if stack else -1, self.request)
            miss = not cached or fn.cache_info().misses != misses
            if cached:
                counts[f"{name}.hits" if not miss else f"{name}.misses"] += 1
            if grows:
                counts["faulhaber.bernoulli.entries_grown"] += len(args[0]) - before
            if sized and miss:
                self.max_coeff_bits = max(self.max_coeff_bits, coeff_bits(result))
            return result

        return wrapper

    def wrap(self, name: str, fn):
        return self.counted(name, fn) if name in COUNT_ONLY else self.spanned(name, fn)


def install(tracer: Tracer):
    """Wrap the public API in every loaded powersums module; returns an undo callable."""
    layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    wrappers: dict[int, tuple[object, object]] = {}
    undo: list[tuple[object, str, object]] = []
    for layer, module in layers.items():
        for attr, obj in list(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                for method in METHODS.get(f"{layer}.{attr}", ()):
                    original = obj.__dict__.get(method)
                    if original is not None:
                        setattr(obj, method, tracer.wrap(f"{layer}.{attr}.{method}", original))
                        undo.append((obj, method, original))
            elif callable(obj):
                wrappers[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    namespaces = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for module in namespaces:
        for attr, obj in list(vars(module).items()):
            original, wrapper = wrappers.get(id(obj), (None, None))
            if original is obj:
                setattr(module, attr, wrapper)
                undo.append((module, attr, obj))

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall


def self_times(spans) -> list[float]:
    """Per-span duration minus the time covered by its direct children."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, request in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (name, start, end, parent, request) in enumerate(spans)]


def inclusive_time(spans, name: str) -> float:
    """Total duration of ``name`` spans, not counting those nested in another ``name`` span."""
    total = 0.0
    for name_, start, end, parent, request in spans:
        if name_ != name:
            continue
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def summarize(spans, counts, max_coeff_bits: int) -> dict[str, float]:
    """Per-layer metrics of one traced batch of requests."""
    counts = Counter(counts)
    own = self_times(spans)
    by_name: Counter = Counter()
    calls: Counter = Counter()
    for (name, *_), t in zip(spans, own):
        by_name[name] += t
        calls[name] += 1
    by_layer: Counter = Counter()
    for name, t in by_name.items():
        by_layer[name.split(".", 1)[0]] += t
    total = sum(own)

    def share(t: float) -> float:
        return t / total if total > 0 else 0.0

    def hit_ratio(name: str) -> float:
        hits, misses = counts[f"{name}.hits"], counts[f"{name}.misses"]
        return hits / (hits + misses) if hits + misses else 0.0

    metrics = {
        "traced_s": total,
        "faulhaber.BernoulliTable.get.self_s": by_name[BERNOULLI_GET],
        "faulhaber.BernoulliTable.get.self_share": share(by_name[BERNOULLI_GET]),
        "faulhaber.bernoulli.entries_grown": counts["faulhaber.bernoulli.entries_grown"],
        "exact_arith.binomial.calls": counts["exact_arith.binomial.calls"],
        "exact_arith.as_rational.calls": counts["exact_arith.as_rational.calls"],
        "polynomial.t_to_n.s": inclusive_time(spans, "polynomial.t_to_n"),
        "polynomial.poly_scale.s": inclusive_time(spans, "polynomial.poly_scale"),
        "polynomial.poly_eval.s": inclusive_time(spans, "polynomial.poly_eval"),
        "faulhaber.power_sum_tform.self_s": by_name["faulhaber.power_sum_tform"],
        "faulhaber.power_sum_tform.calls": calls["faulhaber.power_sum_tform"],
        "faulhaber.power_sum_tform.hit_ratio": hit_ratio("faulhaber.power_sum_tform"),
        "faulhaber.power_sum_poly_n.self_s": by_name["faulhaber.power_sum_poly_n"],
        "faulhaber.power_sum_poly_n.hit_ratio": hit_ratio("faulhaber.power_sum_poly_n"),
        "faulhaber.verify_pascal_identity.self_s": by_name["faulhaber.verify_pascal_identity"],
        "faulhaber.verify_faulhaber.self_s": by_name["faulhaber.verify_faulhaber"],
        "faulhaber.infer_odd_bernoulli.self_s": by_name["faulhaber.infer_odd_bernoulli"],
        "faulhaber.power_sum_direct.s": inclusive_time(spans, "faulhaber.power_sum_direct"),
        "faulhaber.telescoping_check.self_s": by_name["faulhaber.telescoping_check"],
        "faulhaber.max_coeff_bits": max_coeff_bits,
        "cli.run.self_s": by_name["cli.run"],
        "cli.build_parser.s": inclusive_time(spans, "cli.build_parser"),
    }
    for layer in LAYERS[:3]:
        metrics[f"{layer}.self_s"] = by_layer[layer]
        metrics[f"{layer}.self_share"] = share(by_layer[layer])
    return metrics
