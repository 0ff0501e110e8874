"""Span recorder and the wrappers it installs around merminlab's entry points.

The wrappers live in the benchmark, not in the package.  Installing them
rebinds each wrapped function in every merminlab module that imported it
(``bell.to_dense``, ``cli.to_dense``, ``spectra.mermin_operator`` ...), so
calls the package makes to itself are recorded too; uninstalling restores
the originals.  Spans stay in memory with their parent ids until the run ends.

A layer's self time is its span's duration minus the time its child spans
cover.  Work counts are taken after a span closes and the time spent taking
them is charged to no layer.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy

import merminlab
from merminlab import bell, cli, optimize, pauli, settings, spectra

_clock = time.perf_counter
_MODULES = (merminlab, pauli, settings, bell, spectra, optimize, cli)

#: layer name -> the work counts its spans carry, in report order
LAYERS: dict[str, tuple[str, ...]] = {
    "pauli.multiply": ("pairs", "terms_out"),
    "pauli.add": (),
    "pauli.max_coeff_diff": ("keys",),
    "pauli.to_dense": ("terms_in", "bytes_computed"),
    "pauli.apply_operator": (),
    "numpy.eigvalsh": ("dim",),
    "bell.mermin_operator": ("terms_out",),
    "bell.mermin_square_expansion": (),
    "bell.reduction_check": (),
    "bell.planar_square_diagonal": (),
    "spectra.maximal_eigenvector_check": (),
    "spectra.lhv_max": ("assignments",),
    "spectra.violation_table": (),
    "optimize.optimize_angles": ("iterations", "restarts", "restarts_at_ceiling"),
    "optimize.objective_eval": (),
    "settings.load_settings": (),
    "cli.main": (),
}

class Span:
    __slots__ = ("id", "parent", "check", "name", "start", "end", "stop", "counts", "leaves")

    def __init__(self, span_id: int, parent: int | None, check: int | None, name: str):
        self.id = span_id
        self.parent = parent
        self.check = check
        self.name = name
        self.counts: dict[str, int] = {}
        # leaf layer -> [calls, seconds] of hot calls made directly under this span
        self.leaves: dict[str, list] = {}

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "check": self.check,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
            "leaves": {k: {"calls": c, "seconds": s} for k, (c, s) in self.leaves.items()},
        }


class Recorder:
    """Spans of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def enter(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            len(self.spans),
            parent.id if parent else None,
            parent.check if parent else len(self.spans),
            name,
        )
        self.spans.append(span)
        self._stack.append(span)
        span.start = _clock()
        return span

    def leave(self, span: Span) -> None:
        span.end = span.stop = _clock()
        self._stack.pop()

    def take(self) -> list[Span]:
        """Hand over the closed spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def add_leaf(self, name: str, seconds: float) -> None:
        entry = self._stack[-1].leaves.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += seconds



def write_spans(spans: list[Span], path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.to_json()) + "\n")


# ---- wrappers -------------------------------------------------------------


def _span_wrapper(rec: Recorder, name: str, fn, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = rec.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.leave(span)
        if count is not None:
            span.counts = count(result, *args, **kwargs)
            span.stop = _clock()
        return result

    return wrapper


def _leaf_wrapper(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.add_leaf(name, _clock() - start)

    return wrapper


def _product_counts(result, a, b):
    return {"pairs": len(a.terms) * len(b.terms), "terms_out": len(result.terms)}


def _two_product_counts(result, a, b):
    return {"pairs": 2 * len(a.terms) * len(b.terms), "terms_out": len(result.terms)}


def _optimize_counts(result, config):
    n = config.n
    ceiling = 2.0 ** (2 * (n - 1)) if config.objective == "planar_spectral_max" else 2.0 ** (n - 1)
    return {
        "iterations": sum(o.iterations for o in result.outcomes),
        "restarts": len(result.outcomes),
        "restarts_at_ceiling": sum(1 for o in result.outcomes if ceiling - o.value <= 1e-6),
    }


# (owner, attribute, layer, counts) for every function wrapped with a span
_FUNCTIONS = (
    (pauli, "multiply", "pauli.multiply", _product_counts),
    (pauli, "commutator", "pauli.multiply", _two_product_counts),
    (pauli, "anticommutator", "pauli.multiply", _two_product_counts),
    (
        pauli, "to_dense", "pauli.to_dense",
        lambda r, op, *a, **k: {"terms_in": len(op.terms), "bytes_computed": 16 * 4**op.n},
    ),
    (pauli, "apply_operator", "pauli.apply_operator", None),
    (numpy.linalg, "eigvalsh", "numpy.eigvalsh", lambda r, m, *a, **k: {"dim": m.shape[-1]}),
    (bell, "mermin_operator", "bell.mermin_operator", lambda r, *a, **k: {"terms_out": len(r.terms)}),
    (bell, "mermin_square_expansion", "bell.mermin_square_expansion", None),
    (bell, "reduction_check", "bell.reduction_check", None),
    (bell, "planar_square_diagonal", "bell.planar_square_diagonal", None),
    (spectra, "maximal_eigenvector_check", "spectra.maximal_eigenvector_check", None),
    (spectra, "lhv_max", "spectra.lhv_max", lambda r, n, *a, **k: {"assignments": 4**n}),
    (spectra, "violation_table", "spectra.violation_table", None),
    (optimize, "optimize_angles", "optimize.optimize_angles", _optimize_counts),
    (settings, "load_settings", "settings.load_settings", None),
    (cli, "main", "cli.main", None),
)


class Tracer:
    """Installs the wrappers while a traced check runs, and removes them after."""

    def __init__(self, rec: Recorder):
        self._saved: list[tuple[object, str, object]] = []
        self._patches: list[tuple[object, str, object]] = []
        for owner, attr, layer, count in _FUNCTIONS:
            original = getattr(owner, attr)
            wrapped = _span_wrapper(rec, layer, original, count)
            self._patch_everywhere(owner, attr, original, wrapped)
        original = optimize.objective_eval
        self._patch_everywhere(
            optimize, "objective_eval", original,
            _leaf_wrapper(rec, "optimize.objective_eval", original),
        )
        self._patch_methods(rec)

    def _patch_everywhere(self, owner, attr, original, wrapped) -> None:
        self._patches.append((owner, attr, wrapped))
        for module in _MODULES:
            for name, value in vars(module).items():
                if value is original and (module, name) != (owner, attr):
                    self._patches.append((module, name, wrapped))

    def _patch_methods(self, rec: Recorder) -> None:
        op = pauli.PauliOperator
        plain_mul = op.__mul__
        mul = _span_wrapper(rec, "pauli.multiply", plain_mul, _product_counts)

        def mul_dispatch(left, right):
            # operator * scalar is a scale, not a product
            if isinstance(right, op):
                return mul(left, right)
            return plain_mul(left, right)

        self._patches.append((op, "__mul__", mul_dispatch))
        self._patches.append((op, "__add__", _span_wrapper(rec, "pauli.add", op.__add__)))
        self._patches.append(
            (
                op, "max_coeff_diff",
                _span_wrapper(
                    rec, "pauli.max_coeff_diff", op.max_coeff_diff,
                    lambda r, a, b: {"keys": len(a.terms.keys() | b.terms.keys())},
                ),
            )
        )

    def __enter__(self) -> "Tracer":
        self._saved = [(obj, name, getattr(obj, name)) for obj, name, _ in self._patches]
        for obj, name, wrapped in self._patches:
            setattr(obj, name, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for obj, name, original in reversed(self._saved):
            setattr(obj, name, original)


# ---- per-layer totals -----------------------------------------------------


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """calls, self_s and summed work counts for every layer in LAYERS."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.stop - span.start
    totals = {
        layer: {"calls": 0, "self_s": 0.0, **{c: 0 for c in counts}}
        for layer, counts in LAYERS.items()
    }
    for span in spans:
        leaf_s = 0.0
        for leaf, (calls, seconds) in span.leaves.items():
            totals[leaf]["calls"] += calls
            totals[leaf]["self_s"] += seconds
            leaf_s += seconds
        if span.name not in totals:
            continue
        layer = totals[span.name]
        layer["calls"] += 1
        layer["self_s"] += span.end - span.start - covered[span.id] - leaf_s
        for key, value in span.counts.items():
            layer[key] += value
    return totals


def work_counts(totals: dict[str, dict[str, float]]) -> dict[str, int]:
    """Everything in the totals except times: these must repeat exactly."""
    return {
        f"{layer}.{key}": value
        for layer, values in totals.items()
        for key, value in values.items()
        if key != "self_s"
    }
