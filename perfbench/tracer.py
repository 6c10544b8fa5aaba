"""Span tracing of pivotmerge's public functions, installed from outside the package.

`Tracer.install` wraps every public function of the traced layers and
rebinds it at every module attribute that refers to it, so a caller that
imported the function by name (`pivotmerge.pivot.thin_svd`) is traced as
well as one that looks it up on its home module. Each call records a span:
name, start, end, the span that called it on the same thread, the thread,
and the shapes of its array inputs. Spans stay in memory until the run
writes them out; `layer_metrics` turns them into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import itertools
import math
import os
import sys
import threading
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# pivotmerge's modules, one per layer; rng is an internal helper of synth and operators.
LAYERS = ("cli", "tensorstore", "scores", "pivot", "linalg", "operators", "analysis", "synth")
MIB = float(1 << 20)

# The stages that run inside `pivot_merge`; their summed spans over the
# `pivot_merge` span give `pivot.layer_overlap`.
PIVOT_STAGES = ("pivot.task_vectors", "pivot.joint_decompose", "pivot.decouple",
                "pivot.filter_residuals", "pivot.merge_layer", "pivot.reconstruct")
# Per-layer metrics that cover the traced set-up as well as the invocation.
SETUP_SPANS = ("synth.generate", "tensorstore.save_checkpoint")


def svd_gflop(m: int, n: int) -> float:
    """Model flop count of a thin SVD (U1, S, V) of an m-by-n matrix, in GFLOP.

    R-SVD count from Golub & Van Loan, Matrix Computations, Table 5.4.1:
    6 a b^2 + 20 b^3 with a = max(m, n), b = min(m, n). It is computed from
    the shape, not measured.
    """
    a, b = max(m, n), min(m, n)
    return (6.0 * a * b * b + 20.0 * b ** 3) / 1e9


def _ties_sorted_entries(bound: dict, result) -> dict:
    # Mirrors operators.ties: inputs are argsorted only when trimming keeps
    # fewer than all entries.
    mats = bound["mats"]
    entries = int(np.size(mats[0]))
    keep = max(1, int(math.floor(bound["trim_fraction"] * entries + 1e-9)))
    return {"sorted_entries": len(mats) * entries if keep < entries else 0}


def _decouple_ranks(bound: dict, result) -> dict:
    k, w = np.shape(bound["coeffs"][0])
    return {"effective_rank": result.effective_rank, "rank_limit": min(k, w)}


def _fingerprint(bound: dict, result) -> dict:
    mat = np.ascontiguousarray(bound["mat"], dtype=np.float64)
    digest = hashlib.sha1(repr(mat.shape).encode() + mat.tobytes()).hexdigest()
    return {"input": digest}


# Counters recorded per call, from the bound arguments and the result.
OBSERVERS = {
    "tensorstore.load_checkpoint": lambda b, r: {"mib": os.path.getsize(b["path"]) / MIB},
    "tensorstore.save_checkpoint": lambda b, r: {"mib": os.path.getsize(b["path"]) / MIB},
    "pivot.task_vectors": lambda b, r: {"mib": sum(d.nbytes for layer in r for d in layer) / MIB},
    "pivot.decouple": _decouple_ranks,
    "linalg.thin_svd": lambda b, r: {"gflop": svd_gflop(*np.shape(b["mat"]))},
    "linalg.orthonormal_basis": _fingerprint,
    "operators.ties": _ties_sorted_entries,
}
# Functions whose peak traced allocation is recorded (tracemalloc runs only inside them).
PEAK_MEMORY = ("tensorstore.load_checkpoint",)


def _shape_of(value):
    if isinstance(value, np.ndarray):
        return list(value.shape)
    if isinstance(value, (list, tuple)) and value and all(
            isinstance(v, np.ndarray) for v in value):
        return [list(v.shape) for v in value]
    if hasattr(value, "layer_shapes"):
        return [list(s) for s in value.layer_shapes()]
    return None


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: str
    start: float
    end: float = 0.0
    shapes: list = field(default_factory=list)
    error: str | None = None
    counters: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped functions; `install`/`uninstall` patch pivotmerge."""

    def __init__(self):
        self.spans: list[Span] = []
        self.errors: dict[str, int] = {layer: 0 for layer in LAYERS}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._escaped: dict[int, tuple[BaseException, set]] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self, name: str, shapes: list) -> Span:
        stack = self._stack()
        span = Span(id=next(self._ids), name=name,
                    parent=stack[-1].id if stack else None,
                    thread=threading.current_thread().name, start=0.0, shapes=shapes)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _count_escape(self, exc: BaseException, layer: str) -> None:
        # One exception escaping nested spans of one layer counts once for it.
        with self._lock:
            _, layers = self._escaped.setdefault(id(exc), (exc, set()))
            if layer not in layers:
                layers.add(layer)
                self.errors[layer] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens, around its set-up or an invocation."""
        span = self._open(name, [])
        try:
            yield span
        finally:
            self._close(span)

    def wrap(self, name: str, fn):
        """Return a traced version of `fn`, recorded under `name` ("<layer>.<function>")."""
        layer = name.split(".", 1)[0]
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observe else None
        peak = name in PEAK_MEMORY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            shapes = [_shape_of(v) for v in (*args, *kwargs.values())]
            started_tracemalloc = peak and not tracemalloc.is_tracing()
            if started_tracemalloc:
                tracemalloc.start()
            elif peak:
                tracemalloc.reset_peak()
            span = self._open(name, shapes)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                self._count_escape(exc, layer)
                raise
            finally:
                self._close(span)
                if peak:
                    span.counters["peak_mib"] = tracemalloc.get_traced_memory()[1] / MIB
                if started_tracemalloc:
                    tracemalloc.stop()
            if observe is not None:
                span.counters.update(observe(signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer wherever pivotmerge binds them."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"pivotmerge.{layer}")
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "pivotmerge" and not mod_name.startswith("pivotmerge."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.seconds - _covered(children[s.id]) for s in spans}


def layer_metrics(spans: list[Span], window: Span, errors: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.

    Spans that start inside `window` (the invocation) count, plus, for
    SETUP_SPANS, the spans of the traced set-up. Times sum span durations
    across threads; `cli.self_s` is the self time of the cli spans.
    """
    inside = [s for s in spans if window.start <= s.start <= window.end and s is not window]
    by_name = defaultdict(list)
    for s in inside:
        if s.name not in SETUP_SPANS:
            by_name[s.name].append(s)
    for s in spans:
        if s.name in SETUP_SPANS:
            by_name[s.name].append(s)

    def total(name):
        return sum(s.seconds for s in by_name[name])

    def calls(name):
        return float(len(by_name[name]))

    def counter(name, key):
        return float(sum(s.counters.get(key, 0) for s in by_name[name]))

    def ratio(num, den):
        return num / den if den else 0.0

    parents = {s.id: s for s in spans}

    def has_ancestor(span, name):
        while span.parent is not None:
            span = parents[span.parent]
            if span.name == name:
                return True
        return False

    selfs = self_seconds(spans)
    merges = by_name["pivot.pivot_merge"]
    stage_seconds = sum(s.seconds for stage in PIVOT_STAGES for s in by_name[stage]
                        if any(p.start <= s.start <= p.end for p in merges))
    waits = []
    for p in merges:
        vectors = [s for s in by_name["pivot.task_vectors"] if s.parent == p.id]
        firsts = [s.start for s in by_name["pivot.joint_decompose"] if p.start <= s.start <= p.end]
        if vectors:
            waits += [start - vectors[0].end for start in firsts]
    bases = by_name["linalg.orthonormal_basis"]

    metrics = {
        "cli.self_s": sum(selfs[s.id] for s in inside if s.name.startswith("cli.")),
        "tensorstore.load_checkpoint.s": total("tensorstore.load_checkpoint"),
        "tensorstore.load_checkpoint.calls": calls("tensorstore.load_checkpoint"),
        "tensorstore.load_checkpoint.mb": counter("tensorstore.load_checkpoint", "mib"),
        "tensorstore.load_checkpoint.peak_mb": max(
            (s.counters["peak_mib"] for s in by_name["tensorstore.load_checkpoint"]), default=0.0),
        "tensorstore.save_checkpoint.s": total("tensorstore.save_checkpoint"),
        "tensorstore.save_checkpoint.mb": counter("tensorstore.save_checkpoint", "mib"),
        "scores.read_scores.s": total("scores.read_scores"),
        "pivot.pivot_merge.s": total("pivot.pivot_merge"),
        "pivot.task_vectors.s": total("pivot.task_vectors"),
        "pivot.task_vectors.mb": counter("pivot.task_vectors", "mib"),
        "pivot.joint_decompose.s": total("pivot.joint_decompose"),
        "pivot.decouple.s": total("pivot.decouple"),
        "pivot.decouple.svd_calls": float(sum(
            has_ancestor(s, "pivot.decouple") for s in by_name["linalg.thin_svd"])),
        "pivot.decouple.rank_ratio": ratio(counter("pivot.decouple", "effective_rank"),
                                           counter("pivot.decouple", "rank_limit")),
        "pivot.filter_residuals.s": total("pivot.filter_residuals"),
        "pivot.merge_layer.s": total("pivot.merge_layer"),
        "pivot.reconstruct.s": total("pivot.reconstruct"),
        "pivot.layer_overlap": ratio(stage_seconds, total("pivot.pivot_merge")),
        "pivot.layer_wait_s": ratio(sum(waits), len(waits)),
        "linalg.thin_svd.calls": calls("linalg.thin_svd"),
        "linalg.thin_svd.s": total("linalg.thin_svd"),
        "linalg.thin_svd.gflop": counter("linalg.thin_svd", "gflop"),
        "linalg.orthonormal_basis.calls": calls("linalg.orthonormal_basis"),
        "linalg.orthonormal_basis.distinct_ratio": ratio(
            len({s.counters["input"] for s in bases}), len(bases)),
        "linalg.principal_angles.s": total("linalg.principal_angles"),
        "operators.merge_checkpoint_deltas.s": total("operators.merge_checkpoint_deltas"),
        "operators.ties.s": total("operators.ties"),
        "operators.ties.calls": calls("operators.ties"),
        "operators.ties.sorted_entries": counter("operators.ties", "sorted_entries"),
        "operators.dare.s": total("operators.dare"),
        "operators.dare.calls": calls("operators.dare"),
        "analysis.collect_residuals.s": total("analysis.collect_residuals"),
        "analysis.collect_coefficients.s": total("analysis.collect_coefficients"),
        "analysis.residual_similarity.s": total("analysis.residual_similarity"),
        "analysis.pairwise_principal_angles.s": total("analysis.pairwise_principal_angles"),
        "synth.generate.s": total("synth.generate"),
    }
    metrics.update({f"{layer}.errors": float(count) for layer, count in errors.items()})
    return metrics
