"""Outside-in tracer: spans around the calls one ``tfconc`` module makes into
another, installed by rebinding names at their lookup sites.

Nothing under ``src/`` is edited.  Every public function bound in the
namespaces of ``tfconc.cli``, ``scaling``, ``decay``, ``operators`` and ``io``
is wrapped where it is looked up -- so ``tfconc.scaling.assemble``,
``tfconc.operators.rasterize`` and ``tfconc.io.write_csv`` are all traced --
plus ``contains`` on the region classes.  A span is named after the module
that defines the function (``operators.assemble``), whichever namespace it
was called through.

Spans live in memory.  ``scaling_experiment``'s pool is the only place the
program starts threads, so a span opened on another thread with nothing open
on that thread takes the innermost open span of the main thread (the one
that created the tracer) as its parent.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import os
import threading
import time

import numpy as np

_NAMESPACES = ("cli", "scaling", "decay", "operators", "io")
_REGION_CLASSES = ("Disc", "Rect", "Polygon", "Mask")


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float | None = None
    extra: dict = dataclasses.field(default_factory=dict)


class _ReadColumns(np.ndarray):
    """Eigenvector matrix that records which columns its callers index."""

    def __array_finalize__(self, obj):
        self._read = getattr(obj, "_read", None)

    def __getitem__(self, key):
        if self._read is not None:
            cols = key[1] if isinstance(key, tuple) and len(key) > 1 else slice(None)
            self._read.update(np.atleast_1d(np.arange(self.shape[1])[cols]).tolist())
        return np.asarray(self)[key]


def _after_assemble(span, args, result):
    active = int(np.count_nonzero(result.raster.mask.any(axis=1)))
    n = result.matrix.shape[0]
    span.extra["entry_updates"] = active * n * n
    return result


def _after_eigendecompose(span, args, result):
    vecs = getattr(result, "eigenfunctions", None)
    n = len(result.eigenvalues)
    span.extra["n3_sum"] = n**3
    if not (dataclasses.is_dataclass(result) and isinstance(vecs, np.ndarray)
            and vecs.ndim == 2):
        return result
    read = set()
    span.extra["vectors_computed"] = vecs.shape[1]
    span.extra["vectors_read"] = read
    tracked = vecs.view(_ReadColumns)
    tracked._read = read
    return dataclasses.replace(result, eigenfunctions=tracked)


def _after_rasterize(span, args, result):
    span.extra["cells"] = result.cell_count
    return result


def _after_contains(span, args, result):
    span.extra["points"] = int(np.size(result))
    return result


def _after_write(span, args, result):
    span.extra["bytes"] = os.path.getsize(args[0])
    return result


_AFTER = {
    "operators.assemble": _after_assemble,
    "operators.eigendecompose": _after_eigendecompose,
    "regions.rasterize": _after_rasterize,
    "regions.contains": _after_contains,
}


class Tracer:
    """Installs span wrappers; ``with tracer:`` traces one block of calls."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[Span] = []
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn):
        after = _AFTER.get(name)
        if after is None and name.startswith("io.write"):
            after = _after_write

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # slicing is atomic, unlike a length test followed by an index
            parent = (stack or self._main_stack)[-1:]
            span = Span(next(self._ids), name, parent[0].id if parent else None,
                        threading.get_ident(), time.perf_counter())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            return after(span, args, result) if after else result

        return traced

    def _patch(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def __enter__(self) -> "Tracer":
        for short in _NAMESPACES:
            module = importlib.import_module(f"tfconc.{short}")
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("tfconc.")):
                    continue
                self._patch(module, attr, f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}")
        regions = importlib.import_module("tfconc.regions")
        for cls_name in _REGION_CLASSES:
            cls = getattr(regions, cls_name, None)
            if cls is not None and "contains" in vars(cls):
                self._patch(cls, "contains", "regions.contains")
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, reach = 0.0, -np.inf
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def check_tree(spans: list[Span]) -> list[str]:
    """Problems with a span tree: open spans, orphans, children outside parents."""
    by_id = {s.id: s for s in spans}
    problems = []
    for s in spans:
        if s.end is None or s.end < s.start:
            problems.append(f"span {s.name} is not closed")
        elif s.parent is None:
            if s.name != "cli.main":
                problems.append(f"orphan span {s.name}")
        elif s.parent not in by_id:
            problems.append(f"span {s.name} has an unknown parent")
        else:
            p = by_id[s.parent]
            if s.start < p.start or s.end > p.end:
                problems.append(f"span {s.name} outlives its parent {p.name}")
    return problems


def layer_stats(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per-layer totals for one pass: calls, busy_s, self_s and the counts."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    by_id = {s.id: s for s in spans}
    stats: dict[str, dict[str, float]] = {}

    def bump(name, field, value):
        entry = stats.setdefault(name, {})
        entry[field] = entry.get(field, 0) + value

    for s in spans:
        busy = s.end - s.start
        kids = children.get(s.id, [])
        bump(s.name, "calls", 1)
        bump(s.name, "busy_s", busy)
        bump(s.name, "self_s", busy - _covered([(k.start, k.end) for k in kids]))
        bump(s.name, "child_busy_s", sum(k.end - k.start for k in kids))
        for key, value in s.extra.items():
            bump(s.name, key, len(value) if isinstance(value, set) else value)
        if s.name == "scaling.scaling_experiment":
            bump(s.name, "threads", len({k.thread for k in kids}))
        parent = by_id.get(s.parent)
        if s.name.startswith("io.write") and not (parent and parent.name.startswith("io.")):
            bump("io.write", "calls", 1)
            bump("io.write", "busy_s", busy)
            bump("io.write", "bytes", s.extra.get("bytes", 0))

    asm = stats.get("operators.assemble", {})
    if asm.get("entry_updates"):
        asm["ns_per_update"] = asm["busy_s"] * 1e9 / asm["entry_updates"]
    eig = stats.get("operators.eigendecompose", {})
    if eig.get("vectors_computed"):
        eig["vectors_read_ratio"] = eig.get("vectors_read", 0) / eig["vectors_computed"]
    sweep = stats.get("scaling.scaling_experiment", {})
    if sweep.get("busy_s"):
        sweep["concurrency"] = sweep["child_busy_s"] / sweep["busy_s"]
    return stats
