"""Spans recorded from outside the program, one per call into a panomerge layer.

`instrument` swaps each public callable listed in LAYERS for a wrapper that
opens a span around the call, in every loaded panomerge module that holds it,
and returns a function that puts the originals back. Spans live in memory and
are written out once, at the end of a run.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Public callables per layer module. A class name wraps its __post_init__,
# the validation every construction runs; "Class.method" wraps a classmethod.
LAYERS = {
    "synthgen": ["generate_scene"],
    "io": [
        "read_tensor", "write_tensor", "read_panoptic", "write_panoptic",
        "read_splats", "write_splats", "read_class_table", "write_class_table",
    ],
    "masks": ["SoftMaskSet", "PanopticMap", "PanopticMap.from_instances"],
    "qubo": ["build_qubo", "solve_anneal", "solve_exact"],
    "merging": ["merge_qubo", "merge_baseline"],
    "metrics": ["scene_pq", "dataset_pq"],
    "uplift": ["uplift_labels", "render_labels", "SplatWeightTable"],
    "keyframe": ["fps_select"],
}


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "scene")

    def __init__(self, sid, name, start, parent, scene):
        self.id, self.name, self.start = sid, name, start
        self.end, self.parent, self.scene = None, parent, scene

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


class Tracer:
    """In-memory span list. Times are perf_counter seconds, a clock that
    child processes on the same host share, so their spans nest in ours."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.scene = None

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.scene)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def adopt(self, records: list[dict], parent: Span) -> None:
        """Append spans recorded by a child process under `parent`."""
        offset = len(self.spans)
        for rec in records:
            span = Span(rec["id"] + offset, rec["name"], rec["start"],
                        parent.id if rec["parent"] is None else rec["parent"] + offset,
                        self.scene)
            span.end = rec["end"]
            self.spans.append(span)

    def dump(self, path, **extra) -> None:
        doc = dict(extra, self_times=self_times(self.spans),
                   spans=[s.to_json() for s in self.spans])
        with open(path, "w") as f:
            json.dump(doc, f)


def _traced(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        span = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(span)

    traced.__name__ = getattr(fn, "__name__", name)
    traced.__doc__ = fn.__doc__
    return traced


def instrument(tracer: Tracer):
    """Wrap every callable in LAYERS; return a function that unwraps them."""
    undo = []
    loaded = [m for n, m in list(sys.modules.items())
              if n == "panomerge" or n.startswith("panomerge.")]
    for layer, names in LAYERS.items():
        mod = importlib.import_module(f"panomerge.{layer}")
        for entry in names:
            name = f"{layer}.{entry}"
            cls_name, _, method = entry.partition(".")
            obj = getattr(mod, cls_name)
            if method:
                original = obj.__dict__[method]
                fn = original.__func__
                setattr(obj, method, classmethod(_traced(tracer, name, fn)))
                undo.append((obj, method, original))
            elif isinstance(obj, type):
                original = obj.__dict__["__post_init__"]
                setattr(obj, "__post_init__", _traced(tracer, name, original))
                undo.append((obj, "__post_init__", original))
            else:
                wrapper = _traced(tracer, name, obj)
                for holder in loaded:
                    if getattr(holder, entry, None) is obj:
                        setattr(holder, entry, wrapper)
                        undo.append((holder, entry, obj))

    def restore():
        for holder, attr, original in reversed(undo):
            setattr(holder, attr, original)

    return restore


def self_times(spans: list[Span]) -> dict:
    """Per span name: call count, inclusive seconds, and self seconds (the
    duration minus what its direct children cover)."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s.duration
        row["self_s"] += s.duration - child[s.id]
    return out


def per_root_sums(spans: list[Span]) -> list[tuple[Span, dict]]:
    """For each root span, the summed durations of its spans by name, plus
    "<parent>><child>" entries summing each name's direct children by name."""
    kids = defaultdict(list)
    roots = []
    for s in spans:
        (roots if s.parent is None else kids[s.parent]).append(s)
    out = []
    for root in roots:
        sums: dict[str, float] = defaultdict(float)
        stack = [root]
        while stack:
            s = stack.pop()
            sums[s.name] += s.duration
            for k in kids[s.id]:
                sums[f"{s.name}>{k.name}"] += k.duration
            stack.extend(kids[s.id])
        out.append((root, dict(sums)))
    return out
