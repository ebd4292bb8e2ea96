"""In-memory spans around calls into froxelpvs's public functions.

A traced run rebinds a fixed set of public names (``TARGETS``) in the
modules that look them up, so each call opens a span: name, start, end,
parent span, the operation it belongs to (one viewcell, frame or training
call), and counts taken from its arguments and result. Nothing inside the
package changes, and an untraced run installs nothing. Spans stay in memory
and are written once the run ends.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    id: int
    parent: int | None
    op: int            # spans of one viewcell, frame or training call share it
    batch: int         # training batch, counted by forward_cached calls; -1 outside
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def dur_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        """Duration minus the part covered by direct children."""
        return self.dur_s - self.child_s

    def as_dict(self) -> dict:
        return {"name": self.name, "id": self.id, "parent": self.parent, "op": self.op,
                "batch": self.batch, "start": self.start, "end": self.end,
                "self_s": self.self_s, "counts": self.counts}


def id_map_pairs(id_map) -> int:
    """(froxel, primitive) pairs held by a froxel id map."""
    return sum(len(ids) for ids in id_map.values())


def conv_macs(layers, cells: int) -> int:
    """Multiply-accumulates of one pass through ``layers`` over ``cells``
    interleaved cells, computed from the layer shapes."""
    return cells * sum(s.kernel ** 3 * s.in_channels * s.out_channels for s in layers)


def _predict_counts(args, out):
    grid, net = args[0], args[1]
    cells = 1
    for n in grid.dims:
        cells *= n // net.cfg.d
    return {"macs": conv_macs(net.cfg.layers, cells)}


def _forward_cached_counts(args, out):
    net, x = args[0], args[1]
    return {"macs": conv_macs(net.cfg.layers, x.shape[0] * x.shape[1] * x.shape[2] * x.shape[3])}


# (module, class or None, public name, span name, counts(args, result) or None)
# A name is patched in every module that calls it, because ``from x import f``
# copies the binding.
TARGETS = [
    ("scenegen", None, "generate_scene", "scenegen.generate_scene", None),
    ("froxel", None, "froxelize", "froxel.froxelize",
     lambda a, out: {"occupied": out.occupied_count()}),
    ("scenegen", None, "froxelize", "froxel.froxelize",
     lambda a, out: {"occupied": out.occupied_count()}),
    ("froxel", None, "froxel_id_map", "froxel.id_map",
     lambda a, out: {"pairs": id_map_pairs(out)}),
    ("froxel", "FroxelGrid", "save", "froxel.save",
     lambda a, out: {"bytes": os.path.getsize(a[1])}),
    ("neural", None, "interleave", "interleave.interleave", None),
    ("neural", None, "deinterleave", "interleave.deinterleave", None),
    ("neural", None, "predict_pvs", "neural.predict", _predict_counts),
    ("neural", "Conv3d", "forward", "neural.conv", None),
    ("neural", "PvsNet", "forward_cached", "neural.forward_cached", _forward_cached_counts),
    ("neural", None, "combined_loss", "neural.loss", None),
    ("neural", "PvsNet", "backward", "neural.backward", None),
    ("neural", "PvsNet", "sgd_step", "neural.sgd", None),
    ("scenegen", None, "compute_gt_pvs", "oracle.compute_gt_pvs",
     lambda a, out: {"gt_froxels": out.occupied_count()}),
    ("oracle", None, "render_depth", "oracle.render_depth",
     lambda a, out: {"covered_px": int((out.prim >= 0).sum())}),
    ("oracle", None, "reproject_fragments", "core.reproject_fragments", None),
    ("evalrt", None, "cull", "evalrt.cull", lambda a, out: {"kept": len(out)}),
]


def median_ms(spans, per_batch: bool = False) -> float:
    """Median duration of ``spans``, or of their per-batch sums; 0.0 when
    the run made no such call."""
    if not spans:
        return 0.0
    if not per_batch:
        return 1e3 * statistics.median(s.dur_s for s in spans)
    sums: dict = {}
    for s in spans:
        sums[s.batch] = sums.get(s.batch, 0.0) + s.dur_s
    return 1e3 * statistics.median(sums.values())


def median_count(spans, key: str) -> float:
    vals = [s.counts[key] for s in spans if key in s.counts]
    return float(statistics.median(vals)) if vals else 0.0


# Spans numbered by their order under one parent, so each Conv3d layer of a
# forward pass gets its own name: neural.conv0, neural.conv1, ...
_NUMBERED = {"neural.conv"}


class Tracer:
    """Records spans while ``active``; patched names call straight through
    otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op = -1
        self.batch = -1
        self._stack: list[Span] = []
        self._seq: dict = {}
        self._saved: list = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        if name in _NUMBERED:
            key = (parent.id if parent else None, name)
            k = self._seq.get(key, 0)
            self._seq[key] = k + 1
            name = f"{name}{k}"
        s = Span(name, len(self.spans), parent.id if parent else None, self.op,
                 self.batch, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.dur_s

    def run(self, name, fn, *args):
        """Call ``fn(*args)`` traced, as one operation under a root span."""
        self.op += 1
        self.active = True
        try:
            with self.span(name):
                return fn(*args)
        finally:
            self.active = False

    def _wrap(self, fn, name, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if name == "neural.forward_cached":
                tracer.batch += 1
            with tracer.span(name) as s:
                out = fn(*args, **kwargs)
            if counts is not None:
                s.counts.update(counts(args, out))
            return out
        return traced

    def install(self, modules):
        """Rebind every target in ``modules`` (name -> module object)."""
        for mod, owner, attr, name, counts in TARGETS:
            obj = getattr(modules[mod], owner) if owner else modules[mod]
            orig = obj.__dict__[attr]
            self._saved.append((obj, attr, orig))
            setattr(obj, attr, self._wrap(orig, name, counts))

    def uninstall(self):
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    # -- summaries ---------------------------------------------------------
    def named(self, name: str, with_setup: bool = False) -> list:
        """Spans called ``name``, by default only those under operations."""
        roots = {s.op: s.name for s in self.spans if s.parent is None}
        return [s for s in self.spans
                if s.name == name and (with_setup or roots[s.op] != "setup")]

    def summary(self) -> dict:
        """Per span name: calls, total and median duration, total self time."""
        out: dict = {}
        for s in self.spans:
            out.setdefault(s.name, []).append(s)
        return {name: {"calls": len(ss),
                       "total_ms": 1e3 * sum(s.dur_s for s in ss),
                       "median_ms": 1e3 * statistics.median(s.dur_s for s in ss),
                       "self_total_ms": 1e3 * sum(s.self_s for s in ss),
                       "self_median_ms": 1e3 * statistics.median(s.self_s for s in ss)}
                for name, ss in sorted(out.items())}
