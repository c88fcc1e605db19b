"""Span tracer that wraps shapestream's public functions from the outside.

Nothing in the package is edited: ``Tracer.installed()`` replaces every
binding of each traced function that a caller can reach (the defining
module, every ``from x import f`` copy in another shapestream module, or the
class attribute of a method) with a wrapper that records a span, and puts
the originals back on exit. A span is ``[layer, parent, start, end, counts]``;
self time is the span's duration minus the time its child spans cover.

Counts (MACs, bytes, points, ...) are computed from argument and result
shapes, not read from hardware counters.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict


def _arg(fn, name):
    """Reader for one argument by name, honouring defaults and keywords."""
    sig = inspect.signature(fn)
    if name not in sig.parameters:
        raise KeyError(f"{fn.__qualname__} has no parameter {name!r}")

    def read(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments[name]
    return read


def _contains_counts(fn):
    return lambda args, kwargs, out: {"points": len(out)}


def _render_counts(fn):
    size = _arg(fn, "image_size")
    return lambda args, kwargs, out: {"rays": size(args, kwargs) ** 2}


def _conv_counts(fn):
    x_of, w_of = _arg(fn, "x"), _arg(fn, "kernels")

    def counts(args, kwargs, out):
        x, w = x_of(args, kwargs), w_of(args, kwargs)
        k3 = w.shape[2] * w.shape[3] * w.shape[4]
        if fn.__name__ == "conv3d":
            # im2col buffer [N, C*k^3, P_out]; one MAC per (output, C*k^3) pair
            cols = x.shape[0] * x.shape[1] * k3 * (out.size // (out.shape[0] * out.shape[1]))
            macs = out.size * x.shape[1] * k3
        else:
            # forward of the transpose is the conv grad-input: cols [N, F*k^3, P_in]
            p_in = x.size // (x.shape[0] * x.shape[1])
            cols = x.shape[0] * w.shape[1] * k3 * p_in
            macs = cols * x.shape[1]
        return {"macs": macs, "col_bytes": cols * out.data.itemsize}
    return counts


def _vxg_write_counts(fn):
    grid = _arg(fn, "grid")
    return lambda args, kwargs, out: {"bytes": 24 + 4 * grid(args, kwargs).values.size}


def _vxg_read_counts(fn):
    return lambda args, kwargs, out: {"bytes": 24 + 4 * out.values.size}


def _file_bytes(fn):
    path = _arg(fn, "path")
    return lambda args, kwargs, out: {"bytes": os.path.getsize(path(args, kwargs))}


def _triangles(fn):
    return lambda args, kwargs, out: {"triangles": len(out.triangles)}


def _point_pairs(fn):
    pred, gt = _arg(fn, "pred"), _arg(fn, "gt")
    # both nearest-neighbour directions compare every pred point to every gt point
    return lambda args, kwargs, out: {
        "point_pairs": 2 * len(pred(args, kwargs)) * len(gt(args, kwargs))}


def _adam_elements(fn):
    grads = _arg(fn, "grads")
    return lambda args, kwargs, out: {
        "elements": sum(g.size for g in grads(args, kwargs).values())}


# (layer name, module, attribute path, counter factory or None, counter units)
LAYERS = (
    ("objects.contains", "shapestream.objects", "SolidObject.contains",
     _contains_counts, {"points": "count"}),
    ("scenes.render_depth_view", "shapestream.scenes", "render_depth_view",
     _render_counts, {"rays": "count"}),
    ("scenes.make_sequence", "shapestream.scenes", "make_sequence", None, {}),
    ("voxel.voxelize", "shapestream.voxel", "voxelize", None, {}),
    ("voxel.write_vxg", "shapestream.voxel", "write_vxg", _vxg_write_counts,
     {"bytes": "bytes"}),
    ("voxel.read_vxg", "shapestream.voxel", "read_vxg", _vxg_read_counts,
     {"bytes": "bytes"}),
    ("marching.marching_cubes", "shapestream.marching", "marching_cubes", _triangles,
     {"triangles": "count"}),
    ("marching.sample_surface_points", "shapestream.marching", "sample_surface_points",
     None, {}),
    ("metrics.fscore", "shapestream.metrics", "fscore", _point_pairs,
     {"point_pairs": "count"}),
    ("metrics.jaccard", "shapestream.metrics", "jaccard", None, {}),
    ("metrics.evaluate_split", "shapestream.metrics", "evaluate_split", None, {}),
    ("autograd.conv3d", "shapestream.autograd", "conv3d", _conv_counts,
     {"macs": "count", "col_bytes": "bytes"}),
    ("autograd.conv_transpose3d", "shapestream.autograd", "conv_transpose3d",
     _conv_counts, {"macs": "count", "col_bytes": "bytes"}),
    ("autograd.backward", "shapestream.autograd", "Tensor.backward", None, {}),
    ("optim.adam_update", "shapestream.optim", "adam_update", _adam_elements,
     {"elements": "count"}),
    ("attention.causal_linear_attention_t", "shapestream.attention",
     "causal_linear_attention_t", None, {}),
    ("attention.exact_causal_attention_t", "shapestream.attention",
     "exact_causal_attention_t", None, {}),
    ("attention.memory_update", "shapestream.attention", "memory_update", None, {}),
    ("attention.memory_query", "shapestream.attention", "memory_query", None, {}),
    ("model.sequence_predictions", "shapestream.model", "sequence_predictions", None, {}),
    ("model.bce_from_predictions", "shapestream.model", "bce_from_predictions", None, {}),
    ("model.forward_step", "shapestream.model", "forward_step", None, {}),
    ("train.evaluate_sequences", "shapestream.train", "evaluate_sequences", None, {}),
    ("checkpoint.save_checkpoint", "shapestream.checkpoint", "save_checkpoint",
     _file_bytes, {"bytes": "bytes"}),
    ("cli.main", "shapestream.cli", "main", None, {}),
)

TRACE_METRICS = {"trace.overhead_ratio": "ratio", "trace.uncovered_ms": "ms"}


def metric_units() -> dict:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for layer, _, _, _, counters in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_ms"] = "ms"
        units.update({f"{layer}.{c}": u for c, u in counters.items()})
    units.update(TRACE_METRICS)
    return units


class Tracer:
    """Collects spans while installed; aggregates them per traced unit."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.absent: list = []
        self.totals: dict = defaultdict(float)
        self.units = 0
        self.covered_s = 0.0
        self._bindings = []    # (owner, attribute, original, wrapper)
        for layer, module, path, counter, _ in LAYERS:
            owner_path, _, attr = path.rpartition(".")
            try:
                owner = importlib.import_module(module)
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(layer)
                continue
            try:
                count = counter(orig) if counter else None
            except KeyError:        # renamed parameter: time the layer, skip its counts
                count = None
                self.absent.append(f"{layer} counts")
            wrapper = self._wrap(layer, orig, count)
            if owner_path:      # a method: the class attribute is the only binding
                self._bindings.append((owner, attr, orig, wrapper))
                continue
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] != "shapestream":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._bindings.append((mod, key, orig, wrapper))

    def _wrap(self, layer, orig, counter):
        spans, stack = self.spans, self.stack

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = [layer, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                span[4] = counter(args, kwargs, out)
            return out
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Trace one unit of work: bindings are wrapped inside the block only."""
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, orig, _ in self._bindings:
                setattr(owner, attr, orig)
            self._fold()

    def _fold(self):
        child_s = [0.0] * len(self.spans)
        for _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
            else:
                self.covered_s += end - start
        for i, (layer, _, start, end, counts) in enumerate(self.spans):
            self.totals[f"{layer}.calls"] += 1
            self.totals[f"{layer}.self_ms"] += 1e3 * (end - start - child_s[i])
            for key, value in (counts or {}).items():
                self.totals[f"{layer}.{key}"] += value
        self.spans.clear()
        self.units += 1

    def per_unit(self) -> dict:
        """Per-layer totals divided by the number of traced units; a layer
        absent at this commit reports 0."""
        n = max(self.units, 1)
        return {name: self.totals.get(name, 0.0) / n
                for name in metric_units() if name not in TRACE_METRICS}
