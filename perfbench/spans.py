"""Outside-in tracing of the oversmooth layers.

``installed(tracer)`` wraps the public functions listed in ``WRAPPED`` (and
the ``__init__`` of every toy-lab strategy class) in every loaded
``oversmooth`` namespace that binds them, so a function a module imported by
name (``toylab`` binds ``dip_statistic`` and ``var_laplacian``) is traced
too. Each wrapped call records one span (name, start, end, parent index) in
the tracer's in-memory list; the originals are put back when the context
exits. Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from contextlib import contextmanager


def _grid_cells(grid) -> int:
    values = getattr(grid, "values", grid)
    return int(values.shape[0] * values.shape[1])


# (module, function, work stat, work count from (args, kwargs, result)).
# A work count is computed from argument shapes or the returned value only.
WRAPPED = [
    ("core", "read_mel", None, None),
    ("core", "write_mel", "bytes", lambda a, kw, r: 12 + 4 * _grid_cells(a[0])),
    ("core", "read_alignment", None, None),
    ("dsp", "read_wav", None, None),
    ("dsp", "stft_magnitude", "frames", lambda a, kw, r: int(r.shape[0])),
    ("dsp", "mel_spectrogram", None, None),
    ("dsp", "mel_filterbank", None, None),
    ("metrics", "laplacian_response", None, None),
    ("metrics", "var_laplacian", None, None),
    ("metrics", "ssim_map", "cells", lambda a, kw, r: _grid_cells(a[0])),
    ("density", "dip_statistic", "n_total", lambda a, kw, r: r.n),
    ("density", "kde1d", None, None),
    ("density", "kde2d", None, None),
    ("probloss", "fit_lm", None, None),
    ("probloss", "lm_nll_grad", "elems",
     lambda a, kw, r: math.prod(a[0].logits.shape)
     * (a[1].shape[0] if getattr(a[1], "ndim", 2) == 3 else 1)),
    ("probloss", "lm_sample_stack", None, None),
    ("probloss", "lm_log_density", None, None),
    ("flow", "train_flow", None, None),
    ("flow", "nll_and_grads", "frames",
     lambda a, kw, r: int(a[1].targets.shape[0] * a[1].targets.shape[1])),
    ("flow", "log_likelihood", None, None),
    ("flow", "actnorm_init", None, None),
    ("flow", "sample_batch", None, None),
    ("flow", "sample", None, None),
    ("flow", "save_model", None, None),
    ("flow", "load_model", None, None),
    ("gan", "discriminator_score_and_grads", None, None),
    ("gan", "random_windows", None, None),
    ("svgplot", "heatmap", "bytes", lambda a, kw, r: len(r.encode())),
    ("svgplot", "bar_chart", None, None),
    ("svgplot", "line_plot", None, None),
    ("toylab", "make_corpus", None, None),
    ("toylab", "run_experiment", None, None),
    ("toylab", "mode_coherence", None, None),
    ("cli", "main", None, None),
]

# Strategy classes whose construction (the fit) is timed inclusively.
STRATEGIES = [
    "PointwiseStrategy", "ConditionedStrategy", "ArStrategy", "LmStrategy",
    "CondLmStrategy", "FlowStrategy", "GanDemoStrategy",
]

_TRAIN = "flow.train_flow"


class Tracer:
    """In-memory span recorder for one traced run (single-threaded).

    Span times are process CPU seconds, the clock of the end-to-end metrics.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, work]
        self._stack = []
        self._trained = {}  # id -> model returned by train_flow
        self._kept = set()  # ids of trained models used after training

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.process_time(), None, parent, 0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _exit(self, index):
        self._stack.pop()
        self.spans[index][2] = time.process_time()

    def _in_training(self) -> bool:
        return any(self.spans[i][0] == _TRAIN for i in self._stack)

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name.startswith("flow.") and args and not self._in_training():
                if id(args[0]) in self._trained:
                    self._kept.add(id(args[0]))
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if work is not None:
                self.spans[index][4] = work(args, kwargs, result)
            if name == _TRAIN:
                self._trained[id(result.model)] = result.model
            return result

        return traced

    def layer_metrics(self) -> dict:
        """Per-layer metrics named ``<module>.<function>.<stat>``."""
        return layer_metrics(self.spans, len(self._trained), len(self._kept))

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "work": work}) + "\n")


def self_times(spans) -> list:
    """Span duration minus the part its direct children cover.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other.
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)]


def layer_metric_names() -> list:
    names = []
    for module, func, stat, _ in WRAPPED:
        names += [f"{module}.{func}.calls", f"{module}.{func}.self_s"]
        if stat:
            names.append(f"{module}.{func}.{stat}")
        if f"{module}.{func}" == _TRAIN:
            names.append(f"{_TRAIN}.kept_ratio")
    names += [f"toylab.{cls}.s" for cls in STRATEGIES]
    return names


_UNITS = {"calls": "count", "self_s": "s", "s": "s", "n_total": "count",
          "elems": "count", "frames": "count", "cells": "count", "bytes": "B",
          "kept_ratio": "ratio", "overhead_s": "s", "spans": "count"}


def unit_of(metric: str) -> str:
    return _UNITS[metric.rsplit(".", 1)[1]]


def layer_metrics(spans, trained: int = 0, kept: int = 0) -> dict:
    out = dict.fromkeys(layer_metric_names(), 0)
    stats = {f"{m}.{f}": s for m, f, s, _ in WRAPPED}
    for (name, start, end, _, work), own in zip(spans, self_times(spans)):
        if name in stats:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            if stats[name]:
                out[f"{name}.{stats[name]}"] += work
        else:  # strategy construction, inclusive of its children
            out[f"{name}.s"] += end - start
    out[f"{_TRAIN}.kept_ratio"] = kept / trained if trained else 0.0
    return out


def _namespaces():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "oversmooth"
                                    or name.startswith("oversmooth."))]


@contextmanager
def installed(tracer: Tracer):
    """Trace every wrapped layer for the duration of the block."""
    import oversmooth.cli  # noqa: F401  (loads every layer module)

    patches = []  # (owner, attribute, original)
    try:
        namespaces = _namespaces()
        for module, func, _, work in WRAPPED:
            original = getattr(sys.modules[f"oversmooth.{module}"], func)
            wrapper = tracer.wrap(f"{module}.{func}", original, work)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        patches.append((ns, attr, original))
                        setattr(ns, attr, wrapper)
        toylab = sys.modules["oversmooth.toylab"]
        for cls_name in STRATEGIES:
            cls = getattr(toylab, cls_name)
            original = cls.__dict__["__init__"]
            patches.append((cls, "__init__", original))
            cls.__init__ = tracer.wrap(f"toylab.{cls_name}", original)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
