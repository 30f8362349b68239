"""Spans recorded from outside the program, at the public layer boundaries.

A span is (name, start, end, parent). Spans stay in memory and are written
out once, when the run ends. ``patched`` wraps the public functions that
``AkmNet.forward`` and ``train`` call by module attribute, and each model's
``policy.select``, for the duration of a ``with`` block only, so an untraced
run executes the program unmodified.
"""

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager

# the package re-exports a function named ``train``, hiding the module
MODEL, TENSOR, TRAIN = (importlib.import_module(f"akmnet.{m}")
                        for m in ("model", "tensor", "train"))

# (module, attribute, span name) of the functions wrapped while tracing
WRAPPED = (
    (MODEL, "extract_spatial_features", "backbone.fwd"),
    (MODEL, "pixelwise_encode", "recurrent.gru_fwd"),
    (MODEL, "classify", "recurrent.head_fwd"),
    (MODEL, "total_loss", "recurrent.head_fwd"),
    (TRAIN, "sgd_momentum_step", "train.sgd_step"),
    (TENSOR, "backward", "tensor.backward"),
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or None]
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, fn, name, on_result=None):
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(args, out)
            return out
        return traced

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]

    def self_times(self):
        """Total and self seconds per span name; self time excludes children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
        return out

    def write(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta, "summary": self.self_times(),
                       "counts": dict(self.counts),
                       "spans": [{"name": n, "start": s, "end": e, "parent": p}
                                 for n, s, e, p in self.spans]}, fh)

    def _count_selection(self, args, out):
        features, (key, sel, _) = args[0], out
        self.counts["frames_in"] += features.frame_count
        self.counts["frames_kept"] += key.n_frames
        self.counts["fallback_clips"] += int(sel.fallback)
        self.counts["clips"] += 1

    @contextmanager
    def patched(self, models):
        saved = [(m, a, getattr(m, a)) for m, a, _ in WRAPPED]
        for (module, attr, name), (_, _, fn) in zip(WRAPPED, saved):
            setattr(module, attr, self.wrap(fn, name))
        for model in models:
            model.policy.select = self.wrap(model.policy.select, "selection.fwd",
                                            self._count_selection)
        try:
            yield
        finally:
            for module, attr, fn in saved:
                setattr(module, attr, fn)
            for model in models:
                del model.policy.select
