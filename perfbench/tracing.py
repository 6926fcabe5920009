"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each gesturekit module from the
outside, so no file of the package is edited. A wrapper records one span
per call (id, parent span, request, name, start, end) and, for a few
functions, a work count taken from the arguments or the result. Every
top-level span (a ``cli.dispatch`` call, i.e. one CLI invocation) opens a
new request id that its nested spans share.

A layer's self time is its inclusive time minus the time its child spans
cover; calls nest on one thread, so that is the sum of the children's
durations.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

# Layers are the modules of src/gesturekit; seeding and errors do no
# measurable work. "Class.method" names wrap the method on the class.
LAYERS = {
    "synth": ("generate_dataset", "write_dataset"),
    "imu": ("parse_imu_csv", "parse_label_csv"),
    "rqa": ("windowed_rqa", "recurrence_plot", "transitivity",
            "time_delay_embed"),
    "svm": ("ovo_train", "smo_train", "gram", "OvoSvmModel.predict",
            "ovo_predict", "save_model", "load_model"),
    "features": ("featurize_segments", "feature_vector", "standardize"),
    "pipeline": ("train_identifier", "windows_dataset", "label_windows",
                 "identify_segments", "loso_evaluate",
                 "permutation_importance", "CentroidTrainer.__call__"),
    "forest": ("forest_train_predict", "tree_train", "tree_predict"),
    "cli": ("dispatch",),
}


def _samples(args, kwargs, result):
    return sum(len(stream) for stream, _ in
               list(result.recognition) + list(result.identification))


# span name -> ((count name, extractor(args, kwargs, result)), ...)
COUNTS = {
    "synth.generate_dataset": (("samples", _samples),),
    "imu.parse_imu_csv": (("rows", lambda a, k, r: len(r)),),
    "rqa.windowed_rqa": (("windows", lambda a, k, r: len(r)),),
    "svm.smo_train": (("rows", lambda a, k, r: len(a[0])),
                      ("support_vectors", lambda a, k, r: r.sv.shape[0])),
    "svm.OvoSvmModel.predict": (("rows", lambda a, k, r: len(r)),),
    "svm.save_model": (("bytes", lambda a, k, r: os.path.getsize(a[1])),),
    "svm.load_model": (("bytes", lambda a, k, r: os.path.getsize(a[0])),),
    "features.featurize_segments": (("segments", lambda a, k, r: len(r)),),
    "pipeline.loso_evaluate": (("folds", lambda a, k, r: len(r.folds)),),
    "pipeline.permutation_importance": (
        ("permutations", lambda a, k, r: r.per_rep.size),),
    "pipeline.identify_segments": (("hits", lambda a, k, r: len(r)),),
    "forest.forest_train_predict": (("trees", lambda a, k, r: a[2].n_trees),),
}


def span_names():
    return [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def count_names():
    return [f"{span}.{name}" for span, extractors in COUNTS.items()
            for name, _ in extractors]


class Tracer:
    """Collects spans and counts in memory while installed."""

    def __init__(self):
        self.spans = []       # (id, parent, request, name, start, end)
        self.counts = []      # (span id, count name, value)
        self._stack = []
        self._request = -1
        self._t0 = perf_counter()

    def _wrap(self, name, fn):
        extractors = COUNTS.get(name, ())

        @wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None:
                self._request += 1
            sid = len(self.spans)
            self.spans.append(None)
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (sid, parent, self._request, name,
                                   start - self._t0, end - self._t0)
            for cname, extract in extractors:
                try:
                    value = extract(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    continue     # the function's shape changed; skip it
                self.counts.append((sid, f"{name}.{cname}", value))
            return result
        return traced

    @contextmanager
    def installed(self):
        """Wrap every listed function while the block runs.

        A module-level function is also replaced wherever another
        gesturekit module imported it by name. Functions that no longer
        exist are skipped, so their metrics read zero.
        """
        restore = []
        try:
            for layer, fns in LAYERS.items():
                module = importlib.import_module(f"gesturekit.{layer}")
                for fn_name in fns:
                    owner_name, _, attr = fn_name.rpartition(".")
                    owner = getattr(module, owner_name) if owner_name \
                        else module
                    orig = getattr(owner, attr, None)
                    if orig is None:
                        continue
                    wrapped = self._wrap(f"{layer}.{fn_name}", orig)
                    owners = [owner] if owner_name else [
                        m for key, m in list(sys.modules.items())
                        if key.split(".")[0] == "gesturekit"
                        and getattr(m, attr, None) is orig]
                    for o in owners:
                        restore.append((o, attr, orig))
                        setattr(o, attr, wrapped)
            yield self
        finally:
            for o, attr, orig in reversed(restore):
                setattr(o, attr, orig)

    def mark(self) -> int:
        return len(self.spans)

    def aggregate(self, begin=0, end=None) -> dict[str, float]:
        """calls, inclusive s, self s and counts over spans[begin:end]."""
        spans = self.spans[begin:end]
        child = {}
        for _, parent, _, _, start, stop in spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (stop - start)
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for name in count_names():
            out[name] = 0
        for sid, _, _, name, start, stop in spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += stop - start
            out[f"{name}.self_s"] += stop - start - child.get(sid, 0.0)
        lo, hi = begin, begin + len(spans)
        for sid, name, value in self.counts:
            if lo <= sid < hi:
                out[name] += value
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, request, name, start, stop in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "request": request, "name": name,
                                     "start": round(start, 9),
                                     "end": round(stop, 9)}) + "\n")
