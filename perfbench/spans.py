"""Span tracing of the package's layers, installed from outside the package.

`Tracer.begin_call` replaces every public function of the layer modules with
a timing wrapper, in every `tweetlink` module namespace that refers to it (so
`cli.write_matrix_csv`, imported by name, is wrapped too, and a layer's
calls into its own module, such as `linker.score_matrix` -> `cosine`, go
through the wrapper). `end_call` restores the originals. Spans are kept in
memory and written out by `dump`.

A traced run makes two kinds of calls. Timed calls give every `_s` metric:
they wrap all functions but the HOT ones and record bare spans, nothing
else, so the tracer's own cost stays small. One counting call gives every
count: it wraps every function, HOT ones included, and also records the
counts that need a call's arguments or result.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# Called once per cell (cosine) or once per candidate threshold inside
# calibration (binary_metrics): up to 72,000 calls per command. A span wrapper
# costs 0.5-1.7 us a call (2-vCPU Xeon VM), which would land in the callers'
# times (up to about 0.1 s of linker.score_s), so timed calls leave them alone.
HOT = frozenset({"linker.cosine", "evalx.binary_metrics"})

LAYERS = ("corpus", "textprep", "vectorize", "contrast", "linker", "evalx", "matrices", "cascade")

# Per-layer metric name -> traced function whose inclusive time it reports.
TIMED = {
    "corpus.load_pairs_s": "corpus.load_pairs",
    "corpus.build_ground_truth_s": "corpus.build_ground_truth",
    "textprep.clean_s": "textprep.clean",
    "vectorize.tfidf_fit_s": "vectorize.tfidf_fit",
    "vectorize.tfidf_transform_s": "vectorize.tfidf_transform",
    "vectorize.lda_fit_s": "vectorize.lda_fit",
    "vectorize.lda_infer_s": "vectorize.lda_infer",
    "contrast.train_s": "contrast.train",
    "contrast.build_training_pairs_s": "contrast.build_training_pairs",
    "contrast.encode_s": "contrast.encode",
    "contrast.save_encoder_s": "contrast.save_encoder",
    "linker.calibrate_s": "linker.calibrate_threshold",
    "linker.score_s": "linker.score_matrix",
    "linker.classify_s": "linker.classify",
    "evalx.evaluate_s": "evalx.evaluate_masked",
    "evalx.average_precision_s": "evalx.average_precision",
    "matrices.write_csv_s": "matrices.write_matrix_csv",
    "cascade.build_s": "cascade.build_cascades",
    "cascade.aggregate_s": "cascade.aggregate",
}

# Per-layer metric name -> traced function whose calls it counts.
COUNTED = {
    "corpus.load_pairs_calls": "corpus.load_pairs",
    "textprep.clean_calls": "textprep.clean",
    "vectorize.tfidf_transform_calls": "vectorize.tfidf_transform",
    "vectorize.lda_infer_calls": "vectorize.lda_infer",
    "contrast.encode_calls": "contrast.encode",
    "linker.cosine_calls": "linker.cosine",
    "evalx.average_precision_calls": "evalx.average_precision",
    "cascade.aggregate_calls": "cascade.aggregate",
}


def _arg(fn, args, kwargs, name):
    return inspect.signature(fn).bind(*args, **kwargs).arguments.get(name)


class Tracer:
    """Records (call id, span id, parent id, name, start ns, end ns) per wrapped call.

    A counting call also keeps a few counts that need a call's arguments or
    result, recorded at the same boundary as the spans.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(dict)
        self.walls: dict[int, float] = {}
        self.bounds: dict[int, tuple[int, int]] = {}  # call id -> (start ns, end ns)
        self.counting: set[int] = set()
        self._stack: list[int] = []
        self._next_span = 0
        self._call = -1
        self._saved: list[tuple[object, str, object]] = []

    # --- wrapping -------------------------------------------------------------

    def _install(self, counting: bool) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"tweetlink.{layer}"]
            for attr, fn in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                    and (counting or name not in HOT)
                ):
                    wrappers[fn] = self._wrap(name, fn, counting)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "tweetlink" or mod_name.startswith("tweetlink."):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._saved.append((module, attr, value))
                        setattr(module, attr, wrappers[value])

    def _uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name, fn, counting):
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None) if counting else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._next_span
            self._next_span += 1
            parent = stack[-1] if stack else -1
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((self._call, span, parent, name, start, end))
            if observe is not None:
                observe(fn, args, kwargs, result)
            return result

        return traced

    # --- counts that need arguments or results --------------------------------

    def _add(self, key, amount):
        c = self.counts[self._call]
        c[key] = c.get(key, 0) + amount

    def _observe_vectors(self, vec):
        self._add("nonzero", int((vec != 0).sum()))
        self._add("entries", vec.size)

    def _observe_vectorize_tfidf_transform(self, fn, args, kwargs, result):
        self._observe_vectors(result)

    def _observe_vectorize_lda_infer(self, fn, args, kwargs, result):
        self._observe_vectors(result)

    def _observe_vectorize_tfidf_fit(self, fn, args, kwargs, result):
        self._add("vocab_size", result.vocab.size)

    def _observe_vectorize_lda_fit(self, fn, args, kwargs, result):
        self._add("vocab_size", result.vocab.size)
        docs = _arg(fn, args, kwargs, "docs")
        iters = _arg(fn, args, kwargs, "iters") or inspect.signature(fn).parameters["iters"].default
        self._add("lda_token_sweeps", sum(len(d) for d in docs) * iters)

    def _observe_contrast_build_training_pairs(self, fn, args, kwargs, result):
        self._add("train_examples", len(result))

    def _observe_contrast_train(self, fn, args, kwargs, result):
        self._add("train_epochs", _arg(fn, args, kwargs, "cfg").epochs)

    def _observe_contrast_save_encoder(self, fn, args, kwargs, result):
        self._add("encoder_bytes", os.path.getsize(_arg(fn, args, kwargs, "path")))

    def _observe_matrices_write_matrix_csv(self, fn, args, kwargs, result):
        self._add("csv_bytes", os.path.getsize(_arg(fn, args, kwargs, "path")))

    def _observe_linker_score_matrix(self, fn, args, kwargs, result):
        self._add("score_cells", result.values.size)

    # --- one traced command call ----------------------------------------------

    def begin_call(self, counting: bool) -> None:
        """Wrap the layers for the next command call; counting calls also wrap HOT."""
        self._call += 1
        if counting:
            self.counting.add(self._call)
        self._install(counting)
        self.bounds[self._call] = (time.perf_counter_ns(), 0)

    def end_call(self, wall_s: float) -> None:
        self.bounds[self._call] = (self.bounds[self._call][0], time.perf_counter_ns())
        self._uninstall()
        self.walls[self._call] = wall_s

    def _spans(self, call: int):
        return [s for s in self.spans if s[0] == call]

    def time_metrics(self, call: int) -> dict[str, float]:
        """The `_s` metrics of one timed call, in seconds."""
        spans = self._spans(call)
        wall = self.walls[call]
        dur = defaultdict(float)
        child_time = defaultdict(float)
        top_level = 0.0
        for _call, span, parent, name, start, end in spans:
            d = (end - start) / 1e9
            dur[name] += d
            if parent < 0:
                top_level += d
            else:
                child_time[parent] += d
        self_time = dict.fromkeys(LAYERS, 0.0)
        for _call, span, parent, name, start, end in spans:
            self_time[name.split(".")[0]] += (end - start) / 1e9 - child_time[span]

        m = {key: dur[fn] for key, fn in TIMED.items()}
        m["corpus.load_documents_s"] = dur["corpus.load_documents"]
        for layer, t in self_time.items():
            m[f"{layer}.self_s"] = t
        m["cli.self_s"] = wall - top_level
        m["trace.pipeline_s"] = wall
        m["trace.spans"] = len(spans)
        return m

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: times from the timed call with the median wall time
        (the lower one of two), counts from the counting call.

        Taking every time from one call keeps the self times adding up to its
        wall time, which per-metric medians would not.
        """
        timed = sorted((c for c in self.walls if c not in self.counting), key=self.walls.get)
        m = self.time_metrics(timed[(len(timed) - 1) // 2])

        (counted,) = self.counting
        spans = self._spans(counted)
        name_of = {s[1]: s[3] for s in spans}
        calls = defaultdict(int)
        candidates = 0
        for _call, _span, parent, name, _start, _end in spans:
            calls[name] += 1
            if name == "evalx.binary_metrics" and parent >= 0 and name_of[parent] == "linker.calibrate_threshold":
                candidates += 1
        c = self.counts[counted]
        m.update({key: calls[fn] for key, fn in COUNTED.items()})
        m["vectorize.vocab_size"] = c.get("vocab_size", 0)
        m["vectorize.feature_density"] = c["nonzero"] / c["entries"] if c.get("entries") else 0.0
        sweeps = c.get("lda_token_sweeps", 0)
        m["vectorize.lda_fit_us_per_token_sweep"] = 1e6 * m["vectorize.lda_fit_s"] / sweeps if sweeps else 0.0
        m["contrast.train_examples"] = c.get("train_examples", 0)
        per_epoch = c.get("train_examples", 0) * c.get("train_epochs", 0)
        m["contrast.train_us_per_example_epoch"] = 1e6 * m["contrast.train_s"] / per_epoch if per_epoch else 0.0
        m["contrast.encoder_bytes"] = c.get("encoder_bytes", 0)
        m["linker.calibrate_candidates"] = candidates
        score_s = m["linker.score_s"]
        m["linker.score_cells_per_s"] = c.get("score_cells", 0) / score_s if score_s else 0.0
        m["matrices.csv_bytes"] = c.get("csv_bytes", 0)
        return m

    def problems(self, call: int) -> list[str]:
        """Ways the spans of one call fail to nest inside the call and each other."""
        spans = sorted(self._spans(call), key=lambda s: (s[4], -s[5]))
        by_id = {s[1]: s for s in spans}
        call_start, call_end = self.bounds[call]
        found = []
        last_top_end = call_start
        for _call, span, parent, name, start, end in spans:
            if not call_start <= start <= end <= call_end:
                found.append(f"{name} span {span} lies outside its call")
            if parent < 0:
                if start < last_top_end:
                    found.append(f"top-level {name} span {span} overlaps the one before it")
                last_top_end = max(last_top_end, end)
            elif parent not in by_id:
                found.append(f"{name} span {span} has no recorded parent")
            elif not by_id[parent][4] <= start <= end <= by_id[parent][5]:
                found.append(f"{name} span {span} lies outside its parent")
        if call not in self.counting and self.time_metrics(call)["cli.self_s"] < 0:
            found.append("cli.self_s is negative")
        return found

    def dump(self, path) -> None:
        """Write every span as one JSON line: call, span, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if "_us_per_" in metric:
        return "us"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("density"):
        return "ratio"
    return "count"
