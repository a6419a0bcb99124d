"""Outside-in layer tracing for the segdetect benchmark.

The program has no instrumentation of its own, so the traced run wraps the
layer-boundary functions of each module from here.  A wrapped function either
records a span (name, start, end, parent span, thread) or, for the per-pair
functions that run 10^5 to 10^6 times per command, only bumps a counter keyed
by the innermost open span.  Spans stay in memory until the run ends.

Functions are patched in every ``segdetect`` namespace that holds them, not
only in the defining module: ``training``, ``bboxreg`` and ``cli`` import
``build_bundle``, ``score_box`` and ``tight_box`` by name, so patching the
defining module alone would miss those calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# module -> public functions timed as spans (span name "<module>.<function>")
SPANNED = {
    "segdetect.model": ["build_bundle", "score_box", "nms", "detect_image",
                        "save_model", "load_model", "write_detections",
                        "read_detections"],
    "segdetect.training": ["train", "assign_labels", "train_class", "init_latent",
                           "relabel_positives", "mine_hard_negatives", "sgd_fit",
                           "write_training_log"],
    "segdetect.bboxreg": ["collect_training_pairs", "fit_regressor", "iterate_boxes"],
    "segdetect.evaluate": ["evaluate_detections", "average_best_overlap",
                           "write_report", "write_pr_curves"],
    "segdetect.dataset": ["read_manifest"],
    "segdetect.config": ["load_config"],
    "segdetect.cli": ["build_parser", "cmd_train", "cmd_detect", "cmd_regress", "cmd_eval",
                      "_nearest_box_provider", "_save_regressor", "_load_regressor"],
}

# per-pair functions: counted, not timed
COUNTED = {
    "segdetect.segfeat": ["assemble_block"],
    "segdetect.masks": ["tight_box"],
    "segdetect.model": ["select_segment"],
}

# (module, class, method, span name): loading a dataset is a constructor call
METHODS = [("segdetect.dataset", "Dataset", "__init__", "dataset.load")]

IO_SPANS = ("model.save_model", "model.load_model", "model.write_detections",
            "model.read_detections", "cli._save_regressor", "cli._load_regressor",
            "evaluate.write_report", "evaluate.write_pr_curves",
            "training.write_training_log", "config.load_config")


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the (start, end) intervals."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_self_times(spans):
    """Self time of each span: its duration minus what its children cover.

    spans: sequence of (name, start, end, parent_index, thread_id), parent -1
    for a root.  Children are linked to the span open on their own thread, so
    self time is computed per thread; overlapping children count once.
    """
    children = defaultdict(list)
    for name, start, end, parent, _tid in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [(end - start) - covered_length(children.get(i, ()), start, end)
            for i, (name, start, end, _parent, _tid) in enumerate(spans)]


def self_times(spans):
    """Span name -> summed self time."""
    out = defaultdict(float)
    for span, own in zip(spans, span_self_times(spans)):
        out[span[0]] += own
    return out


class Tracer:
    """In-memory span and counter store shared by all installed wrappers."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent_index, thread_id]
        self.counts = Counter()  # (name, innermost open span name) -> calls
        self.values = defaultdict(list)   # observed quantities by name
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident()])
        stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name):
        stack = self._stack()
        parent = self.spans[stack[-1]][0] if stack else ""
        with self._lock:
            self.counts[(name, parent)] += 1

    def observe(self, name, value):
        with self._lock:
            self.values[name].append(value)

    # -- summaries ---------------------------------------------------------

    def durations(self):
        """Span name -> list of span durations, in call order."""
        out = defaultdict(list)
        for name, start, end, _parent, _tid in self.spans:
            out[name].append(end - start)
        return out

    def counted(self, name, parent=None):
        """Calls of a counted function, optionally only under one open span."""
        return sum(n for (fn, par), n in self.counts.items()
                   if fn == name and (parent is None or par == parent))

    def self_times(self):
        return self_times(self.spans)


# -- observers: read the wrapped functions' arguments and return values -----

def _observe_train(tracer, args, kwargs, result):
    for r in result.rounds:
        tracer.observe("latent_changed", r.num_latent_changed)
    return result


def _observe_mine(tracer, args, kwargs, result):
    tracer.observe("negatives_scored", len(args[0]))
    tracer.observe("hard_negs_kept", len(result))
    return result


def _observe_sgd(tracer, args, kwargs, result):
    tracer.observe("sgd_rows", len(args[0]))
    return result


def _observe_iterate(tracer, args, kwargs, result):
    _, stats = result
    tracer.observe("changed_fraction", list(stats.changed_fraction))
    tracer.observe("provider_calls", stats.provider_calls)
    return result


def _wrap_provider(tracer, args, kwargs, provider):
    return _spanned(tracer, "bboxreg.provider", provider)


OBSERVERS = {
    "training.train": _observe_train,
    "training.mine_hard_negatives": _observe_mine,
    "training.sgd_fit": _observe_sgd,
    "bboxreg.iterate_boxes": _observe_iterate,
    "cli._nearest_box_provider": _wrap_provider,
}


def _spanned(tracer, name, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if observe is not None:
            result = observe(tracer, args, kwargs, result)
        return result
    return wrapper


def _counted(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


def _short(module_name):
    return module_name.rsplit(".", 1)[-1]


def install(tracer):
    """Patch every segdetect namespace; returns the patch list for `uninstall`."""
    replacement = {}   # id(original) -> (original, wrapper)
    for table, make in ((SPANNED, _spanned), (COUNTED, _counted)):
        for module_name, names in table.items():
            module = importlib.import_module(module_name)
            for name in names:
                original = getattr(module, name)
                wrapper = make(tracer, f"{_short(module_name)}.{name}", original)
                replacement[id(original)] = (original, wrapper)
    patches = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "segdetect"
                                  or module_name.startswith("segdetect.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacement.get(id(value))
            if hit is not None and hit[0] is value:
                patches.append((module, attr, value))
                setattr(module, attr, hit[1])
    for module_name, class_name, method, span_name in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        original = cls.__dict__[method]
        patches.append((cls, method, original))
        setattr(cls, method, _spanned(tracer, span_name, original))
    return patches


def uninstall(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


@contextmanager
def traced(tracer):
    patches = install(tracer)
    try:
        yield tracer
    finally:
        uninstall(patches)
