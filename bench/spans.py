"""In-memory spans around koheval's module boundaries, and the arithmetic
that turns them into per-layer numbers.

A traced operation installs a wrapper on each function named in
``TRACED`` wherever a koheval module binds that name, so every call is
seen as the calling module sees it (``koheval.metrics.iou_matrix`` is the
name ``match_image`` looks up, not ``koheval.geometry.iou_matrix``).
Each wrapper records a span (name, start, end, parent) and its counts;
the originals are put back when the operation ends. Nothing under
``src/`` is changed.
"""

from __future__ import annotations

import importlib
import inspect
import os
from collections import Counter
from time import perf_counter
from typing import Callable, Iterable, NamedTuple

from koheval.dataset import ImageRecord

MODULES = ("cli", "dataset", "geometry", "metrics", "report", "screening", "synth")
# A span's layer is the module that defines the function, taken from the
# span name "<layer>.<function>". The operation's root span is layer cli:
# its self time is argparse and glue.
ROOT = "cli.operation"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 for a root

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its children cover.

    Children of one span never overlap (one thread, strict nesting), so
    the covered part is the sum of their durations.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


def check_spans(spans: list[Span], wall: float, tolerance: float) -> None:
    """Raise ValueError unless ``spans`` form one tree of strictly nested
    spans under span 0 whose duration is ``wall`` within ``tolerance``.

    ``wall`` is the operation's elapsed time measured outside the tracer,
    so a root span that opened late or closed early shows here; a child
    outside its parent or overlapping a sibling shows as a negative self
    time or a bad interval.
    """
    if not spans or any(s is None for s in spans):
        raise ValueError("a span was never closed")
    if spans[0].parent != -1 or any(s.parent == -1 for s in spans[1:]):
        raise ValueError("span 0 must be the one root")
    for index, span in enumerate(spans[1:], 1):
        if not 0 <= span.parent < index:
            raise ValueError(f"{span.name}: parent {span.parent} is not an earlier span")
        parent = spans[span.parent]
        if span.start < parent.start or span.end > parent.end or span.end < span.start:
            raise ValueError(f"{span.name} [{span.start}, {span.end}] lies outside "
                             f"its parent {parent.name} [{parent.start}, {parent.end}]")
    for span, own in zip(spans, self_times(spans)):
        if own < 0.0:
            raise ValueError(f"{span.name}: negative self time {own}; its "
                             f"children overlap")
    if abs(spans[0].duration - wall) > tolerance:
        raise ValueError(f"root span lasts {spans[0].duration} s but the operation "
                         f"took {wall} s")


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def outermost_time(spans: list[Span], names: Iterable[str]) -> float:
    """Total duration of spans named in ``names`` that have no ancestor
    named in ``names``, so nested calls are not counted twice."""
    names = set(names)
    total = 0.0
    for span in spans:
        if span.name not in names:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            total += span.duration
    return total


# ---------------------------------------------------------------------------
# Counters: each takes the tracer's counter, a function returning the call's
# arguments by parameter name, and the result, after the span has closed.
# Greedy-loop visits are counted at the public boundary: a match_image call
# visits its predictions above the confidence threshold, a pr_curve call
# every prediction of its class.


def _count_iou(counts, args, result):
    counts["geometry.iou_pairs"] += result.size


def _count_match(counts, args, result):
    a = args()
    counts["metrics.pred_visits"] += sum(1 for p in a["preds"]
                                        if a["op"].admits(p.confidence))


def _count_pr_curve(counts, args, result):
    a = args()
    counts["metrics.pred_visits"] += sum(1 for _, preds in a["scenes"]
                                        for p in preds if p.class_id == a["class_id"])


def _count_parse(counts, args, result):
    counts["dataset.files_read"] += 1
    counts["dataset.bytes_read"] += len(args()["text"].encode())
    counts["dataset.boxes_parsed"] += len(result)


def _count_hash(counts, args, result):
    counts["report.bytes_hashed"] += os.stat(args()["path"]).st_size


def _count_write(counts, args, result):
    counts["synth.files_written"] += 1
    counts["synth.bytes_written"] += len(args()["text"].encode())


# Function name -> counter run after each call (or None). A key
# (module, name) wraps the name only where that module binds it, so
# synth.files_written counts the cohort writer's files and not the reports.
TRACED: dict = {
    "iou_matrix": _count_iou,
    "match_image": _count_match,
    "pr_curve": _count_pr_curve,
    "ap_sweep": None,
    "evaluate_detections": None,
    "load_ground_truth": None,
    "attach_predictions": None,
    "parse_gt_file": _count_parse,
    "parse_pred_file": _count_parse,
    "stratified_split": None,
    "screen_dataset": None,
    "threshold_sweep": None,
    "build_report": None,
    "sha256_path": None,
    "sha256_file": _count_hash,
    "render": None,
    "generate": None,
    "plant_screening_matrix": None,
    "_perturb_to_iou": None,
    "write_cohort": None,
    ("synth", "atomic_write_text"): _count_write,
}


def _arguments(params: tuple[str, ...], defaults: dict, args, kwargs) -> dict:
    return {**defaults, **dict(zip(params, args)), **kwargs}


class CountedRecord(ImageRecord):
    """An ImageRecord that counts reads of its predictions, which is how
    the benchmark sees how often a sweep visits each image."""

    @property
    def predictions(self):
        self._counts["screening.sweep_image_visits"] += 1
        return self._predictions


def counted_records(records, counts: Counter) -> list[CountedRecord]:
    out = []
    for rec in records:
        counted = object.__new__(CountedRecord)
        counted.__dict__.update(image_id=rec.image_id, dims=rec.dims,
                                ground_truth=rec.ground_truth,
                                _predictions=rec.predictions, _counts=counts)
        out.append(counted)
    return out


class Tracer:
    """Spans and counts of one traced operation at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, Callable]] = []

    def _wrap(self, func: Callable, counter) -> Callable:
        name = f"{func.__module__.rpartition('.')[2]}.{func.__name__}"
        params = tuple(inspect.signature(func).parameters.values())
        names = tuple(p.name for p in params)
        defaults = {p.name: p.default for p in params if p.default is not p.empty}
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(name, start, end, parent)
            if counter is not None:
                counter(counts, lambda: _arguments(names, defaults, args, kwargs), result)
            return result

        traced.__wrapped__ = func
        return traced

    def install(self) -> None:
        """Wrap every traced name in every koheval module that binds it."""
        for module_name in MODULES:
            module = importlib.import_module(f"koheval.{module_name}")
            for key, counter in TRACED.items():
                if isinstance(key, tuple):
                    if key[0] != module_name:
                        continue
                    key = key[1]
                func = getattr(module, key, None)
                if callable(func) and inspect.isfunction(func):
                    self._originals.append((module, key, func))
                    setattr(module, key, self._wrap(func, counter))

    def restore(self) -> None:
        while self._originals:
            module, key, func = self._originals.pop()
            setattr(module, key, func)

    def operation(self, call: Callable):
        """Run ``call`` traced, under a root span; return its result."""
        self.spans.clear()
        self.counts.clear()
        self.install()
        try:
            self.spans.append(None)
            self._stack.append(0)
            start = perf_counter()
            try:
                return call()
            finally:
                end = perf_counter()
                self._stack.clear()
                self.spans[0] = Span(ROOT, start, end, -1)
        finally:
            self.restore()
