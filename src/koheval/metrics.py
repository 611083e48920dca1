"""Class-aware greedy matching of predictions to ground truth and the
object-level detection metrics built on top of it.

The matching protocol: predictions below the confidence threshold are
discarded; the rest are processed in descending confidence (ties broken
by higher best-IoU against same-class ground truth, then input order).
Each prediction claims the unmatched same-class ground-truth box with the
highest IoU when that IoU clears the threshold (ties go to the lower
ground-truth index); otherwise it is a false positive. Ground truth left
unmatched is a false negative. Cross-class IoU is never consulted.

The flow is kernel -> pool -> metrics. ``_match_scene`` runs the rule
for one image at every IoU threshold in one pass; ``_pool`` concatenates
those arrays per class over a cohort. Counts, mean IoU, PR curves and AP
all read the pooled arrays, and ``_integrate`` is the one AP integrator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import SchemaError, UndefinedMetricError
from .geometry import ARTEFACT, FUNGAL, Box, iou_matrix

ScenePair = tuple[Sequence[Box], Sequence[Box]]  # (ground truth, predictions)

AP_IOU_THRESHOLDS = tuple(t / 100 for t in range(50, 100, 5))


@dataclass(frozen=True)
class OperatingPoint:
    """The (confidence, IoU) pair at which count-based metrics are read.

    Object-level matching keeps predictions with confidence >= the
    threshold; the image-level screening rule fires on strictly greater.
    Both comparisons live here so they cannot drift apart.
    """

    conf_threshold: float = 0.25
    iou_threshold: float = 0.50

    def __post_init__(self):
        for name in ("conf_threshold", "iou_threshold"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise SchemaError(f"{name} must lie in (0, 1], got {value}")

    def admits(self, confidence):
        """Object-level keep rule: confidence >= threshold, elementwise."""
        return confidence >= self.conf_threshold

    def flags_positive(self, confidence: float) -> bool:
        """Image-level screening rule: confidence strictly > threshold."""
        return confidence > self.conf_threshold


@dataclass(frozen=True)
class MatchReport:
    """Matching outcome for one image at one operating point.

    Indices refer to the ground-truth / prediction lists handed to
    ``match_image``. Each index appears at most once; together the fields
    partition the thresholded predictions and the ground truth exactly.
    ``class_counts`` maps class_id -> (tp, fp, fn).
    """

    tp_pairs: tuple[tuple[int, int, float], ...]
    fp_pred_indices: tuple[int, ...]
    fn_gt_indices: tuple[int, ...]
    class_counts: Mapping[int, tuple[int, int, int]] = field(default_factory=dict)


class _SceneMatch(NamedTuple):
    # One image's predictions, each array in greedy processing order.
    index: np.ndarray  # position in the prediction list
    classes: np.ndarray
    confidences: np.ndarray
    matched: np.ndarray  # thresholds x predictions: ground-truth index or -1
    ious: np.ndarray  # IoU of the row-0 match, 0.0 where row 0 missed


def _match_scene(gts: Sequence[Box], preds: Sequence[Box],
                 thresholds: Sequence[float]) -> _SceneMatch:
    """The greedy matcher: one image, every IoU threshold in one pass.

    Confidence is the first sort key, so the predictions a confidence
    threshold admits are a prefix of the greedy order.
    """
    ious = iou_matrix(gts, preds)
    gt_classes = np.array([g.class_id for g in gts], dtype=int)
    pred_classes = np.array([p.class_id for p in preds], dtype=int)
    candidate = np.where(gt_classes[:, None] == pred_classes[None, :], ious, -1.0)
    best = candidate.max(axis=0, initial=0.0)
    confidences = np.array([p.confidence for p in preds], dtype=float)
    order = np.lexsort((-best, -confidences))  # stable: ties keep input order

    limits = np.asarray(thresholds, dtype=float)
    rows = np.arange(len(limits))
    matched = np.full((len(limits), len(preds)), -1)
    available = np.ones((len(limits), len(gts)), dtype=bool)
    for k, j in enumerate(order.tolist() if len(gts) else ()):  # argmax needs gt
        masked = np.where(available, candidate[:, j], -1.0)
        g = masked.argmax(axis=1)
        hit = masked[rows, g] >= limits
        available[rows[hit], g[hit]] = False
        matched[hit, k] = g[hit]
    # Index -1 (no match) reads the appended row of zeros.
    matched_ious = np.vstack((ious, np.zeros(len(preds))))[matched[0], order]
    return _SceneMatch(order, pred_classes[order], confidences[order], matched,
                       matched_ious)


def match_image(gts: Sequence[Box], preds: Sequence[Box],
                op: OperatingPoint = OperatingPoint()) -> MatchReport:
    """Match one image's predictions to its ground truth.

    Bit-for-bit equivalent to the naive reference matcher in
    :mod:`koheval.synth`.
    """
    kept = [i for i, p in enumerate(preds) if op.admits(p.confidence)]
    scene = _match_scene(gts, [preds[i] for i in kept], (op.iou_threshold,))
    greedy = list(zip([kept[j] for j in scene.index.tolist()],
                      scene.matched[0].tolist(), scene.ious.tolist()))
    tp_pairs = tuple((g, i, v) for i, g, v in greedy if g >= 0)
    fp_indices = sorted(i for i, g, _ in greedy if g < 0)
    fn_indices = sorted(set(range(len(gts))) - {g for g, _, _ in tp_pairs})
    classes = sorted({b.class_id for b in gts} | {preds[i].class_id for i in fp_indices})
    counts = {c: (sum(gts[g].class_id == c for g, _, _ in tp_pairs),
                  sum(preds[i].class_id == c for i in fp_indices),
                  sum(gts[g].class_id == c for g in fn_indices)) for c in classes}
    return MatchReport(tp_pairs=tp_pairs, fp_pred_indices=tuple(fp_indices),
                       fn_gt_indices=tuple(fn_indices), class_counts=counts)


class _ClassPool(NamedTuple):
    # One class's predictions over a cohort, in image then greedy order.
    class_id: int
    total_gt: int
    confidences: np.ndarray
    hits: np.ndarray  # thresholds x predictions: matched at that threshold
    ious: np.ndarray  # as _SceneMatch.ious


def _pool(scenes: Sequence[ScenePair], thresholds: Sequence[float],
          class_ids: Iterable[int]) -> dict[int, _ClassPool]:
    """Match every scene once and pool its arrays by predicted class."""
    matches = [_match_scene(gts, preds, thresholds) for gts, preds in scenes] \
        or [_match_scene((), (), thresholds)]
    classes, confidences, ious = (np.concatenate([getattr(m, name) for m in matches])
                                  for name in ("classes", "confidences", "ious"))
    hits = np.concatenate([m.matched for m in matches], axis=1) >= 0
    totals = Counter(b.class_id for gts, _ in scenes for b in gts)
    return {c: _ClassPool(c, totals[c], confidences[classes == c],
                          hits[:, classes == c], ious[classes == c])
            for c in class_ids}


def counts_to_prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Precision, recall and F1 from raw counts (0/0 reads as 0)."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class PRCurve:
    """Cumulative precision/recall sampled at each distinct confidence,
    ordered by descending confidence."""

    points: tuple[tuple[float, float, float], ...]  # (confidence, precision, recall)
    total_gt: int

    def __post_init__(self):
        confs = [p[0] for p in self.points]
        recalls = [p[2] for p in self.points]
        if confs != sorted(confs, reverse=True):
            raise SchemaError("curve points must be sorted by descending confidence")
        if recalls != sorted(recalls):
            raise SchemaError("recall must be non-decreasing as confidence drops")


def _sweep(pool: _ClassPool, hits: np.ndarray) -> tuple[np.ndarray, ...]:
    # Confidence, precision and recall after each distinct confidence, a
    # row per row of ``hits``, swept in descending confidence. Order among
    # equal confidences does not matter: only the state after them is kept.
    if pool.total_gt == 0:
        raise UndefinedMetricError(f"no ground truth of class {pool.class_id}: "
                                   "recall undefined")
    order = np.argsort(-pool.confidences, kind="stable")
    confidences = pool.confidences[order]
    tp = np.cumsum(hits[:, order], axis=1)
    swept = np.arange(1, len(order) + 1)
    last = np.ones(len(order), dtype=bool)
    last[:-1] = confidences[1:] != confidences[:-1]
    return confidences[last], (tp / swept)[:, last], (tp / pool.total_gt)[:, last]


def pr_curve(scenes: Sequence[ScenePair], class_id: int,
             iou_threshold: float = 0.50) -> PRCurve:
    """Pooled precision-recall curve for one class across images.

    Predictions are pooled over all scenes and swept in descending
    confidence, applying the greedy match rule within each prediction's
    own image. Callers wanting order-independent output should pass
    scenes sorted by image id.
    """
    OperatingPoint(iou_threshold=iou_threshold)  # rejects one outside (0, 1]
    pool = _pool(scenes, (iou_threshold,), (class_id,))[class_id]
    confidences, precision, recall = _sweep(pool, pool.hits)
    return PRCurve(points=tuple(zip(confidences.tolist(), precision[0].tolist(),
                                    recall[0].tolist())), total_gt=pool.total_gt)


def _integrate(recall: np.ndarray, precision: np.ndarray,
               interpolation: str) -> float:
    # Points run from high confidence to low, which is ascending recall.
    # The suffix maximum makes the envelope non-increasing in recall.
    if interpolation not in ("101", "all"):
        raise SchemaError(f"unknown interpolation {interpolation!r}")
    if not len(recall):
        return 0.0
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    if interpolation == "101":
        grid = np.arange(101) / 100.0
        idx = np.searchsorted(recall, grid, side="left")
        sampled = np.where(idx < len(recall),
                           envelope[np.minimum(idx, len(recall) - 1)], 0.0)
        return float(sampled.mean())
    steps = np.diff(np.concatenate(([0.0], recall)))
    return float(np.sum(steps * envelope))


def average_precision(curve: PRCurve, interpolation: str = "101") -> float:
    """Average precision from a PR curve.

    ``"101"`` computes the 101-point interpolated mean (precision envelope
    sampled at recalls 0.00, 0.01, ..., 1.00); ``"all"`` integrates the
    envelope step function exactly.
    """
    return _integrate(np.array([p[2] for p in curve.points]),
                      np.array([p[1] for p in curve.points]), interpolation)


def _ap_pair(pool: _ClassPool, hits: np.ndarray,
             interpolation: str) -> tuple[float, float]:
    # AP at the first row of ``hits`` and the mean over all its rows.
    _, precision, recall = _sweep(pool, hits)
    values = [_integrate(r, p, interpolation) for r, p in zip(recall, precision)]
    return values[0], sum(values) / len(values)


def ap_sweep(scenes: Sequence[ScenePair], class_id: int,
             interpolation: str = "101") -> tuple[float, float]:
    """AP at IoU 0.50 and the mean over thresholds 0.50:0.05:0.95."""
    pool = _pool(scenes, AP_IOU_THRESHOLDS, (class_id,))[class_id]
    return _ap_pair(pool, pool.hits, interpolation)


# ---------------------------------------------------------------------------
# Dataset-level assembly


@dataclass(frozen=True)
class ClassMetrics:
    """Object-level metrics for a single class."""

    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f1: float
    ap50: float | None
    ap50_95: float | None
    mean_iou: float | None


@dataclass(frozen=True)
class MacroMetrics:
    """Unweighted averages of per-class values; None where no class has a
    defined value."""

    precision: float | None
    recall: float | None
    f1: float | None
    ap50: float | None
    ap50_95: float | None
    mean_iou: float | None


@dataclass(frozen=True)
class ObjectMetrics:
    per_class: Mapping[int, ClassMetrics]
    macro: MacroMetrics

    @property
    def fungal(self) -> ClassMetrics:
        """The headline class: clinically, artefact detections are
        suppressors, not findings."""
        return self.per_class[FUNGAL]


def _macro(values: Sequence[float | None]) -> float | None:
    defined = [v for v in values if v is not None]
    return sum(defined) / len(defined) if defined else None


def evaluate_detections(records, op: OperatingPoint = OperatingPoint(),
                        interpolation: str = "101") -> ObjectMetrics:
    """Run matching over a whole dataset and assemble per-class + macro
    object-level metrics.

    ``records`` is a sequence of ImageRecord; pooling order is fixed by
    sorting on image_id, so record order never changes the result.
    """
    ordered = sorted(records, key=lambda r: r.image_id)
    # Row 0 of the hits is the operating point, rows 1: the AP thresholds.
    pools = _pool([(r.ground_truth, r.predictions) for r in ordered],
                  (op.iou_threshold, *AP_IOU_THRESHOLDS), (FUNGAL, ARTEFACT))
    per_class: dict[int, ClassMetrics] = {}
    for c, pool in pools.items():
        admitted = op.admits(pool.confidences)
        matched = admitted & pool.hits[0]
        tp = int(matched.sum())
        fp, fn = int(admitted.sum()) - tp, pool.total_gt - tp
        precision, recall, f1 = counts_to_prf(tp, fp, fn)
        ap50, ap50_95 = (_ap_pair(pool, pool.hits[1:], interpolation)
                         if pool.total_gt else (None, None))
        ious = pool.ious[matched].tolist()  # image then greedy order
        mean_iou = sum(ious) / len(ious) if ious else None
        per_class[c] = ClassMetrics(tp, fp, fn, precision, recall, f1,
                                    ap50, ap50_95, mean_iou)

    present = [m for m in per_class.values() if m.tp + m.fp + m.fn > 0]
    macro = MacroMetrics(
        precision=_macro([m.precision for m in present]),
        recall=_macro([m.recall for m in present]),
        f1=_macro([m.f1 for m in present]),
        ap50=_macro([m.ap50 for m in per_class.values()]),
        ap50_95=_macro([m.ap50_95 for m in per_class.values()]),
        mean_iou=_macro([m.mean_iou for m in per_class.values()]),
    )
    return ObjectMetrics(per_class=per_class, macro=macro)
