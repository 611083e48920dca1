"""Class-aware greedy matching of predictions to ground truth and the
object-level detection metrics built on top of it.

The matching protocol: predictions below the confidence threshold are
discarded; the rest are processed in descending confidence (ties broken
by higher best-IoU against same-class ground truth, then input order).
Each prediction claims the unmatched same-class ground-truth box with the
highest IoU when that IoU clears the threshold (ties go to the lower
ground-truth index); otherwise it is a false positive. Ground truth left
unmatched is a false negative. Cross-class IoU is never consulted.

One kernel, ``_match_scene``, runs this rule for an image at any number
of IoU thresholds in a single pass; matching, PR curves, AP and the
dataset-level metrics all read its result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

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

    def admits(self, confidence: float) -> bool:
        """Object-level keep rule: confidence >= threshold."""
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
    ious: np.ndarray  # ground truth x predictions
    order: list[int]  # greedy processing order of the predictions
    matched: np.ndarray  # thresholds x predictions: ground-truth index or -1


def _match_scene(gts: Sequence[Box], preds: Sequence[Box],
                 thresholds: Sequence[float]) -> _SceneMatch:
    """The greedy matcher: one image, every IoU threshold in one pass.

    Confidence is the first sort key, so matching only the predictions a
    confidence threshold admits equals cutting ``order`` at their number.
    """
    ious = iou_matrix(gts, preds)
    gt_classes = np.array([g.class_id for g in gts], dtype=int)
    pred_classes = np.array([p.class_id for p in preds], dtype=int)
    candidate = np.where(gt_classes[:, None] == pred_classes[None, :], ious, -1.0)
    best = candidate.max(axis=0, initial=0.0)
    confidences = np.array([p.confidence for p in preds], dtype=float)
    order = np.lexsort((-best, -confidences)).tolist()  # stable: ties keep input order

    limits = np.asarray(thresholds, dtype=float)
    rows = np.arange(len(limits))
    matched = np.full((len(limits), len(preds)), -1)
    available = np.ones((len(limits), len(gts)), dtype=bool)
    for j in (order if len(gts) else ()):  # argmax needs ground truth
        masked = np.where(available, candidate[:, j], -1.0)
        g = masked.argmax(axis=1)
        hit = masked[rows, g] >= limits
        available[rows[hit], g[hit]] = False
        matched[hit, j] = g[hit]
    return _SceneMatch(ious, order, matched)


def _report(gts: Sequence[Box], preds: Sequence[Box], columns: Sequence[int],
            scene: _SceneMatch, admitted: int) -> MatchReport:
    # Row 0 of ``scene`` read along the first ``admitted`` predictions of
    # its order; ``columns`` maps kernel columns to indices into ``preds``.
    order, matched = scene.order[:admitted], scene.matched[0]
    tp_pairs = tuple((int(matched[j]), columns[j], float(scene.ious[matched[j], j]))
                     for j in order if matched[j] >= 0)
    fp_indices = sorted(columns[j] for j in order if matched[j] < 0)
    taken = {g for g, _, _ in tp_pairs}
    fn_indices = [g for g in range(len(gts)) if g not in taken]
    classes = sorted({b.class_id for b in gts} | {preds[i].class_id for i in fp_indices})
    counts = {c: (sum(gts[g].class_id == c for g, _, _ in tp_pairs),
                  sum(preds[i].class_id == c for i in fp_indices),
                  sum(gts[g].class_id == c for g in fn_indices)) for c in classes}
    return MatchReport(tp_pairs=tp_pairs, fp_pred_indices=tuple(fp_indices),
                       fn_gt_indices=tuple(fn_indices), class_counts=counts)


def match_image(gts: Sequence[Box], preds: Sequence[Box],
                op: OperatingPoint = OperatingPoint()) -> MatchReport:
    """Match one image's predictions to its ground truth.

    Bit-for-bit equivalent to the naive reference matcher in
    :mod:`koheval.synth`.
    """
    kept = [i for i, p in enumerate(preds) if op.admits(p.confidence)]
    scene = _match_scene(gts, [preds[i] for i in kept], (op.iou_threshold,))
    return _report(gts, preds, kept, scene, len(kept))


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


def _pooled_curves(scenes: Sequence[ScenePair], hits: Sequence[np.ndarray],
                   class_id: int) -> Iterator[PRCurve]:
    # Yields one curve per threshold row of ``hits`` (a thresholds x
    # predictions array of match flags per scene), lazily, as each curve
    # holds a point per distinct confidence. Predictions are pooled in
    # descending confidence; their order among equal confidences does not
    # matter, as a curve keeps only the state after the last of them.
    total_gt = sum(1 for gts, _ in scenes for b in gts if b.class_id == class_id)
    if total_gt == 0:
        raise UndefinedMetricError(
            f"no ground truth of class {class_id}: recall undefined"
        )
    confidences, pooled = [], []
    for (_, preds), scene_hits in zip(scenes, hits):
        columns = [j for j, p in enumerate(preds) if p.class_id == class_id]
        confidences.extend(preds[j].confidence for j in columns)
        pooled.append(scene_hits[:, columns])
    confidences = np.array(confidences, dtype=float)
    order = np.argsort(-confidences, kind="stable")
    confidences = confidences[order]
    tp = np.cumsum(np.concatenate(pooled, axis=1)[:, order], axis=1)
    swept = np.arange(1, len(order) + 1)
    last = np.ones(len(order), dtype=bool)
    last[:-1] = confidences[1:] != confidences[:-1]
    for row in tp:
        yield PRCurve(points=tuple(zip(confidences[last].tolist(),
                                       (row / swept)[last].tolist(),
                                       (row / total_gt)[last].tolist())),
                      total_gt=total_gt)


def pr_curve(scenes: Sequence[ScenePair], class_id: int,
             iou_threshold: float = 0.50) -> PRCurve:
    """Pooled precision-recall curve for one class across images.

    Predictions are pooled over all scenes and swept in descending
    confidence, applying the greedy match rule within each prediction's
    own image. Callers wanting order-independent output should pass
    scenes sorted by image id.
    """
    hits = [_match_scene(gts, preds, (iou_threshold,)).matched >= 0
            for gts, preds in scenes]
    return next(_pooled_curves(scenes, hits, class_id))


def _envelope(curve: PRCurve) -> tuple[np.ndarray, np.ndarray]:
    # Points run from high confidence to low, which is ascending recall.
    # The suffix maximum makes the envelope non-increasing in recall.
    recalls = np.array([p[2] for p in curve.points])
    precisions = np.array([p[1] for p in curve.points])
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    return recalls, envelope


def average_precision(curve: PRCurve, interpolation: str = "101") -> float:
    """Average precision from a PR curve.

    ``"101"`` computes the 101-point interpolated mean (precision envelope
    sampled at recalls 0.00, 0.01, ..., 1.00); ``"all"`` integrates the
    envelope step function exactly.
    """
    if interpolation not in ("101", "all"):
        raise SchemaError(f"unknown interpolation {interpolation!r}")
    if not curve.points:
        return 0.0
    recalls, envelope = _envelope(curve)
    if interpolation == "101":
        grid = np.arange(101) / 100.0
        idx = np.searchsorted(recalls, grid, side="left")
        sampled = np.where(idx < len(recalls),
                           envelope[np.minimum(idx, len(recalls) - 1)], 0.0)
        return float(sampled.mean())
    steps = np.diff(np.concatenate(([0.0], recalls)))
    return float(np.sum(steps * envelope))


def ap_sweep(scenes: Sequence[ScenePair], class_id: int,
             interpolation: str = "101") -> tuple[float, float]:
    """AP at IoU 0.50 and the mean over thresholds 0.50:0.05:0.95."""
    hits = [_match_scene(gts, preds, AP_IOU_THRESHOLDS).matched >= 0
            for gts, preds in scenes]
    return _ap_pair(_pooled_curves(scenes, hits, class_id), interpolation)


def _ap_pair(curves: Iterable[PRCurve], interpolation: str) -> tuple[float, float]:
    values = [average_precision(curve, interpolation) for curve in curves]
    return values[0], sum(values) / len(values)


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
                        interpolation: str = "101",
                        class_ids: Sequence[int] = (FUNGAL, ARTEFACT)
                        ) -> ObjectMetrics:
    """Run matching over a whole dataset and assemble per-class + macro
    object-level metrics.

    ``records`` is a sequence of ImageRecord; pooling order is fixed by
    sorting on image_id, so record order never changes the result.
    """
    ordered = sorted(records, key=lambda r: r.image_id)
    scenes = [(r.ground_truth, r.predictions) for r in ordered]
    # Row 0 is the operating point, read at the admitted prefix of the
    # greedy order; the other rows are the AP thresholds.
    reports, hits = [], []
    for gts, preds in scenes:
        scene = _match_scene(gts, preds, (op.iou_threshold, *AP_IOU_THRESHOLDS))
        reports.append(_report(gts, preds, range(len(preds)), scene,
                               sum(1 for p in preds if op.admits(p.confidence))))
        hits.append(scene.matched[1:] >= 0)

    per_class: dict[int, ClassMetrics] = {}
    for c in class_ids:
        tp, fp, fn = (sum(r.class_counts.get(c, (0, 0, 0))[k] for r in reports)
                      for k in range(3))
        matched = [v for (gts, _), r in zip(scenes, reports)
                   for g, _, v in r.tp_pairs if gts[g].class_id == c]
        precision, recall, f1 = counts_to_prf(tp, fp, fn)
        if tp + fn > 0:
            ap50, ap50_95 = _ap_pair(_pooled_curves(scenes, hits, c), interpolation)
        else:
            ap50 = ap50_95 = None
        mean_iou = sum(matched) / len(matched) if matched else None
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
