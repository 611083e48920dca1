"""Class-aware greedy matching of predictions to ground truth and the
object-level detection metrics built on top of it.

The matching protocol: predictions below the confidence threshold are
discarded; the rest are processed in descending confidence (ties broken
by higher best-IoU against same-class ground truth, then input order).
Each prediction claims the unmatched same-class ground-truth box with the
highest IoU when that IoU clears the threshold (ties go to the lower
ground-truth index); otherwise it is a false positive. Ground truth left
unmatched is a false negative. Cross-class IoU is never consulted.

The flow is tables -> kernel -> pool -> metrics. The kernel reads a
cohort's :class:`~koheval.dataset.BoxTables` in id order: a Dataset's own
(plain records become one through :func:`~koheval.dataset.as_dataset`),
or those :func:`~koheval.dataset.box_tables` makes of Box lists
(``match_image``'s one image, ``pr_curve``'s scenes). ``_match``
runs the rule for every image at every IoU threshold in one pass over
the pairs of a prediction and a ground-truth box of its own image and
class, no others. ``_pool`` splits the kernel's arrays by class. Counts,
mean IoU, PR curves and AP all read the pooled arrays, and
``_integrate`` is the one AP integrator. Every sort of the matcher is one unstable argsort
of a unique int key ending in the element's position: ties fall as in a stable sort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .dataset import BoxTables, as_dataset, box_tables
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

    def flags_positive(self, confidence: float | None) -> bool:
        """Image-level screening rule on an image's top fungal confidence:
        strictly > threshold. ``None``, no fungal prediction, is negative.
        On an array of confidences it answers elementwise."""
        return confidence is not None and confidence > self.conf_threshold


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
    # Predictions of a run of images, in image then greedy order.
    index: np.ndarray  # position in its image's prediction list
    classes: np.ndarray
    confidences: np.ndarray
    matched: np.ndarray  # ground truth matched at the first threshold, or -1
    hits: np.ndarray  # thresholds x predictions: matched at that threshold
    ious: np.ndarray  # IoU of the first threshold's match, 0.0 where it missed


# A chunk's budget of pairs: runs of consecutive images are matched
# together while their pairs fit it.
_PAIR_BUDGET = 1 << 14


def _rank(values: np.ndarray) -> np.ndarray:
    # Dense ascending ranks: equal values, -0.0 and 0.0 among them, share one.
    return np.unique(values, return_inverse=True)[1]


def _then(order: np.ndarray, rank: np.ndarray) -> np.ndarray:
    # ``order`` sorted stably by ``rank``: one unstable sort of rank * len + position.
    return order[np.argsort(rank[order] * len(order) + np.arange(len(order)))]


def _match(tables: BoxTables, thresholds: Sequence[float]) -> _SceneMatch:
    """The greedy matcher: every image of ``tables`` at every IoU
    threshold, over the pairs of a prediction and a ground-truth box of its
    own image and class, whose IoU it computes once, a chunk at a time.
    Predictions of one image and class contend for the same ground truth
    and others never, so step k of the greedy loop takes the k-th of every
    image and class at once. Confidence is the first sort key, so the
    predictions a confidence threshold admits lead each image's order.
    Each ordering is an unstable argsort of a unique int64 key ending in the element's
    position, each stage a rank below n + 1 for n sorted elements: no key exceeds (n + 1)**2.
    """
    limits = np.asarray(thresholds, dtype=float)
    gt, pred = tables.gt, tables.pred
    images = np.arange(len(tables.gt_counts))
    gt_at, pred_at = (np.concatenate(([0], counts.cumsum()))
                      for counts in (tables.gt_counts, tables.pred_counts))
    pred_image = np.repeat(images, tables.pred_counts)
    # A prediction's pairs are the run of its key, K * gt_at[image] + class rank * span (K, the
    # boxes of both tables, exceeds every rank), in the ground truth sorted by key then index.
    classes, span = _rank(np.concatenate((gt[:, 4], pred[:, 4]))), tables.gt_counts
    gt_image = np.repeat(images, span)
    gt_key, pred_key = (len(classes) * gt_at[i] + c * span[i] for i, c in
                        ((gt_image, classes[:len(gt)]), (pred_image, classes[len(gt):])))
    by_key = np.argsort(gt_key + np.arange(len(gt)) - gt_at[gt_image])
    first, last = np.searchsorted(gt_key[by_key], (pred_key, pred_key + span[pred_image]))
    pair_at = np.concatenate(([0], (last - first).cumsum()))
    image_pairs = pair_at[pred_at]

    (best, ious), (matched, order) = np.zeros((2, len(pred))), np.full((2, len(pred)), -1)
    hits = np.zeros((len(limits), len(pred)), dtype=bool)
    # The last row stands for no ground truth: a miss marks it taken.
    available = np.ones((len(gt) + 1, len(limits)), dtype=bool)
    lowest, columns, start = limits.min(initial=np.inf), np.arange(len(limits)), 0
    while start < len(images):
        stop = max(start + 1, int(np.searchsorted(
            image_pairs, image_pairs[start] + _PAIR_BUDGET, "right")) - 1)
        p0, p1, start = pred_at[start], pred_at[stop], stop
        pair_pred = np.repeat(np.arange(p0, p1), last[p0:p1] - first[p0:p1])
        pair_gt = by_key[first[pair_pred] + np.arange(pair_at[p0], pair_at[p1])
                         - pair_at[pair_pred]]
        iou = iou_matrix(gt[pair_gt, None, :4], pred[pair_pred, None, :4]).ravel()
        np.maximum.at(best, pair_pred, iou)
        greedy = _then(_then(_then(np.arange(p1 - p0), _rank(-best[p0:p1])),
                             _rank(-pred[p0:p1, 5])), pred_at[pred_image[p0:p1]] - p0)
        order[p0:p1], seat = greedy + p0, np.argsort(greedy)  # seat: place in greedy
        # A pair below every threshold can neither match nor block a match.
        reach = iou >= lowest
        pair_pred, pair_gt, iou = pair_pred[reach], pair_gt[reach], iou[reach]
        lengths = np.bincount(pair_pred - p0)
        live = np.flatnonzero(lengths)
        lengths, live = lengths[live], live + p0
        # A prediction's step is its rank in the greedy order of its image
        # and class, whose run of ground truth starts at ``first``.
        by_group = np.argsort(first[live] * (p1 - p0) + seat[live - p0])
        group = first[live[by_group]]
        step = np.empty_like(live)
        step[by_group] = np.arange(len(live)) - np.searchsorted(group, group)
        # Step by step, the predictions in index order and each one's pairs
        # from the highest IoU down, ties in ground-truth index order: the
        # first available pair is the one the rule takes.
        by_step = _then(np.arange(len(live)), step)
        runs = _then(_then(np.arange(len(iou)), _rank(-iou)), by_step.argsort().repeat(lengths))
        step_at = np.concatenate(([0], np.bincount(step).cumsum()))
        run_at = np.concatenate(([0], lengths[by_step].cumsum()))
        run_heads = run_at[:-1] - run_at[step_at[step[by_step]]]
        # A last pair stands for none available: IoU -1, the last row.
        pair_gt, iou = np.append(pair_gt[runs], -1), np.append(iou[runs], -1.0)
        chosen = np.empty((len(live), len(limits)), dtype=np.intp)
        for a, b in zip(step_at[:-1].tolist(), step_at[1:].tolist()):
            lo, hi = run_at[a], run_at[b]
            chosen[a:b] = pair = np.minimum.reduceat(np.where(
                available[pair_gt[lo:hi]], np.arange(lo, hi)[:, None], len(runs)),
                run_heads[a:b], axis=0)
            available[np.where(iou[pair] >= limits, pair_gt[pair], -1), columns] = False
        hit, live = iou[chosen] >= limits, live[by_step]
        hits[:, live] = hit.T
        matched[live] = np.where(hit[:, 0], pair_gt[chosen[:, 0]], -1)
        ious[live] = np.where(hit[:, 0], iou[chosen[:, 0]], 0.0)

    image, matched = pred_image[order], matched[order]
    return _SceneMatch(order - pred_at[image], pred[order, 4].astype(int), pred[order, 5],
                       np.where(matched >= 0, matched - gt_at[image], -1), hits[:, order],
                       ious[order])


def match_image(gts: Sequence[Box], preds: Sequence[Box],
                op: OperatingPoint = OperatingPoint()) -> MatchReport:
    """Match one image's predictions to its ground truth.

    Bit-for-bit equivalent to the naive reference matcher in
    :mod:`koheval.synth`.
    """
    kept = [i for i, p in enumerate(preds) if op.admits(p.confidence)]
    scene = _match(box_tables([(gts, [preds[i] for i in kept])]), (op.iou_threshold,))
    greedy = list(zip([kept[j] for j in scene.index.tolist()],
                      scene.matched.tolist(), scene.ious.tolist()))
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


def _pool(tables: BoxTables, thresholds: Sequence[float],
          class_ids: Iterable[int]) -> dict[int, _ClassPool]:
    """Match every image once and pool its arrays by predicted class."""
    _, classes, confidences, _, hits, ious = _match(tables, thresholds)
    return {c: _ClassPool(c, int(np.count_nonzero(tables.gt[:, 4] == c)),
                          confidences[classes == c], hits[:, classes == c],
                          ious[classes == c])
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


def _sweep(pool: _ClassPool) -> tuple[np.ndarray, ...]:
    # Confidence, precision and recall after each distinct confidence, a
    # row per row of the pool's hits, swept in descending confidence. An unstable
    # sort serves: order among equal confidences cannot change the state kept after them.
    if pool.total_gt == 0:
        raise UndefinedMetricError(f"no ground truth of class {pool.class_id}: "
                                   "recall undefined")
    order = np.argsort(-pool.confidences)
    confidences = pool.confidences[order]
    tp = np.cumsum(pool.hits[:, order], axis=1)
    swept = np.arange(1, len(order) + 1)
    last = np.ones(len(order), dtype=bool)
    last[:-1] = confidences[1:] != confidences[:-1]
    return confidences[last], (tp / swept)[:, last], (tp / pool.total_gt)[:, last]


def _curve(pool: _ClassPool, confidences: np.ndarray, precision: np.ndarray,
           recall: np.ndarray) -> PRCurve:
    # Row 0 of the sweep of ``pool``, its first IoU threshold, as a curve.
    points = zip(confidences.tolist(), precision[0].tolist(), recall[0].tolist())
    return PRCurve(points=tuple(points), total_gt=pool.total_gt)


def pr_curve(scenes: Sequence[ScenePair], class_id: int,
             iou_threshold: float = 0.50) -> PRCurve:
    """Pooled precision-recall curve for one class across images.

    Predictions are pooled over all scenes and swept in descending
    confidence, applying the greedy match rule within each prediction's
    own image. Callers wanting order-independent output should pass
    scenes sorted by image id.
    """
    OperatingPoint(iou_threshold=iou_threshold)  # rejects one outside (0, 1]
    pool = _pool(box_tables(scenes), (iou_threshold,), (class_id,))[class_id]
    return _curve(pool, *_sweep(pool))


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


def _ap_pair(precision: np.ndarray, recall: np.ndarray,
             interpolation: str) -> tuple[float, float]:
    # AP at the first row of a sweep and the mean over all its rows.
    values = [_integrate(r, p, interpolation) for r, p in zip(recall, precision)]
    return values[0], sum(values) / len(values)


def ap_sweep(scenes: Sequence[ScenePair], class_id: int,
             interpolation: str = "101") -> tuple[float, float]:
    """AP at IoU 0.50 and the mean over thresholds 0.50:0.05:0.95."""
    pool = _pool(box_tables(scenes), AP_IOU_THRESHOLDS, (class_id,))[class_id]
    return _ap_pair(*_sweep(pool)[1:], interpolation)


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
    # The PR curve at the operating IoU of each class with ground truth.
    curves: Mapping[int, PRCurve] = field(default_factory=dict)

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

    ``records`` is a Dataset or any sequence of ImageRecord; pooling is in
    id order, so record order never changes the result.
    """
    thresholds = tuple(dict.fromkeys((op.iou_threshold, *AP_IOU_THRESHOLDS)))  # distinct, op first
    rows = [thresholds.index(t) for t in AP_IOU_THRESHOLDS]
    pools = _pool(as_dataset(records).tables, thresholds, (FUNGAL, ARTEFACT))
    per_class: dict[int, ClassMetrics] = {}
    curves: dict[int, PRCurve] = {}
    for c, pool in pools.items():
        admitted = op.admits(pool.confidences)
        matched = admitted & pool.hits[0]
        tp = int(matched.sum())
        fp, fn = int(admitted.sum()) - tp, pool.total_gt - tp
        precision, recall, f1 = counts_to_prf(tp, fp, fn)
        ap50 = ap50_95 = None
        if pool.total_gt:
            confidences, precisions, recalls = _sweep(pool)
            curves[c] = _curve(pool, confidences, precisions, recalls)
            ap50, ap50_95 = _ap_pair(precisions[rows], recalls[rows], interpolation)
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
    return ObjectMetrics(per_class=per_class, macro=macro, curves=curves)
