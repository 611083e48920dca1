"""Image-level screening: reduce each image's detections to its top fungal
confidence and score the resulting binary classifier.

An image is called positive when at least one fungal-class prediction has
confidence strictly above the operating threshold. Artefact predictions
never contribute; they exist to absorb mimics at training time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Mapping, Sequence

import numpy as np

from .dataset import as_dataset, image_max
from .errors import SchemaError, UndefinedMetricError
from .geometry import FUNGAL
from .metrics import OperatingPoint, counts_to_prf


@dataclass(frozen=True)
class ConfusionMatrix:
    """2x2 screening outcome with derived rates.

    Rates with an empty denominator are None rather than zero: a cohort
    with no negatives has no measurable specificity, and reporting 0.0
    would look like a catastrophic instrument.
    """

    tp: int
    fn: int
    fp: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fn", "fp", "tn"):
            if getattr(self, name) < 0:
                raise SchemaError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fn + self.fp + self.tn

    @property
    def gt_positives(self) -> int:
        return self.tp + self.fn

    @property
    def gt_negatives(self) -> int:
        return self.fp + self.tn

    @property
    def sensitivity(self) -> float | None:
        return self.tp / self.gt_positives if self.gt_positives else None

    @property
    def specificity(self) -> float | None:
        return self.tn / self.gt_negatives if self.gt_negatives else None

    @property
    def precision(self) -> float | None:
        called = self.tp + self.fp
        return self.tp / called if called else None

    @property
    def npv(self) -> float | None:
        called = self.tn + self.fn
        return self.tn / called if called else None

    @property
    def accuracy(self) -> float | None:
        return (self.tp + self.tn) / self.total if self.total else None

    @property
    def f1(self) -> float | None:
        if self.tp + self.fp + self.fn == 0:
            return None
        return counts_to_prf(self.tp, self.fp, self.fn)[2]

    @property
    def balanced_accuracy(self) -> float | None:
        sens, spec = self.sensitivity, self.specificity
        if sens is None or spec is None:
            return None
        return (sens + spec) / 2


@dataclass(frozen=True)
class ScreeningReport:
    """Screening outcome for a cohort at one operating point, ids in id order."""

    op: OperatingPoint
    matrix: ConfusionMatrix
    false_negative_ids: tuple[str, ...]
    false_positive_ids: tuple[str, ...]


def _screen_arrays(records, gt_labels: Mapping[str, bool] | None):
    """Image ids in id order, each image's top fungal confidence (-inf where
    it has none, which no threshold flags) and its reference label: its
    ``gt_labels`` entry, else whether it has a fungal ground-truth box.
    ``records`` is a Dataset or any sequence of ImageRecord."""
    dataset = as_dataset(records)
    if not dataset:
        raise UndefinedMetricError("cannot screen an empty cohort")
    ids, tables = dataset.ids(), dataset.tables
    fungal = tables.pred[:, 4] == FUNGAL
    top = image_max(np.where(fungal, tables.pred[:, 5], -np.inf),
                    tables.pred_counts, -np.inf)
    truth = image_max(tables.gt[:, 4] == FUNGAL, tables.gt_counts, False)
    if gt_labels:
        truth = np.array([has if label is None else bool(label) for has, label
                          in zip(truth.tolist(), map(gt_labels.get, ids))], dtype=bool)
    return ids, top, truth


def _confusions(top: np.ndarray, truth: np.ndarray,
                ops: Sequence[OperatingPoint]) -> list[ConfusionMatrix]:
    """Confusion matrix at each operating point of the images whose top
    fungal confidences and reference labels are ``top`` and ``truth``."""
    called = np.array([op.flags_positive(top) for op in ops])  # [op, image]
    cells = (called & truth, ~called & truth, called & ~truth, ~called & ~truth)
    counts = np.array([cell.sum(axis=1) for cell in cells]).T.tolist()  # tp fn fp tn
    return [ConfusionMatrix(*row) for row in counts]


def screen_dataset(records, op: OperatingPoint = OperatingPoint(),
                   gt_labels: Mapping[str, bool] | None = None) -> ScreeningReport:
    """Screen every image in a cohort; ``screen_dataset([record], op)``
    screens one.

    ``gt_labels`` maps image_id to the reference diagnosis (a culture
    result, say); ids it lacks take the annotation-derived label.
    """
    ids, top, truth = _screen_arrays(records, gt_labels)
    called = op.flags_positive(top)
    return ScreeningReport(op, _confusions(top, truth, [op])[0],
                           tuple(compress(ids, (truth & ~called).tolist())),
                           tuple(compress(ids, (~truth & called).tolist())))


def threshold_sweep(records, thresholds: Sequence[float],
                    gt_labels: Mapping[str, bool] | None = None
                    ) -> list[tuple[float, ConfusionMatrix]]:
    """Confusion matrix at each confidence threshold, ascending.

    Raising the threshold can only retract positive calls, so sensitivity
    is non-increasing and specificity non-decreasing along the sweep.
    """
    ops = [OperatingPoint(conf_threshold=t) for t in sorted(thresholds)]
    if not ops:
        return []
    _, top, truth = _screen_arrays(records, gt_labels)
    return [(op.conf_threshold, matrix)
            for op, matrix in zip(ops, _confusions(top, truth, ops))]
