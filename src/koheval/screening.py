"""Image-level screening: collapse detections to a per-image diagnosis and
score the resulting binary classifier.

An image is called positive when at least one fungal-class prediction has
confidence strictly above the operating threshold. Artefact predictions
never contribute; they exist to absorb mimics at training time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import SchemaError, UndefinedMetricError
from .geometry import FUNGAL
from .metrics import OperatingPoint, counts_to_prf


@dataclass(frozen=True)
class Diagnosis:
    """Screening verdict for one image."""

    image_id: str
    positive: bool
    max_fungal_confidence: float | None
    gt_positive: bool


def classify_image(record, op: OperatingPoint = OperatingPoint(),
                   gt_positive: bool | None = None) -> Diagnosis:
    """Collapse one image's predictions to a positive/negative call.

    ``gt_positive`` overrides the label derived from ground-truth boxes;
    use it when reference labels come from a source other than the
    annotations (clinical culture results, say).
    """
    fungal_confs = [p.confidence for p in record.predictions
                    if p.class_id == FUNGAL]
    top = max(fungal_confs) if fungal_confs else None
    if gt_positive is None:
        gt_positive = any(b.class_id == FUNGAL for b in record.ground_truth)
    return Diagnosis(
        image_id=record.image_id,
        positive=op.flags_positive(top),
        max_fungal_confidence=top,
        gt_positive=gt_positive,
    )


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
    """Screening outcome for a cohort at one operating point."""

    op: OperatingPoint
    matrix: ConfusionMatrix
    diagnoses: tuple[Diagnosis, ...]

    @property
    def false_negative_ids(self) -> tuple[str, ...]:
        return tuple(d.image_id for d in self.diagnoses
                     if d.gt_positive and not d.positive)

    @property
    def false_positive_ids(self) -> tuple[str, ...]:
        return tuple(d.image_id for d in self.diagnoses
                     if not d.gt_positive and d.positive)


def screen_dataset(records, op: OperatingPoint = OperatingPoint(),
                   gt_labels: Mapping[str, bool] | None = None
                   ) -> ScreeningReport:
    """Screen every image in a cohort.

    ``gt_labels`` maps image_id to the reference diagnosis; ids absent
    from the mapping fall back to the annotation-derived label. Output is
    ordered by image_id regardless of input order.
    """
    if not records:
        raise UndefinedMetricError("cannot screen an empty cohort")
    diagnoses = []
    for record in sorted(records, key=lambda r: r.image_id):
        override = None if gt_labels is None else gt_labels.get(record.image_id)
        diagnoses.append(classify_image(record, op, gt_positive=override))
    return ScreeningReport(op=op, diagnoses=tuple(diagnoses),
                           matrix=_confusions(diagnoses, [op])[0])


def _confusions(diagnoses: Sequence[Diagnosis],
                ops: Sequence[OperatingPoint]) -> list[ConfusionMatrix]:
    """Confusion matrix of ``diagnoses`` at each operating point. Each
    image's top fungal confidence (None as -inf, which no threshold flags)
    meets every threshold at once."""
    top = np.array([-np.inf if d.max_fungal_confidence is None
                    else d.max_fungal_confidence for d in diagnoses])
    truth = np.array([bool(d.gt_positive) for d in diagnoses])
    called = np.array([op.flags_positive(top) for op in ops])  # [op, image]
    cells = (called & truth, ~called & truth, called & ~truth, ~called & ~truth)
    counts = np.array([cell.sum(axis=1) for cell in cells]).T.tolist()  # tp fn fp tn
    return [ConfusionMatrix(*row) for row in counts]


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
    # Each image is classified once, then scored at every threshold.
    diagnoses = screen_dataset(records, ops[0], gt_labels).diagnoses
    return [(op.conf_threshold, matrix)
            for op, matrix in zip(ops, _confusions(diagnoses, ops))]
