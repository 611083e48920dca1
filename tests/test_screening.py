from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koheval.dataset import ImageRecord
from koheval.errors import SchemaError, UndefinedMetricError
from koheval.geometry import ARTEFACT, FUNGAL, Box, ImageDims
from koheval.metrics import OperatingPoint
from koheval.screening import ConfusionMatrix, screen_dataset, threshold_sweep

DIMS = ImageDims(1024, 1024)


def record(image_id, gt_classes=(), preds=()):
    gts = [Box(10.0 + 30 * i, 10.0, 30.0 + 30 * i, 30.0, c)
           for i, c in enumerate(gt_classes)]
    ps = [Box(500.0 + 30 * i, 500.0, 520.0 + 30 * i, 520.0, c, confidence=conf)
          for i, (c, conf) in enumerate(preds)]
    return ImageRecord(image_id, DIMS, gts, ps)


def call(rec, conf=0.25, gt_labels=None):
    """(positive call, reference label) of ``rec`` screened on its own."""
    m = screen_dataset([rec], OperatingPoint(conf_threshold=conf), gt_labels).matrix
    return m.tp + m.fp == 1, m.tp + m.fn == 1


class TestClassifyImage:
    """One image's call, through ``screen_dataset`` on a one-image cohort."""

    def test_positive_needs_strictly_greater_confidence(self):
        assert call(record("a", (FUNGAL,), [(FUNGAL, 0.25)])) == (False, True)
        assert call(record("b", (FUNGAL,), [(FUNGAL, 0.250001)])) == (True, True)

    def test_artefact_predictions_never_flag(self):
        rec = record("a", (), [(ARTEFACT, 0.99)])
        assert call(rec) == (False, False)
        assert call(rec, conf=1e-12) == (False, False)

    def test_takes_max_fungal_confidence(self):
        rec = record("a", (FUNGAL,), [(FUNGAL, 0.8), (FUNGAL, 0.4)])
        assert call(rec, conf=0.7) == (True, True)
        assert call(rec, conf=0.8) == (False, True)

    def test_gt_label_from_annotations(self):
        assert call(record("a", (FUNGAL,)))[1]
        assert not call(record("a", (ARTEFACT,)))[1]
        assert not call(record("a"))[1]

    def test_gt_label_override(self):
        assert not call(record("a", (FUNGAL,)), gt_labels={"a": False})[1]
        assert call(record("a", (FUNGAL,)), gt_labels={"b": False})[1]
        alarm = record("a", (), [(FUNGAL, 0.9)])
        assert call(alarm, gt_labels={"a": True}) == (True, True)


class TestConfusionMatrix:
    def test_rates(self):
        m = ConfusionMatrix(tp=89, fn=0, fp=3, tn=162)
        assert m.total == 254
        assert m.gt_positives == 89
        assert m.gt_negatives == 165
        assert m.sensitivity == 1.0
        assert m.specificity == 162 / 165
        assert m.precision == 89 / 92
        assert m.npv == 1.0
        assert m.accuracy == 251 / 254
        assert m.balanced_accuracy == (1.0 + 162 / 165) / 2

    def test_absent_denominators_read_none(self):
        no_positives = ConfusionMatrix(tp=0, fn=0, fp=2, tn=8)
        assert no_positives.sensitivity is None
        assert no_positives.f1 is not None
        no_negatives = ConfusionMatrix(tp=5, fn=1, fp=0, tn=0)
        assert no_negatives.specificity is None
        assert no_negatives.balanced_accuracy is None
        silent = ConfusionMatrix(tp=0, fn=0, fp=0, tn=4)
        assert silent.precision is None
        assert silent.f1 is None

    def test_negative_cells_rejected(self):
        with pytest.raises(SchemaError):
            ConfusionMatrix(tp=-1, fn=0, fp=0, tn=0)


class TestScreenDataset:
    def cohort(self):
        return [
            record("pos-hit", (FUNGAL,), [(FUNGAL, 0.9)]),
            record("pos-miss", (FUNGAL,), [(FUNGAL, 0.1)]),
            record("neg-quiet", (ARTEFACT,), [(ARTEFACT, 0.9)]),
            record("neg-alarm", (), [(FUNGAL, 0.6)]),
        ]

    def test_matrix_and_id_lists(self):
        report = screen_dataset(self.cohort())
        m = report.matrix
        assert (m.tp, m.fn, m.fp, m.tn) == (1, 1, 1, 1)
        assert report.false_negative_ids == ("pos-miss",)
        assert report.false_positive_ids == ("neg-alarm",)

    def test_diagnoses_sorted_by_id(self):
        cohort = [*self.cohort(), record("a-miss", (FUNGAL,)),
                  record("a-alarm", (ARTEFACT,), [(FUNGAL, 0.3)])]
        report = screen_dataset(cohort[::-1])
        assert report.false_negative_ids == ("a-miss", "pos-miss")
        assert report.false_positive_ids == ("a-alarm", "neg-alarm")

    def test_label_override_map(self):
        report = screen_dataset(self.cohort(),
                                gt_labels={"neg-alarm": True})
        assert (report.matrix.tp, report.matrix.fp) == (2, 0)

    def test_empty_cohort_rejected(self):
        with pytest.raises(UndefinedMetricError):
            screen_dataset([])


class TestThresholdSweep:
    def test_monotone_rates(self):
        cohort = [
            record("a", (FUNGAL,), [(FUNGAL, 0.9)]),
            record("b", (FUNGAL,), [(FUNGAL, 0.55)]),
            record("c", (FUNGAL,), [(FUNGAL, 0.3)]),
            record("d", (), [(FUNGAL, 0.45)]),
            record("e", (), [(ARTEFACT, 0.8)]),
            record("f", ()),
        ]
        sweep = threshold_sweep(cohort, [0.2, 0.4, 0.5, 0.6, 0.95])
        sens = [m.sensitivity for _, m in sweep]
        spec = [m.specificity for _, m in sweep]
        assert sens == sorted(sens, reverse=True)
        assert spec == sorted(spec)
        assert sens[0] == 1.0
        assert sens[-1] == 0.0
        assert spec[-1] == 1.0

    def test_thresholds_sorted_in_output(self):
        cohort = [record("a", (FUNGAL,), [(FUNGAL, 0.5)])]
        sweep = threshold_sweep(cohort, [0.9, 0.1, 0.5])
        assert [t for t, _ in sweep] == [0.1, 0.5, 0.9]


# Thresholds and confidences share values, so a confidence equal to a
# threshold (not flagged: the rule is strictly greater) comes up often.
SHARED = [0.1, 0.25, 0.5, 0.75, 1.0]
thresholds = st.sampled_from(SHARED) | st.floats(0.0, 1.0, exclude_min=True)


@st.composite
def sweep_inputs(draw):
    """A cohort (images with no fungal prediction included), thresholds
    (duplicated and unsorted ones included) and an optional label map."""
    n = draw(st.integers(1, 8))
    images = [record(f"img-{i}",
                     draw(st.lists(st.sampled_from([FUNGAL, ARTEFACT]), max_size=2)),
                     draw(st.lists(st.tuples(st.sampled_from([FUNGAL, ARTEFACT]),
                                             st.sampled_from(SHARED)
                                             | st.floats(0.0, 1.0)), max_size=3)))
              for i in range(n)]
    labels = draw(st.none() | st.dictionaries(
        st.sampled_from([r.image_id for r in images]), st.booleans()))
    return draw(st.permutations(images)), draw(st.lists(thresholds, max_size=6)), labels


class CountingRecord:
    """An image record that counts reads of its predictions."""

    def __init__(self, rec):
        self.image_id, self.ground_truth = rec.image_id, rec.ground_truth
        self.dims = rec.dims
        self._predictions, self.reads = rec.predictions, 0

    @property
    def predictions(self):
        self.reads += 1
        return self._predictions


@settings(derandomize=True, deadline=None, max_examples=200)
@given(sweep_inputs())
def test_sweep_equals_screening_at_each_threshold(inputs):
    images, ts, labels = inputs
    counted = [CountingRecord(rec) for rec in images]
    sweep = threshold_sweep(counted, ts, labels)
    assert sweep == [(t, screen_dataset(images, OperatingPoint(conf_threshold=t),
                                        labels).matrix) for t in sorted(ts)]
    assert all(type(cell) is int for _, matrix in sweep for cell in astuple(matrix))
    assert [rec.reads for rec in counted] == [1 if ts else 0] * len(images)


def reference_calls(images, t, labels):
    """(image id, reference label, positive call) of each image in id order,
    by a plain loop over its boxes."""
    rows = []
    for rec in sorted(images, key=lambda r: r.image_id):
        fungal = [p.confidence for p in rec.predictions if p.class_id == FUNGAL]
        label = (labels or {}).get(rec.image_id)
        if label is None:
            label = any(b.class_id == FUNGAL for b in rec.ground_truth)
        rows.append((rec.image_id, label, bool(fungal) and max(fungal) > t))
    return rows


@settings(derandomize=True, deadline=None, max_examples=200)
@given(sweep_inputs())
def test_matrix_counts_each_images_call(inputs):
    # A plain loop over the records is the reference for the numpy count.
    images, ts, labels = inputs
    for t in ts:
        report = screen_dataset(images, OperatingPoint(conf_threshold=t), labels)
        rows = reference_calls(images, t, labels)
        calls = [(label, positive) for _, label, positive in rows]
        assert astuple(report.matrix) == tuple(calls.count(cell) for cell in (
            (True, True), (True, False), (False, True), (False, False)))
        assert report.false_negative_ids == tuple(
            image_id for image_id, label, positive in rows if label and not positive)
        assert report.false_positive_ids == tuple(
            image_id for image_id, label, positive in rows if positive and not label)
