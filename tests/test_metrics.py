import numpy as np
import pytest

from koheval.errors import SchemaError, UndefinedMetricError
from koheval.geometry import ARTEFACT, FUNGAL, Box
from koheval.metrics import (
    OperatingPoint,
    PRCurve,
    ap_sweep,
    average_precision,
    counts_to_prf,
    evaluate_detections,
    match_image,
    pr_curve,
)
from koheval.dataset import ImageRecord
from koheval.geometry import ImageDims

DIMS = ImageDims(2048, 2048)


def gt(x0, y0, x1, y1, class_id=FUNGAL):
    return Box(x0, y0, x1, y1, class_id)


def pred(x0, y0, x1, y1, conf, class_id=FUNGAL):
    return Box(x0, y0, x1, y1, class_id, confidence=conf)


class TestOperatingPoint:
    def test_defaults(self):
        op = OperatingPoint()
        assert op.conf_threshold == 0.25
        assert op.iou_threshold == 0.50

    def test_bounds(self):
        with pytest.raises(SchemaError):
            OperatingPoint(conf_threshold=0.0)
        with pytest.raises(SchemaError):
            OperatingPoint(iou_threshold=1.5)

    def test_object_rule_inclusive_image_rule_strict(self):
        op = OperatingPoint()
        assert op.admits(0.25)
        assert not op.admits(0.2499)
        assert not op.flags_positive(0.25)
        assert op.flags_positive(0.2501)
        assert op.flags_positive(None) is False  # no fungal prediction


class TestMatchImage:
    def test_single_clean_match(self):
        report = match_image([gt(0, 0, 10, 10)], [pred(0, 0, 10, 10, 0.9)])
        assert report.tp_pairs == ((0, 0, 1.0),)
        assert report.fp_pred_indices == ()
        assert report.fn_gt_indices == ()
        assert report.class_counts == {FUNGAL: (1, 0, 0)}

    def test_greedy_confidence_order_not_optimal(self):
        # The confident loose box claims the ground truth first; the
        # better-fitting one arrives too late.
        g = gt(0, 0, 10, 10)
        loose = pred(0, 4, 10, 14, 0.9)    # IoU 6/14
        tight = pred(0, 0, 10, 10, 0.8)    # IoU 1.0
        report = match_image([g], [loose, tight],
                             OperatingPoint(iou_threshold=0.30))
        assert report.tp_pairs == ((0, 0, 6.0 / 14.0),)
        assert report.fp_pred_indices == (1,)

    def test_equal_confidence_higher_iou_first(self):
        g = gt(0, 0, 10, 10)
        loose = pred(0, 4, 10, 14, 0.8)
        tight = pred(0, 1, 10, 11, 0.8)    # IoU 9/11
        report = match_image([g], [loose, tight])
        assert report.tp_pairs == ((0, 1, 9.0 / 11.0),)
        assert report.fp_pred_indices == (0,)

    def test_iou_tie_takes_lower_gt_index(self):
        twin_a = gt(0, 0, 10, 10)
        twin_b = gt(0, 0, 10, 10)
        p = pred(0, 0, 10, 10, 0.9)
        report = match_image([twin_a, twin_b], [p])
        assert report.tp_pairs == ((0, 0, 1.0),)
        assert report.fn_gt_indices == (1,)

    def test_ground_truth_used_once(self):
        g = gt(0, 0, 10, 10)
        report = match_image([g], [pred(0, 0, 10, 10, 0.9),
                                   pred(0, 0, 10, 10, 0.8)])
        assert len(report.tp_pairs) == 1
        assert report.fp_pred_indices == (1,)

    def test_class_aware(self):
        g = gt(0, 0, 10, 10, FUNGAL)
        p = pred(0, 0, 10, 10, 0.9, ARTEFACT)
        report = match_image([g], [p])
        assert report.tp_pairs == ()
        assert report.fp_pred_indices == (0,)
        assert report.fn_gt_indices == (0,)
        assert report.class_counts == {FUNGAL: (0, 0, 1), ARTEFACT: (0, 1, 0)}

    def test_below_confidence_threshold_is_invisible(self):
        g = gt(0, 0, 10, 10)
        report = match_image([g], [pred(0, 0, 10, 10, 0.1)])
        assert report.tp_pairs == ()
        assert report.fp_pred_indices == ()
        assert report.fn_gt_indices == (0,)

    def test_thresholds_are_inclusive(self):
        g = gt(0, 0, 10, 10)
        half = pred(0, 0, 10, 5, 0.25)     # IoU exactly 0.5
        report = match_image([g], [half])
        assert report.tp_pairs == ((0, 0, 0.5),)

    def test_just_under_iou_threshold(self):
        g = gt(0, 0, 10, 10)
        under = pred(0, 0, 10, 4.99, 0.9)
        report = match_image([g], [under])
        assert report.tp_pairs == ()
        assert report.fp_pred_indices == (0,)

    def test_empty_inputs(self):
        report = match_image([], [])
        assert report == match_image([], [])
        assert report.tp_pairs == ()
        assert match_image([], [pred(0, 0, 1, 1, 0.9)]).fp_pred_indices == (0,)
        assert match_image([gt(0, 0, 1, 1)], []).fn_gt_indices == (0,)

    def test_partition_invariant(self):
        rng = np.random.default_rng(np.random.SeedSequence((3, 0)))
        for _ in range(50):
            gts, preds = [], []
            for _ in range(int(rng.integers(0, 8))):
                x, y = rng.uniform(0, 80, 2)
                gts.append(gt(x, y, x + rng.uniform(2, 20),
                              y + rng.uniform(2, 20),
                              int(rng.integers(0, 2))))
            for _ in range(int(rng.integers(0, 8))):
                x, y = rng.uniform(0, 80, 2)
                preds.append(pred(x, y, x + rng.uniform(2, 20),
                                  y + rng.uniform(2, 20),
                                  float(rng.uniform(0, 1)),
                                  int(rng.integers(0, 2))))
            report = match_image(gts, preds)
            kept = sum(1 for p in preds if p.confidence >= 0.25)
            assert len(report.tp_pairs) + len(report.fp_pred_indices) == kept
            assert len(report.tp_pairs) + len(report.fn_gt_indices) == len(gts)
            matched_gts = [g for g, _, _ in report.tp_pairs]
            assert len(set(matched_gts)) == len(matched_gts)


class TestCounts:
    def test_basic(self):
        p, r, f1 = counts_to_prf(37, 9, 1)
        assert p == 37 / 46
        assert r == 37 / 38
        assert f1 == 2 * p * r / (p + r)

    def test_zero_conventions(self):
        assert counts_to_prf(0, 0, 0) == (0.0, 0.0, 0.0)
        assert counts_to_prf(0, 5, 0) == (0.0, 0.0, 0.0)
        assert counts_to_prf(0, 0, 5) == (0.0, 0.0, 0.0)


def three_point_scenes():
    # Two images, two ground-truth boxes, three predictions pooled as
    # TP(0.9), FP(0.8), TP(0.7).
    a_gt = [gt(0, 0, 10, 10)]
    a_pred = [pred(0, 0, 10, 10, 0.9), pred(50, 50, 60, 60, 0.8)]
    b_gt = [gt(20, 20, 30, 30)]
    b_pred = [pred(20, 20, 30, 30, 0.7)]
    return [(a_gt, a_pred), (b_gt, b_pred)]


class TestPRCurve:
    def test_points_and_totals(self):
        curve = pr_curve(three_point_scenes(), FUNGAL)
        assert curve.total_gt == 2
        assert curve.points == (
            (0.9, 1.0, 0.5),
            (0.8, 0.5, 0.5),
            (0.7, 2.0 / 3.0, 1.0),
        )

    def test_duplicate_confidences_collapse(self):
        scenes = [([gt(0, 0, 10, 10), gt(30, 30, 40, 40)],
                   [pred(0, 0, 10, 10, 0.8), pred(30, 30, 40, 40, 0.8)])]
        curve = pr_curve(scenes, FUNGAL)
        assert curve.points == ((0.8, 1.0, 1.0),)

    def test_no_ground_truth_is_undefined(self):
        with pytest.raises(UndefinedMetricError):
            pr_curve([([], [pred(0, 0, 1, 1, 0.9)])], FUNGAL)

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, 1.5, float("nan")])
    def test_iou_threshold_outside_unit_interval_rejected(self, threshold):
        with pytest.raises(SchemaError, match="iou_threshold"):
            pr_curve(three_point_scenes(), FUNGAL, threshold)

    def test_curve_validation(self):
        with pytest.raises(SchemaError):
            PRCurve(points=((0.5, 1.0, 0.5), (0.9, 1.0, 1.0)), total_gt=2)
        with pytest.raises(SchemaError):
            PRCurve(points=((0.9, 1.0, 0.8), (0.5, 1.0, 0.4)), total_gt=2)


class TestAveragePrecision:
    def test_perfect_curve_is_exactly_one(self):
        curve = PRCurve(points=((0.9, 1.0, 1.0),), total_gt=3)
        assert average_precision(curve) == 1.0
        assert average_precision(curve, "all") == 1.0

    def test_single_point_half_recall(self):
        curve = PRCurve(points=((0.9, 1.0, 0.5),), total_gt=2)
        assert average_precision(curve) == 51 / 101
        assert average_precision(curve, "all") == 0.5

    def test_three_point_hand_case(self):
        curve = pr_curve(three_point_scenes(), FUNGAL)
        assert average_precision(curve) == pytest.approx(253 / 303, abs=1e-12)
        assert average_precision(curve, "all") == pytest.approx(5 / 6, abs=1e-12)

    def test_envelope_monotone(self):
        # A precision dip before a later recovery is flattened.
        curve = PRCurve(points=((0.9, 1.0, 0.25), (0.8, 0.5, 0.25),
                                (0.7, 0.75, 0.75)), total_gt=4)
        ap = average_precision(curve)
        # Envelope: 1.0 up to recall 0.25, then 0.75 up to 0.75, then 0.
        expected = (sum(1.0 for k in range(101) if k <= 25)
                    + sum(0.75 for k in range(101) if 25 < k <= 75)) / 101
        assert ap == pytest.approx(expected, abs=1e-12)

    def test_empty_curve(self):
        curve = PRCurve(points=(), total_gt=5)
        assert average_precision(curve) == 0.0
        assert average_precision(curve, "all") == 0.0

    def test_unknown_interpolation(self):
        with pytest.raises(SchemaError):
            average_precision(PRCurve(points=(), total_gt=1), "11")


class TestSweep:
    def test_uniform_seven_tenths_is_half(self):
        from koheval.synth import plant_uniform_iou_cohort
        ds = plant_uniform_iou_cohort(6)
        scenes = [(r.ground_truth, r.predictions) for r in ds.records]
        ap50, ap50_95 = ap_sweep(scenes, FUNGAL)
        assert ap50 == 1.0
        assert ap50_95 == 0.5

    def test_mean_matched_iou(self):
        records = [ImageRecord("a", DIMS, [gt(0, 0, 10, 10)],
                               [pred(0, 0, 10, 5, 0.9)]),
                   ImageRecord("b", DIMS, [gt(0, 0, 10, 10)],
                               [pred(0, 0, 10, 10, 0.9)])]
        metrics = evaluate_detections(records)
        assert metrics.per_class[FUNGAL].mean_iou == (0.5 + 1.0) / 2

    def test_mean_matched_iou_undefined(self):
        metrics = evaluate_detections([ImageRecord("a", DIMS)])
        assert metrics.per_class[FUNGAL].mean_iou is None


class TestEvaluateDetections:
    def records(self):
        return [
            ImageRecord("b", DIMS,
                        [gt(20, 20, 30, 30)],
                        [pred(20, 20, 30, 30, 0.7)]),
            ImageRecord("a", DIMS,
                        [gt(0, 0, 10, 10)],
                        [pred(0, 0, 10, 10, 0.9), pred(50, 50, 60, 60, 0.8)]),
        ]

    def test_headline_class_and_counts(self):
        metrics = evaluate_detections(self.records())
        fungal = metrics.fungal
        assert (fungal.tp, fungal.fp, fungal.fn) == (2, 1, 0)
        assert fungal.precision == 2 / 3
        assert fungal.recall == 1.0
        assert fungal.mean_iou == 1.0
        assert fungal.ap50 == pytest.approx(253 / 303, abs=1e-12)

    def test_absent_class_conventions(self):
        metrics = evaluate_detections(self.records())
        artefact = metrics.per_class[ARTEFACT]
        assert (artefact.tp, artefact.fp, artefact.fn) == (0, 0, 0)
        assert artefact.precision == 0.0
        assert artefact.ap50 is None
        assert artefact.mean_iou is None
        # Macro averages only see classes with any material.
        assert metrics.macro.precision == metrics.fungal.precision
        assert metrics.macro.ap50 == metrics.fungal.ap50

    def test_record_order_invariant(self):
        forward = evaluate_detections(self.records())
        backward = evaluate_detections(list(reversed(self.records())))
        assert forward == backward

    def test_interpolation_mode_passthrough(self):
        metrics = evaluate_detections(self.records(), interpolation="all")
        assert metrics.fungal.ap50 == pytest.approx(5 / 6, abs=1e-12)
