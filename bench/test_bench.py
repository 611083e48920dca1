"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import warnings
from collections import Counter
from pathlib import Path

import pytest

import koheval.metrics
from koheval.geometry import FUNGAL, Box
from koheval.metrics import evaluate_detections
from koheval.synth import SynthSpec, generate, read_cohort, write_cohort

import cohorts
import run
from spans import ROOT, Span, Tracer, check_spans, counted_records, \
    layer_self_times, outermost_time, self_times
from workloads import WORKLOADS, CheckFailed, check_evaluation, evaluation_oracle

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in root.rglob("*") if p.is_file()}


def test_dense_cohort_is_byte_identical_for_the_same_seed(tmp_path):
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        write_cohort(cohorts.dense_cohort(seed, 4), tmp_path / name)
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    assert _tree_bytes(tmp_path / "a") != _tree_bytes(tmp_path / "c")


def test_dense_boxes_stay_inside_the_frame_and_read_back_exactly(tmp_path):
    dataset = cohorts.dense_cohort(3, 6)
    for image in dataset:
        assert 25 * 2 <= len(image.ground_truth) <= 50 * 2
        for box in image.ground_truth + image.predictions:
            assert 0.0 <= box.x_min < box.x_max <= cohorts.FRAME
            assert 0.0 <= box.y_min < box.y_max <= cohorts.FRAME
    write_cohort(dataset, tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a clipped box warns
        assert read_cohort(tmp_path).records == dataset.records


def test_dense_ground_truth_overlaps():
    image = cohorts.dense_cohort(5, 1).records[0]
    gts = [b for b in image.ground_truth if b.class_id == FUNGAL]
    ious = koheval.metrics.iou_matrix(gts, gts)
    overlapping = (ious > 0).sum() - len(gts)
    assert overlapping > len(gts)


def _tree():
    # root [0, 10] -> a [1, 4], b [5, 9] -> b1 [6, 7]
    return [Span(ROOT, 0.0, 10.0, -1), Span("metrics.a", 1.0, 4.0, 0),
            Span("geometry.b", 5.0, 9.0, 0), Span("metrics.b1", 6.0, 7.0, 2)]


def test_self_times_on_a_hand_built_tree():
    spans = _tree()
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    assert layer_self_times(spans) == {"cli": 3.0, "metrics": 4.0, "geometry": 3.0}


def test_check_spans_accepts_a_nested_tree_that_spans_the_wall_time():
    check_spans(_tree(), wall=10.01, tolerance=0.05)


@pytest.mark.parametrize("broken, message", [
    # b1 ends after its parent b.
    (lambda t: t[:3] + [Span("metrics.b1", 6.0, 9.5, 2)], "outside its parent"),
    # a overlaps its sibling b, so the root's self time goes negative.
    (lambda t: [Span(ROOT, 0.0, 10.0, -1), Span("metrics.a", 0.0, 6.0, 0),
                Span("geometry.b", 4.0, 10.0, 0)], "negative self time"),
    # The root opened after the work began: it covers 10 of the 12 s.
    (lambda t: t, "took 12.0"),
    (lambda t: t[:3] + [None], "never closed"),
    (lambda t: t + [Span("metrics.c", 1.0, 2.0, -1)], "one root"),
])
def test_check_spans_rejects_a_broken_tree(broken, message):
    wall = 12.0 if message == "took 12.0" else 10.0
    with pytest.raises(ValueError, match=message):
        check_spans(broken(_tree()), wall=wall, tolerance=0.05)


def test_outermost_time_counts_nested_spans_once():
    spans = _tree()
    assert outermost_time(spans, {"metrics.a", "metrics.b1"}) == 4.0
    assert outermost_time(spans, {"geometry.b", "metrics.b1"}) == 4.0
    assert outermost_time(spans, {"missing"}) == 0.0


def test_tracer_records_nested_spans_and_restores_the_originals():
    original = koheval.metrics.iou_matrix
    gts = [Box(0, 0, 10, 10, FUNGAL)]
    preds = [Box(1, 1, 11, 11, FUNGAL, 0.9), Box(50, 50, 60, 60, FUNGAL, 0.1)]
    tracer = Tracer()
    report = tracer.operation(lambda: koheval.metrics.match_image(gts, preds))
    assert koheval.metrics.iou_matrix is original
    assert report == koheval.metrics.match_image(gts, preds)
    names = [s.name for s in tracer.spans]
    assert names == [ROOT, "metrics.match_image", "geometry.iou_matrix"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1]
    assert tracer.counts["geometry.iou_pairs"] == 1  # one gt x one kept pred
    assert tracer.counts["metrics.pred_visits"] == 1


def test_counted_records_count_prediction_reads():
    records = generate(SynthSpec(n_images=3, seed=1))[0].records
    counts = Counter()
    counted = counted_records(records, counts)
    for record, original in zip(counted, records):
        assert isinstance(record, type(original))
        assert (record.image_id, record.dims, record.ground_truth) \
            == (original.image_id, original.dims, original.ground_truth)
        assert record.predictions is original.predictions
    assert counts["screening.sweep_image_visits"] == 3


def _report(records) -> dict:
    # The per-class part of an evaluate report, as JSON would hold it.
    metrics = evaluate_detections(records)
    return {"object_metrics": {"per_class": {
        koheval.geometry.CLASS_NAMES[c]: vars(m) for c, m in metrics.per_class.items()}}}


@pytest.mark.parametrize("make", [
    lambda: generate(SynthSpec(n_images=60, seed=2))[0].records,
    lambda: cohorts.dense_cohort(4, 3).records,
])
def test_evaluation_oracle_agrees_with_evaluate(make):
    records = make()
    expected = evaluation_oracle(records)
    report = _report(records)
    check_evaluation(report, expected)
    fungal = report["object_metrics"]["per_class"]["fungal"]
    fungal["ap50_95"] += 1e-9
    with pytest.raises(CheckFailed, match="ap50_95"):
        check_evaluation(report, expected)


def test_in_child_returns_the_result_and_reports_a_failure():
    assert run.in_child(lambda: {"value": 42}) == {"value": 42}
    with pytest.raises(RuntimeError, match="ZeroDivisionError"):
        run.in_child(lambda: 1 / 0)


def test_at_reference_speed_scales_by_the_reference_loop():
    ref = run.REF_LOOP_S
    assert run.at_reference_speed(2.0, ref, ref, 0.5) == pytest.approx(2.0)
    # The host ran the loop k times as slowly around the operation: the
    # time is divided by k ** sensitivity.
    k = 4.0
    assert run.at_reference_speed(2.0, k * ref, k * ref, 0.5) == pytest.approx(1.0)
    assert run.at_reference_speed(2.0, ref, (2 * k - 1) * ref, 0.5) == pytest.approx(1.0)
    assert run.at_reference_speed(2.0, k * ref, k * ref, 1.0) == pytest.approx(0.5)


def test_percentile_summary():
    assert run.percentile_summary([3.0, 1.0, 2.0]) == \
        {"samples": 3, "median": 2.0, "top": None, "values": [3.0, 1.0, 2.0]}
    summary = run.percentile_summary([float(i) for i in range(100)])
    assert summary["top"] == {"p": 90, "value": 90.0}


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads(BENCHMARK_JSON.read_text())
    # Every listed workload exists, in the benchmark's order; eval-dense
    # runs by name but is not listed (bench/README.md says why).
    listed = [w["name"] for w in spec["workloads"]]
    assert listed == [name for name in WORKLOADS if name in listed]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])

