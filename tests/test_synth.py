import hashlib
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import koheval.metrics
import koheval.synth
from koheval.dataset import (
    ImageRecord,
    InputTree,
    box_tables,
    format_label_file,
    parse_gt_file,
    parse_pred_file,
)
from koheval.errors import (
    GenerationError,
    InvalidBoxError,
    SchemaError,
    UndefinedMetricError,
)
from koheval.geometry import ARTEFACT, FUNGAL, Box, ImageDims, iou
from koheval.metrics import (
    AP_IOU_THRESHOLDS,
    ClassMetrics,
    MacroMetrics,
    ObjectMetrics,
    OperatingPoint,
    PRCurve,
    ap_sweep,
    average_precision,
    evaluate_detections,
    match_image,
    pr_curve,
)
from koheval.screening import screen_dataset
from koheval.synth import (
    FP_CONFIDENCE,
    SUPPRESSED_CONFIDENCE,
    TP_CONFIDENCE,
    PlantedBox,
    SynthSpec,
    SynthTruth,
    generate,
    plant_object_counts,
    plant_screening_matrix,
    plant_uniform_iou_cohort,
    read_cohort,
    read_truth,
    reference_ap,
    reference_match,
    write_cohort,
)
from koheval.synth import (
    _ENVELOPE_FACTOR,
    _grid_box,
    _perturb_to_iou,
    _Perturbation,
    _sample_dims,
    _solve_offsets,
)

_MISSING = "<missing>"  # conftest's mutate deletes a key given this value


def random_scene(rng, max_per_class=8, coarse=True):
    """Random boxes with deliberate confidence ties and heavy overlap."""
    gts, preds = [], []
    for class_id in (FUNGAL, ARTEFACT):
        for _ in range(int(rng.integers(0, max_per_class + 1))):
            x, y = rng.uniform(0, 90, 2)
            if coarse:
                x, y = round(x / 10) * 10.0, round(y / 10) * 10.0
            w, h = rng.uniform(5, 30, 2)
            gts.append(Box(x, y, x + w, y + h, class_id))
        for _ in range(int(rng.integers(0, max_per_class + 1))):
            x, y = rng.uniform(0, 90, 2)
            if coarse:
                x, y = round(x / 10) * 10.0, round(y / 10) * 10.0
            w, h = rng.uniform(5, 30, 2)
            conf = round(float(rng.uniform(0, 1)), 1)
            preds.append(Box(x, y, x + w, y + h, class_id, confidence=conf))
    return gts, preds


class TestSpecValidation:
    def test_rates_bounded(self):
        with pytest.raises(SchemaError):
            SynthSpec(tp_rate=1.2)
        with pytest.raises(SchemaError):
            SynthSpec(fp_extra_rate=-0.1)

    def test_negative_seed_rejected_on_every_generator_path(self):
        with pytest.raises(SchemaError):
            SynthSpec(seed=-1)
        with pytest.raises(SchemaError):
            plant_object_counts(1, 1, 1, seed=-1)
        with pytest.raises(SchemaError):
            plant_screening_matrix(1, 1, 1, 1, seed=-1)

    def test_count_too_large_for_a_list_rejected(self):
        # Counts past the index range (10**20), and counts inside it whose
        # list of 8-byte slots (8 PB for 10**15) no address space holds, so
        # the allocation fails at once. A smaller count would be allocated.
        for count in (10**20, 10**15):
            with pytest.raises(SchemaError, match="too large"):
                plant_object_counts(0, count, 0)
            with pytest.raises(SchemaError, match="too large"):
                plant_screening_matrix(1, 0, 0, count)

    def test_iou_mean_bounded(self):
        with pytest.raises(SchemaError):
            SynthSpec(iou_mean=0.0)
        with pytest.raises(SchemaError):
            SynthSpec(iou_mean=1.2)

    def test_ranges_ordered(self):
        with pytest.raises(SchemaError):
            SynthSpec(fungal_per_image=(3, 1))

    def test_band_separation(self):
        for lo, hi in (TP_CONFIDENCE, FP_CONFIDENCE, SUPPRESSED_CONFIDENCE):
            assert 0.0 < lo <= hi <= 1.0
        assert SUPPRESSED_CONFIDENCE[1] < min(TP_CONFIDENCE[0],
                                              FP_CONFIDENCE[0])

    def test_bands_must_straddle_threshold(self):
        threshold = OperatingPoint().conf_threshold
        assert SUPPRESSED_CONFIDENCE[1] < threshold
        assert threshold < min(TP_CONFIDENCE[0], FP_CONFIDENCE[0])


class TestGenerate:
    def test_deterministic_in_seed(self):
        a_data, a_truth = generate(SynthSpec(n_images=6, seed=13))
        b_data, b_truth = generate(SynthSpec(n_images=6, seed=13))
        assert a_data == b_data
        assert a_truth == b_truth
        c_data, _ = generate(SynthSpec(n_images=6, seed=14))
        assert c_data != a_data

    def test_images_draw_independent_streams(self):
        small, _ = generate(SynthSpec(n_images=3, seed=5))
        large, _ = generate(SynthSpec(n_images=7, seed=5))
        assert large.records[:3] == small.records

    def test_counts_recovered_by_matcher(self):
        for seed in range(5):
            dataset, truth = generate(SynthSpec(n_images=10, seed=seed))
            metrics = evaluate_detections(dataset.records)
            for class_id in (FUNGAL, ARTEFACT):
                m = metrics.per_class[class_id]
                assert (m.tp, m.fp, m.fn) == truth.expected_counts(class_id)

    def test_planted_iou_hits_target(self):
        _, truth = generate(SynthSpec(n_images=15, seed=3))
        tp_plants = [p for img in truth.images for p in img.planted
                     if p.role == "tp"]
        assert tp_plants
        for plant in tp_plants:
            assert 0.55 <= plant.target_iou <= 0.95
            assert abs(plant.achieved_iou - plant.target_iou) <= 1e-3

    def test_fungal_boxes_elongated_artefacts_compact(self):
        dataset, _ = generate(SynthSpec(n_images=20, seed=9))
        def aspect(b):
            return max(b.width, b.height) / min(b.width, b.height)
        fungal = [b for r in dataset for b in r.ground_truth
                  if b.class_id == FUNGAL]
        artefact = [b for r in dataset for b in r.ground_truth
                    if b.class_id == ARTEFACT]
        assert fungal and artefact
        assert min(aspect(b) for b in fungal) > 2.5
        assert max(aspect(b) for b in artefact) < 2.5

    def test_suppressed_plants_surface_below_threshold(self):
        spec = SynthSpec(n_images=30, seed=21, tp_rate=0.3)
        dataset, truth = generate(spec)
        suppressed = [p for img in truth.images for p in img.planted
                      if p.role == "suppressed"]
        assert suppressed
        low_op = OperatingPoint(conf_threshold=0.01)
        tp_low = sum(
            len(match_image(r.ground_truth, r.predictions, low_op).tp_pairs)
            for r in dataset
        )
        tp_default = sum(
            len(match_image(r.ground_truth, r.predictions).tp_pairs)
            for r in dataset
        )
        assert tp_low == tp_default + len(suppressed)

    def test_perfect_spec_gives_perfect_metrics(self):
        spec = SynthSpec(n_images=8, seed=4, tp_rate=1.0, fp_extra_rate=0.0,
                         fungal_per_image=(1, 3))
        dataset, _ = generate(spec)
        metrics = evaluate_detections(dataset.records)
        assert metrics.fungal.precision == 1.0
        assert metrics.fungal.recall == 1.0

    def test_crowded_scene_fails_loudly(self):
        with pytest.raises(GenerationError):
            generate(SynthSpec(n_images=1, seed=0,
                               fungal_per_image=(400, 400)))

    @settings(derandomize=True, deadline=None)
    @given(st.integers(1, 10_000), st.integers(1, 10_000), st.integers(0, 2**32 - 1))
    def test_object_envelope_fits_any_frame(self, width, height, seed):
        frame = ImageDims(width, height)
        rng = np.random.default_rng(seed)
        for class_id in (FUNGAL, ARTEFACT):
            assert _ENVELOPE_FACTOR * max(_sample_dims(rng, frame, class_id)) \
                < min(width, height)


def _digest(generated) -> str:
    dataset, truth = generated
    return hashlib.sha256((repr(dataset.records) + truth.to_json()).encode()).hexdigest()


class TestGoldenOutput:
    """The generators' output, pinned bit for bit: records and truth."""

    def test_generate(self):
        assert _digest(generate(SynthSpec(n_images=300, seed=7))) == \
            "fa74b2e33d5a1f4ef3fd0d54b2b1566c2977e2842c7d8f4a86cd53251dc3f410"

    def test_plant_object_counts(self):
        assert _digest(plant_object_counts(30, 6, 4, seed=5)) == \
            "03f943132b8e41519c690937c80a76ce4652b92c040750f3c3f3f0a385d2f4a9"

    def test_plant_screening_matrix(self):
        assert _digest(plant_screening_matrix(20, 3, 5, 30, seed=4)) == \
            "d7ddd9687df7fb8df1f8eb0848aa080d21b6f5f011be05cc03e6eedc3d0bac67"


# (class, (x0, x1), (y0, y1), confidence), corners as fractions of the frame.
_fraction_span = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(sorted) \
    .filter(lambda span: span[1] - span[0] >= 1e-6)
_drawn_boxes = st.lists(st.tuples(st.sampled_from((FUNGAL, ARTEFACT)), _fraction_span,
                                  _fraction_span, st.floats(0.0, 1.0)), max_size=6)


class TestGridBox:
    @settings(derandomize=True, deadline=None)
    @given(st.integers(1, 10_000), st.integers(1, 10_000), _drawn_boxes)
    def test_in_frame_boxes_survive_a_label_file_round_trip(self, width, height,
                                                           drawn):
        frame = ImageDims(width, height)
        for parse, with_confidence in ((parse_gt_file, False),
                                       (parse_pred_file, True)):
            boxes = [_grid_box(frame, class_id, (x0 + x1) / 2 * width,
                               (y0 + y1) / 2 * height, (x1 - x0) * width,
                               (y1 - y0) * height, conf if with_confidence else None)
                     for class_id, (x0, x1), (y0, y1), conf in drawn]
            # Snapping may carry an edge past the frame; the parser would clip it.
            boxes = [b for b in boxes if b.x_min >= 0.0 and b.y_min >= 0.0
                     and b.x_max <= width and b.y_max <= height]
            assert repr(parse(format_label_file(boxes, frame), frame)) == repr(boxes)


_FRAME = ImageDims(2048, 2048)
_requests = st.lists(st.tuples(st.floats(400.0, 1600.0), st.floats(400.0, 1600.0),
                               st.floats(20.0, 300.0), st.floats(20.0, 300.0),
                               st.floats(0.55, 0.95), st.integers(0, 2**32 - 1)),
                     min_size=1, max_size=8)


def _scalar_offset(p: _Perturbation) -> tuple[Box, float]:
    """The scalar loop that _solve_offsets vectorizes: bracket, bisect and
    snap one perturbation, with a Box and geometry.iou at every step."""
    cx0, cy0 = p.gt.center

    def iou_at(t):
        cx, cy = cx0 + t * p.dx, cy0 + t * p.dy
        return iou(p.gt, Box(cx - p.w / 2.0, cy - p.h / 2.0,
                             cx + p.w / 2.0, cy + p.h / 2.0, p.gt.class_id))

    t_hi = p.gt.width + p.gt.height
    for _ in range(60):
        if iou_at(t_hi) < p.target:
            break
        t_hi *= 2.0
    t_lo = 0.0
    for _ in range(80):
        mid = (t_lo + t_hi) / 2.0
        if iou_at(mid) >= p.target:
            t_lo = mid
        else:
            t_hi = mid
    pred = _grid_box(_FRAME, p.gt.class_id, cx0 + t_lo * p.dx, cy0 + t_lo * p.dy,
                     p.w, p.h, p.confidence)
    return pred, iou(p.gt, pred)


class TestSolveOffsets:
    @settings(derandomize=True, deadline=None)
    @given(_requests)
    def test_batch_equals_each_element_alone(self, requests):
        pending = [_perturb_to_iou(np.random.default_rng(seed),
                                   _grid_box(_FRAME, FUNGAL, cx, cy, w, h, None),
                                   target, 0.9, f"img-{k}")
                   for k, (cx, cy, w, h, target, seed) in enumerate(requests)]
        solved = _solve_offsets(_FRAME, pending)
        assert solved == [_solve_offsets(_FRAME, [p])[0] for p in pending]
        assert solved == [_scalar_offset(p) for p in pending]
        for p, (pred, achieved) in zip(pending, solved):
            assert achieved == iou(p.gt, pred)
            assert abs(achieved - p.target) <= 1e-3

    def test_miss_names_the_first_failing_image(self):
        gt = Box(100.0, 100.0, 200.0, 200.0, FUNGAL)
        good = _perturb_to_iou(np.random.default_rng(0), gt, 0.7, 0.9, "img-a")
        # Twice the size: IoU 0.25 at zero offset, so 0.7 is out of reach.
        bad = [_Perturbation(gt, 200.0, 200.0, 1.0, 0.0, 0.7, 0.9, name)
               for name in ("img-b", "img-c")]
        with pytest.raises(GenerationError, match="^img-b: perturbation missed"):
            _solve_offsets(_FRAME, [good, *bad])

    @settings(derandomize=True, deadline=None)
    @given(st.floats(1.0, 2048.0), st.floats(1.0, 2048.0), st.floats(0.55, 0.95),
           st.integers(0, 2**32 - 1))
    def test_offset_w_plus_h_is_below_every_target(self, width, height, target, seed):
        # The bisection's upper end: at offset gt width + height, a candidate
        # of any scale and angle _perturb_to_iou draws overlaps its gt with
        # IoU below the lowest target the generators draw.
        gt = Box(0.0, 0.0, width, height, FUNGAL)
        p = _perturb_to_iou(np.random.default_rng(seed), gt, target, 0.9, "img-x")
        t = width + height
        cx, cy = width / 2.0 + t * p.dx, height / 2.0 + t * p.dy
        far = Box(cx - p.w / 2.0, cy - p.h / 2.0, cx + p.w / 2.0, cy + p.h / 2.0, FUNGAL)
        assert iou(gt, far) < 0.55

    def test_target_beyond_offset_w_plus_h_is_missed(self):
        # Ten times the gt's sides: IoU 0.01 at every offset up to w + h, so
        # target 0.005 lies beyond the bisection's interval and is refused.
        gt = Box(100.0, 100.0, 200.0, 200.0, FUNGAL)
        wide = _Perturbation(gt, 1000.0, 1000.0, 1.0, 0.0, 0.005, 0.9, "img-x")
        with pytest.raises(GenerationError,
                           match=r"^img-x: perturbation missed the target IoU 0\.0050$"):
            _solve_offsets(_FRAME, [wide])

    def test_degenerate_candidate_box_rejected(self):
        gt = Box(100.0, 100.0, 200.0, 200.0, FUNGAL)
        flat = _Perturbation(gt, 0.0, 100.0, 1.0, 0.0, 0.7, 0.9, "img-a")
        with pytest.raises(InvalidBoxError):
            _solve_offsets(_FRAME, [flat])

    def test_no_perturbations(self):
        assert _solve_offsets(_FRAME, []) == []
        _, truth = plant_object_counts(0, 2, 0)
        assert truth.expected_counts() == (0, 2, 0)


class TestPlantedCohorts:
    def test_object_counts_exact(self):
        dataset, truth = plant_object_counts(37, 9, 1, seed=3)
        assert truth.expected_counts(FUNGAL) == (37, 9, 1)
        fungal = evaluate_detections(dataset.records).fungal
        assert (fungal.tp, fungal.fp, fungal.fn) == (37, 9, 1)

    def test_object_counts_other_class_clean(self):
        dataset, _ = plant_object_counts(5, 2, 1, seed=8)
        artefact = evaluate_detections(dataset.records).per_class[ARTEFACT]
        assert artefact.fp == 0
        assert artefact.fn == 0

    def test_object_counts_validation(self):
        with pytest.raises(SchemaError):
            plant_object_counts(0, 0, 0)
        with pytest.raises(SchemaError):
            plant_object_counts(-1, 2, 3)

    def test_screening_matrix_exact(self):
        dataset, truth = plant_screening_matrix(12, 2, 3, 20, seed=7)
        assert len(dataset) == 37
        assert truth.expected_screening() == (12, 2, 3, 20)
        matrix = screen_dataset(dataset.records).matrix
        assert (matrix.tp, matrix.fn, matrix.fp, matrix.tn) == (12, 2, 3, 20)

    def test_uniform_iou_cohort(self):
        dataset = plant_uniform_iou_cohort(4)
        for rec in dataset:
            assert iou(rec.ground_truth[0], rec.predictions[0]) == 0.7


class TestTruth:
    def test_json_round_trip(self):
        _, truth = generate(SynthSpec(n_images=5, seed=2))
        again = SynthTruth.from_json(truth.to_json())
        assert again == truth
        assert again.to_json() == truth.to_json()

    def test_rejects_foreign_document(self):
        with pytest.raises(SchemaError):
            SynthTruth.from_json('{"schema": "something-else"}')
        with pytest.raises(SchemaError):
            SynthTruth.from_json("not json")

    def test_unknown_role_rejected(self):
        with pytest.raises(SchemaError):
            PlantedBox(role="maybe", class_id=FUNGAL)

    @pytest.mark.parametrize("path, value", [
        ("images", {"synth-0000": []}),
        ("images", "synth-0000"),
        ("images.0", 3),
        ("images.0.planted", _MISSING),
        ("images.0.planted", "tp"),
        ("images.0.planted.0", ["tp", 0]),
        ("images.0.planted.0.role", _MISSING),
        ("images.0.planted.0.class_id", _MISSING),
        ("images.0.image_id", _MISSING),
        ("images.0.image_id", 7),
        ("images.0.planted.0.role", 1),
        ("images.0.planted.0.class_id", "0"),
        ("images.0.planted.0.gt_index", 1.5),
        ("images.0.planted.0.achieved_iou", "0.8"),
        ("images", _MISSING),
        ("seed", _MISSING),
        ("seed", "1"),
    ], ids=str)
    def test_malformed_document_is_schema_error(self, tmp_path, mutate, path, value):
        _, truth = generate(SynthSpec(n_images=2, seed=1, fungal_per_image=(1, 1)))
        doc = json.loads(truth.to_json())
        mutate(doc, path, value)
        text = json.dumps(doc)
        with pytest.raises(SchemaError):
            SynthTruth.from_json(text)
        (tmp_path / "truth.json").write_text(text)
        with pytest.raises(SchemaError):
            read_truth(tmp_path)

    def test_optional_plant_fields_default_to_none(self):
        doc = {"schema": "koheval-synth-truth/1", "seed": 3, "images": [
            {"image_id": "a", "planted": [{"role": "fn", "class_id": FUNGAL}]}]}
        truth = SynthTruth.from_json(json.dumps(doc))
        assert truth.images[0].planted == (PlantedBox("fn", FUNGAL),)

    def test_non_utf8_truth_file_is_schema_error(self, tmp_path):
        (tmp_path / "truth.json").write_bytes(b"\xff\xfe{}")
        with pytest.raises(SchemaError, match="truth.json: not UTF-8"):
            read_truth(tmp_path)


class TestCohortFiles:
    def test_write_read_bit_exact(self, tmp_path):
        dataset, truth = generate(SynthSpec(n_images=8, seed=6))
        out = write_cohort(dataset, tmp_path / "cohort", truth=truth)
        assert read_cohort(out) == dataset
        assert read_truth(out) == truth

    def test_cohort_files_pinned(self, tmp_path):
        dataset, truth = generate(SynthSpec(n_images=50, seed=4))
        out = write_cohort(dataset, tmp_path / "cohort", truth=truth)
        assert InputTree(out).sha256() == \
            "59a499347b58336f90fb345ff0a989521506508fdb3f522529dee467301fb78c"

    @pytest.mark.parametrize("image_id", ["../../escaped", "sub/x", ".", "..",
                                          "nul\0byte"])
    def test_image_id_must_be_a_plain_file_name(self, tmp_path, image_id):
        from koheval.dataset import Dataset
        dataset = Dataset([ImageRecord("plain", ImageDims(100, 100)),
                           ImageRecord(image_id, ImageDims(100, 100))])
        with pytest.raises(SchemaError, match="image id .* is not a plain file name"):
            write_cohort(dataset, tmp_path / "deep" / "cohort")
        assert list(tmp_path.iterdir()) == []

    def test_dims_must_be_uniform(self, tmp_path):
        from koheval.dataset import Dataset, ImageRecord
        mixed = Dataset([
            ImageRecord("a", ImageDims(100, 100)),
            ImageRecord("b", ImageDims(200, 200)),
        ])
        with pytest.raises(SchemaError):
            write_cohort(mixed, tmp_path / "cohort")

    def test_rewrite_replaces_the_old_cohort_whole(self, tmp_path):
        out = tmp_path / "cohort"
        write_cohort(generate(SynthSpec(n_images=9, seed=1))[0], out)
        dataset, truth = generate(SynthSpec(n_images=3, seed=2))
        write_cohort(dataset, out, truth=truth)
        assert read_cohort(out) == dataset and read_truth(out) == truth
        assert len(list((out / "gt").iterdir())) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["cohort"]

    def test_modes_match_plain_writes(self, tmp_path):
        out = write_cohort(generate(SynthSpec(n_images=2, seed=1))[0],
                           tmp_path / "cohort")
        umask = os.umask(0)
        os.umask(umask)
        assert (out.stat().st_mode & 0o777) == 0o777 & ~umask
        assert ((out / "gt").stat().st_mode & 0o777) == 0o777 & ~umask
        assert ((out / "dims.json").stat().st_mode & 0o777) == 0o600
        labels = [*(out / "gt").iterdir(), *(out / "pred").iterdir()]
        assert len(labels) == 4
        assert all((p.stat().st_mode & 0o777) == 0o600 for p in labels)

    @pytest.mark.parametrize("layout", ["file", "cohort with notes",
                                        "cohort holding the working directory"])
    def test_refuses_what_is_not_a_cohort(self, tmp_path, monkeypatch, layout):
        out = tmp_path / "cohort"
        if layout == "file":
            out.write_text("keep me")
        else:
            write_cohort(generate(SynthSpec(n_images=2, seed=1))[0], out)
        if layout == "cohort with notes":
            (out / "notes.txt").write_text("keep me")
        if layout == "cohort holding the working directory":
            monkeypatch.chdir(out / "gt")
        before = InputTree(out).sha256()
        with pytest.raises(SchemaError, match="refusing to replace"):
            write_cohort(generate(SynthSpec(n_images=3, seed=2))[0], out)
        assert InputTree(out).sha256() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cohort"]

    @pytest.mark.parametrize("step", ["write", "pred write", "swap"])
    def test_failed_write_keeps_the_old_cohort(self, tmp_path, monkeypatch, step):
        out = tmp_path / "cohort"
        write_cohort(generate(SynthSpec(n_images=4, seed=1))[0], out)
        before = InputTree(out).sha256()

        def fail(*args):
            raise OSError("disk full")
        if step == "write":
            monkeypatch.setattr(koheval.synth, "format_label_file", fail)
        elif step == "pred write":
            # Only the second thread, which writes pred/, fails.
            monkeypatch.setattr(koheval.synth, "format_label_file", lambda boxes, dims:
                                fail() if boxes and boxes[0].confidence is not None
                                else format_label_file(boxes, dims))
        else:
            rename = Path.rename
            monkeypatch.setattr(Path, "rename", lambda src, dst: fail()
                                if ".staging-" in src.name else rename(src, dst))
        smaller = SynthSpec(n_images=2, seed=2)
        with pytest.raises(OSError, match="disk full"):
            write_cohort(generate(smaller)[0], out)
        assert InputTree(out).sha256() == before
        assert [p.name for p in tmp_path.iterdir()] == ["cohort"]

    def test_read_without_pred_dir_has_no_detections(self, tmp_path):
        dataset, _ = generate(SynthSpec(n_images=5, seed=6))
        out = write_cohort(dataset, tmp_path / "cohort")
        shutil.rmtree(out / "pred")
        read = read_cohort(out)
        assert read.ids() == dataset.ids()
        assert [r.ground_truth for r in read] == [r.ground_truth for r in dataset]
        assert all(r.predictions == [] for r in read)

    def test_read_rejects_plain_directory(self, tmp_path):
        with pytest.raises(SchemaError):
            read_cohort(tmp_path)


class TestReferenceMatch:
    def test_equivalence_on_random_scenes(self):
        rng = np.random.default_rng(np.random.SeedSequence((77, 0)))
        ops = [OperatingPoint(),
               OperatingPoint(conf_threshold=0.05, iou_threshold=0.3),
               OperatingPoint(conf_threshold=0.6, iou_threshold=0.75)]
        for trial in range(150):
            gts, preds = random_scene(rng)
            op = ops[trial % len(ops)]
            assert match_image(gts, preds, op) == reference_match(gts, preds, op)

    def test_empty_scene(self):
        report = reference_match([], [])
        assert report.tp_pairs == ()
        assert report.fp_pred_indices == ()
        assert report.fn_gt_indices == ()

    def test_single_tp_scene(self):
        g = Box(0, 0, 10, 10, FUNGAL)
        p = Box(0, 0, 10, 10, FUNGAL, confidence=0.9)
        assert reference_match([g], [p]).tp_pairs == ((0, 0, 1.0),)


class TestReferenceAp:
    def test_known_values(self):
        from koheval.metrics import PRCurve
        perfect = PRCurve(points=((0.9, 1.0, 1.0),), total_gt=4)
        assert reference_ap(perfect) == 1.0
        half = PRCurve(points=((0.9, 1.0, 0.5),), total_gt=2)
        assert reference_ap(half) == 51 / 101

    def test_equivalence_on_random_curves(self):
        rng = np.random.default_rng(np.random.SeedSequence((78, 0)))
        for _ in range(150):
            gts, preds = random_scene(rng, coarse=False)
            if not any(b.class_id == FUNGAL for b in gts):
                continue
            curve = pr_curve([(gts, preds)], FUNGAL,
                             iou_threshold=float(rng.uniform(0.2, 0.8)))
            for mode in ("101", "all"):
                assert abs(average_precision(curve, mode)
                           - reference_ap(curve, mode)) <= 1e-12


# Boxes on a coarse grid, so IoUs tie and overlap often; confidences from
# {0.1, ..., 1.0}, so they tie and an operating point admits them all.
_grid_boxes = st.lists(st.tuples(st.sampled_from((FUNGAL, ARTEFACT)),
                                 st.integers(0, 6), st.integers(0, 6),
                                 st.integers(1, 4), st.integers(1, 4),
                                 st.integers(1, 10)), max_size=6)
_cohorts = st.lists(st.tuples(_grid_boxes, _grid_boxes), min_size=1, max_size=5)
# The same with confidences 0.5 and 1.0 only, so most predictions tie.
_tied_boxes = st.lists(st.tuples(st.sampled_from((FUNGAL, ARTEFACT)),
                                 st.integers(0, 6), st.integers(0, 6),
                                 st.integers(1, 4), st.integers(1, 4),
                                 st.sampled_from((5, 10))), max_size=6)


def _grid_records(cohort):
    """Records of an 80x80 frame from ``_grid_boxes`` pairs, 8 px a step."""
    return [ImageRecord(
        f"img-{k}", ImageDims(80, 80),
        [Box(x * 8.0, y * 8.0, (x + w) * 8.0, (y + h) * 8.0, c)
         for c, x, y, w, h, _ in gts],
        [Box(x * 8.0, y * 8.0, (x + w) * 8.0, (y + h) * 8.0, c, conf / 10)
         for c, x, y, w, h, conf in preds])
        for k, (gts, preds) in enumerate(cohort)]


def _oracle_curve(records, class_id, iou_threshold):
    """The curve from reference_match at ``iou_threshold``, pooled by
    (-confidence, -best IoU, image rank, index); every prediction is admitted."""
    total_gt = sum(1 for r in records for g in r.ground_truth if g.class_id == class_id)
    op = OperatingPoint(conf_threshold=0.05, iou_threshold=iou_threshold)
    pooled = []
    for rank, r in enumerate(records):
        hits = {i for _, i, _ in
                reference_match(r.ground_truth, r.predictions, op).tp_pairs}
        for i, p in enumerate(r.predictions):
            if p.class_id == class_id:
                best = max((iou(g, p) for g in r.ground_truth
                            if g.class_id == class_id), default=0.0)
                pooled.append((-p.confidence, -best, rank, i, i in hits))
    points, tp = [], 0
    for n, (neg_conf, _, _, _, hit) in enumerate(sorted(pooled), 1):
        tp += hit
        if points and points[-1][0] == -neg_conf:
            points.pop()
        points.append((-neg_conf, tp / n, tp / total_gt))
    return PRCurve(points=tuple(points), total_gt=total_gt)


def _oracle_ap(records, class_id, interpolation):
    """AP50 and AP50:95 of the oracle curves, scored by reference_ap."""
    values = [reference_ap(_oracle_curve(records, class_id, threshold), interpolation)
              for threshold in AP_IOU_THRESHOLDS]
    return values[0], sum(values) / len(values)


class TestPooledApOracle:
    @settings(derandomize=True, deadline=None)
    @given(_cohorts, st.sampled_from(("101", "all")))
    def test_pooled_ap_and_counts_match_the_references(self, cohort, interpolation):
        records = _grid_records(cohort)
        scenes = [(r.ground_truth, r.predictions) for r in records]
        op = OperatingPoint(conf_threshold=0.05, iou_threshold=0.30)
        metrics = evaluate_detections(records, op, interpolation)
        reports = [reference_match(g, p, op) for g, p in scenes]
        for class_id in (FUNGAL, ARTEFACT):
            got = metrics.per_class[class_id]
            counts = [rep.class_counts.get(class_id, (0, 0, 0)) for rep in reports]
            assert (got.tp, got.fp, got.fn) == tuple(sum(n[k] for n in counts)
                                                     for k in range(3))
            # TP IoUs in image then greedy order, the order they are summed in.
            matched = [v for r, rep in zip(records, reports) for g, _, v in rep.tp_pairs
                       if r.ground_truth[g].class_id == class_id]
            assert got.mean_iou == (sum(matched) / len(matched) if matched else None)
            if not any(g.class_id == class_id for r in records for g in r.ground_truth):
                assert got.ap50 is None and got.ap50_95 is None
                assert class_id not in metrics.curves
                with pytest.raises(UndefinedMetricError):
                    ap_sweep(scenes, class_id, interpolation)
                with pytest.raises(UndefinedMetricError):
                    pr_curve(scenes, class_id, 0.50)
                continue
            assert pr_curve(scenes, class_id, 0.50) == \
                _oracle_curve(records, class_id, 0.50)
            # The curve evaluate_detections keeps is its operating IoU's.
            assert metrics.curves[class_id] == pr_curve(scenes, class_id, 0.30) == \
                _oracle_curve(records, class_id, 0.30)
            want50, want50_95 = _oracle_ap(records, class_id, interpolation)
            for ap50, ap50_95 in (ap_sweep(scenes, class_id, interpolation),
                                  (got.ap50, got.ap50_95)):
                assert abs(ap50 - want50) <= 1e-12
                assert abs(ap50_95 - want50_95) <= 1e-12


# Images with ground truth and predictions, with only one of them, and with
# neither, interleaved, so chunks start and end on every kind of image.
_mixed_cohorts = st.lists(st.one_of(st.tuples(_grid_boxes, _grid_boxes),
                                    st.tuples(_grid_boxes, st.just([])),
                                    st.tuples(st.just([]), _grid_boxes),
                                    st.just(([], []))), min_size=1, max_size=8)


def _assert_rows_are_the_reference_match(scenes, thresholds, scene):
    # Every prediction at every threshold row, and the first row's matched
    # ground truth and IoU, as reference_match gives them image by image.
    assert scene.hits.shape == (len(thresholds), len(scene.index))
    start = 0
    for gts, preds in scenes:
        stop = start + len(preds)
        index = scene.index[start:stop].tolist()
        for row, threshold in enumerate(thresholds):
            op = OperatingPoint(conf_threshold=0.05, iou_threshold=threshold)
            want = reference_match(gts, preds, op)
            # tp_pairs run in greedy order; the kernel lists all of it.
            hit = [i for i, h in zip(index, scene.hits[row, start:stop]) if h]
            assert hit == [i for _, i, _ in want.tp_pairs]
            if row:
                continue
            gt_of = {i: g for g, i, _ in want.tp_pairs}
            iou_of = {i: v for _, i, v in want.tp_pairs}
            assert scene.matched[start:stop].tolist() == [gt_of.get(i, -1) for i in index]
            assert scene.ious[start:stop].tolist() == [iou_of.get(i, 0.0) for i in index]
            assert sorted(index) == list(range(len(preds)))
        start = stop
    assert start == len(scene.index)


def test_negative_zero_confidence_ties_with_zero():
    # -0.0 and 0.0 compare equal, so the tie falls to index order whichever
    # of the two predictions carries the sign.
    for confidences in ((-0.0, 0.0), (0.0, -0.0)):
        tables = box_tables([([Box(0.0, 0.0, 4.0, 4.0, FUNGAL)],
                              [Box(0.0, 0.0, 4.0, 4.0, FUNGAL, c) for c in confidences])])
        scene = koheval.metrics._match(tables, (0.5,))
        assert (scene.index.tolist(), scene.matched.tolist()) == ([0, 1], [0, -1])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 300), st.integers(1, 3),
       st.sampled_from(((0.5, 1.0), tuple(k / 10 for k in range(1, 11)))))
def test_sweep_equals_a_stable_order_sweep_byte_for_byte(seed, n, rows, values):
    # The sweep sorts confidences unstably; ties may fall in any order, but
    # what it keeps, the state after each run of equal confidences, must
    # be the bytes a stable sort gives.
    rng = np.random.default_rng(seed)
    pool = koheval.metrics._ClassPool(FUNGAL, int(rng.integers(1, n + 1)),
                                      rng.choice(values, n), rng.random((rows, n)) < 0.5,
                                      np.zeros(n))
    order = np.argsort(-pool.confidences, kind="stable")
    confidences = pool.confidences[order]
    tp = np.cumsum(pool.hits[:, order], axis=1)
    last = np.append(confidences[1:] != confidences[:-1], True)
    want = (confidences[last], (tp / np.arange(1, n + 1))[:, last],
            (tp / pool.total_gt)[:, last])
    got = koheval.metrics._sweep(pool)
    assert [(a.dtype, a.shape, a.tobytes()) for a in got] == [
        (a.dtype, a.shape, a.tobytes()) for a in want]


class TestMatcherBlocks:
    """The matcher gives the same arrays however images are chunked."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_mixed_cohorts, st.sampled_from(("101", "all")))
    # Image 0's match must not use up image 1's ground truth in a shared chunk.
    @example([([(0, 0, 0, 2, 2, 0)], [(0, 0, 0, 2, 2, 9)]),
              ([(0, 0, 0, 2, 2, 0)], [(0, 4, 4, 2, 2, 9), (0, 0, 0, 2, 2, 5)])], "101")
    def test_block_cap_does_not_change_the_pool(self, cohort, interpolation):
        records = _grid_records(cohort)
        scenes = [(r.ground_truth, r.predictions) for r in records]
        thresholds = (0.30, *AP_IOU_THRESHOLDS)
        op = OperatingPoint(conf_threshold=0.05, iou_threshold=0.30)

        def pooled():
            pools = koheval.metrics._pool(box_tables(scenes), thresholds,
                                          (FUNGAL, ARTEFACT))
            return [(c, p.total_gt, p.confidences.tobytes(), p.hits.tobytes(),
                     p.hits.shape, p.ious.tobytes()) for c, p in pools.items()]

        default = pooled()
        metrics = evaluate_detections(records, op, interpolation)
        # A budget of 1 pair puts no two images with pairs in one chunk;
        # 12 mixes chunk sizes (an image has up to 36 pairs).
        for budget in (1, 12):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(koheval.metrics, "_PAIR_BUDGET", budget)
                assert pooled() == default
                assert evaluate_detections(records, op, interpolation) == metrics

        reports = [reference_match(g, p, op) for g, p in scenes]
        for class_id in (FUNGAL, ARTEFACT):
            got = metrics.per_class[class_id]
            counts = [rep.class_counts.get(class_id, (0, 0, 0)) for rep in reports]
            assert (got.tp, got.fp, got.fn) == tuple(sum(n[k] for n in counts)
                                                     for k in range(3))
            matched = [v for r, rep in zip(records, reports) for g, _, v in rep.tp_pairs
                       if r.ground_truth[g].class_id == class_id]
            assert got.mean_iou == (sum(matched) / len(matched) if matched else None)
            if not any(g.class_id == class_id for r in records for g in r.ground_truth):
                assert got.ap50 is None and got.ap50_95 is None
                continue
            want50, want50_95 = _oracle_ap(records, class_id, interpolation)
            assert abs(got.ap50 - want50) <= 1e-12
            assert abs(got.ap50_95 - want50_95) <= 1e-12

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.lists(st.tuples(_tied_boxes, _tied_boxes), min_size=1, max_size=6),
           st.sampled_from((0.05, 0.30, 0.50)), st.sampled_from((1, 12, 1 << 14)))
    def test_each_threshold_row_is_the_reference_match(self, cohort, first, budget):
        # The pooled-AP oracle keeps only the state after a run of equal
        # confidences, so it cannot see a hit swapped between tied
        # predictions; this compares every prediction at every threshold.
        scenes = [(r.ground_truth, r.predictions) for r in _grid_records(cohort)]
        thresholds = (first, *AP_IOU_THRESHOLDS)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(koheval.metrics, "_PAIR_BUDGET", budget)
            scene = koheval.metrics._match(box_tables(scenes), thresholds)
        _assert_rows_are_the_reference_match(scenes, thresholds, scene)

    def test_rows_are_the_reference_match_past_the_natural_pair_budget(self):
        # One image whose same-class pairs alone exceed the budget, matched
        # with the budget as it ships: the image is a chunk of its own and
        # its sort keys are the largest a scene of this size makes. Ties
        # everywhere: confidences in pairs, a coarse grid, a repeated box.
        rng = np.random.default_rng(30)
        cells = rng.integers((0, 0, 1, 1), (7, 7, 5, 5), size=(2, 130, 4)).tolist()
        gts = [(FUNGAL, *cell, 0) for cell in cells[0]]
        gts[1] = gts[0]
        preds = [(FUNGAL, *cell, 3 + k // 2 % 8) for k, cell in enumerate(cells[1])]
        scenes = [(r.ground_truth, r.predictions) for r in _grid_records([(gts, preds)])]
        assert len(gts) * len(preds) > koheval.metrics._PAIR_BUDGET
        thresholds = (0.50, *AP_IOU_THRESHOLDS[1:])
        scene = koheval.metrics._match(box_tables(scenes), thresholds)
        _assert_rows_are_the_reference_match(scenes, thresholds, scene)

    def test_empty_cohort(self):
        empty = ClassMetrics(0, 0, 0, 0.0, 0.0, 0.0, None, None, None)
        assert evaluate_detections([]) == ObjectMetrics(
            {FUNGAL: empty, ARTEFACT: empty},
            MacroMetrics(None, None, None, None, None, None))
