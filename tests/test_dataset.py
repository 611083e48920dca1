import json
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koheval.dataset import (
    Dataset,
    ImageRecord,
    SplitAssignment,
    attach_predictions,
    format_coco_json,
    format_label_file,
    largest_remainder_sizes,
    load_ground_truth,
    parse_coco_json,
    parse_gt_file,
    parse_pred_file,
    split_table,
    stratified_split,
)
from koheval.errors import (
    ClassError,
    InvalidBoxError,
    OutOfFrameError,
    ParseError,
    RangeError,
    ReferentialError,
    SchemaError,
)
from koheval.geometry import ARTEFACT, FUNGAL, Box, ImageDims
from koheval.metrics import evaluate_detections
from koheval.screening import screen_dataset, threshold_sweep
from koheval.synth import plant_screening_matrix

DIMS = ImageDims(2048, 2048)


class TestLineFormat:
    def test_parse_gt_line(self):
        boxes = parse_gt_file("0 0.500000 0.500000 0.250000 0.125000\n", DIMS)
        assert len(boxes) == 1
        box = boxes[0]
        assert box.class_id == FUNGAL
        assert box.confidence is None
        assert box.x_min == pytest.approx((0.5 - 0.125) * 2048)
        assert box.width == pytest.approx(0.25 * 2048)
        assert box.height == pytest.approx(0.125 * 2048)

    def test_parse_pred_line_keeps_confidence(self):
        boxes = parse_pred_file("1 0.5 0.5 0.1 0.1 0.730000\n", DIMS)
        assert boxes[0].class_id == ARTEFACT
        assert boxes[0].confidence == 0.73

    def test_empty_file_is_negative_image(self):
        assert parse_gt_file("", DIMS) == []
        assert parse_pred_file("\n  \n", DIMS) == []

    def test_field_count_mismatch_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_gt_file("0 0.5 0.5 0.1 0.1\n0 0.5 0.5 0.1\n", DIMS)
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_gt_with_confidence_rejected(self):
        with pytest.raises(ParseError):
            parse_gt_file("0 0.5 0.5 0.1 0.1 0.9\n", DIMS)

    def test_non_numeric_field(self):
        with pytest.raises(ParseError):
            parse_gt_file("0 0.5 abc 0.1 0.1\n", DIMS)

    def test_unknown_class(self):
        with pytest.raises(ClassError):
            parse_gt_file("3 0.5 0.5 0.1 0.1\n", DIMS)

    def test_out_of_range_coordinate(self):
        with pytest.raises(RangeError):
            parse_gt_file("0 1.5 0.5 0.1 0.1\n", DIMS)

    def test_out_of_range_confidence(self):
        with pytest.raises(RangeError):
            parse_pred_file("0 0.5 0.5 0.1 0.1 1.2\n", DIMS)

    def test_zero_area_rejected(self):
        with pytest.raises(ParseError):
            parse_gt_file("0 0.5 0.5 0.0 0.1\n", DIMS)

    def test_overhanging_box_clipped_with_warning(self):
        with pytest.warns(UserWarning, match="clipped"):
            boxes = parse_gt_file("0 0.01 0.5 0.1 0.1\n", DIMS)
        assert boxes[0].x_min == 0.0

    def test_format_parse_round_trip(self):
        boxes = [
            Box(100.0, 200.0, 400.0, 280.0, FUNGAL),
            Box(1000.5, 1500.25, 1400.0, 1900.0, ARTEFACT),
        ]
        text = format_label_file(boxes, DIMS)
        back = parse_gt_file(text, DIMS)
        assert format_label_file(back, DIMS) == text

    def test_format_pred_appends_confidence(self):
        text = format_label_file([Box(0.0, 0.0, 1024.0, 1024.0, FUNGAL, 0.5)],
                                 DIMS)
        assert text == "0 0.250000 0.250000 0.500000 0.500000 0.500000\n"


class TestRecords:
    def test_gt_confidence_rejected(self):
        with pytest.raises(SchemaError):
            ImageRecord("a", DIMS, [Box(0, 0, 1, 1, FUNGAL, confidence=0.5)])

    def test_prediction_needs_confidence(self):
        with pytest.raises(SchemaError):
            ImageRecord("a", DIMS, [], [Box(0, 0, 1, 1, FUNGAL)])

    def test_box_outside_frame_rejected(self):
        with pytest.raises(OutOfFrameError):
            ImageRecord("a", ImageDims(100, 100), [Box(0, 0, 150, 50, FUNGAL)])

    def test_composition_stratum(self):
        rec = ImageRecord("a", DIMS, [Box(0, 0, 1, 1, FUNGAL),
                                      Box(5, 5, 6, 6, ARTEFACT)])
        assert rec.composition_stratum() == (True, True)
        assert ImageRecord("b", DIMS).composition_stratum() == (False, False)

    def test_duplicate_ids_rejected(self):
        records = [ImageRecord("a", DIMS), ImageRecord("a", DIMS)]
        with pytest.raises(SchemaError):
            Dataset(records)

    @pytest.mark.parametrize("entry_point", [
        evaluate_detections, screen_dataset,
        lambda records: threshold_sweep(records, [0.5]), stratified_split],
        ids=["evaluate", "screen", "sweep", "split"])
    def test_every_entry_point_refuses_a_repeated_id(self, entry_point):
        record = ImageRecord("a", DIMS, [Box(0, 0, 10, 10, FUNGAL)])
        with pytest.raises(SchemaError, match="^duplicate image_id 'a'$"):
            entry_point([record, record])


class TestCoco:
    def document(self):
        return {
            "images": [
                {"id": 7, "file_name": "frames/img-001.png",
                 "width": 2048, "height": 2048},
                {"id": 8, "file_name": "img-002.png",
                 "width": 1024, "height": 768},
            ],
            "annotations": [
                {"id": 1, "image_id": 7, "category_id": 10,
                 "bbox": [100.0, 200.0, 300.0, 80.0]},
                {"id": 2, "image_id": 7, "category_id": 20,
                 "bbox": [900.0, 900.0, 120.0, 150.0]},
            ],
            "categories": [
                {"id": 10, "name": "Fungal"},
                {"id": 20, "name": "artefact"},
            ],
        }

    def test_parse_maps_ids_and_corners(self):
        dataset = parse_coco_json(self.document())
        assert dataset.ids() == ["img-001", "img-002"]
        by_id = {r.image_id: r for r in dataset.records}
        rec = by_id["img-001"]
        assert rec.dims == ImageDims(2048, 2048)
        first = rec.ground_truth[0]
        assert (first.x_min, first.y_min, first.x_max, first.y_max) == \
            (100.0, 200.0, 400.0, 280.0)
        assert first.class_id == FUNGAL
        assert rec.ground_truth[1].class_id == ARTEFACT
        assert by_id["img-002"].ground_truth == []

    @staticmethod
    def boxes_on_a_square(*bboxes):
        # A 100x100 image with one annotation per bbox, fungal then artefact.
        return {"images": [{"id": 1, "file_name": "a.png", "width": 100,
                            "height": 100}],
                "annotations": [{"id": k, "image_id": 1, "category_id": k % 2,
                                 "bbox": bbox} for k, bbox in enumerate(bboxes)],
                "categories": [{"id": 0, "name": "fungal"},
                               {"id": 1, "name": "artefact"}]}

    def test_boxes_over_the_edge_are_clipped_with_one_warning(self):
        with pytest.warns(UserWarning) as caught:
            dataset = parse_coco_json(self.boxes_on_a_square([-5, 10, 20, 20],
                                                             [90, 90, 20, 20]))
        assert [str(w.message) for w in caught] == ["2 box(es) clipped to the frame"]
        assert dataset.tables.gt.tolist() == [[0, 10, 15, 30, 0],
                                              [90, 90, 100, 100, 1]]

    def test_the_first_error_in_document_order_is_raised(self):
        doc = self.boxes_on_a_square([150, 10, 20, 20])
        doc["annotations"].append({"id": 2, "image_id": 9, "category_id": 0,
                                   "bbox": [1, 1, 1, 1]})
        with pytest.raises(OutOfFrameError, match=re.escape(
                "box (150.0, 10.0, 170.0, 30.0) lies outside the 100x100 frame")):
            parse_coco_json(doc)

    def test_a_box_too_thin_for_its_offset_has_no_area(self):
        with pytest.raises(InvalidBoxError, match=re.escape(
                "box must have strictly positive area, got "
                "(1e+20, 10.0, 1e+20, 30.0)")):
            parse_coco_json(self.boxes_on_a_square([1e20, 10, 1, 20]))

    def test_unknown_image_reference(self):
        doc = self.document()
        doc["annotations"][0]["image_id"] = 99
        with pytest.raises(ReferentialError):
            parse_coco_json(doc)

    def test_repeated_image_id_named_where_it_is_read(self):
        doc = self.document()
        doc["images"][1].update(id=7, width=2048, height=2048)
        with pytest.raises(SchemaError, match="^duplicate image id 7$"):
            parse_coco_json(doc)

    def test_two_images_of_one_file_stem_are_refused(self):
        # Image ids 7 and 8 are distinct, but both files are image "a".
        doc = self.document()
        doc["images"][0]["file_name"], doc["images"][1]["file_name"] = "a.png", "a.jpg"
        with pytest.raises(SchemaError, match="^duplicate image_id 'a'$"):
            parse_coco_json(doc)

    def test_unknown_category_reference(self):
        doc = self.document()
        doc["annotations"][0]["category_id"] = 99
        with pytest.raises(ReferentialError):
            parse_coco_json(doc)

    def test_alien_category_name(self):
        doc = self.document()
        doc["categories"][0]["name"] = "nucleus"
        with pytest.raises(SchemaError):
            parse_coco_json(doc)

    def test_missing_top_level_field(self):
        doc = self.document()
        del doc["categories"]
        with pytest.raises(SchemaError):
            parse_coco_json(doc)

    def test_non_integer_dims(self):
        doc = self.document()
        doc["images"][0]["width"] = 2048.0
        with pytest.raises(SchemaError):
            parse_coco_json(doc)

    def test_dims_past_float_range(self):
        doc = self.document()
        doc["images"][0]["width"] = 10**400
        with pytest.raises(SchemaError, match="too large"):
            parse_coco_json(doc)

    def test_bad_json_text(self):
        with pytest.raises(SchemaError):
            parse_coco_json("{not json")
        # A lone surrogate, escaped or not, in text or in bytes, is not text;
        # a paired escape is one character.
        doc = self.document()
        doc["images"][0]["file_name"] = "\udcff.png"
        for text in (json.dumps(doc), json.dumps(doc).encode(),
                     json.dumps(doc, ensure_ascii=False)):
            with pytest.raises(SchemaError, match="is not valid Unicode text"):
                parse_coco_json(text)
        doc["images"][0]["file_name"] = "\ud83d\ude00.png"
        assert "\U0001f600" in parse_coco_json(json.dumps(doc)).ids()

    @pytest.mark.parametrize("document", ["[]", [], None])
    def test_top_level_must_be_an_object(self, document):
        with pytest.raises(SchemaError):
            parse_coco_json(document)

    def test_format_parse_round_trip(self):
        dataset = parse_coco_json(self.document())
        text = format_coco_json(dataset)
        again = parse_coco_json(text)
        assert again == dataset
        assert format_coco_json(again) == text


class TestLoading:
    def test_directory_round_trip(self, tmp_path):
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        (gt_dir / "img-a.txt").write_text("0 0.5 0.5 0.2 0.1\n")
        (gt_dir / "img-b.txt").write_text("")
        (pred_dir / "img-a.txt").write_text("0 0.5 0.5 0.2 0.1 0.9\n")

        dataset = load_ground_truth(gt_dir, dims=DIMS)
        dataset = attach_predictions(dataset, pred_dir)
        assert dataset.ids() == ["img-a", "img-b"]
        by_id = {r.image_id: r for r in dataset.records}
        assert len(by_id["img-a"].predictions) == 1
        assert by_id["img-b"].predictions == []

    def test_directory_needs_dims(self, tmp_path):
        (tmp_path / "x.txt").write_text("")
        with pytest.raises(SchemaError):
            load_ground_truth(tmp_path)

    def test_orphan_prediction_file(self, tmp_path):
        gt_dir = tmp_path / "gt"
        pred_dir = tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        (gt_dir / "img-a.txt").write_text("")
        (pred_dir / "phantom.txt").write_text("")
        dataset = load_ground_truth(gt_dir, dims=DIMS)
        with pytest.raises(ReferentialError):
            attach_predictions(dataset, pred_dir)

    # Ids "img" < "img-b" < "img-c", though "img.txt" sorts after "img-c.txt".
    @pytest.mark.parametrize("pred_ids, extra", [
        (["img", "img-b", "img-c"], None),  # a file for each image
        (["img-c"], None), ([], None),  # missing files read as empty
        (["img", "img-b", "img-c", "img-d"], "img-d.txt"),
        (["img", "img-a", "img-c", "img-d"], "img-a.txt"),  # the first extra in id order
    ])
    def test_prediction_files_pair_with_images_by_id(self, tmp_path, pred_ids, extra):
        gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
        gt_dir.mkdir()
        pred_dir.mkdir()
        gt = {"img": "0 0.5 0.5 0.2 0.1\n", "img-b": "", "img-c": "1 0.25 0.25 0.1 0.1\n"}
        for image_id, text in gt.items():
            (gt_dir / f"{image_id}.txt").write_text(text)
        preds = {image_id: f"{k % 2} 0.5 0.5 0.2 0.1 0.{k + 1}\n"
                 for k, image_id in enumerate(pred_ids)}
        for image_id, text in preds.items():
            (pred_dir / f"{image_id}.txt").write_text(text)
        dataset = load_ground_truth(gt_dir, dims=DIMS)
        if extra is not None:
            with pytest.raises(ReferentialError) as err:
                attach_predictions(dataset, pred_dir)
            assert str(err.value) == f"prediction file {extra} has no matching image"
            return
        paired = attach_predictions(dataset, pred_dir)
        expected = Dataset([ImageRecord(image_id, DIMS, parse_gt_file(text, DIMS),
                                        parse_pred_file(preds.get(image_id, ""), DIMS))
                            for image_id, text in gt.items()])
        assert paired.ids() == expected.ids() == ["img", "img-b", "img-c"]
        for got, want in zip(paired.tables, expected.tables):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    # Label names: an id, which may sort apart from its name ("a-b.txt" before
    # "a.txt", id "a" before "a-b"), then a chain of one to three ".txt".
    # ".txt" and ".txt.txt" are both of id ".txt"; "a.txt" and "a.txt.txt"
    # are of ids "a" and "a.txt".
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.sampled_from(["", "a", "a-b", "a.b", "b", "-"]),
                              st.integers(1, 3)), min_size=1, max_size=6, unique=True))
    @example([("", 1), ("", 2), ("a", 1)])
    @example([("a", 1), ("a", 2), ("a-b", 1)])
    def test_each_label_file_lands_in_one_image_or_the_listing_raises(
            self, tmp_path_factory, stems):
        names = [base + ".txt" * chain for base, chain in stems]
        # Each file holds one box of its own width, in gt/ and in pred/.
        width = {name: (k + 1) / 16 for k, name in enumerate(names)}
        root = tmp_path_factory.mktemp("labels")
        for folder, confidence in (("gt", ""), ("pred", " 0.5")):
            (root / folder).mkdir()
            for name in names:
                (root / folder / name).write_text(
                    f"0 0.5 0.5 {width[name]} 0.1{confidence}\n")
        by_id = sorted((Path(name).stem, name) for name in names)
        repeated = [(first, second) for (image_id, first), (other, second)
                    in zip(by_id, by_id[1:]) if image_id == other]
        images = Dataset([ImageRecord(image_id, DIMS) for image_id in dict(by_id)])
        for folder, read in (("gt", lambda: load_ground_truth(root / "gt", DIMS)),
                             ("pred", lambda: attach_predictions(images, root / "pred"))):
            if repeated:
                (first, second), = repeated
                with pytest.raises(SchemaError) as err:
                    read()
                assert str(err.value) == (f"{root / folder / first} and "
                                          f"{root / folder / second}: duplicate "
                                          f"image_id {Path(first).stem!r}")
                continue
            dataset = read()
            assert dataset.ids() == [image_id for image_id, _ in by_id]
            for record, (_, name) in zip(dataset.records, by_id):
                boxes = record.ground_truth if folder == "gt" else record.predictions
                assert [box.x_max - box.x_min for box in boxes] == [width[name] * 2048]

    def test_parse_error_names_file(self, tmp_path):
        gt_dir = tmp_path / "gt"
        gt_dir.mkdir()
        (gt_dir / "img-a.txt").write_text("0 0.5\n")
        with pytest.raises(ParseError) as err:
            load_ground_truth(gt_dir, dims=DIMS)
        assert "img-a.txt" in str(err.value)

    def test_parse_error_keeps_its_line(self, tmp_path):
        text = "0 0.5 0.5 0.1 0.1\n0 1.5 0.5 0.1 0.1\n"
        (tmp_path / "a.txt").write_text(text)
        with pytest.raises(RangeError) as direct:
            parse_gt_file(text, DIMS)
        with pytest.raises(RangeError) as err:
            load_ground_truth(tmp_path, dims=DIMS)
        assert err.value.line == direct.value.line == 2
        assert str(err.value) == f"{tmp_path / 'a.txt'}: {direct.value}"

    def test_sub_pixel_box_error_names_file_and_line(self, tmp_path):
        gt_dir = tmp_path / "gt"
        gt_dir.mkdir()
        # 1e-300 is not 0.0, but 0.5 +- 5e-301 is one float: no pixel width.
        (gt_dir / "img-a.txt").write_text("0 0.5 0.5 1e-300 0.1\n")
        with pytest.raises(ParseError) as err:
            load_ground_truth(gt_dir, dims=ImageDims(1024, 1024))
        assert str(err.value) == f"{gt_dir / 'img-a.txt'}: line 1: zero-area box"


def _registry(n_fungal_only=6, n_both=10, n_artefact_only=4, n_empty=4):
    records = []
    specs = [((True, False), n_fungal_only), ((True, True), n_both),
             ((False, True), n_artefact_only), ((False, False), n_empty)]
    i = 0
    for (has_f, has_a), count in specs:
        for _ in range(count):
            gt = []
            if has_f:
                gt.append(Box(10.0, 10.0, 60.0, 30.0, FUNGAL))
            if has_a:
                gt.append(Box(100.0, 100.0, 150.0, 160.0, ARTEFACT))
            records.append(ImageRecord(f"img-{i:04d}", DIMS, gt))
            i += 1
    return Dataset(records)


class TestSplit:
    def test_largest_remainder_exact(self):
        assert largest_remainder_sizes(2540, (0.8, 0.1, 0.1)) == [2032, 254, 254]
        assert largest_remainder_sizes(10, (0.8, 0.1, 0.1)) == [8, 1, 1]
        assert sum(largest_remainder_sizes(7, (0.5, 0.3, 0.2))) == 7

    def test_split_sizes_and_determinism(self):
        dataset = _registry()
        a = stratified_split(dataset, seed=42)
        b = stratified_split(dataset, seed=42)
        assert a == b
        assert len(a.train) + len(a.val) + len(a.test) == len(dataset)
        other = stratified_split(dataset, seed=43)
        assert other != a

    def test_split_order_independent(self):
        dataset = _registry()
        shuffled = Dataset(list(reversed(dataset.records)))
        assert stratified_split(dataset, seed=1) == \
            stratified_split(shuffled, seed=1)

    def test_split_is_stratified(self):
        dataset = _registry(n_fungal_only=20, n_both=40,
                            n_artefact_only=20, n_empty=20)
        assignment = stratified_split(dataset, fractions=(0.5, 0.25, 0.25),
                                      seed=3)
        train = set(assignment.train)
        for stratum_ids in (
            [r.image_id for r in dataset.records
             if r.composition_stratum() == s]
            for s in ((True, False), (True, True), (False, True), (False, False))
        ):
            in_train = sum(1 for i in stratum_ids if i in train)
            assert abs(in_train - 0.5 * len(stratum_ids)) <= 1

    def test_small_stratum_warns(self):
        dataset = _registry(n_fungal_only=1, n_both=8,
                            n_artefact_only=0, n_empty=0)
        with pytest.warns(UserWarning, match="stratum"):
            stratified_split(dataset, seed=0)

    def test_bad_fractions(self):
        dataset = _registry()
        with pytest.raises(SchemaError):
            stratified_split(dataset, fractions=(0.6, 0.3, 0.3))
        with pytest.raises(SchemaError):
            stratified_split(dataset, fractions=(0.9, 0.1))
        with pytest.raises(SchemaError):
            stratified_split(dataset, fractions=(float("nan"), 0.5, 0.5))

    def test_negative_seed_rejected(self):
        with pytest.raises(SchemaError):
            stratified_split(_registry(), seed=-1)

    def test_assignment_json_round_trip(self):
        assignment = stratified_split(_registry(), seed=5)
        again = SplitAssignment.from_json(assignment.to_json())
        assert again == SplitAssignment(
            tuple(sorted(assignment.train)), tuple(sorted(assignment.val)),
            tuple(sorted(assignment.test)), 5)
        assert json.loads(assignment.to_json())["seed"] == 5
        assert again.to_json() == assignment.to_json()

    @pytest.mark.parametrize("key, value", [
        ("seed", "x"), ("seed", 1.7), ("seed", True), ("seed", -1),
        ("train", 5), ("train", "ab"), ("train", [[1]]), ("test", None),
    ], ids=str)
    def test_mistyped_split_file_is_schema_error(self, key, value):
        doc = json.loads(SplitAssignment(("x",), ("y",), ("z",), seed=1).to_json())
        doc[key] = value
        with pytest.raises(SchemaError):
            SplitAssignment.from_json(json.dumps(doc))

    def test_split_file_must_be_an_object(self):
        with pytest.raises(SchemaError):
            SplitAssignment.from_json('["seed", "train", "val", "test"]')

    def test_overlapping_parts_rejected(self):
        with pytest.raises(SchemaError):
            SplitAssignment(("a", "b"), ("b",), ("c",), seed=0)

    def test_split_table_sums(self):
        dataset = _registry()
        assignment = stratified_split(dataset, seed=0)
        table = split_table(dataset, assignment)
        assert table.endswith("\n")
        last = table.strip().splitlines()[-1].split()
        assert last[0] == "all"
        assert int(last[1]) == len(dataset)

    def test_split_table_text_is_pinned(self):
        dataset, _ = plant_screening_matrix(12, 2, 3, 20, seed=7)
        assignment = stratified_split(dataset, fractions=(0.6, 0.2, 0.2), seed=3)
        assert split_table(dataset, assignment) == (
            "stratum            total   train     val    test\n"
            "empty                 12       7       3       2\n"
            "artefact              11       7       2       2\n"
            "fungal                 8       5       2       1\n"
            "fungal+artefact        6       4       1       1\n"
            "all                   37      23       8       6\n")
