import numpy as np
import pytest

from koheval.errors import InvalidBoxError, OutOfFrameError, SchemaError
from koheval.geometry import (
    ARTEFACT,
    FUNGAL,
    Box,
    ImageDims,
    box_to_model,
    box_to_source,
    clip_to_frame,
    iou,
    iou_matrix,
    letterbox_fit,
)


class TestBox:
    def test_properties(self):
        box = Box(10.0, 20.0, 40.0, 100.0, FUNGAL, confidence=0.5)
        assert box.width == 30.0
        assert box.height == 80.0
        assert box.area == 2400.0
        assert box.center == (25.0, 60.0)

    def test_rejects_empty(self):
        with pytest.raises(InvalidBoxError):
            Box(10.0, 20.0, 10.0, 100.0, FUNGAL)
        with pytest.raises(InvalidBoxError):
            Box(10.0, 20.0, 40.0, 5.0, FUNGAL)

    def test_rejects_bad_confidence(self):
        with pytest.raises(InvalidBoxError):
            Box(0.0, 0.0, 1.0, 1.0, FUNGAL, confidence=1.5)
        with pytest.raises(InvalidBoxError):
            Box(0.0, 0.0, 1.0, 1.0, FUNGAL, confidence=-0.1)

    def test_confidence_bounds_allowed(self):
        assert Box(0, 0, 1, 1, FUNGAL, confidence=0.0).confidence == 0.0
        assert Box(0, 0, 1, 1, FUNGAL, confidence=1.0).confidence == 1.0


class TestImageDims:
    def test_rejects_non_positive(self):
        with pytest.raises(SchemaError):
            ImageDims(0, 100)
        with pytest.raises(SchemaError):
            ImageDims(100, -1)


class TestLetterbox:
    def test_half_scale_no_padding(self):
        t = letterbox_fit(ImageDims(2048, 2048), ImageDims(1024, 1024))
        assert t.scale == 0.5
        assert t.pad_x == 0.0
        assert t.pad_y == 0.0

    def test_wide_source_pads_vertically(self):
        t = letterbox_fit(ImageDims(2000, 1000), ImageDims(1000, 1000))
        assert t.scale == 0.5
        assert t.pad_x == 0.0
        assert t.pad_y == 250.0

    def test_fractional_padding_not_snapped(self):
        t = letterbox_fit(ImageDims(1000, 999), ImageDims(640, 640))
        assert t.scale == 640 / 1000
        assert t.pad_x == 0.0
        assert t.pad_y == (640 - 999 * 640 / 1000) / 2.0
        assert t.pad_y != int(t.pad_y)

    def test_forward_maps_corners(self):
        t = letterbox_fit(ImageDims(2000, 1000), ImageDims(1000, 1000))
        box = Box(100.0, 200.0, 500.0, 600.0, FUNGAL)
        mapped = box_to_model(box, t)
        assert mapped.x_min == 50.0
        assert mapped.y_min == 100.0 + 250.0
        assert mapped.x_max == 250.0
        assert mapped.y_max == 300.0 + 250.0
        assert mapped.class_id == FUNGAL

    def test_round_trip_preserves_confidence(self):
        t = letterbox_fit(ImageDims(1920, 1080), ImageDims(640, 640))
        box = Box(300.0, 200.0, 900.0, 700.0, ARTEFACT, confidence=0.83)
        back = box_to_source(box_to_model(box, t), t)
        assert back.class_id == ARTEFACT
        assert back.confidence == 0.83
        for a, b in zip((back.x_min, back.y_min, back.x_max, back.y_max),
                        (box.x_min, box.y_min, box.x_max, box.y_max)):
            assert abs(a - b) < 1e-6

    def test_random_round_trip(self):
        rng = np.random.default_rng(np.random.SeedSequence((7, 0)))
        for _ in range(500):
            source = ImageDims(int(rng.integers(64, 4096)),
                               int(rng.integers(64, 4096)))
            target = ImageDims(int(rng.integers(64, 2048)),
                               int(rng.integers(64, 2048)))
            t = letterbox_fit(source, target)
            x = np.sort(rng.uniform(0, source.width, 2))
            y = np.sort(rng.uniform(0, source.height, 2))
            if x[1] - x[0] < 1e-3 or y[1] - y[0] < 1e-3:
                continue
            box = Box(x[0], y[0], x[1], y[1], FUNGAL)
            back = box_to_source(box_to_model(box, t), t)
            assert abs(back.x_min - box.x_min) < 1e-6
            assert abs(back.y_min - box.y_min) < 1e-6
            assert abs(back.x_max - box.x_max) < 1e-6
            assert abs(back.y_max - box.y_max) < 1e-6

    def test_out_of_frame_box_raises(self):
        t = letterbox_fit(ImageDims(2000, 1000), ImageDims(1000, 1000))
        # Fully inside the vertical padding band of the model frame.
        pad_band = Box(100.0, 10.0, 200.0, 240.0, FUNGAL)
        with pytest.raises(OutOfFrameError):
            box_to_source(pad_band, t)


class TestClip:
    def test_inside_returns_same_object(self):
        dims = ImageDims(100, 100)
        box = Box(10.0, 10.0, 20.0, 20.0, FUNGAL)
        assert clip_to_frame(box, dims) is box

    def test_partial_clip(self):
        clipped = clip_to_frame(Box(-5.0, 50.0, 20.0, 120.0, FUNGAL),
                                ImageDims(100, 100))
        assert (clipped.x_min, clipped.y_min) == (0.0, 50.0)
        assert (clipped.x_max, clipped.y_max) == (20.0, 100.0)

    def test_outside_raises(self):
        with pytest.raises(OutOfFrameError):
            clip_to_frame(Box(120.0, 0.0, 130.0, 10.0, FUNGAL),
                          ImageDims(100, 100))


class TestIou:
    def test_identical_boxes(self):
        a = Box(0.0, 0.0, 10.0, 10.0, FUNGAL)
        assert iou(a, a) == 1.0

    def test_disjoint(self):
        a = Box(0.0, 0.0, 10.0, 10.0, FUNGAL)
        b = Box(20.0, 20.0, 30.0, 30.0, FUNGAL)
        assert iou(a, b) == 0.0

    def test_touching_edges_count_as_disjoint(self):
        a = Box(0.0, 0.0, 10.0, 10.0, FUNGAL)
        b = Box(10.0, 0.0, 20.0, 10.0, FUNGAL)
        assert iou(a, b) == 0.0

    def test_hand_computed_overlap(self):
        a = Box(0.0, 0.0, 10.0, 10.0, FUNGAL)
        b = Box(5.0, 5.0, 15.0, 15.0, FUNGAL)
        # inter 25, union 175
        assert iou(a, b) == 25.0 / 175.0

    def test_contained_seven_tenths(self):
        gt = Box(200.0, 500.0, 500.0, 1500.0, FUNGAL)
        pred = Box(200.0, 500.0, 500.0, 1200.0, FUNGAL)
        assert iou(gt, pred) == 0.7

    def test_symmetry(self):
        a = Box(0.0, 0.0, 10.0, 7.0, FUNGAL)
        b = Box(3.0, 2.0, 12.0, 9.0, FUNGAL)
        assert iou(a, b) == iou(b, a)

    def test_matrix_matches_scalar_bitwise(self):
        rng = np.random.default_rng(np.random.SeedSequence((11, 0)))
        rows, cols = [], []
        for _ in range(40):
            x = np.sort(rng.uniform(0, 100, 2))
            y = np.sort(rng.uniform(0, 100, 2))
            rows.append(Box(x[0], y[0], x[1] + 0.5, y[1] + 0.5, FUNGAL))
            x = np.sort(rng.uniform(0, 100, 2))
            y = np.sort(rng.uniform(0, 100, 2))
            cols.append(Box(x[0], y[0], x[1] + 0.5, y[1] + 0.5, FUNGAL))
        matrix = iou_matrix(rows, cols)
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                assert matrix[i, j] == iou(a, b)

    def test_matrix_empty_sides(self):
        box = Box(0.0, 0.0, 1.0, 1.0, FUNGAL)
        assert iou_matrix([], [box]).shape == (0, 1)
        assert iou_matrix([box], []).shape == (1, 0)

    @pytest.mark.parametrize("n_rows, n_cols", [(4, 5), (0, 5), (4, 0), (0, 0)])
    def test_padded_blocks_match_scalar_bitwise(self, n_rows, n_cols):
        # Three images with n, none and n // 2 boxes a side, padded with
        # all-zero corners: stacks broadcast over their leading axis, as
        # the matcher's [N, 1, 4] pair rows do.
        rng = np.random.default_rng(np.random.SeedSequence((12, n_rows, n_cols)))

        def image(n):
            boxes = []
            for _ in range(n):
                x = np.sort(rng.uniform(0, 100, 2))
                y = np.sort(rng.uniform(0, 100, 2))
                boxes.append(Box(x[0], y[0], x[1] + 0.5, y[1] + 0.5, FUNGAL))
            return boxes

        def padded(images, width):
            out = np.zeros((len(images), width, 4))
            for n, boxes in enumerate(images):
                for k, b in enumerate(boxes):
                    out[n, k] = (b.x_min, b.y_min, b.x_max, b.y_max)
            return out

        rows = [image(n) for n in (n_rows, 0, n_rows // 2)]
        cols = [image(n) for n in (n_cols, n_cols // 2, 0)]
        block = iou_matrix(padded(rows, n_rows), padded(cols, n_cols))
        assert block.shape == (3, n_rows, n_cols)
        for n in range(3):
            for i in range(n_rows):
                for j in range(n_cols):
                    want = (iou(rows[n][i], cols[n][j])
                            if i < len(rows[n]) and j < len(cols[n]) else 0.0)
                    assert block[n, i, j] == want
                    assert np.signbit(block[n, i, j]) == np.signbit(want)
            assert np.array_equal(block[n, :len(rows[n]), :len(cols[n])],
                                  iou_matrix(rows[n], cols[n]))
