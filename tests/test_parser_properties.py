"""Every parser of outside input either parses or raises KohevalError.

The CLI turns a KohevalError into one line and exit code 2; any other
exception would print a traceback and exit 1, the gate-failure code. Each
property feeds a parser arbitrary text, arbitrary JSON, and a valid
document with one field replaced by arbitrary JSON or deleted, which
reaches the checks deep inside the document. Every JSON reader also meets
documents nested deeper than the decoder's recursion limit.
"""

import csv
import io
import json
import math
import re
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from koheval.dataset import (
    _CANONICAL_LINE,
    _canonical_boxes,
    _fixed_layout_rows,
    Dataset,
    ImageRecord,
    InputTree,
    SplitAssignment,
    attach_predictions,
    format_coco_json,
    format_label_file,
    load_ground_truth,
    parse_coco_json,
    parse_gt_file,
    parse_pred_file,
    read_cohort_dims,
)
from koheval.errors import (
    ClassError,
    InvalidBoxError,
    KohevalError,
    OutOfFrameError,
    ParseError,
    RangeError,
    SchemaError,
)
from koheval.geometry import (ARTEFACT, FUNGAL, Box, ImageDims, clip_to_frame,
                              frame_rows)
from koheval.manifest import (REFERENCE_PROTOCOL, TrainManifest, validate_manifest,
                              verdict_table)
from koheval.metrics import OperatingPoint, evaluate_detections
from koheval.report import build_report, parse_report, render
from koheval.screening import screen_dataset
from koheval.synth import SynthSpec, SynthTruth, generate

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)
DIMS = ImageDims(64, 48)
DELETE = object()

json_values = st.recursive(
    # st.integers() practically never leaves float range; +-10**400 does.
    st.none() | st.booleans() | st.integers() | st.sampled_from([10**400, -10**400])
    | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

# Label-file lines built from tokens near the format's edges.
label_token = st.sampled_from(
    ["0", "1", "2", "-1", "0.5", "1.0", "1", "0.0", "1e-320", "5e-324",
     "0.999999", "nan", "inf", "-0.0", "1_0", "x", "0x1", "٣", "1e400"]
) | st.floats().map(repr)
# Well-formed lines of five or six fields, so that parsed boxes are compared
# too, not only errors; and the same with one field swapped for an edge token.
well_formed = st.builds(lambda class_id, values: [class_id, *map(repr, values)],
                        st.sampled_from(["0", "1"]),
                        st.lists(st.floats(0.0, 1.0), min_size=4, max_size=5))
spoiled = st.builds(lambda fields, i, token: [*fields[:i], token, *fields[i + 1:]],
                    well_formed, st.integers(0, 5), label_token)
padding = st.sampled_from(["", " ", "\t", " \x0b"])
label_line = st.builds("{}{}{}".format, padding,
                       st.lists(label_token, max_size=7).map(" ".join)
                       | (well_formed | spoiled).map(" ".join) | padding, padding)
# Every line boundary str.splitlines knows that a label file may hold.
line_end = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85",
                            "\u2028"])
label_text = st.lists(st.tuples(label_line, line_end).map("".join),
                      max_size=5).map("".join)


def _paths(doc, prefix=()):
    """The path (keys and indices) of every value inside a JSON document."""
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    if not path:
        return None if value is DELETE else value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def mutated(doc):
    """``doc`` with one value replaced by arbitrary JSON or deleted."""
    return st.builds(_replaced, st.just(doc), st.sampled_from(list(_paths(doc))),
                     json_values | st.just(DELETE))


def documents(doc):
    return (st.text(max_size=60) | json_values.map(json.dumps)
            | mutated(doc).map(json.dumps))


def parses_or_raises_koheval_error(parse, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return parse(*args)
        except KohevalError:
            return None


_DATASET, _TRUTH = generate(SynthSpec(n_images=2, seed=3))
COCO = json.loads(format_coco_json(_DATASET))
TRUTH = json.loads(_TRUTH.to_json())
SPLIT = json.loads(SplitAssignment(("a", "b"), ("c",), (), seed=3).to_json())
MANIFEST = json.loads(REFERENCE_PROTOCOL.to_json())
REPORT = json.loads(json.dumps(build_report(
    op=OperatingPoint(), object_metrics=evaluate_detections(_DATASET.records),
    screening=screen_dataset(_DATASET.records), manifest=REFERENCE_PROTOCOL,
    inputs={"cohort": ("cohort", "0" * 64)})))


@PROPERTY
@given(st.text(max_size=80) | label_text)
def test_label_file_parsers(text):
    parses_or_raises_koheval_error(parse_gt_file, text, DIMS)
    parses_or_raises_koheval_error(parse_pred_file, text, DIMS)


def _denormalize(values, dims: ImageDims, class_id: int,
                 confidence: float | None) -> Box:
    # The pixel box of normalized (cx, cy, w, h) in a dims frame, box by
    # box: the operation order every reader of label files keeps.
    cx, cy, w, h = values
    return Box((cx - w / 2.0) * dims.width, (cy - h / 2.0) * dims.height,
               (cx + w / 2.0) * dims.width, (cy + h / 2.0) * dims.height,
               class_id, confidence)


def _reference_clip_to_frame(box: Box, dims: ImageDims) -> Box:
    # geometry.clip_to_frame before its early return for boxes inside.
    x0 = max(box.x_min, 0.0)
    y0 = max(box.y_min, 0.0)
    x1 = min(box.x_max, float(dims.width))
    y1 = min(box.y_max, float(dims.height))
    if x1 - x0 <= 0.0 or y1 - y0 <= 0.0:
        raise OutOfFrameError(
            f"box ({box.x_min}, {box.y_min}, {box.x_max}, {box.y_max}) "
            f"lies outside the {dims.width}x{dims.height} frame"
        )
    if (x0, y0, x1, y1) == (box.x_min, box.y_min, box.x_max, box.y_max):
        return box
    return replace(box, x_min=x0, y_min=y0, x_max=x1, y_max=y1)


def _reference_parse_lines(text: str, dims: ImageDims,
                           with_confidence: bool) -> list[Box]:
    # dataset._parse_lines as it was before its one-split, one-comparison
    # fast path: the reference the parser must agree with.
    n_fields = 6 if with_confidence else 5
    boxes: list[Box] = []
    clipped = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != n_fields:
            raise ParseError(
                f"expected {n_fields} fields, got {len(parts)}", line=lineno
            )
        try:
            class_id = int(parts[0])
            values = [float(p) for p in parts[1:5]]
            confidence = float(parts[5]) if with_confidence else None
        except ValueError:
            raise ParseError(f"non-numeric field in {line!r}", line=lineno) from None
        if class_id not in (FUNGAL, ARTEFACT):
            raise ClassError(f"unknown class id {class_id}", line=lineno)
        for name, value in zip(("cx", "cy", "w", "h"), values):
            if not 0.0 <= value <= 1.0:
                raise RangeError(f"{name}={value} outside [0, 1]", line=lineno)
        if confidence is not None and not 0.0 <= confidence <= 1.0:
            raise RangeError(f"conf={confidence} outside [0, 1]", line=lineno)
        try:
            box = _denormalize(values, dims, class_id, confidence)
        except InvalidBoxError:  # the confidence passed above: the area failed
            raise ParseError("zero-area box", line=lineno) from None
        kept = _reference_clip_to_frame(box, dims)
        if kept is not box:
            clipped += 1
        boxes.append(kept)
    if clipped:
        warnings.warn(f"{clipped} box(es) clipped to the frame", stacklevel=3)
    return boxes


def _outcome(parse, *args):
    """Boxes as the repr of each field (bit for bit: repr tells -0.0 from
    0.0), or the error's type, message and line; and the warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = [tuple(map(repr, astuple(box))) for box in parse(*args)]
        except KohevalError as exc:
            result = (type(exc), str(exc), getattr(exc, "line", None))
    return result, [(w.category, str(w.message)) for w in caught]


@settings(PROPERTY, max_examples=400)
@given(label_text | st.text(max_size=80), st.sampled_from([DIMS, ImageDims(7, 3000)]))
@example("0 0.5 0.5 1.0 1.0\r\n1 1.0 0.0 0.5 0.5\r\n", DIMS)
@example("0 -0.0 0.5 0.5 0.5 1\u2028\x85 \x0b1 0.5 0.5 1e-300 0.2 0.5", DIMS)
def test_label_file_parsers_agree_with_the_reference(text, dims):
    for parse, with_confidence in ((parse_gt_file, False), (parse_pred_file, True)):
        assert _outcome(parse, text, dims) \
            == _outcome(_reference_parse_lines, text, dims, with_confidence)


# Box fields at the edges of the rules, and past them.
edge_value = st.sampled_from(
    [0.0, -0.0, 0.5, 1.0, 5e-324, -5e-324, 1e-300, 0.999999, 1.0000000000000002,
     2.0, -1.0, 1e20, 1e308, -1e308, math.inf, -math.inf, math.nan]) | st.floats()
FRAME_EDGES = st.sampled_from([ImageDims(1, 1), DIMS, ImageDims(7, 3000),
                               ImageDims(2**53 + 1, 3), ImageDims(2**1023, 2)])


@st.composite
def rule_rows(draw):
    """Rows for frame_rows, normalized or not, with their frames and counts."""
    normalized = draw(st.booleans())
    n_fields = draw(st.sampled_from([5, 6])) if normalized else 5
    frames = draw(st.lists(FRAME_EDGES, min_size=1, max_size=3))
    counts = draw(st.lists(st.integers(0, 3), min_size=len(frames),
                           max_size=len(frames)))
    # Mostly values that pass the range rule, in fractions or in pixels.
    value = st.floats(0.0, 1.0) if normalized else st.floats(-80.0, 120.0)
    rows = [[draw(st.sampled_from([0.0, 1.0]))]
            + [draw(edge_value if draw(st.integers(0, 7)) == 0 else value)
               for _ in range(n_fields - 1)]
            for _ in range(sum(counts))]
    return np.array(rows, dtype=float).reshape(-1, n_fields), frames, counts, normalized


def _framed_row_by_row(rows, frames, counts, normalized):
    """Each row's outcome by the scalar rules: the repr of each field of the
    box kept and whether clip_to_frame clipped it, or the error."""
    outcomes = []
    frame_of_row = [dims for dims, n in zip(frames, counts) for _ in range(n)]
    for row, dims in zip(rows.tolist(), frame_of_row):
        class_id, a, b, c, d, *confidence = row
        try:
            if normalized:
                for name, value in zip(("cx", "cy", "w", "h", "conf"), row[1:]):
                    if not 0.0 <= value <= 1.0:
                        raise RangeError(f"{name}={value} outside [0, 1]")
                box = _denormalize((a, b, c, d), dims, int(class_id),
                                   confidence[0] if confidence else None)
            else:
                box = Box(a, b, a + c, b + d, int(class_id))
            kept = clip_to_frame(box, dims)
        except KohevalError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((tuple(map(repr, astuple(kept))), kept is not box))
    return outcomes


@settings(PROPERTY, max_examples=400)
@given(rule_rows())
@example((np.array([[0.0, -0.0, 0.5, 0.5, 0.5], [1.0, -5.0, 10.0, 20.0, 20.0],
                    [0.0, 90.0, -0.0, 20.0, 20.0], [1.0, 1e20, 10.0, 1.0, 20.0]]),
          [ImageDims(100, 100)], [4], False))
@example((np.array([[0.0, 0.99, 0.5, 0.1, 0.1, -0.0], [1.0, 0.5, 0.5, 0.0, 0.1, 0.5]]),
          [DIMS], [2], True))
def test_frame_rows_agrees_with_the_scalar_rules(drawn):
    rows, frames, counts, normalized = drawn
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns of no overflow or NaN
        table, clipped, rejected, first = frame_rows(rows, frames, counts, normalized)
    expected = _framed_row_by_row(rows, frames, counts, normalized)
    assert not (clipped & rejected).any()  # a rejected row is not clipped
    got = []
    for row, row_clipped, row_rejected in zip(table.tolist(), clipped.tolist(),
                                              rejected.tolist()):
        x0, y0, x1, y1, class_id, *confidence = row
        box = (x0, y0, x1, y1, int(class_id), confidence[0] if confidence else None)
        got.append("rejected" if row_rejected else (tuple(map(repr, box)), row_clipped))
    assert got == ["rejected" if isinstance(outcome[0], type) else outcome
                   for outcome in expected]
    errors = [(i, *outcome) for i, outcome in enumerate(expected)
              if isinstance(outcome[0], type)]
    assert (first and (first[0], type(first[1]), str(first[1]))) \
        == (errors[0] if errors else None)


def _in_frame_box(xs, ys, class_id, confidence):
    (x0, x1), (y0, y1) = sorted(xs), sorted(ys)
    return Box(x0 * DIMS.width, y0 * DIMS.height, x1 * DIMS.width,
               y1 * DIMS.height, class_id, confidence)


def in_frame_boxes(confidence):
    unit_pair = st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2, unique=True)
    return st.lists(st.builds(_in_frame_box, unit_pair, unit_pair,
                              st.sampled_from([0, 1]), confidence), max_size=4)


plain_decimal = (st.sampled_from(["0", "1", "2", "0.0", "1.0", "0.5", "00.25",
                                  "1.000001", "0." + "0" * 30 + "1"])
                 | st.floats(0.0, 1.5).map("{:.6f}".format)
                 | st.floats(0.0, 1.0).map("{:.17f}".format))


@st.composite
def canonical_file(draw):
    """Lines in canonical spelling, all ground truth or all predictions,
    whose values may lie outside [0, 1] or give a box of zero area, on
    the frame's edge or past it."""
    confidence = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):  # corners on eighths of the frame, exactly
            (x0, x1), (y0, y1) = (sorted(draw(st.lists(
                st.sampled_from([-1, 0, 1, 4, 7, 8, 9]), min_size=2, max_size=2)))
                for _ in range(2))
            x0, x1, y0, y1 = x0 / 8, x1 / 8, y0 / 8, y1 / 8
            values = [f"{v:.6f}" for v in ((x0 + x1) / 2, (y0 + y1) / 2,
                                           x1 - x0, y1 - y0)]
        else:
            values = draw(st.lists(plain_decimal, min_size=4, max_size=4))
        values += [draw(plain_decimal)] if confidence else []
        lines.append(" ".join([draw(st.sampled_from("01")), *values]) + "\n")
    return "".join(lines).encode()


# A directory's files: arbitrary text, bytes that need not decode, files
# that format_label_file writes and other files in its spelling; None is a
# file removed after the walk, so reading it fails.
label_file = (label_text.map(str.encode) | st.binary(max_size=30)
              | (in_frame_boxes(st.none()) | in_frame_boxes(st.floats(0.0, 1.0))).map(
                  lambda boxes: format_label_file(boxes, DIMS).encode())
              | canonical_file() | st.none())
FRAMES = st.lists(st.sampled_from([DIMS, ImageDims(7, 3000)]), min_size=6, max_size=6)


def _file_by_file(files, frames, parse):
    """Each file read, decoded and parsed on its own, in order, its errors
    and warnings after its path: the reference for the directory reader."""
    boxes = []
    for file, dims in zip(files, frames):
        data = file.read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{file}: not UTF-8 text ({exc.reason} at byte "
                             f"{exc.start})") from None
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                boxes.append(parse(text, dims))
        except ParseError as exc:
            raise type(exc)(f"{file}: {exc}") from None
        for warning in caught:  # the directory reader names the file of each
            warnings.warn(f"{file}: {warning.message}", warning.category)
    return boxes


def _read_outcome(read):
    """The boxes ``read`` returns, each field's repr, or the error's type
    and message; and the warnings' texts, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = [[tuple(map(repr, astuple(box))) for box in boxes]
                      for boxes in read()]
        except (KohevalError, OSError) as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


def _write_directory(folder, contents):
    """Files im0.txt, im1.txt, ... holding ``contents`` (None is a file
    removed after the walk); their walk and their paths."""
    folder.mkdir()
    files = [folder / f"im{i}.txt" for i in range(len(contents))]
    for file, data in zip(files, contents):
        file.write_bytes(data or b"")
    tree = InputTree(folder)
    for file, data in zip(files, contents):
        if data is None:
            file.unlink()
    return tree, files


def _read_directory(tree, files, frames, parse):
    if parse is parse_gt_file:
        return [rec.ground_truth for rec in load_ground_truth(tree.path, DIMS, tree)]
    images = Dataset([ImageRecord(file.stem, dims) for file, dims in zip(files, frames)])
    return [rec.predictions for rec in attach_predictions(images, tree.path, tree)]


@settings(PROPERTY, max_examples=250)
@given(st.lists(label_file, min_size=1, max_size=6), FRAMES)
@example([b"0 0.5 0.5 0.1", b" 0.1\n"], [DIMS] * 6)  # joined: one valid line
@example([b"0 0.5 0.5 0.5 0.5 -0.0\n", b"0 0.5 0.5 0.5 0.5\n", b"1 -0.0 0.5 0.5 0.5\n"],
         [DIMS] * 6)
@example([b"0 0.5 0.5 0.25 0.25 0.5\n", b"0 0.5 0.5 1e400 0.1 0.5\n"], [DIMS] * 6)
@example([b"0 0.5 0.5 1.0 1.0\n", b"1 0.75 0.25 0.5 0.5 0.9\n"],
         [DIMS, ImageDims(7, 3000)] * 3)  # edges on the frame
@example([b"0 0.75 0.5 0.75 0.5\n", b"1 0.5 0.25 0.5 0.75\n", b"0 0.5 0.5 0.5 0.5 1.5\n",
          b"0 0.25 0.5 0.75 0.5 0.5\n", b"1 0.5 0.75 0.5 0.75 0.5\n"],
         [DIMS] * 6)  # past the frame, or a confidence past 1, in canonical spelling
@example([b"0 0.5 0.5 0.25 0_5\n", b"1 0.5 0.5 0.2 0.2\n"], [DIMS] * 6)  # float() reads 0_5
# A box to clip between clean files, in both kinds: its warning comes in
# file order, after that of a file in another spelling.
@example([b"0 0.5 0.5 0.1 0.1\n", b"0 2e-1 0.5 0.1 0.1 0.5\n1 0.99 0.5 0.1 0.1 0.5\n",
          b"0 0.5 0.5 0.1 0.1 0.5\n", b"1 0.99 0.5 0.1 0.1\n0 0.5 0.01 0.1 0.1\n",
          b"1 0.5 0.5 0.2 0.2\n"], [DIMS, ImageDims(7, 3000)] * 3)
# A clipped file, then one with an error: no warning after the error.
@example([b"0 0.99 0.5 0.1 0.1\n", b"0 0.5 0.5 0.0 0.1\n", b"1 0.01 0.5 0.1 0.1\n"],
         [DIMS] * 6)
# CRLF and tab-separated files in one directory.
@example([b"0 0.5 0.5 0.1 0.1\r\n1 0.25 0.25 0.1 0.1\r\n", b"0\t0.5\t0.5\t0.1\t0.1\n",
          b"1\t0.5 0.5\t0.2 0.2\r\n", b"1 0.5\t0.5 0.2 0.2 0.9\r\n",
          b"0\t0.99\t0.5\t0.1\t0.1\t0.3\r\n"], [DIMS, ImageDims(7, 3000)] * 3)
# A CRLF file whose last line lacks its "\r\n", before one that has it.
@example([b"0 0.5 0.5 0.1 0.1\r\n1 0.5 0.5 0.2 0.2", b"0 0.5 0.5 0.1 0.1\r\n"],
         [DIMS] * 6)
# A line ending in a lone "\r", which str.splitlines ends a line at.
@example([b"0 0.5 0.5 0.1 0.1\r1 0.5 0.5 0.2 0.2\n", b"0 0.5 0.5 0.1 0.1 0.5\r\r\n"],
         [DIMS] * 6)
# A run of two blanks.
@example([b"0 0.5  0.5 0.1 0.1\n", b"0 0.5 0.5 0.1\t 0.1 0.5\n"], [DIMS] * 6)
# Tokens with 25-digit integer parts and 30-digit fractions, which the
# column reader refuses: read as float() reads them.
@example([b"0 0000000000000000000000000.5 0.500000000000000000000000000001 0.1 0.1\n",
          b"1 0.123456789012345678901234567890 0.5 0.2 0.2 "
          b"0.999999999999999999999999999999\n",
          b"0 0.5 0.5 0.1 0.1 0000000000000000000000001.000000000000000000000000000000\n",
          b"1 1234567890123456789012345.5 0.5 0.2 0.2\n"], [DIMS, ImageDims(7, 3000)] * 3)
# CRLF and tab files, with such tokens, in one batch.
@example([b"0 0.500000000000000000000000000001 0.5 0.1 0.1\r\n",
          b"1\t0000000000000000000000000.25\t0.5\t0.2\t0.2\n",
          b"0\t0.5 0.5\t0.1 0.1 0.123456789012345678901234567890\r\n",
          b"1 0.5 0.5 0.2 0.2 0.9\n1\t0.75\t0.5\t0.2\t0.2\t0.3\r\n"], [DIMS] * 6)
# Every file empty: an empty batch, which must not warn.
@example([b"", b"", b""], [DIMS] * 6)
def test_directory_reader_agrees_with_the_per_file_parsers(tmp_path_factory,
                                                           contents, frames):
    root = tmp_path_factory.mktemp("labels")
    for parse in (parse_gt_file, parse_pred_file):
        dims = (frames if parse is parse_pred_file else [DIMS] * 6)[:len(contents)]
        tree, files = _write_directory(root / parse.__name__, contents)
        assert _read_outcome(lambda: _read_directory(tree, files, dims, parse)) \
            == _read_outcome(lambda: _file_by_file(files, dims, parse))
        # Again with only the files that parse on their own, so that whole
        # directories are read and their boxes compared.
        good = [i for i, file in enumerate(files) if isinstance(
            _read_outcome(lambda: _file_by_file([file], [dims[i]], parse))[0], list)]
        tree, files = _write_directory(root / f"{parse.__name__}-good",
                                       [contents[i] for i in good])
        dims = [dims[i] for i in good]
        if files:
            assert _read_outcome(lambda: _read_directory(tree, files, dims, parse)) \
                == _read_outcome(lambda: _file_by_file(files, dims, parse))


# A batch's first line as the column reader takes it, spelled out.
PLAIN_LINE = {n_fields: re.compile(rb"[01](?:[ \t][0-9]+(?:\.[0-9]+)?){%d}\r?\n"
                                   % (n_fields - 1)) for n_fields in (5, 6)}
# Byte strings near the pattern's edges for 5 or 6 fields: lines the
# pattern accepts (a class digit, then fields of digits with or without a
# fraction, each after a blank or tab, then "\n" or "\r\n"); such lines
# with some fields ending in "." or "..", or with one piece put in
# somewhere, which may break the line, split it or leave it whole; and runs
# of such pieces. A batch is a few of them, or one of them repeated.
decimal_digits = st.text("0123456789", min_size=1, max_size=3)
blank = st.sampled_from(" \t")
line_field = st.builds("{}{}{}".format, blank, decimal_digits,
                       st.just("") | decimal_digits.map(".".__add__))
odd_field = st.builds("{}{}{}".format, blank, decimal_digits,
                      st.sampled_from([".", ".."]))
line_piece = st.sampled_from([b"0", b"1", b"2", b"07", b".", b"..", b"0.5", b" ", b"\t",
                              b"\r", b"\n", b"\r\n", b"-", b"e", b"x", b"\x0b"])


def near_lines(n_fields):
    def lines(field):
        return st.builds(
            lambda class_id, fields, end: (class_id + "".join(fields) + end).encode(),
            st.sampled_from("01"), st.lists(field, min_size=n_fields - 1,
                                            max_size=n_fields - 1),
            st.sampled_from(["\n", "\r\n"]))
    line = lines(line_field)
    spoiled = st.builds(lambda line, at, piece: line[:at] + piece + line[at:],
                        line, st.integers(0, 40), line_piece)
    pieces = st.lists(line_piece, max_size=6).map(b"".join)
    near = line | lines(line_field | odd_field) | spoiled | pieces
    batch = st.lists(near, max_size=4).map(b"".join) | st.builds(
        bytes.__mul__, near, st.integers(1, 3))
    return st.tuples(st.just(n_fields), batch)


def _layout(line):
    """A line's layout: its bytes with each digit a 9 and each tab a space."""
    return re.sub(rb"[0-9]", b"9", line.replace(b"\t", b" "))


def _one_layout(lines, n_fields):
    """Whether the column reader takes ``lines``, each ending in "\\n": some,
    all of one layout, each a line of PLAIN_LINE with no field over 15 digits."""
    return (bool(lines) and len(set(map(_layout, lines))) == 1
            and all(PLAIN_LINE[n_fields].fullmatch(line) for line in lines)
            and max(len(field.replace(b".", b"")) for field in lines[0].split()) <= 15)


@settings(PROPERTY, max_examples=300)
@given(st.sampled_from([5, 6]).flatmap(near_lines))
def test_fixed_layout_rows_near_the_line_pattern_read_as_float_or_refuse(case):
    n_fields, data = case
    *lines, tail = data.split(b"\n")
    lines = [line + b"\n" for line in lines]
    rows = _fixed_layout_rows(data, len(lines), _CANONICAL_LINE[n_fields == 6])
    assert (rows is not None) == (not tail and _one_layout(lines, n_fields))
    if rows is not None:
        assert rows.tobytes() == np.array(
            [[float(token) for token in line.split()] for line in lines]).tobytes()


def _taken_whole(datas, with_confidence):
    """Whether the column reader takes the layout of ``datas``: every file
    was read and ends in "\\n" (or is empty), and their lines share one layout."""
    return all(isinstance(data, bytes) and (not data or data.endswith(b"\n"))
               for data in datas) and _one_layout(
        [line + b"\n" for data in datas for line in data.split(b"\n")[:-1]],
        6 if with_confidence else 5)


def _batch_file_by_file(datas, frames, with_confidence):
    """The batch's table bytes and each file's number of rows and of
    clipped boxes, by a plain loop, or None: the batch takes every file or
    none, every file if :func:`_taken_whole` holds and no box breaks a
    rule, each file converted and checked on its own. The reference for
    _canonical_boxes."""
    if not _taken_whole(datas, with_confidence):
        return None
    tables, counts, clipped = [], [], []
    for data, dims in zip(datas, frames):
        rows = np.array([[float(token) for token in row.split()]
                         for row in data.splitlines()], dtype=float)
        table, clips, rejected, _ = frame_rows(
            rows.reshape(-1, 6 if with_confidence else 5), [dims], [len(rows)])
        if rejected.any():
            return None
        tables.append(table.tobytes())
        counts.append(len(table))
        clipped.append(int(clips.sum()))
    return b"".join(tables), counts, clipped


def _compared(batch):
    """What _canonical_boxes returns, as _batch_file_by_file gives it."""
    if batch is None:
        return None
    table, counts, clipped = batch
    return table.tobytes(), counts.tolist(), clipped.tolist()


# A file of a label batch: canonical, in CRLF, tab-separated, without its
# final newline, empty, in exponent spelling, or the OSError its read raised.
# All but the canonical, tab-separated and empty files keep a batch from the
# column reader.
batch_file = (canonical_file()
              | canonical_file().map(lambda data: data.replace(b"\n", b"\r\n"))
              | canonical_file().map(lambda data: data.replace(b" ", b"\t"))
              | canonical_file().map(lambda data: data[:-1])
              | st.just(b"")
              | canonical_file().map(lambda data: re.sub(
                  rb"\b([01])\.([0-9]{6})\b", rb"\1\2e-6", data))
              | st.just(FileNotFoundError(2, "No such file or directory", "gone.txt")))


# The last line of a file of one_layout_files: none, a box to clip, or a box
# of zero area, for which the column reader refuses the whole batch.
EDGE_LINES = [b"", b"1 0.990000 0.500000 0.100000 0.100000",
              b"0 0.500000 0.500000 0.000000 0.100000"]


@st.composite
def one_layout_files(draw, with_confidence):
    """Up to 8 files as format_label_file writes them, ground truth or
    predictions, each perhaps tab-separated and ending in a line of
    EDGE_LINES, all in LF or all in CRLF: batches the column reader takes."""
    files = []
    for _ in range(draw(st.integers(0, 8))):
        boxes = draw(in_frame_boxes(st.floats(0.0, 1.0) if with_confidence else st.none()))
        edge = draw(st.sampled_from(EDGE_LINES))
        data = format_label_file(boxes, DIMS).encode() + (
            edge and edge + b" 0.500000" * with_confidence + b"\n")
        files.append(data.replace(b" ", b"\t") if draw(st.booleans()) else data)
    crlf = draw(st.booleans())
    return [data.replace(b"\n", b"\r\n") for data in files] if crlf else files


@settings(PROPERTY, max_examples=300)
@given(st.booleans().flatmap(lambda with_confidence: st.tuples(
           st.lists(batch_file, max_size=8) | one_layout_files(with_confidence),
           st.just(with_confidence))),
       st.lists(st.sampled_from([DIMS, ImageDims(7, 3000)]), min_size=8, max_size=8))
@example(([b"0 0.5 0.5 0.1", b"", b" 0.1\n"], False), [DIMS] * 8)  # joined: one valid line
@example(([], True), [DIMS] * 8)
# Boxes to clip, in files before and after one with a box of zero area.
@example(([b"1 0.990000 0.500000 0.100000 0.100000\n", b"0 0.500000 0.500000 0.100000 "
           b"0.100000\n1\t0.990000\t0.500000\t0.100000\t0.100000\n",
           b"0 0.500000 0.500000 0.000000 0.100000\n",
           b"1 0.990000 0.500000 0.100000 0.100000\n"], False), [DIMS] * 8)
def test_batch_bookkeeping_agrees_with_a_file_by_file_loop(tmp_path_factory, case, frames):
    datas, with_confidence = case
    frames = frames[:len(datas)]
    assert _compared(_canonical_boxes(datas, frames, with_confidence)) \
        == _batch_file_by_file(datas, frames, with_confidence)
    # Read as a directory (ground truth in one frame), files the column
    # reader takes but for a box that breaks a rule are parsed line by line:
    # the directory raises what the per-file parser raises on the first
    # failing file, after the same warnings.
    dims = frames if with_confidence else [DIMS] * len(datas)
    if (datas and _taken_whole(datas, with_confidence)
            and _batch_file_by_file(datas, dims, with_confidence) is None):
        parse = parse_pred_file if with_confidence else parse_gt_file
        tree, files = _write_directory(tmp_path_factory.mktemp("rejected") / "labels", datas)
        outcome = _read_outcome(lambda: _read_directory(tree, files, dims, parse))
        assert isinstance(outcome[0], tuple)  # (the error's type, its message)
        assert outcome == _read_outcome(lambda: _file_by_file(files, dims, parse))


def _layout_line(rng, layout, blanks, end, in_range):
    """A line of ``layout``: a class digit 0 or 1, then per (whole, fraction)
    digit counts a blank from ``blanks`` and a field of random digits, or,
    ``in_range``, of a whole part of zeros and a last digit not 0 (a value
    in (0, 1]); ``end``."""
    fields = []
    for whole, fraction in layout:
        digits = "".join(map(str, rng.integers(0, 10, whole + fraction)))
        if in_range:
            digits = ("0" * whole + digits[whole:])[:-1] + (
                str(rng.integers(1, 10)) if fraction else "1")
        fields.append(rng.choice(blanks) + digits[:whole]
                      + ("." + digits[whole:]) * (fraction > 0))
    return str(rng.integers(0, 2)) + "".join(fields) + end


@st.composite
def one_layout_batch(draw, long_field=False):
    """A label batch whose lines share one layout, ground truth (4 fields)
    or predictions (5): each field of 1 to 15 digits (16 or 17 in one field
    if ``long_field``), with or without a fraction, leading zeros included;
    a space or tab per blank column, drawn line by line; "\\n" or "\\r\\n"
    ends every line. Three batches in four hold values in (0, 1] alone. The
    digits come from a seeded generator, which keeps 200-line batches cheap
    to draw. Returns (with_confidence, lines)."""
    with_confidence = draw(st.booleans())
    sizes = draw(st.lists(st.integers(1, 15), min_size=4 + with_confidence,
                          max_size=4 + with_confidence))
    if long_field:
        sizes[draw(st.integers(0, len(sizes) - 1))] = draw(st.sampled_from([16, 17]))
    layout = []
    for size in sizes:
        whole = draw(st.integers(1, size))
        layout.append((whole, size - whole))
    blanks = draw(st.sampled_from([[" "], ["\t"], [" ", "\t"]]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    in_range = draw(st.integers(0, 3)) > 0
    lines = [_layout_line(rng, layout, blanks, end, in_range)
             for _ in range(draw(st.integers(1, 200)))]
    return with_confidence, lines


@st.composite
def refused_batch(draw):
    """A batch the fixed-layout reader must refuse: a one-layout batch with
    one line spoiled (a line longer than the rest; a later line whose end
    moved by a column, at the first one's length; a "." or blank swapped
    with a neighbour in a later line; a class 2 to 9; a byte no canonical
    line holds in the first line), or one with a field of 16 or 17 digits."""
    spoil = draw(st.sampled_from(["longer", "end", "swap", "class", "first", "16 digits"]))
    with_confidence, lines = draw(one_layout_batch(long_field=spoil == "16 digits"))
    if spoil == "16 digits":
        return with_confidence, lines
    assume(spoil in ("class", "first") or len(lines) > 1)
    at = 0 if spoil == "first" else draw(
        st.integers(0 if spoil in ("longer", "class") else 1, len(lines) - 1))
    line = lines[at]
    body, end = (line[:-2], "\r\n") if line.endswith("\r\n") else (line[:-1], "\n")
    digit = draw(st.sampled_from("0123456789"))
    if spoil == "longer":
        line = body + digit + end
    elif spoil == "end":  # "\r\n" for a digit and "\n", or the other way
        line = body + digit + "\n" if end == "\r\n" else body[:-1] + "\r\n"
    elif spoil == "swap":
        k = draw(st.sampled_from([k for k, c in enumerate(body) if c in ". \t"]))
        j = draw(st.sampled_from([j for j in (k - 1, k + 1) if j < len(body)]))
        chars = list(body)
        chars[k], chars[j] = chars[j], chars[k]
        line = "".join(chars) + end
    elif spoil == "class":
        line = draw(st.sampled_from("23456789")) + line[1:]
    else:
        k = draw(st.integers(0, len(line) - 1))
        line = line[:k] + draw(st.sampled_from("+-e_x\x0b")) + line[k + 1:]
    lines[at] = line
    return with_confidence, lines


def _files(lines, cuts):
    """``lines`` cut into files at the line numbers ``cuts``."""
    bounds = [0, *sorted({c % len(lines) for c in cuts} - {0}), len(lines)]
    return ["".join(lines[a:b]).encode() for a, b in zip(bounds, bounds[1:])]


@settings(PROPERTY, max_examples=200)
@given(one_layout_batch(), st.lists(st.integers(0, 199), max_size=5))
def test_fixed_layout_rows_equal_loadtxt_bit_for_bit(drawn, cuts):
    with_confidence, lines = drawn
    batch = "".join(lines).encode()
    rows = _fixed_layout_rows(batch, len(lines), _CANONICAL_LINE[with_confidence])
    assert rows is not None
    assert rows.tobytes() == np.loadtxt(io.BytesIO(batch), ndmin=2).tobytes()
    # The same lines, as files, through the whole batch.
    datas = _files(lines, cuts)
    frames = [DIMS] * len(datas)
    assert _compared(_canonical_boxes(datas, frames, with_confidence)) \
        == _batch_file_by_file(datas, frames, with_confidence)


@settings(PROPERTY, max_examples=150)
@given(refused_batch(), st.lists(st.integers(0, 199), max_size=5), FRAMES)
@example((False, ["0 0.5 0.5 0.1 0.1\r\n", "1 0.5 0.5 0.1 0.12\n"]), [], [DIMS] * 6)
@example((True, ["0 0.5 0.5 0.1 0.1 0.1234567890123456\n"] * 2), [1], [DIMS] * 6)
def test_fixed_layout_reader_refuses_other_batches(tmp_path_factory, drawn, cuts, frames):
    with_confidence, lines = drawn
    batch = "".join(lines).encode()
    assert _fixed_layout_rows(batch, batch.count(b"\n"),
                              _CANONICAL_LINE[with_confidence]) is None
    # The directory reader parses such a batch line by line, as the
    # per-file parser does.
    parse = parse_pred_file if with_confidence else parse_gt_file
    contents = _files(lines, cuts)
    dims = (frames if with_confidence else [DIMS] * 6)[:len(contents)]
    tree, files = _write_directory(tmp_path_factory.mktemp("refused") / "labels", contents)
    assert _read_outcome(lambda: _read_directory(tree, files, dims, parse)) \
        == _read_outcome(lambda: _file_by_file(files, dims, parse))


# A parsed document prints under strict UTF-8: a JSON escape of a lone
# surrogate (\udcff) is refused, not handed on to the output.
@PROPERTY
@given(documents(COCO))
@example(json.dumps(_replaced(COCO, ("images", 0, "file_name"), "\udcff.png")))
def test_coco_parser(text):
    dataset = parses_or_raises_koheval_error(parse_coco_json, text)
    if dataset is not None:
        for record in dataset.records:
            record.image_id.encode()


# The CSV of a report reads back as rows of its four fields, whatever text
# its strings hold.
@PROPERTY
@given(documents(REPORT))
@example(json.dumps({**REPORT, "interpolation": "\udcff"}))
@example(json.dumps({**REPORT, "interpolation": "a,b"}))
@example(json.dumps({**REPORT, "interpolation": "a\nb"}))
@example(json.dumps({**REPORT, "interpolation": "a\rb"}))
@example(json.dumps({**REPORT, "interpolation": 'a"b'}))
@example(json.dumps({**REPORT, "object_metrics": {
    **REPORT["object_metrics"],
    "per_class": {"fun,gal": REPORT["object_metrics"]["per_class"]["fungal"]}}}))
def test_report_parser_and_renderers(text):
    report = parses_or_raises_koheval_error(parse_report, text)
    if report is not None:
        for fmt in ("json", "csv", "table"):
            render(report, fmt).encode()
        # Python 3.10's reader refuses NUL, which needs no quoting.
        rows = list(csv.reader(io.StringIO(render(report, "csv").replace("\0", " "),
                                           newline="")))
        assert all(len(row) == 4 for row in rows)
        assert rows[3] == ["run", "interpolation", "",
                           report["interpolation"].replace("\0", " ")]


@PROPERTY
@given(documents(TRUTH))
def test_truth_parser(text):
    parses_or_raises_koheval_error(SynthTruth.from_json, text)


@PROPERTY
@given(st.binary(max_size=40)
       | documents({"width": 2048, "height": 2048}).map(str.encode))
@example(b'{"width": 1' + b"0" * 400 + b', "height": 2048}')
def test_cohort_dims_reader(tmp_path_factory, data):
    cohort = tmp_path_factory.getbasetemp() / "dims-property"
    cohort.mkdir(exist_ok=True)
    (cohort / "dims.json").write_bytes(data)
    dims = parses_or_raises_koheval_error(read_cohort_dims, cohort)
    if dims is not None:  # the second box crosses every frame's corner
        with pytest.warns(UserWarning, match=r"^1 box\(es\) clipped to the frame$"):
            parse_pred_file("0 0.5 0.5 0.25 0.25 0.9\n1 0.999 0.001 0.5 0.5 0.3\n", dims)


@PROPERTY
@given(documents(SPLIT))
def test_split_file_parser(text):
    parses_or_raises_koheval_error(SplitAssignment.from_json, text)


@PROPERTY
@given(documents(MANIFEST))
@example(json.dumps({**MANIFEST, "initial_lr": 10**400}))
@example(json.dumps({**MANIFEST, "flip_prob": math.nan}))
@example(json.dumps({**MANIFEST, "optimizer": "\udcff"}))
def test_manifest_parser(text):
    manifest = parses_or_raises_koheval_error(TrainManifest.from_json, text)
    if manifest is not None:
        assert not any(isinstance(value, float) and math.isnan(value)
                       for value in vars(manifest).values())
        verdict_table(validate_manifest(manifest)).encode()


def _read_dims_file(text, directory):
    (directory / "dims.json").write_text(text)
    return read_cohort_dims(directory)


DEEP = {"lists": "[" * 100_000 + "]" * 100_000,
        "objects": '{"a": ' * 100_000 + "1" + "}" * 100_000}
JSON_READERS = {
    "coco": lambda text, _: parse_coco_json(text),
    "dims": _read_dims_file,
    "split": lambda text, _: SplitAssignment.from_json(text),
    "manifest": lambda text, _: TrainManifest.from_json(text),
    "report": lambda text, _: parse_report(text),
    "truth": lambda text, _: SynthTruth.from_json(text),
}


@pytest.mark.parametrize("nesting", sorted(DEEP))
@pytest.mark.parametrize("reader", sorted(JSON_READERS))
def test_json_nested_past_the_recursion_limit_is_schema_error(tmp_path, reader,
                                                              nesting):
    with pytest.raises(SchemaError, match="not valid JSON"):
        JSON_READERS[reader](DEEP[nesting], tmp_path)
