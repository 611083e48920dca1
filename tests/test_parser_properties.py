"""Every parser of outside input either parses or raises KohevalError.

The CLI turns a KohevalError into one line and exit code 2; any other
exception would print a traceback and exit 1, the gate-failure code. Each
property feeds a parser arbitrary text, arbitrary JSON, and a valid
document with one field replaced by arbitrary JSON or deleted, which
reaches the checks deep inside the document. Every JSON reader also meets
documents nested deeper than the decoder's recursion limit.
"""

import json
import math
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koheval.dataset import (
    SplitAssignment,
    format_coco_json,
    parse_coco_json,
    parse_gt_file,
    parse_pred_file,
    read_cohort_dims,
)
from koheval.errors import KohevalError, SchemaError
from koheval.geometry import ImageDims
from koheval.manifest import REFERENCE_PROTOCOL, TrainManifest
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
label_text = st.lists(st.lists(label_token, max_size=7).map(" ".join),
                      max_size=5).map("\n".join)


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


@PROPERTY
@given(documents(COCO))
def test_coco_parser(text):
    parses_or_raises_koheval_error(parse_coco_json, text)


@PROPERTY
@given(documents(REPORT))
def test_report_parser_and_renderers(text):
    report = parses_or_raises_koheval_error(parse_report, text)
    if report is not None:
        for fmt in ("json", "csv", "table"):
            render(report, fmt)


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
    if dims is not None:
        parse_pred_file("0 0.5 0.5 0.25 0.25 0.9\n1 0.999 0.001 0.5 0.5 0.3\n", dims)


@PROPERTY
@given(documents(SPLIT))
def test_split_file_parser(text):
    parses_or_raises_koheval_error(SplitAssignment.from_json, text)


@PROPERTY
@given(documents(MANIFEST))
@example(json.dumps({**MANIFEST, "initial_lr": 10**400}))
@example(json.dumps({**MANIFEST, "flip_prob": math.nan}))
def test_manifest_parser(text):
    manifest = parses_or_raises_koheval_error(TrainManifest.from_json, text)
    if manifest is not None:
        assert not any(isinstance(value, float) and math.isnan(value)
                       for value in vars(manifest).values())


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
