"""The columnar cohort: a dataset read from files holds box tables, and
every entry point reads them to the same result as it reads the records
they stand for."""

import os
import shutil
import warnings
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from koheval.dataset import Dataset, ImageRecord, read_cohort, stratified_split
from koheval.metrics import OperatingPoint, evaluate_detections
from koheval.screening import screen_dataset, threshold_sweep
from koheval.synth import SynthSpec, generate, write_cohort

PROPERTY = settings(derandomize=True, deadline=None, max_examples=100)
THRESHOLDS = (0.1, 0.25, 0.5, 0.75)
# One box per class that crosses the right edge of the frame, so it is clipped.
CLIPPED = {"gt": b"1 0.990000 0.500000 0.100000 0.100000\n",
           "pred": b"0 0.990000 0.500000 0.100000 0.100000 0.700000\n"}
SPELLINGS = {"lf": lambda data: data,
             "crlf": lambda data: data.replace(b"\n", b"\r\n"),
             "tabs": lambda data: data.replace(b" ", b"\t")}


@st.composite
def cohort_plans(draw, changes: bool):
    """A generator spec, a spelling for each label file and, with
    ``changes``, what to do to it: keep, empty, add a clipped box, or (a
    prediction file) delete; whether to delete pred/; and which image, if
    any, to rename to ``synth``, whose id sorts before ``synth-0000`` and
    whose file name after it."""
    n_images = draw(st.integers(1, 6))
    spec = SynthSpec(n_images=n_images, seed=draw(st.integers(0, 10_000)))
    files = {}
    for kind in ("gt", "pred"):
        for i in range(n_images):
            edits = ("keep", "empty", "clipped", "missing")[:4 if kind == "pred" else 3]
            files[kind, i] = (draw(st.sampled_from(sorted(SPELLINGS))),
                              draw(st.sampled_from(edits)) if changes else "keep")
    no_pred = changes and draw(st.booleans())
    renamed = draw(st.none() | st.integers(0, n_images - 1)) if changes else None
    return spec, files, no_pred, renamed


def _write(root, plan):
    """Write the plan's cohort under ``root`` and apply its file changes;
    return the generated dataset and the cohort path."""
    spec, files, no_pred, renamed = plan
    dataset, _ = generate(spec)
    cohort = write_cohort(dataset, root / "cohort")
    for (kind, i), (spelling, edit) in files.items():
        label = cohort / kind / f"synth-{i:04d}.txt"
        data = {"keep": label.read_bytes(), "empty": b"", "missing": None,
                "clipped": label.read_bytes() + CLIPPED[kind]}[edit]
        if data is None:
            label.unlink()
            continue
        label.write_bytes(SPELLINGS[spelling](data))
        if i == renamed:
            label.rename(label.with_name("synth.txt"))
    if no_pred:
        shutil.rmtree(cohort / "pred")
    return dataset, cohort


@PROPERTY
@given(cohort_plans(changes=True), st.integers(0, 3))
def test_dataset_tables_and_its_records_give_the_same_results(tmp_path_factory, plan,
                                                              seed):
    _, cohort = _write(tmp_path_factory.mktemp("columnar"), plan)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # clipped boxes and small strata warn
        dataset = read_cohort(cohort)
        records = list(dataset.records)
        assert [r.image_id for r in records] == sorted(
            os.path.splitext(name)[0] for name in os.listdir(cohort / "gt"))
        for op in (OperatingPoint(), OperatingPoint(0.5, iou_threshold=0.3)):
            assert evaluate_detections(dataset, op) == evaluate_detections(records, op)
            assert screen_dataset(dataset, op) == screen_dataset(records, op)
        assert (threshold_sweep(dataset, THRESHOLDS)
                == threshold_sweep(records, THRESHOLDS))
        assert (stratified_split(dataset, seed=seed)
                == stratified_split(records, seed=seed))


@PROPERTY
@given(cohort_plans(changes=False), st.data())
def test_a_written_cohort_reads_back_as_generated(tmp_path_factory, plan, data):
    # LF, CRLF and tab-separated files all go through the batch.
    generated, cohort = _write(tmp_path_factory.mktemp("read-back"), plan)
    ids = sorted(rec.image_id for rec in generated.records)
    assert [rec.image_id for rec in generated.records] == generated.ids() == ids
    # The same records in a drawn order make the same Dataset: one order, id order.
    shuffled = Dataset(data.draw(st.permutations(generated.records)))
    for dataset in (read_cohort(cohort), shuffled):
        assert (dataset.ids(), dataset.dims) == (ids, generated.dims)
        assert all(map(np.array_equal, dataset.tables, generated.tables))
        assert dataset.records == generated.records


class CountedRecord(ImageRecord):
    """A record that counts reads of its predictions, built as a caller
    that wraps records builds it: ``object.__new__`` and ``__dict__``."""

    @property
    def predictions(self):
        self._reads[self.image_id] += 1
        return self._predictions


def test_sweep_and_screen_read_each_records_predictions_once():
    records = generate(SynthSpec(n_images=12, seed=3))[0].records
    assert all(hasattr(rec, "__dict__") for rec in records)
    reads = Counter()
    counted = []
    for rec in records:
        wrapped = object.__new__(CountedRecord)
        wrapped.__dict__.update(image_id=rec.image_id, dims=rec.dims,
                                ground_truth=rec.ground_truth,
                                _predictions=rec.predictions, _reads=reads)
        counted.append(wrapped)
    once = Counter(rec.image_id for rec in records)
    assert threshold_sweep(counted, THRESHOLDS) == threshold_sweep(records, THRESHOLDS)
    assert reads == once
    reads.clear()
    assert screen_dataset(counted) == screen_dataset(records)
    assert reads == once
