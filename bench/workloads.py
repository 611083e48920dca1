"""The benchmark's three workloads.

Each workload has a timed ``setup`` (generate and write its input cohort
from the seed), an untimed ``oracle`` that computes what the checks
expect from the brute-force references and planted truth, and ``ops``,
which returns one closed-loop cycle of operations. ``setup`` and
``oracle`` return picklable values, so they can run in another process
than the operations. Operations call koheval's real entry points
in-process: ``koheval.cli.main`` with the argv a user would type, and
``koheval.screening.threshold_sweep`` through the Python API. These and
the set-up's generators and writer are looked up in their koheval module
at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import koheval.cli
import koheval.screening
import koheval.synth
from koheval.dataset import stratified_split
from koheval.geometry import ARTEFACT, CLASS_NAMES, FUNGAL, iou
from koheval.metrics import AP_IOU_THRESHOLDS, OperatingPoint, PRCurve
from koheval.screening import screen_dataset
from koheval.synth import SynthSpec, read_cohort, reference_ap, reference_match

import cohorts
from spans import counted_records

SWEEP_THRESHOLDS = tuple(round(0.05 * k, 2) for k in range(1, 20))
CLASSES = (FUNGAL, ARTEFACT)
# reference_ap agrees with koheval's average_precision within this.
AP_TOLERANCE = 1e-12


class CheckFailed(Exception):
    """An operation's exit code or output does not match its reference."""


@dataclass
class Op:
    """One timed operation: ``call`` runs it, ``check`` inspects what it
    returned and raises CheckFailed, ``output`` returns the bytes it wrote.
    ``traced_call``, when set, replaces ``call`` in traced cycles."""

    name: str
    images: int
    call: Callable[[], object]
    check: Callable[[object], None]
    output: Callable[[], bytes] | None = None
    traced_call: Callable[[], object] | None = None


@dataclass
class Prepared:
    ops: list[Op]
    shape: dict
    distinct_pairs: int  # same-class (gt, pred) pairs over all images
    predictions: int


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = koheval.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad argv this way
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def _shape(records, cohort: Path) -> dict:
    """The input's shape, and the totals the per-layer ratios divide by."""
    gt = sum(len(r.ground_truth) for r in records)
    preds = sum(len(r.predictions) for r in records)
    pairs = 0
    for r in records:
        for c in CLASSES:
            pairs += (sum(1 for b in r.ground_truth if b.class_id == c)
                      * sum(1 for b in r.predictions if b.class_id == c))
    on_disk = sum(p.stat().st_size for p in cohort.rglob("*") if p.is_file())
    return {"shape": {"images": len(records), "gt_boxes": gt, "predictions": preds,
                      "bytes_on_disk": on_disk},
            "distinct_pairs": pairs, "predictions": preds}


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_back(dataset, cohort: Path) -> list:
    records = read_cohort(cohort).records
    _expect(records == dataset.records, "the cohort does not read back as generated")
    return records


class _ReportCheck:
    """Checks one ``--out`` JSON report per call against fixed expectations.

    Reports are compared with their ``timing`` block removed: wall time is
    the one field that legitimately differs between reruns today, and the
    raw-byte comparison is reported separately as report.identical_reruns.
    """

    def __init__(self, out: Path, expect: Callable[[dict], None]):
        self.out = out
        self.expect = expect
        self.first: dict | None = None

    def __call__(self, result: CliResult) -> None:
        _expect(result.code == 0, f"exit code {result.code}: "
                f"{result.stderr.strip()}")
        report = json.loads(self.out.read_text())
        report.pop("timing", None)
        self.expect(report)
        if self.first is None:
            self.first = report
        _expect(report == self.first, "report differs from the first run's "
                "outside its timing block")


# ---------------------------------------------------------------------------
# The evaluate oracle


def _pooled_curve(pooled: list[tuple], total_gt: int) -> PRCurve:
    """Cumulative precision and recall over predictions pooled across
    images, (-confidence, -best IoU, image rank, index, hit) each, keeping
    the last point of each distinct confidence."""
    points: list[tuple[float, float, float]] = []
    tp = fp = 0
    for neg_conf, _, _, _, hit in sorted(pooled):
        tp, fp = tp + hit, fp + (not hit)
        point = (-neg_conf, tp / (tp + fp), tp / total_gt)
        if points and points[-1][0] == point[0]:
            points[-1] = point
        else:
            points.append(point)
    return PRCurve(points=tuple(points), total_gt=total_gt)


def evaluation_oracle(records) -> dict[str, dict]:
    """What ``koheval evaluate`` must report per class at its defaults,
    from the brute-force references in ``koheval.synth``.

    tp/fp/fn and mean IoU come from ``reference_match`` at the default
    operating point. AP comes from ``reference_match`` at each IoU
    threshold of 0.50:0.05:0.95 with a confidence threshold that admits
    every prediction: its per-image hits are pooled by (-confidence,
    -best IoU, image rank), in image-id order, and the cumulative curve
    is scored by ``reference_ap`` (101-point).
    """
    ordered = sorted(records, key=lambda r: r.image_id)
    lowest = min(p.confidence for r in ordered for p in r.predictions)
    _expect(lowest > 0.0, "an operating point cannot admit a prediction of "
            "confidence 0")
    best = [[max((iou(g, p) for g in r.ground_truth if g.class_id == p.class_id),
                 default=0.0) for p in r.predictions] for r in ordered]
    totals = {c: sum(1 for r in ordered for g in r.ground_truth if g.class_id == c)
              for c in CLASSES}

    ap: dict[int, list[float]] = {c: [] for c in CLASSES}
    for threshold in AP_IOU_THRESHOLDS:
        op = OperatingPoint(conf_threshold=lowest, iou_threshold=threshold)
        pooled: dict[int, list[tuple]] = {c: [] for c in CLASSES}
        for rank, rec in enumerate(ordered):
            hits = {i for _, i, _ in
                    reference_match(rec.ground_truth, rec.predictions, op).tp_pairs}
            for i, p in enumerate(rec.predictions):
                pooled[p.class_id].append((-p.confidence, -best[rank][i], rank, i,
                                           i in hits))
        for c in CLASSES:
            if totals[c]:
                ap[c].append(reference_ap(_pooled_curve(pooled[c], totals[c])))

    reports = [reference_match(r.ground_truth, r.predictions) for r in ordered]
    expected = {}
    for c in CLASSES:
        counts = [rep.class_counts.get(c, (0, 0, 0)) for rep in reports]
        matched = [v for rec, rep in zip(ordered, reports) for g, _, v in rep.tp_pairs
                   if rec.ground_truth[g].class_id == c]
        expected[CLASS_NAMES[c]] = {
            "tp": sum(n[0] for n in counts), "fp": sum(n[1] for n in counts),
            "fn": sum(n[2] for n in counts),
            "ap50": ap[c][0] if ap[c] else None,
            "ap50_95": sum(ap[c]) / len(ap[c]) if ap[c] else None,
            "mean_iou": sum(matched) / len(matched) if matched else None,
        }
    return expected


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= AP_TOLERANCE


def check_evaluation(report: dict, expected: dict[str, dict]) -> None:
    """Raise CheckFailed unless the report's per-class counts equal the
    oracle's and its AP and mean IoU agree within AP_TOLERANCE."""
    per_class = report["object_metrics"]["per_class"]
    _expect(set(per_class) == set(expected),
            f"classes {sorted(per_class)}, expected {sorted(expected)}")
    for name, want in expected.items():
        got = per_class[name]
        counts = tuple(got[k] for k in ("tp", "fp", "fn"))
        want_counts = tuple(want[k] for k in ("tp", "fp", "fn"))
        _expect(counts == want_counts,
                f"{name}: tp/fp/fn {counts}, expected {want_counts}")
        for key in ("ap50", "ap50_95", "mean_iou"):
            _expect(_close(got[key], want[key]),
                    f"{name}: {key} {got[key]}, expected {want[key]}")


def evaluate_ops(oracle: dict, cohort: Path, work: Path, seed: int,
                 counts: Counter | None) -> list[Op]:
    out = work / "evaluate.json"
    return [Op("evaluate", oracle["shape"]["images"],
               lambda: run_cli(["evaluate", str(cohort), "--out", str(out)]),
               _ReportCheck(out, lambda report: check_evaluation(
                   report, oracle["expected"])),
               out.read_bytes)]


# ---------------------------------------------------------------------------
# eval-sparse: SynthSpec defaults, 2,000 images.

SPARSE_IMAGES = 2000


def sparse_setup(seed: int, dest: Path):
    # koheval's own generator and writer, called through the module so the
    # traced set-up measures the synth layer.
    dataset, truth = koheval.synth.generate(SynthSpec(n_images=SPARSE_IMAGES, seed=seed))
    koheval.synth.write_cohort(dataset, dest)
    return dataset, truth


def sparse_oracle(state, cohort: Path, seed: int) -> dict:
    dataset, truth = state
    _read_back(dataset, cohort)
    expected = evaluation_oracle(dataset.records)
    for c in CLASSES:
        want = expected[CLASS_NAMES[c]]
        _expect((want["tp"], want["fp"], want["fn"]) == truth.expected_counts(c),
                f"reference_match disagrees with the planted counts of class {c}")
    return {**_shape(dataset.records, cohort), "expected": expected}


# ---------------------------------------------------------------------------
# eval-dense: 200 clustered images, 25-50 boxes per class.

DENSE_IMAGES = 200


def dense_setup(seed: int, dest: Path):
    dataset = cohorts.dense_cohort(seed, DENSE_IMAGES)
    koheval.synth.write_cohort(dataset, dest)
    return dataset


def dense_oracle(dataset, cohort: Path, seed: int) -> dict:
    _read_back(dataset, cohort)
    return {**_shape(dataset.records, cohort),
            "expected": evaluation_oracle(dataset.records)}


# ---------------------------------------------------------------------------
# screen-gate: 5,000 images with no missed positives; screen, split, sweep.

SCREEN_MATRIX = (1500, 0, 350, 3150)  # tp, fn, fp, tn


def screen_setup(seed: int, dest: Path):
    dataset, truth = koheval.synth.plant_screening_matrix(*SCREEN_MATRIX, seed=seed)
    koheval.synth.write_cohort(dataset, dest)
    return dataset, truth


def _monotone(sweep) -> bool:
    sens = [m.sensitivity for _, m in sweep]
    spec = [m.specificity for _, m in sweep]
    return (all(a >= b for a, b in zip(sens, sens[1:]))
            and all(a <= b for a, b in zip(spec, spec[1:])))


def screen_oracle(state, cohort: Path, seed: int) -> dict:
    dataset, truth = state
    records = _read_back(dataset, cohort)
    sweep = [(t, screen_dataset(records, OperatingPoint(conf_threshold=t)).matrix)
             for t in SWEEP_THRESHOLDS]
    _expect(_monotone(sweep), "per-threshold screening is not monotone")
    return {**_shape(records, cohort),
            "matrix": dict(zip(("tp", "fn", "fp", "tn"), truth.expected_screening())),
            "split": stratified_split(dataset, seed=seed).to_json().encode(),
            "sweep": sweep}


def screen_ops(oracle: dict, cohort: Path, work: Path, seed: int,
               counts: Counter | None) -> list[Op]:
    n = oracle["shape"]["images"]
    # The sweep's input: the records a caller of the Python API holds.
    records = read_cohort(cohort).records
    # Traced sweeps read records that count their predictions' reads.
    traced_sweep = None
    if counts is not None:
        counted = counted_records(records, counts)

        def traced_sweep():
            return koheval.screening.threshold_sweep(counted, SWEEP_THRESHOLDS)

    screen_out = work / "screen.json"

    def expect_matrix(report):
        got = report["screening"]["matrix"]
        _expect(got == oracle["matrix"], f"matrix {got}, expected {oracle['matrix']}")

    split_out = work / "split.json"

    def check_split(result: CliResult):
        _expect(result.code == 0, f"split exit code {result.code}")
        _expect(split_out.read_bytes() == oracle["split"],
                "split bytes differ from the same seed's reference")

    def check_sweep(result):
        _expect([t for t, _ in result] == list(SWEEP_THRESHOLDS), "sweep thresholds")
        _expect(_monotone(result), "sweep is not monotone")
        _expect(result == oracle["sweep"], "sweep differs from per-threshold "
                "screen_dataset")

    return [
        Op("screen", n,
           lambda: run_cli(["screen", str(cohort), "--fail-on-fn",
                            "--out", str(screen_out)]),
           _ReportCheck(screen_out, expect_matrix), screen_out.read_bytes),
        Op("split", n,
           lambda: run_cli(["split", str(cohort), "--seed", str(seed),
                            "--out", str(split_out)]),
           check_split, split_out.read_bytes),
        Op("sweep", n,
           lambda: koheval.screening.threshold_sweep(records, SWEEP_THRESHOLDS),
           check_sweep, traced_call=traced_sweep),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable  # (seed, dest) -> state
    oracle: Callable  # (state, cohort, seed) -> dict with _shape's keys
    ops: Callable  # (oracle, cohort, work, seed, tracer's counts or None) -> [Op]
    # When the host slows run.reference_loop by a factor k, this workload's
    # set-up and operations slow by about k ** host_sensitivity; run.py
    # scales their wall times by it (bench/README.md, Steadiness).
    host_sensitivity: float

    def prepare(self, oracle: dict, cohort: Path, work: Path, seed: int,
                counts: Counter | None) -> Prepared:
        return Prepared(self.ops(oracle, cohort, work, seed, counts), oracle["shape"],
                        oracle["distinct_pairs"], oracle["predictions"])


WORKLOADS = {w.name: w for w in (
    Workload("eval-sparse", "SynthSpec defaults, 2,000 images: per-call "
             "overhead in metrics and geometry dominates", sparse_setup,
             sparse_oracle, evaluate_ops, 0.5),
    # Not measured; evaluate is the same operation as on eval-sparse.
    Workload("eval-dense", "200 clustered images with 25-50 boxes per class: "
             "large IoU matrices and greedy contention dominate", dense_setup,
             dense_oracle, evaluate_ops, 0.5),
    Workload("screen-gate", "5,000 images, no missed positives: parsing, "
             "hashing, splitting and the threshold sweep; metrics idle",
             screen_setup, screen_oracle, screen_ops, 0.9),
)}
