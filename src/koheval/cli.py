"""Command-line entry points.

Subcommands: split, evaluate, screen, synth, validate-manifest, report.
Exit codes: 0 success, 1 gate failure (--fail-on-fn hit, manifest
mismatch), 2 toolkit error (bad input, schema violation, generation
failure). KOHEVAL_OUTPUT_DIR sets the default directory for written
artifacts; nothing else is read from the environment.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .dataset import (
    Dataset,
    InputTree,
    atomic_write_text,
    attach_predictions,
    is_cohort_dir,
    load_ground_truth,
    read_cohort,
    read_cohort_dims,
    read_text,
    shown_path,
    split_table,
    stratified_split,
)
from .errors import KohevalError, SchemaError
from .geometry import CLASS_NAMES, ImageDims, cut_digits
from .manifest import (
    TrainManifest,
    manifest_conforms,
    validate_manifest,
    verdict_table,
)
from .metrics import OperatingPoint, evaluate_detections
from .report import build_report, parse_report, pr_curve_svg, render
from .screening import screen_dataset
from .synth import (
    SynthSpec,
    generate,
    plant_object_counts,
    plant_screening_matrix,
    write_cohort,
)

ENV_OUTPUT_DIR = "KOHEVAL_OUTPUT_DIR"


def _output_dir() -> Path:
    return Path(os.environ.get(ENV_OUTPUT_DIR, "."))


def _parse_dims(text: str) -> ImageDims:
    try:
        w, _, h = text.lower().partition("x")
        return ImageDims(width=int(w), height=int(h))
    except ValueError as exc:  # ImageDims' SchemaError is a ValueError too
        reason = f" ({exc})" if isinstance(exc, SchemaError) else ""
        raise argparse.ArgumentTypeError(
            "expected WIDTHxHEIGHT, for example 2048x2048, got "
            f"{cut_digits(repr(text))}{reason}") from None


def _parse_ints(text: str, n: int, what: str) -> list[int]:
    try:
        values = [int(p) for p in text.split(",")]
    except ValueError:
        values = []
    if len(values) != n:
        raise KohevalError(f"expected {n} comma-separated integers for {what}, "
                           f"got {cut_digits(repr(text))}")
    return values


def _read_ground_truth(args) -> tuple[Dataset, InputTree]:
    """Resolve the GT argument into ground truth and the walk it was read
    through, which keeps the bytes read for its digest.

    GT is a cohort directory (dims.json + gt/), of which gt/ is read, a
    COCO .json file, or a directory of label files (which needs --dims).
    """
    gt, dims = Path(args.gt), args.dims
    if is_cohort_dir(gt):
        dims, gt = read_cohort_dims(gt), gt / "gt"
    tree = InputTree(gt)
    return load_ground_truth(gt, dims, tree), tree


def _load_inputs(args) -> tuple[Dataset, dict]:
    """Resolve GT/prediction arguments into a dataset with predictions and
    the (path, SHA-256) of each input, every file read once.

    PRED is a directory of prediction files; it defaults to a cohort
    directory's pred/, and a cohort without pred/ has no detections.
    """
    if args.pred is None:
        if not is_cohort_dir(Path(args.gt)):
            raise KohevalError("a prediction directory is required unless the "
                               "ground-truth path is a cohort directory")
        tree = InputTree(args.gt)
        return read_cohort(tree.path, tree), {"cohort": (tree.path, tree.sha256())}
    dataset, gt = _read_ground_truth(args)
    preds = InputTree(args.pred)
    return (attach_predictions(dataset, preds.path, preds),
            {"ground_truth": (gt.path, gt.sha256()),
             "predictions": (preds.path, preds.sha256())})


def _write_report(report: dict, args) -> None:
    """Write ``report`` to stdout in the chosen format and, with --out, as
    canonical JSON to that file."""
    sys.stdout.write(render(report, args.format))
    if args.out:
        atomic_write_text(args.out, render(report, "json"))


# ---------------------------------------------------------------------------
# Subcommands


def cmd_split(args) -> int:
    try:
        fractions = tuple(float(p) for p in args.fractions.split(","))
    except ValueError:
        raise KohevalError(f"--fractions must be comma-separated numbers, "
                           f"got {cut_digits(repr(args.fractions))}") from None
    dataset, _ = _read_ground_truth(args)
    assignment = stratified_split(dataset, fractions=fractions, seed=args.seed)
    out = Path(args.out) if args.out else _output_dir() / "split.json"
    atomic_write_text(out, assignment.to_json())
    sys.stdout.write(split_table(dataset, assignment))
    sys.stdout.write(f"written: {shown_path(out)}\n")
    return 0


def cmd_evaluate(args) -> int:
    dataset, inputs = _load_inputs(args)
    op = OperatingPoint(conf_threshold=args.conf, iou_threshold=args.iou)
    metrics = evaluate_detections(dataset, op=op,
                                  interpolation=args.interp)
    _write_report(build_report(op=op, interpolation=args.interp,
                               object_metrics=metrics, inputs=inputs), args)
    if args.curves:
        atomic_write_text(args.curves, pr_curve_svg(
            {CLASS_NAMES[c]: curve for c, curve in metrics.curves.items()}))
    return 0


def cmd_screen(args) -> int:
    dataset, inputs = _load_inputs(args)
    op = OperatingPoint(conf_threshold=args.conf)
    screening = screen_dataset(dataset, op=op)
    _write_report(build_report(op=op, screening=screening, inputs=inputs), args)
    if args.fail_on_fn and screening.matrix.fn > 0:
        sys.stderr.write(
            f"gate: {screening.matrix.fn} false negative(s): "
            + ", ".join(screening.false_negative_ids) + "\n"
        )
        return 1
    return 0


def cmd_synth(args) -> int:
    if args.plant_counts and args.plant_matrix:
        raise KohevalError("--plant-counts and --plant-matrix are exclusive")
    if args.plant_counts:
        tp, fp, fn = _parse_ints(args.plant_counts, 3, "--plant-counts")
        dataset, truth = plant_object_counts(tp, fp, fn, seed=args.seed)
    elif args.plant_matrix:
        tp, fn, fp, tn = _parse_ints(args.plant_matrix, 4, "--plant-matrix")
        dataset, truth = plant_screening_matrix(tp, fn, fp, tn, seed=args.seed)
    else:
        dataset, truth = generate(SynthSpec(n_images=args.images,
                                            seed=args.seed))
    out = Path(args.out) if args.out else _output_dir() / "synth-cohort"
    write_cohort(dataset, out, truth=truth)
    tp, fp, fn = truth.expected_counts()
    sys.stdout.write(
        f"written: {shown_path(out)} ({len(dataset)} images; planted over all "
        f"classes: tp={tp} fp={fp} fn={fn})\n"
    )
    return 0


def cmd_validate_manifest(args) -> int:
    manifest = TrainManifest.from_json(read_text(args.manifest))
    verdicts = validate_manifest(manifest)
    sys.stdout.write(verdict_table(verdicts))
    if not manifest_conforms(verdicts):
        return 1
    return 0


def cmd_report(args) -> int:
    report = parse_report(read_text(args.report))
    sys.stdout.write(render(report, args.format))
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_eval_io(sub) -> None:
    sub.add_argument("gt", help="cohort directory, COCO .json file, or "
                               "directory of label files")
    sub.add_argument("pred", nargs="?", default=None,
                     help="directory of prediction files (optional for "
                          "cohort directories)")
    sub.add_argument("--dims", type=_parse_dims, default=None,
                     help="frame size WIDTHxHEIGHT for label directories")
    sub.add_argument("--conf", type=float, default=0.25,
                     help="confidence threshold (default 0.25)")
    sub.add_argument("--format", choices=("json", "csv", "table"),
                     default="table", help="stdout format")
    sub.add_argument("--out", default=None,
                     help="also write the JSON report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koheval",
        description="Detection evaluation and screening toolkit for "
                    "KOH-microscopy cohorts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="stratified train/val/test split")
    p.add_argument("gt", help="COCO .json file or directory of label files")
    p.add_argument("--dims", type=_parse_dims, default=None)
    p.add_argument("--fractions", default="0.8,0.1,0.1",
                   help="train,val,test fractions (default 0.8,0.1,0.1)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="split file destination")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("evaluate", help="object-level detection metrics")
    _add_eval_io(p)
    p.add_argument("--iou", type=float, default=0.50,
                   help="IoU threshold (default 0.50)")
    p.add_argument("--interp", choices=("101", "all"), default="101",
                   help="AP interpolation (default 101-point)")
    p.add_argument("--curves", default=None,
                   help="write a PR-curve SVG to this file")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("screen", help="image-level screening metrics")
    _add_eval_io(p)
    p.add_argument("--fail-on-fn", action="store_true",
                   help="exit nonzero when any positive image is missed")
    p.set_defaults(func=cmd_screen)

    p = sub.add_parser("synth", help="generate a synthetic cohort")
    p.add_argument("--out", default=None, help="cohort directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--images", type=int, default=40,
                   help="cohort size for the generic generator")
    p.add_argument("--plant-counts", default=None, metavar="TP,FP,FN",
                   help="plant exact object-level counts")
    p.add_argument("--plant-matrix", default=None, metavar="TP,FN,FP,TN",
                   help="plant an exact screening confusion matrix")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("validate-manifest",
                       help="check a training manifest against the "
                            "reference protocol")
    p.add_argument("manifest", help="manifest JSON file")
    p.set_defaults(func=cmd_validate_manifest)

    p = sub.add_parser("report", help="re-render a stored report")
    p.add_argument("report", help="report JSON file")
    p.add_argument("--format", choices=("json", "csv", "table"),
                   default="table")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KohevalError, OSError) as exc:
        if isinstance(exc, OSError) and exc.filename and exc.filename2 is None:
            exc = f"{shown_path(exc.filename)}: {exc.strerror}"
        sys.stderr.write(f"error: {exc}\n")
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
