"""Detection evaluation and clinical screening toolkit for KOH-microscopy
cohorts: letterbox geometry, dataset parsing and splitting, greedy
IoU matching with AP, image-level screening, synthetic oracles, and a
reporting CLI."""

from .dataset import (
    Dataset,
    ImageRecord,
    SplitAssignment,
    attach_predictions,
    largest_remainder_sizes,
    load_ground_truth,
    parse_coco_json,
    parse_gt_file,
    parse_pred_file,
    read_cohort,
    read_cohort_dims,
    stratified_split,
)
from .errors import (
    ClassError,
    GenerationError,
    InvalidBoxError,
    KohevalError,
    OutOfFrameError,
    ParseError,
    RangeError,
    ReferentialError,
    SchemaError,
    UndefinedMetricError,
)
from .geometry import (
    ARTEFACT,
    CLASS_NAMES,
    FUNGAL,
    Box,
    ImageDims,
    LetterboxTransform,
    box_to_model,
    box_to_source,
    clip_to_frame,
    iou,
    iou_matrix,
    letterbox_fit,
)
from .manifest import (
    REFERENCE_PROTOCOL,
    FieldVerdict,
    TrainManifest,
    manifest_conforms,
    validate_manifest,
)
from .metrics import (
    ClassMetrics,
    MacroMetrics,
    MatchReport,
    ObjectMetrics,
    OperatingPoint,
    PRCurve,
    ap_sweep,
    average_precision,
    counts_to_prf,
    evaluate_detections,
    match_image,
    pr_curve,
)
from .report import SCHEMA_VERSION, TOOL_VERSION, build_report, render
from .screening import (
    ConfusionMatrix,
    ScreeningReport,
    screen_dataset,
    threshold_sweep,
)
from .synth import (
    SynthSpec,
    SynthTruth,
    generate,
    plant_object_counts,
    plant_screening_matrix,
    reference_ap,
    reference_match,
    write_cohort,
)

__version__ = TOOL_VERSION

__all__ = [
    "ARTEFACT", "Box", "CLASS_NAMES", "ClassError", "ClassMetrics",
    "ConfusionMatrix", "Dataset", "FUNGAL", "FieldVerdict",
    "GenerationError", "ImageDims", "ImageRecord", "InvalidBoxError",
    "KohevalError", "LetterboxTransform", "MacroMetrics", "MatchReport",
    "ObjectMetrics", "OperatingPoint", "OutOfFrameError", "PRCurve",
    "ParseError", "REFERENCE_PROTOCOL", "RangeError", "ReferentialError",
    "SCHEMA_VERSION", "SchemaError", "ScreeningReport", "SplitAssignment",
    "SynthSpec", "SynthTruth", "TrainManifest", "UndefinedMetricError",
    "__version__", "ap_sweep", "attach_predictions", "average_precision",
    "box_to_model", "box_to_source", "build_report",
    "clip_to_frame", "counts_to_prf", "evaluate_detections", "generate", "iou",
    "iou_matrix", "largest_remainder_sizes", "letterbox_fit",
    "load_ground_truth", "manifest_conforms", "match_image", "parse_coco_json",
    "parse_gt_file", "parse_pred_file", "plant_object_counts",
    "plant_screening_matrix", "pr_curve", "read_cohort", "read_cohort_dims",
    "reference_ap", "reference_match", "render", "screen_dataset",
    "stratified_split", "threshold_sweep", "validate_manifest", "write_cohort",
]
