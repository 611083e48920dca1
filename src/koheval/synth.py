"""Seeded synthetic cohorts with planted TP/FP/FN structure, plus naive
reference implementations of the matcher and the AP integrator.

Every generated box is snapped to the 6-decimal grid of the line format
and built by the parser's own normalized-to-pixel formula, so a cohort
written to disk and read back is bit-identical to the in-memory one. The
offset solver measures overlap with ``geometry.iou_matrix``. Placement
keeps a 2.5x envelope around each object disjoint from all others;
perturbed predictions stay inside their own envelope, so a planted TP can
only match its own ground-truth box and a planted FP overlaps nothing.
Planted roles are therefore exact at the default operating point, not
merely probable. One builder makes every generated cohort: each generator
only plans what its images hold, and ``_cohort`` places, solves and
assembles them.
"""

from __future__ import annotations

import math
import os
import shutil
from collections import Counter, namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

# read_cohort and read_cohort_dims live in dataset and stay importable from here.
from .dataset import (
    Dataset,
    ImageRecord,
    dump_json,
    format_label_file,
    is_cohort_dir,
    load_json,
    read_cohort,
    read_cohort_dims,
    read_text,
    require,
)
from .errors import GenerationError, SchemaError
from .geometry import ARTEFACT, FUNGAL, Box, ImageDims, iou, iou_matrix
from .metrics import MatchReport, OperatingPoint, PRCurve

ROLES = ("tp", "fp", "fn", "suppressed")

FRAME = ImageDims(2048, 2048)
# Confidence bands keep roles decidable at the default operating point:
# suppressed predictions sit strictly below the confidence threshold, TP
# and FP predictions strictly above it.
TP_CONFIDENCE = (0.60, 0.95)
FP_CONFIDENCE = (0.30, 0.55)
SUPPRESSED_CONFIDENCE = (0.05, 0.20)

_PLACEMENT_TRIES = 200
# _sample_dims caps an object's long side at 0.16 of the frame's shorter
# side, so its envelope spans at most 0.4 of either side.
_ENVELOPE_FACTOR = 2.5
# Reserved PRNG stream for cross-image assignment decisions; image streams
# use the image index, which never reaches this value.
_ASSIGN_STREAM = 2**32


def _q6(value: float) -> float:
    """Snap to the 6-decimal grid used by the line format."""
    return float(f"{value:.6f}")


def _grid_box(frame: ImageDims, class_id: int, cx: float, cy: float,
              w: float, h: float, confidence: float | None) -> Box:
    """Build a box from pixel center/size, snapped to the file grid.

    The snapped fractions become corners by the parser's own arithmetic,
    that of :func:`koheval.geometry.frame_rows`, so this box survives a
    write/read round-trip bit for bit.
    """
    cx, cy = _q6(cx / frame.width), _q6(cy / frame.height)
    w, h = _q6(w / frame.width), _q6(h / frame.height)
    return Box((cx - w / 2.0) * frame.width, (cy - h / 2.0) * frame.height,
               (cx + w / 2.0) * frame.width, (cy + h / 2.0) * frame.height,
               class_id, None if confidence is None else _q6(confidence))


@dataclass(frozen=True)
class SynthSpec:
    """Configuration for cohort generation; every image is a ``FRAME``."""

    n_images: int = 40
    fungal_per_image: tuple[int, int] = (0, 3)
    artefact_per_image: tuple[int, int] = (0, 2)
    tp_rate: float = 0.85
    fp_extra_rate: float = 0.30
    iou_mean: float = 0.80
    iou_spread: float = 0.10
    seed: int = 0

    def __post_init__(self):
        if self.n_images < 1:
            raise SchemaError("n_images must be at least 1")
        if self.seed < 0:
            raise SchemaError(f"seed must be non-negative, got {self.seed}")
        for name in ("fungal_per_image", "artefact_per_image"):
            lo, hi = getattr(self, name)
            if not 0 <= lo <= hi:
                raise SchemaError(f"{name} must be an ordered non-negative range")
        for name in ("tp_rate", "fp_extra_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SchemaError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.iou_mean <= 1.0:
            raise SchemaError("iou_mean must lie in (0, 1]")
        if self.iou_spread < 0.0:
            raise SchemaError("iou_spread must be non-negative")


@dataclass(frozen=True)
class PlantedBox:
    """One planted object and its intended fate at the operating point.

    Roles "tp", "fn" and "suppressed" describe a ground-truth box
    (gt_index set); "tp" and "suppressed" additionally planted a
    prediction. Role "fp" is a prediction with no ground truth behind it.
    """

    role: str
    class_id: int
    gt_index: int | None = None
    pred_index: int | None = None
    target_iou: float | None = None
    achieved_iou: float | None = None

    def __post_init__(self):
        if self.role not in ROLES:
            raise SchemaError(f"unknown planted role {self.role!r}")


# Truth-file fields a planted box may omit (they default to None).
_OPTIONAL_PLANT_FIELDS = (("gt_index", (int, type(None))),
                          ("pred_index", (int, type(None))),
                          ("target_iou", (int, float, type(None))),
                          ("achieved_iou", (int, float, type(None))))


@dataclass(frozen=True)
class ImageTruth:
    image_id: str
    planted: tuple[PlantedBox, ...]

    def gt_positive(self) -> bool:
        return any(p.class_id == FUNGAL and p.gt_index is not None
                   for p in self.planted)

    def predicted_positive(self) -> bool:
        # TP and FP confidences sit strictly above the threshold,
        # suppressed ones strictly below, so roles decide the call.
        return any(p.class_id == FUNGAL and p.role in ("tp", "fp")
                   for p in self.planted)


@dataclass(frozen=True)
class SynthTruth:
    """What the generator planted, for closed-loop verification."""

    seed: int
    images: tuple[ImageTruth, ...]

    def _plants(self, class_id: int | None):
        for image in self.images:
            for p in image.planted:
                if class_id is None or p.class_id == class_id:
                    yield p

    def expected_counts(self, class_id: int | None = None) -> tuple[int, int, int]:
        """(tp, fp, fn) the matcher must recover at the default operating
        point; suppressed plants surface as FNs there."""
        roles = Counter(p.role for p in self._plants(class_id))
        return roles["tp"], roles["fp"], roles["fn"] + roles["suppressed"]

    def planted_mean_iou(self, class_id: int | None = None) -> float | None:
        achieved = [p.achieved_iou for p in self._plants(class_id)
                    if p.role == "tp"]
        return sum(achieved) / len(achieved) if achieved else None

    def expected_screening(self) -> tuple[int, int, int, int]:
        """(tp, fn, fp, tn) over images under the screening rule."""
        calls = Counter((image.gt_positive(), image.predicted_positive())
                        for image in self.images)  # (sick, called)
        return (calls[True, True], calls[True, False],
                calls[False, True], calls[False, False])

    def to_json(self) -> str:
        return dump_json({
            "schema": "koheval-synth-truth/1",
            "seed": self.seed,
            "images": [{"image_id": image.image_id,
                        "planted": [vars(p) for p in image.planted]}
                       for image in self.images],
        })

    @classmethod
    def from_json(cls, text: str) -> "SynthTruth":
        doc = load_json(text, "truth file")
        if doc.get("schema") != "koheval-synth-truth/1":
            raise SchemaError("truth file: not a koheval-synth-truth/1 document")
        images = []
        for entry in require(doc, "images", list, "truth file"):
            planted = tuple(
                PlantedBox(role=require(p, "role", str, "planted box"),
                           class_id=require(p, "class_id", int, "planted box"),
                           **{key: require(p, key, kinds, "planted box")
                              for key, kinds in _OPTIONAL_PLANT_FIELDS if key in p})
                for p in require(entry, "planted", list, "truth image")
            )
            images.append(ImageTruth(image_id=require(entry, "image_id", str,
                                                      "truth image"),
                                     planted=planted))
        return cls(seed=require(doc, "seed", int, "truth file"),
                   images=tuple(images))


# ---------------------------------------------------------------------------
# Scene construction


def _image_rng(seed: int, stream: int) -> np.random.Generator:
    # PCG64 with an explicit two-word seed sequence; identical streams on
    # every platform.
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def _sample_dims(rng: np.random.Generator, frame: ImageDims,
                 class_id: int) -> tuple[float, float]:
    # Fungal structures are thin and elongated; artefacts compact.
    scale = min(frame.width, frame.height)
    if class_id == FUNGAL:
        long_side = rng.uniform(0.06, 0.16) * scale
        aspect = rng.uniform(3.0, 7.0)
    else:
        long_side = rng.uniform(0.04, 0.10) * scale
        aspect = rng.uniform(1.0, 2.0)
    short_side = long_side / aspect
    if rng.random() < 0.5:
        return long_side, short_side
    return short_side, long_side


def _place(rng: np.random.Generator, frame: ImageDims, taken: list,
           class_id: int, image_id: str) -> tuple[float, float, float, float]:
    """(cx, cy, w, h) of a new object; its envelope joins ``taken``, kept disjoint."""
    w, h = _sample_dims(rng, frame, class_id)
    half_w = _ENVELOPE_FACTOR * w / 2.0
    half_h = _ENVELOPE_FACTOR * h / 2.0
    for _ in range(_PLACEMENT_TRIES):
        cx = rng.uniform(half_w, frame.width - half_w)
        cy = rng.uniform(half_h, frame.height - half_h)
        x0, y0, x1, y1 = cx - half_w, cy - half_h, cx + half_w, cy + half_h
        if all(x1 <= e[0] or e[2] <= x0 or y1 <= e[1] or e[3] <= y0 for e in taken):
            taken.append((x0, y0, x1, y1))
            return cx, cy, w, h
    raise GenerationError(
        f"{image_id}: could not place an object after {_PLACEMENT_TRIES} "
        f"attempts; the scene is too crowded"
    )


# A planted prediction awaiting its offset: ``gt`` resized to w x h and
# moved t along the unit ray (dx, dy), with t solved for IoU ``target``.
_Perturbation = namedtuple("_Perturbation",
                           "gt w h dx dy target confidence image_id")


def _perturb_to_iou(rng: np.random.Generator, gt: Box, target: float,
                    confidence: float, image_id: str) -> _Perturbation:
    """Draw the jitter that takes a copy of ``gt`` to IoU ``target``.

    A random scale inside (sqrt(t), 1/sqrt(t)) guarantees the zero-offset
    IoU exceeds the target; IoU then falls monotonically along any
    translation ray, so bisection on the offset converges. The offsets of
    a whole cohort are solved together by :func:`_solve_offsets`.
    """
    s_lo, s_hi = math.sqrt(target), 1.0 / math.sqrt(target)
    margin = 0.02 * (s_hi - s_lo)
    scale = rng.uniform(s_lo + margin, s_hi - margin)
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return _Perturbation(gt, gt.width * scale, gt.height * scale,
                         math.cos(angle), math.sin(angle), target,
                         confidence, image_id)


def _solve_offsets(frame: ImageDims, pending: Sequence[_Perturbation]
                   ) -> list[tuple[Box, float]]:
    """Bisect (at most 80 steps) every pending offset at once on ``[0, w + h]``, its
    gt's width plus height; return each snapped prediction and its achieved
    IoU, in ``pending`` order. At ``w + h`` one axis moves at least ``(w + h)
    / sqrt(2)``, so IoU <= 0.293 at every scale :func:`_perturb_to_iou` draws,
    below every target (0.55 to 0.95). A miss raises ``perturbation missed``.

    Each step measures all candidates with one
    :func:`koheval.geometry.iou_matrix` call on ``[M, 1, 4]`` corners.
    It repeats :func:`koheval.geometry.iou`'s operations in order, and
    float64 + - * / min max round as Python floats do, so each offset is
    bit for bit the one a scalar loop over the element finds.
    """
    if not pending:
        return []
    table = np.array([(p.gt.x_min, p.gt.y_min, p.gt.x_max, p.gt.y_max,
                       p.w, p.h, p.dx, p.dy, p.target) for p in pending])
    gt = table[:, None, :4]
    gx0, gy0, gx1, gy1, w, h, dx, dy, target = table.T
    cx0, cy0 = (gx0 + gx1) / 2.0, (gy0 + gy1) / 2.0

    def iou_at(t: np.ndarray) -> np.ndarray:
        cx, cy = cx0 + t * dx, cy0 + t * dy
        x0, y0, x1, y1 = cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0
        for k in np.flatnonzero(~((x1 > x0) & (y1 > y0)))[:1]:
            Box(x0[k], y0[k], x1[k], y1[k], FUNGAL)  # raises InvalidBoxError
        return iou_matrix(gt, np.stack((x0, y0, x1, y1), axis=-1)[:, None])[:, 0, 0]

    t_lo, t_hi = np.zeros(len(pending)), (gx1 - gx0) + (gy1 - gy0)
    for _ in range(80):
        mid = (t_lo + t_hi) / 2.0
        inside = iou_at(mid) >= target
        # A step that moves no bound would repeat itself at every later step.
        if not np.where(inside, mid != t_lo, mid != t_hi).any():
            break
        t_lo = np.where(inside, mid, t_lo)
        t_hi = np.where(inside, t_hi, mid)

    solved = []
    for p, cx, cy in zip(pending, (cx0 + t_lo * dx).tolist(), (cy0 + t_lo * dy).tolist()):
        pred = _grid_box(frame, p.gt.class_id, cx, cy, p.w, p.h, p.confidence)
        achieved = iou(p.gt, pred)
        if abs(achieved - p.target) > 1e-3:
            raise GenerationError(
                f"{p.image_id}: perturbation missed the target IoU {p.target:.4f}"
            )
        solved.append((pred, achieved))
    return solved


def _sample_target_iou(rng: np.random.Generator, spec: SynthSpec) -> float:
    raw = rng.uniform(spec.iou_mean - spec.iou_spread,
                      spec.iou_mean + spec.iou_spread)
    # Keep clear of both the 0.50 match threshold and degenerate overlap.
    return float(min(max(raw, 0.55), 0.95))


def _build_scene(rng: np.random.Generator, spec: SynthSpec, image_id: str,
                 gt_plants: Sequence[tuple[int, str]], fp_classes: Sequence[int]
                 ) -> tuple[str, list[Box], list[Box | _Perturbation],
                            list[dict]]:
    """Place the requested plants in one frame.

    ``gt_plants`` lists (class_id, role) for ground-truth boxes, role in
    {"tp", "fn", "suppressed"}; ``fp_classes`` lists classes of extra
    unmatched predictions. The scene lists each perturbed prediction as
    its :class:`_Perturbation`, for :func:`_cohort` to solve, and each
    plant as the fields of its :class:`PlantedBox` but the achieved IoU.
    """
    taken: list = []
    gt_boxes: list[Box] = []
    # (prediction or its perturbation, plant position)
    staged: list[tuple[Box | _Perturbation, int]] = []
    planted: list[dict] = []

    for class_id, role in gt_plants:
        cx, cy, w, h = _place(rng, FRAME, taken, class_id, image_id)
        gt = _grid_box(FRAME, class_id, cx, cy, w, h, None)
        gt_index = len(gt_boxes)
        gt_boxes.append(gt)
        if role == "fn":
            planted.append(dict(role="fn", class_id=class_id, gt_index=gt_index))
            continue
        band = TP_CONFIDENCE if role == "tp" else SUPPRESSED_CONFIDENCE
        target = _sample_target_iou(rng, spec)
        staged.append((_perturb_to_iou(rng, gt, target, rng.uniform(*band),
                                       image_id), len(planted)))
        planted.append(dict(role=role, class_id=class_id, gt_index=gt_index,
                            target_iou=target))

    for class_id in fp_classes:
        cx, cy, w, h = _place(rng, FRAME, taken, class_id, image_id)
        pred = _grid_box(FRAME, class_id, cx, cy, w, h,
                         rng.uniform(*FP_CONFIDENCE))
        staged.append((pred, len(planted)))
        planted.append(dict(role="fp", class_id=class_id))

    # Shuffle prediction order so matching never sees generation order.
    order = rng.permutation(len(staged))
    predictions: list[Box | _Perturbation] = []
    for new_index, old_index in enumerate(order):
        box, plant_pos = staged[old_index]
        predictions.append(box)
        planted[plant_pos]["pred_index"] = new_index
    return image_id, gt_boxes, predictions, planted


def _cohort(spec: SynthSpec, prefix: str, n_images: int, plan
            ) -> tuple[Dataset, SynthTruth]:
    """Build image i from its own PRNG stream, with ``plan(i, rng)`` giving
    its (gt_plants, fp_classes) for :func:`_build_scene`; then solve every
    perturbation at once, in cohort order, and build the records and truth."""
    scenes = []
    for i in range(n_images):
        rng = _image_rng(spec.seed, i)
        scenes.append(_build_scene(rng, spec, f"{prefix}-{i:04d}", *plan(i, rng)))
    solved = iter(_solve_offsets(FRAME, [
        p for _, _, staged, _ in scenes for p in staged
        if isinstance(p, _Perturbation)]))
    records, truths = [], []
    for image_id, gt_boxes, staged, planted in scenes:
        outcomes = [next(solved) if isinstance(p, _Perturbation) else (p, None)
                    for p in staged]  # (prediction, achieved IoU)
        planted = tuple(PlantedBox(**p, achieved_iou=outcomes[p["pred_index"]][1]
                                   if "target_iou" in p else None) for p in planted)
        records.append(ImageRecord(image_id=image_id, dims=FRAME,
                                   ground_truth=gt_boxes,
                                   predictions=[box for box, _ in outcomes]))
        truths.append(ImageTruth(image_id=image_id, planted=planted))
    return Dataset(records=records), SynthTruth(seed=spec.seed,
                                                images=tuple(truths))


def generate(spec: SynthSpec) -> tuple[Dataset, SynthTruth]:
    """Generate a cohort whose matching outcome is known by construction.

    Deterministic in ``spec.seed``; each image draws from its own PRNG
    stream, so images are independent of cohort size and order.
    """
    def plan(i: int, rng: np.random.Generator):
        gt_plants: list[tuple[int, str]] = []
        for class_id, (lo, hi) in ((FUNGAL, spec.fungal_per_image),
                                   (ARTEFACT, spec.artefact_per_image)):
            for _ in range(int(rng.integers(lo, hi + 1))):
                gt_plants.append((class_id, "tp" if rng.random() < spec.tp_rate else
                                  "suppressed" if rng.random() < 0.5 else "fn"))
        n_fp = int(rng.binomial(2, spec.fp_extra_rate))
        return gt_plants, [int(rng.integers(0, 2)) for _ in range(n_fp)]
    return _cohort(spec, "synth", spec.n_images, plan)


def _shuffled_roles(seed: int, *counts: tuple[str, int]) -> list[str]:
    """Each role name repeated its count of times, then shuffled by the
    cross-image assignment stream."""
    try:
        roles = [name for role, n in counts for name in [role] * n]
    except (OverflowError, MemoryError):  # a count that cannot size a list
        raise SchemaError("counts too large to plant") from None
    order = _image_rng(seed, _ASSIGN_STREAM).permutation(len(roles))
    return [roles[k] for k in order.tolist()]


def _matched_artefact(rng: np.random.Generator) -> list[tuple[int, str]]:
    """A matched artefact in half the images: it exercises class-aware
    matching without touching the fungal counts."""
    return [(ARTEFACT, "tp")] if rng.random() < 0.5 else []


def plant_object_counts(tp: int, fp: int, fn: int, *,
                        seed: int = 0) -> tuple[Dataset, SynthTruth]:
    """Cohort whose fungal object-level counts are exactly (tp, fp, fn) at
    the default operating point, at most three plants to an image."""
    if min(tp, fp, fn) < 0 or tp + fp + fn == 0:
        raise SchemaError("counts must be non-negative and not all zero")
    spec = SynthSpec(seed=seed)
    plants = _shuffled_roles(spec.seed, ("tp", tp), ("fn", fn), ("fp", fp))
    n_images = max(1, math.ceil(len(plants) / 3))

    def plan(i: int, rng: np.random.Generator):
        bucket = plants[i::n_images]  # dealt round-robin
        return ([(FUNGAL, role) for role in bucket if role != "fp"]
                + _matched_artefact(rng), [FUNGAL] * bucket.count("fp"))
    return _cohort(spec, "plant", n_images, plan)


def plant_screening_matrix(tp: int, fn: int, fp: int, tn: int, *,
                           seed: int = 0) -> tuple[Dataset, SynthTruth]:
    """Cohort of tp+fn+fp+tn images whose screening confusion matrix is
    exactly (tp, fn, fp, tn) at the default operating point."""
    if min(tp, fn, fp, tn) < 0 or tp + fn + fp + tn == 0:
        raise SchemaError("matrix cells must be non-negative and not all zero")
    spec = SynthSpec(seed=seed)
    outcomes = _shuffled_roles(spec.seed, ("tp", tp), ("fn", fn), ("fp", fp),
                               ("tn", tn))

    def plan(i: int, rng: np.random.Generator):
        outcome = outcomes[i]
        fungal: list[tuple[int, str]] = []
        if outcome == "tp":
            fungal = [(FUNGAL, "tp")] * (1 + int(rng.integers(0, 2)))
        elif outcome == "fn":
            fungal = [(FUNGAL, "suppressed" if rng.random() < 0.5 else "fn")]
        return fungal + _matched_artefact(rng), [FUNGAL] if outcome == "fp" else []
    return _cohort(spec, "screen", len(outcomes), plan)


def plant_uniform_iou_cohort(n_images: int = 8) -> Dataset:
    """Every prediction overlaps its ground truth at IoU exactly 7/10, in
    2000x2000 frames.

    Integer pixel coordinates make the ratio land on the float64 literal
    0.7, so threshold sweeps flip from all-TP to all-FP precisely between
    0.70 and 0.75.
    """
    if not 1 <= n_images <= 20:
        raise SchemaError("n_images must lie in [1, 20]")
    records = []
    for i in range(n_images):
        ox, oy = 17 * i, 13 * i
        gt = Box(200 + ox, 500 + oy, 500 + ox, 1500 + oy, FUNGAL)
        pred = Box(200 + ox, 500 + oy, 500 + ox, 1200 + oy, FUNGAL,
                   confidence=_q6(0.9 - 0.4 * i / max(1, n_images - 1)))
        records.append(ImageRecord(image_id=f"uniform-{i:04d}",
                                   dims=ImageDims(2000, 2000),
                                   ground_truth=[gt], predictions=[pred]))
    return Dataset(records=records)


# ---------------------------------------------------------------------------
# Brute-force reference implementations


def reference_match(gts: Sequence[Box], preds: Sequence[Box],
                    op: OperatingPoint = OperatingPoint()) -> MatchReport:
    """Direct transcription of the greedy matching protocol.

    No vectorization, no early exits; must agree with
    :func:`koheval.metrics.match_image` bit for bit.
    """
    kept = [i for i in range(len(preds)) if op.admits(preds[i].confidence)]
    best = {}
    for i in kept:
        same = [iou(g, preds[i]) for g in gts if g.class_id == preds[i].class_id]
        best[i] = max(same, default=0.0)
        if best[i] < 0.0:
            best[i] = 0.0
    order = sorted(kept, key=lambda i: (-preds[i].confidence, -best[i], i))

    unmatched = list(range(len(gts)))
    tp_pairs = []
    fp_indices = []
    for i in order:
        chosen = None
        chosen_iou = -1.0
        for g in unmatched:
            if gts[g].class_id != preds[i].class_id:
                continue
            value = iou(gts[g], preds[i])
            if value > chosen_iou:
                chosen, chosen_iou = g, value
        if chosen is not None and chosen_iou >= op.iou_threshold:
            unmatched.remove(chosen)
            tp_pairs.append((chosen, i, chosen_iou))
        else:
            fp_indices.append(i)
    fp_indices.sort()

    classes = sorted({b.class_id for b in gts}
                     | {preds[i].class_id for i in fp_indices}
                     | {preds[i].class_id for _, i, _ in tp_pairs})
    class_counts = {}
    for c in classes:
        c_tp = sum(1 for g, _, _ in tp_pairs if gts[g].class_id == c)
        c_fp = sum(1 for i in fp_indices if preds[i].class_id == c)
        c_fn = sum(1 for g in unmatched if gts[g].class_id == c)
        class_counts[c] = (c_tp, c_fp, c_fn)

    return MatchReport(tp_pairs=tuple(tp_pairs),
                       fp_pred_indices=tuple(fp_indices),
                       fn_gt_indices=tuple(sorted(unmatched)),
                       class_counts=class_counts)


def reference_ap(curve: PRCurve, interpolation: str = "101") -> float:
    """Envelope integrator written as a direct definition-chasing loop.

    Must agree with :func:`koheval.metrics.average_precision` within
    1e-12.
    """
    if interpolation not in ("101", "all"):
        raise SchemaError(f"unknown interpolation {interpolation!r}")
    if not curve.points:
        return 0.0
    # Descending-confidence point order is ascending-recall order.
    ascending = [(r, p) for _, p, r in curve.points]

    def envelope_at(recall: float) -> float:
        candidates = [p for r, p in ascending if r >= recall]
        return max(candidates) if candidates else 0.0

    if interpolation == "101":
        total = 0.0
        for k in range(101):
            total += envelope_at(k / 100.0)
        return total / 101.0
    total = 0.0
    previous = 0.0
    for r, _ in ascending:
        total += (r - previous) * envelope_at(r)
        previous = r
    return total


# ---------------------------------------------------------------------------
# Cohort files


def _replaceable(out: Path) -> bool:
    """An empty directory, or a cohort holding nothing but cohort files,
    that does not hold the working directory (it is renamed aside)."""
    if not out.is_dir() or Path.cwd().is_relative_to(out):
        return False
    names = {entry.name for entry in out.iterdir()}
    return not names or (names <= {"dims.json", "gt", "pred", "truth.json"}
                         and is_cohort_dir(out))


def _create(path: Path | str, text: str) -> None:
    """Create ``path`` (mode 0600, as mkstemp gives) holding ``text`` as UTF-8."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600)
    try:
        data = memoryview(text.encode())
        while data:  # a full disk can end a write short
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _write_labels(directory: Path, records: list[ImageRecord], field: str) -> None:
    # Runs on a second thread, so it calls nothing bench/spans.py traces.
    directory.mkdir()
    for rec in records:
        _create(os.path.join(directory, f"{rec.image_id}.txt"),
                format_label_file(getattr(rec, field), rec.dims))


def write_cohort(dataset: Dataset, out_dir: Path | str,
                 truth: SynthTruth | None = None) -> Path:
    """Write a cohort (gt/*.txt, pred/*.txt, dims.json and, when given,
    truth.json) into a staging directory beside ``out_dir``, then swap it in
    whole; see ``_replaceable`` for what an existing ``out_dir`` may be.
    Files in the staging directory are plain creates, pred/ on a second thread."""
    out = Path(out_dir).resolve()
    dims = set(dataset.dims)
    if len(dims) != 1:
        raise SchemaError("cohort directories require uniform image dims")
    for name in dataset.ids():
        if name in (".", "..") or any(c in name for c in ("/", os.sep, "\0")):
            raise SchemaError(f"image id {name!r} is not a plain file name")
    if out.exists() and not _replaceable(out):
        raise SchemaError(f"{out_dir}: refusing to replace it: not an empty "
                          "directory or a cohort, or it holds the working directory")
    frame = dims.pop()
    staging = out.with_name(f".{out.name}.staging-{os.getpid()}")
    old = out.with_name(f".{out.name}.old-{os.getpid()}")
    staging.mkdir(parents=True)
    try:
        _create(staging / "dims.json", dump_json(
            {"width": frame.width, "height": frame.height}, indent=None))
        records = dataset.records  # built once, here, not on both threads
        with ThreadPoolExecutor(1) as pool:  # left only once the worker is done
            preds = pool.submit(_write_labels, staging / "pred", records, "predictions")
            _write_labels(staging / "gt", records, "ground_truth")
        preds.result()
        if truth is not None:
            _create(staging / "truth.json", truth.to_json())
        if out.exists():
            out.rename(old)
        staging.rename(out)
    except BaseException:
        if old.exists() and not out.exists():
            old.rename(out)
        shutil.rmtree(staging, ignore_errors=True)
        raise
    shutil.rmtree(old, ignore_errors=True)
    return out


def read_truth(path: Path | str) -> SynthTruth:
    """Read a truth file, or the truth.json inside a cohort directory."""
    p = Path(path)
    if p.is_dir():
        p = p / "truth.json"
    return SynthTruth.from_json(read_text(p))
