"""Box algebra and the letterbox coordinate transform.

All boxes are axis-aligned rectangles in continuous (sub-pixel) corner
format ``(x_min, y_min, x_max, y_max)``. Center format only appears at
parse boundaries. Every operation here is a pure function over immutable
values, so unrestricted parallel use is safe.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from itertools import chain
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import (InvalidBoxError, KohevalError, OutOfFrameError, RangeError,
                     SchemaError)

FUNGAL = 0
ARTEFACT = 1
CLASS_NAMES = ("fungal", "artefact")


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle with a class label and optional confidence.

    Ground-truth boxes carry ``confidence=None``; predictions carry a
    confidence in [0, 1]. Zero-area and inverted boxes are rejected at
    construction rather than silently repaired.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    class_id: int
    confidence: float | None = None

    def __post_init__(self):
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise InvalidBoxError(
                f"box must have strictly positive area, got "
                f"({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )
        if self.confidence is not None and not 0.0 <= self.confidence <= 1.0:
            raise InvalidBoxError(f"confidence {self.confidence} outside [0, 1]")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    @property
    def center(self) -> tuple[float, float]:
        return ((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)


def cut_digits(text: str) -> str:
    """``text`` with each run of 16 or more digits cut to 8 and ``...``."""
    return re.sub(r"([0-9]{8})[0-9]{8,}", r"\1...", text)


@dataclass(frozen=True)
class ImageDims:
    """Positive integer pixel dimensions of an image frame, each small
    enough to convert to a float."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise SchemaError("dims must be >= 1, got "
                              + cut_digits(f"{self.width}x{self.height}"))
        try:
            float(self.width), float(self.height)
        except OverflowError:
            raise SchemaError("dims too large to convert to a float") from None


@dataclass(frozen=True)
class LetterboxTransform:
    """Scale + symmetric padding mapping between source and model frames.

    ``scale`` is the common ratio applied to both axes; the leftover space
    in the target frame is split into two exact (possibly fractional)
    halves ``pad_x`` / ``pad_y``, which keeps the inverse mapping exact.
    """

    scale: float
    pad_x: float
    pad_y: float
    source: ImageDims
    target: ImageDims


def letterbox_fit(source: ImageDims, target: ImageDims) -> LetterboxTransform:
    """Fit ``source`` into ``target`` preserving aspect ratio.

    The scaled source is centered; padding on each axis is half of the
    unused extent, with no integer snapping.
    """
    scale = min(target.width / source.width, target.height / source.height)
    pad_x = (target.width - scale * source.width) / 2.0
    pad_y = (target.height - scale * source.height) / 2.0
    return LetterboxTransform(scale=scale, pad_x=pad_x, pad_y=pad_y,
                              source=source, target=target)


def clip_to_frame(box: Box, dims: ImageDims) -> Box:
    """Intersect ``box`` with the frame ``[0, width] x [0, height]``.

    Raises OutOfFrameError when nothing of the box remains inside.
    """
    width, height = float(dims.width), float(dims.height)
    if box.x_min >= 0.0 <= box.y_min and box.x_max <= width and box.y_max <= height:
        return box
    x0 = max(box.x_min, 0.0)
    y0 = max(box.y_min, 0.0)
    x1 = min(box.x_max, width)
    y1 = min(box.y_max, height)
    if x1 - x0 <= 0.0 or y1 - y0 <= 0.0:
        raise OutOfFrameError(
            f"box ({box.x_min}, {box.y_min}, {box.x_max}, {box.y_max}) "
            f"lies outside the {dims.width}x{dims.height} frame"
        )
    return replace(box, x_min=x0, y_min=y0, x_max=x1, y_max=y1)


_FIELDS = ("cx", "cy", "w", "h", "conf")


def frame_rows(rows: np.ndarray, dims: Sequence[ImageDims], counts: Sequence[int],
               normalized: bool = True) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                 tuple[int, KohevalError] | None]:
    """The box rules on float64 rows ``(class, a, b, c, d[, confidence])``,
    ``counts[i]`` of them in the frame ``dims[i]``, one after another.

    Normalized rows (label files) hold a box's centre and size as fractions
    of the frame, each in [0, 1] like the confidence; the corners are
    ``((cx - w / 2) * width, ...)``. Other rows (COCO) hold the top-left
    corner and size in pixels. A box must have positive area, and it is
    clipped as :func:`clip_to_frame` clips it. Returns each row's corners
    ``(x0, y0, x1, y1, class[, confidence])``, clipped; which rows were
    clipped and which rejected; and the first rejected row's index with a
    RangeError naming the field, or what :class:`Box` or
    :func:`clip_to_frame` raises on it; or None.
    """
    if dims and dims.count(dims[0]) == len(dims):  # one frame: its sides broadcast
        widths, heights = float(dims[0].width), float(dims[0].height)
    else:
        widths = np.repeat([float(d.width) for d in dims], counts)
        heights = np.repeat([float(d.height) for d in dims], counts)
    class_id, a, b, c, d = rows.T[:5]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN, as in Python
        if normalized:
            out_of_range = ~((rows[:, 1:] >= 0.0) & (rows[:, 1:] <= 1.0))
            x0, y0 = (a - c / 2.0) * widths, (b - d / 2.0) * heights
            x1, y1 = (a + c / 2.0) * widths, (b + d / 2.0) * heights
        else:
            out_of_range = np.zeros((len(rows), 1), dtype=bool)
            x0, y0, x1, y1 = a, b, a + c, b + d
        inside = (x0 >= 0.0) & (y0 >= 0.0) & (x1 <= widths) & (y1 <= heights)
        # max(x, 0.0) and min(x, width) as Python takes them: -0.0 stays.
        cx0, cy0 = np.where(0.0 > x0, 0.0, x0), np.where(0.0 > y0, 0.0, y0)
        cx1, cy1 = np.where(widths < x1, widths, x1), np.where(heights < y1, heights, y1)
        rejected = (out_of_range.any(axis=1) | ~((x1 > x0) & (y1 > y0))
                    | ~inside & ~((cx1 - cx0 > 0.0) & (cy1 - cy0 > 0.0)))
    first = None
    if rejected.any():
        i = int(np.argmax(rejected))
        if out_of_range[i].any():
            field = int(np.argmax(out_of_range[i]))
            first = i, RangeError(f"{_FIELDS[field]}={float(rows[i, field + 1])} "
                                  "outside [0, 1]")
        else:
            try:  # the scalar rules raise the error
                clip_to_frame(Box(*(float(v[i]) for v in (x0, y0, x1, y1)), FUNGAL),
                              dims[int(np.searchsorted(np.cumsum(counts), i, "right"))])
            except (InvalidBoxError, OutOfFrameError) as exc:
                first = i, exc
    return (np.column_stack((cx0, cy0, cx1, cy1, class_id, *rows.T[5:])),
            ~inside & ~rejected, rejected, first)


def box_to_model(box: Box, transform: LetterboxTransform) -> Box:
    """Map a box from source coordinates into the letterboxed model frame.

    Each coordinate maps as ``c' = c * scale + pad``; class and confidence
    are preserved. The result is clipped to the target frame; a box fully
    outside it raises OutOfFrameError.
    """
    mapped = replace(
        box,
        x_min=box.x_min * transform.scale + transform.pad_x,
        y_min=box.y_min * transform.scale + transform.pad_y,
        x_max=box.x_max * transform.scale + transform.pad_x,
        y_max=box.y_max * transform.scale + transform.pad_y,
    )
    return clip_to_frame(mapped, transform.target)


def box_to_source(box: Box, transform: LetterboxTransform) -> Box:
    """Inverse of :func:`box_to_model`, exact to 1e-6 for in-frame boxes."""
    mapped = replace(
        box,
        x_min=(box.x_min - transform.pad_x) / transform.scale,
        y_min=(box.y_min - transform.pad_y) / transform.scale,
        x_max=(box.x_max - transform.pad_x) / transform.scale,
        y_max=(box.y_max - transform.pad_y) / transform.scale,
    )
    return clip_to_frame(mapped, transform.source)


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes: 0 when disjoint, 1 iff equal."""
    iw = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    if iw <= 0.0:
        return 0.0
    ih = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    return inter / union


def box_rows(boxes: Iterable[Box], with_confidence: bool = False) -> np.ndarray:
    """Boxes as float64 rows (x0, y0, x1, y1, class): ``[n, 5]``, or
    ``[n, 6]`` with the confidence."""
    fields = ("x_min", "y_min", "x_max", "y_max", "class_id", "confidence")
    fields = fields[:6 if with_confidence else 5]
    return np.fromiter(chain.from_iterable(map(attrgetter(*fields), boxes)),
                       dtype=float).reshape(-1, len(fields))


def iou_matrix(rows: Sequence[Box] | np.ndarray,
               cols: Sequence[Box] | np.ndarray) -> np.ndarray:
    """Pairwise IoU as a ``(len(rows), len(cols))`` array.

    Either side may also be a ``[..., n, 4]`` array of corners; leading
    axes broadcast, so ``[N, G, 4]`` against ``[N, P, 4]`` gives
    ``[N, G, P]``. Uses the same operation order as :func:`iou`, so
    entries are bit-identical to the scalar result.
    """
    r = (rows if isinstance(rows, np.ndarray) else box_rows(rows))[..., :, None, :]
    c = (cols if isinstance(cols, np.ndarray) else box_rows(cols))[..., None, :, :]
    rx0, ry0, rx1, ry1 = r[..., 0], r[..., 1], r[..., 2], r[..., 3]
    cx0, cy0, cx1, cy1 = c[..., 0], c[..., 1], c[..., 2], c[..., 3]

    # In place where it can be, so a large block holds few full-size arrays.
    inter = np.maximum(np.minimum(rx1, cx1) - np.maximum(rx0, cx0), 0.0)
    inter *= np.maximum(np.minimum(ry1, cy1) - np.maximum(ry0, cy0), 0.0)
    union = (rx1 - rx0) * (ry1 - ry0) + (cx1 - cx0) * (cy1 - cy0) - inter
    np.copyto(union, 1.0, where=~(union > 0.0))
    return np.where(inter > 0.0, np.divide(inter, union, out=union), 0.0)
