"""Box algebra and the letterbox coordinate transform.

All boxes are axis-aligned rectangles in continuous (sub-pixel) corner
format ``(x_min, y_min, x_max, y_max)``. Center format only appears at
parse boundaries. Every operation here is a pure function over immutable
values, so unrestricted parallel use is safe.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InvalidBoxError, OutOfFrameError, SchemaError

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


def _corners(boxes: Sequence[Box] | np.ndarray) -> np.ndarray:
    if isinstance(boxes, np.ndarray):
        return boxes
    return np.array([(b.x_min, b.y_min, b.x_max, b.y_max) for b in boxes],
                    dtype=float).reshape(-1, 4)


def iou_matrix(rows: Sequence[Box] | np.ndarray,
               cols: Sequence[Box] | np.ndarray) -> np.ndarray:
    """Pairwise IoU as a ``(len(rows), len(cols))`` array.

    Either side may also be a ``[..., n, 4]`` array of corners; leading
    axes broadcast, so ``[N, G, 4]`` against ``[N, P, 4]`` gives
    ``[N, G, P]``. Uses the same operation order as :func:`iou`, so
    entries are bit-identical to the scalar result.
    """
    r, c = _corners(rows), _corners(cols)
    rx0, ry0, rx1, ry1 = (r[..., :, None, k] for k in range(4))
    cx0, cy0, cx1, cy1 = (c[..., None, :, k] for k in range(4))

    # In place where it can be, so a large block holds few full-size arrays.
    inter = np.maximum(np.minimum(rx1, cx1) - np.maximum(rx0, cx0), 0.0)
    inter *= np.maximum(np.minimum(ry1, cy1) - np.maximum(ry0, cy0), 0.0)
    union = (rx1 - rx0) * (ry1 - ry0) + (cx1 - cx0) * (cy1 - cy0) - inter
    np.copyto(union, 1.0, where=~(union > 0.0))
    return np.where(inter > 0.0, np.divide(inter, union, out=union), 0.0)
