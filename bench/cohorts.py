"""The eval-dense generator.

Each dense image is a 2048x2048 frame holding 25-50 boxes per class. Ground
truth is clustered, so boxes overlap heavily, the way hyphae clump.
Predictions are jittered copies of ground truth, a share of duplicates,
and boxes placed at random; all stay inside the frame. No outcome is
planted: the benchmark derives the expected results from
``koheval.synth.reference_match``.

Boxes are snapped to the 6-decimal grid of the line format by
``koheval.synth._grid_box``, so the cohort koheval's ``write_cohort``
writes reads back as exactly the dataset this module returns.
"""

from __future__ import annotations

import numpy as np

from koheval.dataset import Dataset, ImageRecord
from koheval.geometry import ARTEFACT, FUNGAL, Box, ImageDims
from koheval.synth import _grid_box

FRAME = 2048
DIMS = ImageDims(FRAME, FRAME)
# Boxes keep this many pixels clear of the frame edge, so rounding to the
# file grid can never push one across it (the parser would clip it).
EDGE_PX = 2.0


def _sizes(rng: np.random.Generator, class_id: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    # Fungal structures are thin and elongated; artefacts compact.
    if class_id == FUNGAL:
        long_side = rng.uniform(60.0, 200.0, n)
        aspect = rng.uniform(3.0, 7.0, n)
    else:
        long_side = rng.uniform(30.0, 100.0, n)
        aspect = rng.uniform(1.0, 2.0, n)
    short_side = long_side / aspect
    upright = rng.random(n) < 0.5
    return np.where(upright, short_side, long_side), np.where(upright, long_side, short_side)


def _grid(class_id: int, cx, cy, w, h, conf=None) -> list[Box]:
    """Clip pixel boxes into the frame, then snap them to the file grid."""
    w = np.minimum(w, FRAME - 2 * EDGE_PX)
    h = np.minimum(h, FRAME - 2 * EDGE_PX)
    cx = np.clip(cx, w / 2 + EDGE_PX, FRAME - w / 2 - EDGE_PX)
    cy = np.clip(cy, h / 2 + EDGE_PX, FRAME - h / 2 - EDGE_PX)
    return [_grid_box(DIMS, class_id, float(cx[k]), float(cy[k]), float(w[k]),
                      float(h[k]), None if conf is None else float(conf[k]))
            for k in range(len(cx))]


def dense_image(rng: np.random.Generator, image_id: str) -> ImageRecord:
    gts: list[Box] = []
    preds: list[Box] = []
    for class_id in (FUNGAL, ARTEFACT):
        n = int(rng.integers(25, 51))
        centers = rng.uniform(300.0, FRAME - 300.0, (int(rng.integers(3, 7)), 2))
        home = centers[rng.integers(0, len(centers), n)]
        gx = home[:, 0] + rng.normal(0.0, 80.0, n)
        gy = home[:, 1] + rng.normal(0.0, 80.0, n)
        gw, gh = _sizes(rng, class_id, n)
        gts += _grid(class_id, gx, gy, gw, gh)

        # Jittered copies of 90% of the ground truth, then duplicates of
        # 20% of it, then boxes placed anywhere.
        copy = np.flatnonzero(rng.random(n) < 0.9)
        dup = np.flatnonzero(rng.random(n) < 0.2)
        src = np.concatenate([copy, dup])
        k = len(src)
        scale_w = np.exp(rng.normal(0.0, 0.1, k))
        scale_h = np.exp(rng.normal(0.0, 0.1, k))
        px = gx[src] + rng.normal(0.0, 0.08, k) * gw[src]
        py = gy[src] + rng.normal(0.0, 0.08, k) * gh[src]
        conf = np.concatenate([rng.uniform(0.3, 1.0, len(copy)),
                               rng.uniform(0.1, 0.9, len(dup))])
        n_free = int(rng.integers(3, 11))
        fw, fh = _sizes(rng, class_id, n_free)
        px = np.concatenate([px, rng.uniform(0.0, FRAME, n_free)])
        py = np.concatenate([py, rng.uniform(0.0, FRAME, n_free)])
        pw = np.concatenate([gw[src] * scale_w, fw])
        ph = np.concatenate([gh[src] * scale_h, fh])
        conf = np.concatenate([conf, rng.uniform(0.05, 0.9, n_free)])
        preds += _grid(class_id, px, py, pw, ph, conf)

    # Shuffle prediction order so file order carries no information.
    order = rng.permutation(len(preds))
    return ImageRecord(image_id, DIMS, gts, [preds[i] for i in order])


def dense_cohort(seed: int, n_images: int) -> Dataset:
    """``n_images`` dense images, each from its own seeded PCG64 stream."""
    return Dataset([dense_image(np.random.default_rng(np.random.SeedSequence((seed, i))),
                                f"dense-{i:04d}")
                    for i in range(n_images)])
