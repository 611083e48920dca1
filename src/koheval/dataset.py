"""Annotation / prediction file parsing, the dataset container, and the
stratified train/val/test split.

Two interchange formats are supported: a line-oriented normalized format
(``class cx cy w h`` for ground truth, plus a trailing confidence for
predictions) and a COCO-style JSON document for ground truth with image
dimensions attached. A directory of label files is read as one batch:
files in the spelling :func:`format_label_file` writes are checked and
converted together, and every other file goes through the per-file
parsers. A Dataset is treated as immutable after construction.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import tempfile
import warnings
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    ClassError,
    InvalidBoxError,
    KohevalError,
    OutOfFrameError,
    ParseError,
    RangeError,
    ReferentialError,
    SchemaError,
)
from .geometry import (ARTEFACT, CLASS_NAMES, FUNGAL, Box, ImageDims, clip_to_frame,
                       cut_digits)

CONTAINMENT_TOL = 1e-6

# Composition strata for the split: (has_fungal, has_artefact).
STRATA = ((False, False), (False, True), (True, False), (True, True))


@dataclass
class ImageRecord:
    """One frame: identity, dimensions, ground truth, and predictions.

    Ground-truth boxes must carry no confidence, predictions must carry
    one, and every box must lie within the frame (tolerance 1e-6).
    """

    image_id: str
    dims: ImageDims
    ground_truth: list[Box] = field(default_factory=list)
    predictions: list[Box] = field(default_factory=list)

    def __post_init__(self):
        if not self.image_id:
            raise SchemaError("image_id must be non-empty")
        for box in self.ground_truth:
            if box.confidence is not None:
                raise SchemaError(
                    f"{self.image_id}: ground-truth box carries a confidence"
                )
            self._check_contained(box)
        for box in self.predictions:
            if box.confidence is None:
                raise SchemaError(f"{self.image_id}: prediction lacks a confidence")
            self._check_contained(box)

    def _check_contained(self, box: Box) -> None:
        if (box.x_min < -CONTAINMENT_TOL
                or box.y_min < -CONTAINMENT_TOL
                or box.x_max > self.dims.width + CONTAINMENT_TOL
                or box.y_max > self.dims.height + CONTAINMENT_TOL):
            raise OutOfFrameError(
                f"{self.image_id}: box ({box.x_min}, {box.y_min}, "
                f"{box.x_max}, {box.y_max}) exceeds the "
                f"{self.dims.width}x{self.dims.height} frame"
            )

    def composition_stratum(self) -> tuple[bool, bool]:
        """(has_fungal, has_artefact) presence pair of the ground truth."""
        classes = {b.class_id for b in self.ground_truth}
        return (FUNGAL in classes, ARTEFACT in classes)


@dataclass
class Dataset:
    """An immutable collection of image records."""

    records: list[ImageRecord]

    def __post_init__(self):
        seen: set[str] = set()
        for rec in self.records:
            if rec.image_id in seen:
                raise SchemaError(f"duplicate image_id {rec.image_id!r}")
            seen.add(rec.image_id)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ImageRecord]:
        return iter(self.records)

    def ids(self) -> list[str]:
        return [rec.image_id for rec in self.records]


# ---------------------------------------------------------------------------
# Line-oriented normalized format


def _denormalize(values, dims: ImageDims, class_id: int,
                 confidence: float | None) -> Box:
    """The pixel box of normalized ``(cx, cy, w, h)`` in a ``dims`` frame."""
    cx, cy, w, h = values
    return Box((cx - w / 2.0) * dims.width, (cy - h / 2.0) * dims.height,
               (cx + w / 2.0) * dims.width, (cy + h / 2.0) * dims.height,
               class_id, confidence)


def _parse_lines(text: str, dims: ImageDims, with_confidence: bool) -> list[Box]:
    n_fields = 6 if with_confidence else 5
    boxes: list[Box] = []
    clipped = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()  # the fields of raw.strip(): both split on isspace()
        if not parts:
            continue
        if len(parts) != n_fields:
            raise ParseError(
                f"expected {n_fields} fields, got {len(parts)}", line=lineno
            )
        try:
            class_id = int(parts[0])
            cx, cy, w, h = values = tuple(map(float, parts[1:5]))
            confidence = float(parts[5]) if with_confidence else None
        except ValueError:
            raise ParseError(f"non-numeric field in {raw.strip()!r}",
                             line=lineno) from None
        if class_id not in (FUNGAL, ARTEFACT):
            raise ClassError(f"unknown class id {class_id}", line=lineno)
        if not 0.0 <= cx <= 1.0 >= cy >= 0.0 <= w <= 1.0 >= h >= 0.0:
            for name, value in zip(("cx", "cy", "w", "h"), values):
                if not 0.0 <= value <= 1.0:
                    raise RangeError(f"{name}={value} outside [0, 1]", line=lineno)
        if confidence is not None and not 0.0 <= confidence <= 1.0:
            raise RangeError(f"conf={confidence} outside [0, 1]", line=lineno)
        try:
            box = _denormalize(values, dims, class_id, confidence)
        except InvalidBoxError:  # the confidence passed above: the area failed
            raise ParseError("zero-area box", line=lineno) from None
        kept = clip_to_frame(box, dims)
        if kept is not box:
            clipped += 1
        boxes.append(kept)
    if clipped:
        warnings.warn(f"{clipped} box(es) clipped to the frame", stacklevel=3)
    return boxes


def parse_gt_file(text: str, dims: ImageDims) -> list[Box]:
    """Parse ground-truth lines ``class cx cy w h`` into pixel-space boxes."""
    return _parse_lines(text, dims, with_confidence=False)


def parse_pred_file(text: str, dims: ImageDims) -> list[Box]:
    """Parse prediction lines ``class cx cy w h conf``; an empty file is a
    legal negative image and yields an empty list."""
    return _parse_lines(text, dims, with_confidence=True)


def _normalize_line(box: Box, dims: ImageDims) -> str:
    cx = (box.x_min + box.x_max) / 2.0 / dims.width
    cy = (box.y_min + box.y_max) / 2.0 / dims.height
    w = (box.x_max - box.x_min) / dims.width
    h = (box.y_max - box.y_min) / dims.height
    fields = f"{box.class_id} {cx:.6f} {cy:.6f} {w:.6f} {h:.6f}"
    if box.confidence is not None:
        fields += f" {box.confidence:.6f}"
    return fields


def format_label_file(boxes: Sequence[Box], dims: ImageDims) -> str:
    """Write boxes as label-file lines; a box with a confidence (a
    prediction) gets it as the sixth field."""
    return "".join(_normalize_line(b, dims) + "\n" for b in boxes)


# ---------------------------------------------------------------------------
# COCO-style structured documents

_COCO_ID = (int, float, str)


def parse_coco_json(document: str | bytes | dict) -> Dataset:
    """Read a COCO-style document into a ground-truth Dataset.

    Only ``images`` (id, file_name, width, height), ``annotations``
    (image_id, category_id, bbox as [x, y, w, h]) and ``categories`` are
    consulted; category names must map onto the {fungal, artefact}
    taxonomy. The image id is the file name without its extension; COCO
    image ids must be unique.
    """
    if isinstance(document, (str, bytes)):
        document = load_json(document, "COCO document")
    images, annotations, categories = (
        require(document, key, list, "COCO document")
        for key in ("images", "annotations", "categories"))

    class_of_category: dict[int, int] = {}
    for cat in categories:
        cat_id = require(cat, "id", _COCO_ID, "category")
        name = require(cat, "name", str, "category").lower()
        if name not in CLASS_NAMES:
            raise SchemaError(f"category name {name!r} outside {set(CLASS_NAMES)}")
        class_of_category[cat_id] = CLASS_NAMES.index(name)

    frames: dict[int, tuple[str, ImageDims]] = {}  # image id -> (stem, dims)
    for img in images:
        img_id = require(img, "id", _COCO_ID, "image")
        shown = cut_digits(f"{img_id}")
        stem = Path(require(img, "file_name", str, "image")).stem
        width, height = (require(img, side, int, f"image {shown}")
                         for side in ("width", "height"))
        if not stem:
            raise SchemaError(f"image {shown}: empty file_name")
        if img_id in frames:
            raise SchemaError(f"duplicate image id {shown}")
        frames[img_id] = (stem, ImageDims(width, height))

    boxes_of: dict[int, list[Box]] = {img_id: [] for img_id in frames}
    clipped = 0
    for ann in annotations:
        img_ref = require(ann, "image_id", _COCO_ID, "annotation")
        cat_ref = require(ann, "category_id", _COCO_ID, "annotation")
        bbox = require(ann, "bbox", list, "annotation")
        if img_ref not in frames:
            raise ReferentialError("annotation references unknown image "
                                   + cut_digits(f"{img_ref}"))
        if cat_ref not in class_of_category:
            raise ReferentialError("annotation references unknown category "
                                   + cut_digits(f"{cat_ref}"))
        if len(bbox) != 4 or not all(type(v) in (int, float) for v in bbox):
            raise SchemaError("bbox must be four numbers [x, y, w, h], got "
                              + cut_digits(repr(bbox)))
        try:
            x, y, w, h = (float(v) for v in bbox)
        except OverflowError:
            raise SchemaError("bbox holds a number too large, got "
                              + cut_digits(repr(bbox))) from None
        if w <= 0.0 or h <= 0.0:
            raise SchemaError(f"bbox has non-positive size: {cut_digits(repr(bbox))}")
        box = Box(x, y, x + w, y + h, class_of_category[cat_ref])
        kept = clip_to_frame(box, frames[img_ref][1])
        if kept is not box:
            clipped += 1
        boxes_of[img_ref].append(kept)
    if clipped:
        warnings.warn(f"{clipped} box(es) clipped to the frame", stacklevel=2)

    return Dataset([ImageRecord(stem, dims, boxes_of[img_id])
                    for img_id, (stem, dims) in frames.items()])


def format_coco_json(dataset: Dataset) -> str:
    """Serialize a Dataset's ground truth as a COCO-style document.

    Output is deterministic: images sorted by image_id, stable integer
    ids, sorted keys.
    """
    images = []
    annotations = []
    ann_id = 1
    for idx, rec in enumerate(sorted(dataset.records, key=lambda r: r.image_id),
                              start=1):
        images.append({
            "id": idx,
            "file_name": f"{rec.image_id}.png",
            "width": rec.dims.width,
            "height": rec.dims.height,
        })
        for box in rec.ground_truth:
            annotations.append({
                "id": ann_id,
                "image_id": idx,
                "category_id": box.class_id + 1,
                "bbox": [box.x_min, box.y_min,
                         box.x_max - box.x_min, box.y_max - box.y_min],
            })
            ann_id += 1
    document = {
        "images": images,
        "annotations": annotations,
        "categories": [{"id": class_id + 1, "name": name}
                       for class_id, name in enumerate(CLASS_NAMES)],
    }
    return dump_json(document)


# ---------------------------------------------------------------------------
# Loading datasets from disk


_READ_SIZE = 65536


def _read_bytes(path: Path | str, digests: dict[str, str] | None = None,
                regular: bool = False) -> bytes:
    """A file's bytes; ``digests``, when given, gets their SHA-256 under
    ``str(path)``. A ``regular`` file (one a walk found) ends at its first
    short read, so a small one takes one ``os.read``."""
    fd = os.open(path, os.O_RDONLY)
    try:
        data = os.read(fd, _READ_SIZE)
        if data and (len(data) == _READ_SIZE or not regular):
            data += b"".join(iter(lambda: os.read(fd, _READ_SIZE), b""))
    except OSError as exc:  # os.read names no file: reading a directory, say
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    if digests is not None:
        digests[str(path)] = hashlib.sha256(data).hexdigest()
    return data


def _decode(data: bytes, path: Path | str, error: type[KohevalError]) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte "
                    f"{exc.start})") from None


def read_text(path: Path | str, digests: dict[str, str] | None = None) -> str:
    """A file's contents decoded as UTF-8; bytes that do not decode raise
    SchemaError naming the file. Line endings are kept: every reader here
    splits lines or parses JSON, and both accept CRLF. ``digests``, when
    given, gets the SHA-256 of the bytes read, under ``str(path)``."""
    return _decode(_read_bytes(path, digests), path, SchemaError)


_JSON_KINDS = {dict: "an object", list: "a list", str: "a string",
               bool: "a boolean", int: "an integer", float: "a number",
               type(None): "null"}


def _finite(token: str) -> float:
    # JSON has no NaN or infinity, spelled out (NaN, -Infinity) or past range (1e400).
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"{token} is not a finite number")
    return value


def _name_non_finite(pairs: list) -> dict:
    # Hook of load_json's second decode, where each float and constant is (token,),
    # which JSON never makes. An inner object closes first, so its key is named.
    for key, value in pairs:
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, tuple) and not math.isfinite(float(item[0])):
                raise SchemaError(cut_digits(
                    f"{key!r} is not a finite number ({item[0]})"))
    return dict(pairs)


def load_json(text: str | bytes, what: str) -> dict:
    """Decode a JSON document whose top level must be an object. Malformed
    text, NaN and infinite numbers, and nesting deeper than the decoder's
    recursion limit raise SchemaError naming ``what``; a NaN or infinite
    number held by a key, directly or in a list, is named by that key."""
    try:
        doc = json.loads(text, parse_constant=_finite, parse_float=_finite)
    except (ValueError, RecursionError) as exc:
        try:
            json.loads(text, object_pairs_hook=_name_non_finite,
                       parse_constant=lambda token: (token,),
                       parse_float=lambda token: (token,))
        except SchemaError as named:
            raise SchemaError(f"{what}: {named}") from None
        except (ValueError, RecursionError):
            pass
        raise SchemaError(f"{what}: not valid JSON: {cut_digits(str(exc))}") from None
    if not isinstance(doc, dict):
        raise SchemaError(f"{what}: top level must be an object")
    return doc


def dump_json(doc, indent: int | None = 2) -> str:
    """Canonical JSON text: sorted keys, ``indent`` (None for one line)
    and a trailing newline, so equal documents give equal bytes. NaN and
    infinite floats, which :func:`load_json` refuses, raise ValueError."""
    return json.dumps(doc, indent=indent, sort_keys=True, allow_nan=False) + "\n"


def require(doc, key: str, kinds: type | tuple[type, ...], what: str):
    """``doc[key]``, where ``doc`` must be an object holding ``key`` and its
    value an instance of ``kinds``. ``bool`` passes only where ``kinds``
    names it (Python counts it an int), and an int passes for a float only
    where ``kinds`` names both."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be an object")
    if key not in doc:
        raise SchemaError(f"{what}: missing field {key!r}")
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    value = doc[key]
    if not isinstance(value, kinds) or (isinstance(value, bool)
                                        and bool not in kinds):
        names = [_JSON_KINDS[k] for k in kinds if not (k is int and float in kinds)]
        raise SchemaError(f"{what}: {key!r} must be {' or '.join(names)}")
    return value


def atomic_write_text(path: Path | str, text: str) -> None:
    """Write a file atomically (temp file + rename in the same directory)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def sha256_file(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class InputTree:
    """The files under an input path, walked once with ``os.scandir`` in
    the order of ``sorted(path.rglob("*"))``: each directory's entries in
    name order (``gt/`` before ``gt.x/``), dotfiles included, symlinked
    directories not entered. A path that is no directory is a tree of its
    one file. Readers record the digests of the files they read in
    ``digests``, so :meth:`sha256` reads only the files they did not."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self.files: dict[str, tuple[str, ...]] = {}
        self.digests: dict[str, str] = {}
        # Directory parts -> (name, path) of each .txt entry in it.
        self._labels: dict[tuple[str, ...], list[tuple[str, str]]] = {}
        root = "" if self.path == Path(".") else str(self.path)
        if self.path.is_dir():
            self._walk(root, ())
        else:
            self.files[root] = ()

    def _walk(self, directory: str, prefix: tuple[str, ...]) -> None:
        # "" stands for ".", so that paths read as str(Path(...)) reads them.
        with os.scandir(directory or ".") as entries:
            entries = sorted(entries, key=attrgetter("name"))
        for entry in entries:
            parts, path = (*prefix, entry.name), entry.path if directory else entry.name
            if entry.is_dir(follow_symlinks=False):
                self._walk(path, parts)
            elif entry.is_file():
                self.files[path] = parts
            if entry.name.endswith(".txt"):
                self._labels.setdefault(prefix, []).append((entry.name, path))

    def label_files(self, directory: Path) -> dict[str, str]:
        """Image id (the name's ``Path.stem``) -> path of each ``.txt``
        file directly in ``directory``, in name order. A ``.txt`` entry whose
        name is not UTF-8 (an id that output encoding strictly cannot
        print), or that is not a regular file or a link to one, raises
        SchemaError."""
        if directory != self.path and directory.is_symlink():
            # The walk does not enter it, but its labels are still read.
            return InputTree(directory).label_files(directory)
        labels = {name[:-4] or name: file for name, file in
                  self._labels.get(directory.relative_to(self.path).parts, ())}
        for image_id, file in labels.items():
            try:
                image_id.encode()
            except UnicodeEncodeError:
                shown = os.fsencode(file).decode("utf-8", "backslashreplace")
                raise SchemaError(f"{shown}: file name is not UTF-8") from None
            if file not in self.files:  # a FIFO, say: never opened, as it would block
                raise SchemaError(f"{file}: not a regular file")
        return labels

    def sha256(self) -> str:
        """Digest of the file, or of the directory as the digest of its
        sorted (relative name, file digest) pairs, names as file-system bytes."""
        pairs = [(parts, self.digests.get(file) or sha256_file(file))
                 for file, parts in self.files.items()]
        if len(pairs) == 1 and not pairs[0][0]:  # the tree of one file
            return pairs[0][1]
        joined = "".join(f"{'/'.join(parts)}\0{digest}\0" for parts, digest in pairs)
        return hashlib.sha256(os.fsencode(joined)).hexdigest()


# A line in the spelling format_label_file writes: ASCII, a class digit and
# plain decimals after single spaces, ending in "\n"; for ground truth (5
# fields) and for predictions (6).
_CANONICAL_LINE = {with_confidence: re.compile(
    rb"[01](?: [0-9]+(?:\.[0-9]+)?){%d}\n" % (5 if with_confidence else 4))
    for with_confidence in (False, True)}


def _canonical_boxes(datas: list, dims: Sequence[ImageDims],
                     with_confidence: bool) -> list[list[Box] | None]:
    """The boxes of each file in ``datas`` (bytes, or the OSError reading
    it raised) that is in canonical spelling and whose boxes lie in its
    ``dims`` frame, converted together; None for every other file.

    The arithmetic and checks are those of :func:`_parse_lines` on each
    box, so an accepted file gets the boxes its per-file parse would, and
    a box that parse would reject or clip rejects its file.
    """
    line = _CANONICAL_LINE[with_confidence]
    # A file not ending in "\n" could join the next one's first line.
    canon = [i for i, data in enumerate(datas)
             if isinstance(data, bytes) and (not data or data[-1] == 10)]
    if line.sub(b"", b"".join(datas[i] for i in canon)):
        canon = [i for i in canon if not line.sub(b"", datas[i])]
    counts = np.array([datas[i].count(b"\n") for i in canon], dtype=np.intp)
    rows = np.fromstring(b"".join(datas[i] for i in canon), sep=" ").reshape(
        -1, 6 if with_confidence else 5)
    width = np.repeat([float(dims[i].width) for i in canon], counts)
    height = np.repeat([float(dims[i].height) for i in canon], counts)
    class_id, cx, cy, w, h = rows.T[:5]
    x0, y0 = (cx - w / 2.0) * width, (cy - h / 2.0) * height
    x1, y1 = (cx + w / 2.0) * width, (cy + h / 2.0) * height
    # No field carries a sign, so each is >= 0; the class is 0 or 1.
    good = ((rows <= 1.0).all(axis=1) & (x1 > x0) & (y1 > y0)
            & (x0 >= 0.0) & (y0 >= 0.0) & (x1 <= width) & (y1 <= height))
    rejected = np.zeros(len(canon), dtype=bool)
    rejected[np.searchsorted(np.cumsum(counts), np.flatnonzero(~good),
                             side="right")] = True
    keep = np.repeat(~rejected, counts)
    boxes = list(map(Box, *(c[keep].tolist() for c in (x0, y0, x1, y1)),
                     class_id[keep].astype(int).tolist(),
                     rows[keep, 5].tolist() if with_confidence else repeat(None)))
    out: list[list[Box] | None] = [None] * len(datas)
    start = 0
    for i, n, skip in zip(canon, counts.tolist(), rejected.tolist()):
        if not skip:
            out[i], start = boxes[start:start + n], start + n
    return out


def _read_label_files(files: Sequence[str], dims: Sequence[ImageDims],
                      with_confidence: bool,
                      digests: dict[str, str]) -> list[list[Box]]:
    """The boxes of each label file, ``files[i]`` in the frame ``dims[i]``.

    Each file is read once. Files in canonical spelling are converted
    together by :func:`_canonical_boxes`; every other one goes through
    :func:`parse_gt_file` or :func:`parse_pred_file`, in order. So the
    first file that fails to read, decode or parse raises, with the error
    and warnings a file-by-file read gives.
    """
    datas: list = []
    for file in files:
        try:
            datas.append(_read_bytes(file, digests, regular=True))
        except OSError as exc:
            datas.append(exc)
    boxes = _canonical_boxes(datas, dims, with_confidence)
    parse = parse_pred_file if with_confidence else parse_gt_file
    for i, (file, data) in enumerate(zip(files, datas)):
        if boxes[i] is None:
            if isinstance(data, OSError):
                raise data
            text = _decode(data, file, ParseError)
            try:
                boxes[i] = parse(text, dims[i])
            except ParseError as exc:
                exc.args = (f"{file}: {exc}",)  # keeps its type and .line
                raise
    return boxes


def load_ground_truth(path: Path | str, dims: ImageDims | None = None,
                      tree: InputTree | None = None) -> Dataset:
    """Load ground truth from a COCO-style ``.json`` file or a directory of
    line-format ``.txt`` files (one image per file, named by image id).

    Line-format directories need ``dims`` because the format stores only
    normalized fractions. Files are read through ``tree``, a walk holding
    ``path`` (by default, of ``path``).
    """
    path = Path(path)
    tree = tree or InputTree(path)
    if path.is_file():
        return parse_coco_json(read_text(path, tree.digests))
    if path.is_dir():
        if dims is None:
            raise SchemaError(
                "line-format ground truth needs image dimensions (--dims)"
            )
        files = tree.label_files(path)
        boxes = _read_label_files(list(files.values()), [dims] * len(files),
                                  False, tree.digests)
        records = [ImageRecord(image_id, dims, gt)
                   for image_id, gt in zip(files, boxes)]
        if not records:
            raise SchemaError(f"no .txt annotation files under {path}")
        return Dataset(records)
    if path.exists():
        raise SchemaError(f"ground-truth path {path} is not a regular file or "
                          "directory")
    raise SchemaError(f"ground-truth path {path} does not exist")


def attach_predictions(dataset: Dataset, pred_dir: Path | str,
                       tree: InputTree | None = None) -> Dataset:
    """Pair per-image prediction files with the dataset's records.

    A missing file means an empty prediction list; a file whose id is not
    in the dataset is a referential error. Files are read through ``tree``
    as in :func:`load_ground_truth`.
    """
    pred_dir = Path(pred_dir)
    if not pred_dir.is_dir():
        raise SchemaError(f"prediction path {pred_dir} is not a directory"
                          if pred_dir.exists() else
                          f"prediction directory {pred_dir} does not exist")
    tree = tree or InputTree(pred_dir)
    files = tree.label_files(pred_dir)
    known = set(dataset.ids())
    for image_id, file in files.items():
        if image_id not in known:
            raise ReferentialError(
                f"prediction file {os.path.basename(file)} has no matching image"
            )
    paired = [rec for rec in dataset.records if rec.image_id in files]
    preds = dict(zip((rec.image_id for rec in paired), _read_label_files(
        [files[rec.image_id] for rec in paired], [rec.dims for rec in paired],
        True, tree.digests)))
    return Dataset([ImageRecord(rec.image_id, rec.dims, list(rec.ground_truth),
                                preds.get(rec.image_id, []))
                    for rec in dataset.records])


def is_cohort_dir(path: Path) -> bool:
    """Whether ``path`` is a cohort directory: dims.json beside gt/."""
    return (path / "dims.json").is_file() and (path / "gt").is_dir()


def read_cohort_dims(path: Path | str,
                     digests: dict[str, str] | None = None) -> ImageDims:
    """The frame size a cohort directory's dims.json records."""
    dims_file = Path(path) / "dims.json"
    if not dims_file.is_file():
        raise SchemaError(f"{path}: not a cohort directory (no dims.json)")
    doc = load_json(read_text(dims_file, digests), str(dims_file))
    sides = [require(doc, side, int, str(dims_file)) for side in ("width", "height")]
    try:
        return ImageDims(*sides)
    except SchemaError as exc:
        raise SchemaError(f"{dims_file}: {exc}") from None


def read_cohort(path: Path | str, tree: InputTree | None = None) -> Dataset:
    """Read a cohort directory written by ``synth.write_cohort``: dims.json,
    gt/ and pred/; a cohort without pred/ has no detections. Files are
    read through ``tree``, a walk of the cohort."""
    root = Path(path)
    tree = tree or InputTree(root)
    dataset = load_ground_truth(root / "gt", read_cohort_dims(root, tree.digests),
                                tree)
    if (root / "pred").is_dir():
        dataset = attach_predictions(dataset, root / "pred", tree)
    return dataset


# ---------------------------------------------------------------------------
# Stratified split


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint train/val/test id sets plus the seed that produced them."""

    train: tuple[str, ...]
    val: tuple[str, ...]
    test: tuple[str, ...]
    seed: int

    def __post_init__(self):
        parts = (set(self.train), set(self.val), set(self.test))
        total = sum(len(p) for p in parts)
        if len(parts[0] | parts[1] | parts[2]) != total:
            raise SchemaError("split parts are not disjoint")

    def to_json(self) -> str:
        return dump_json({"seed": self.seed, "train": sorted(self.train),
                          "val": sorted(self.val), "test": sorted(self.test)})

    @classmethod
    def from_json(cls, text: str) -> "SplitAssignment":
        doc = load_json(text, "split file")
        seed = require(doc, "seed", int, "split file")
        if seed < 0:
            raise SchemaError("split file: 'seed' must be non-negative")
        parts = []
        for key in ("train", "val", "test"):
            parts.append(tuple(require(doc, key, list, "split file")))
            if not all(isinstance(image_id, str) for image_id in parts[-1]):
                raise SchemaError(f"split file: {key!r} must be a list of strings")
        return cls(*parts, seed)


def largest_remainder_sizes(n: int, fractions: Sequence[float]) -> list[int]:
    """Split ``n`` items into integer part sizes proportional to
    ``fractions`` using largest-remainder rounding (deterministic,
    proportion-exact to +/-1)."""
    quotas = [n * f for f in fractions]
    sizes = [math.floor(q) for q in quotas]
    leftover = n - sum(sizes)
    by_remainder = sorted(range(len(fractions)),
                          key=lambda i: (-(quotas[i] - sizes[i]), i))
    for i in by_remainder[:leftover]:
        sizes[i] += 1
    return sizes


def _strata(dataset: Dataset) -> dict[tuple[bool, bool], list[str]]:
    """Image ids by :meth:`ImageRecord.composition_stratum`, in ``STRATA``
    order, each list in id order."""
    by_stratum: dict[tuple[bool, bool], list[str]] = {s: [] for s in STRATA}
    for rec in sorted(dataset.records, key=lambda r: r.image_id):
        by_stratum[rec.composition_stratum()].append(rec.image_id)
    return by_stratum


def stratified_split(dataset: Dataset,
                     fractions: Sequence[float] = (0.8, 0.1, 0.1),
                     seed: int = 0) -> SplitAssignment:
    """Partition image ids into train/val/test, stratified by ground-truth
    composition ``(has_fungal, has_artefact)``.

    Each stratum is shuffled by a seeded PCG64 stream and cut with
    largest-remainder rounding, so the same seed always reproduces the
    same assignment regardless of record order.
    """
    if len(dataset) == 0:
        raise SchemaError("cannot split an empty dataset")
    if len(fractions) != 3 or not all(f >= 0 for f in fractions):
        raise SchemaError("fractions must be three non-negative values")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise SchemaError(f"fractions must sum to 1, got {sum(fractions)}")
    if seed < 0:
        raise SchemaError(f"seed must be non-negative, got {seed}")

    n_parts = sum(1 for f in fractions if f > 0)
    parts: tuple[list[str], list[str], list[str]] = ([], [], [])
    for s_index, (stratum, ids) in enumerate(_strata(dataset).items()):
        if not ids:
            continue
        if len(ids) < n_parts:
            warnings.warn(
                f"stratum {stratum} has only {len(ids)} image(s); "
                "assigned by remainder logic", stacklevel=2
            )
        rng = np.random.default_rng(np.random.SeedSequence((seed, s_index)))
        order = [ids[i] for i in rng.permutation(len(ids))]
        sizes = largest_remainder_sizes(len(order), fractions)
        start = 0
        for part, size in zip(parts, sizes):
            part.extend(order[start:start + size])
            start += size
    return SplitAssignment(tuple(sorted(parts[0])), tuple(sorted(parts[1])),
                           tuple(sorted(parts[2])), seed)


def split_table(dataset: Dataset, assignment: SplitAssignment) -> str:
    """Render per-stratum counts of a split as an aligned text table."""
    parts = ("train", "val", "test")
    part_of = {image_id: part for part in parts
               for image_id in getattr(assignment, part)}
    rows = [("stratum", "total", *parts)]
    for stratum, ids in _strata(dataset).items():
        if ids:
            label = "+".join(name for name, present
                             in zip(CLASS_NAMES, stratum) if present)
            counts = Counter(part_of[image_id] for image_id in ids)
            rows.append((label or "empty", len(ids), *(counts[p] for p in parts)))
    rows.append(("all", len(dataset), *(len(getattr(assignment, p)) for p in parts)))
    return "".join(f"{label:<16}" + "".join(f"{v:>8}" for v in values) + "\n"
                   for label, *values in rows)
