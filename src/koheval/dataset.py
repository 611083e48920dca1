"""Annotation / prediction file parsing, the dataset container, and the
stratified train/val/test split.

Two interchange formats are supported: a line-oriented normalized format
(``class cx cy w h`` for ground truth, plus a trailing confidence for
predictions) and a COCO-style JSON document for ground truth with image
dimensions attached. Every reader checks, converts and clips boxes with
the one set of box rules, :func:`~koheval.geometry.frame_rows`.

A directory of label files is read as one batch into float64
:class:`BoxTables`, each file opened by name through one handle of the
directory. When every line of the directory shares one layout (a class
digit and plain decimals, each after one space or tab, ending in ``\\n``
or ``\\r\\n``, with digits, points, blanks and line ends in the same
columns), as every file ``koheval synth`` writes does, the batch is
converted by byte arithmetic, column by column, and its boxes clipped to
the frame together. The column reader takes a directory whole or not at
all: any other batch, or one with a box that breaks a rule, is parsed line
by line. A file costs its open, read and close; all else is per directory,
and only :meth:`InputTree.sha256` takes digests, of the bytes read.
A :class:`Dataset` holds each image's id and frame and the tables, in
id order, and the matcher, screening and the split read the tables;
``Dataset.records``, the per-image :class:`ImageRecord` view, is built on
first use for a dataset read from files. Every entry point takes plain
records through :func:`as_dataset`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import tempfile
import warnings
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

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
from .geometry import (ARTEFACT, CLASS_NAMES, FUNGAL, Box, ImageDims, box_rows,
                       cut_digits, frame_rows)

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


class BoxTables(NamedTuple):
    """The boxes of a run of images, image after image, as float64 tables:
    ground truth ``[G, 5]`` rows (x0, y0, x1, y1, class) and predictions
    ``[P, 6]`` rows (the same and a confidence), with each image's number
    of rows in ``gt_counts`` and ``pred_counts``."""

    gt: np.ndarray
    gt_counts: np.ndarray
    pred: np.ndarray
    pred_counts: np.ndarray


def _counts(lists: list[Sequence[Box]]) -> np.ndarray:
    return np.fromiter(map(len, lists), dtype=np.intp, count=len(lists))


def box_tables(scenes: Iterable[tuple[Sequence[Box], Sequence[Box]]]) -> BoxTables:
    """The tables of (ground truth, predictions) box lists, a pair per image,
    each read once: how callers holding Box objects reach the kernels."""
    pairs = list(scenes)
    gts, preds = [g for g, _ in pairs], [p for _, p in pairs]
    return BoxTables(box_rows(chain.from_iterable(gts), False), _counts(gts),
                     box_rows(chain.from_iterable(preds), True), _counts(preds))


def _boxes(table: np.ndarray) -> list[Box]:
    # The Box of each row; a table of five columns is ground truth.
    x0, y0, x1, y1, class_id, *confidence = table.T
    return list(map(Box, x0.tolist(), y0.tolist(), x1.tolist(), y1.tolist(),
                    class_id.astype(int).tolist(), *(c.tolist() for c in confidence)))


def image_max(values: np.ndarray, counts: np.ndarray, empty) -> np.ndarray:
    """The largest of each image's run of ``values``, ``counts[i]`` of them
    for image i; ``empty`` for an image with none."""
    top = np.maximum.reduceat(np.append(values, empty), np.cumsum(counts) - counts)
    return np.where(counts > 0, top, empty)


def _check_unique(ids: list[str]) -> list[str]:
    # ``ids`` if no id repeats; they are in id order, so a repeat follows itself.
    for image_id, following in zip(ids, ids[1:]):
        if image_id == following:
            raise SchemaError(f"duplicate image_id {image_id!r}")
    return ids


class Dataset:
    """A cohort, immutable after construction: its images' ids and frames,
    in id order, and their boxes as :class:`BoxTables` in the same order.

    ``Dataset(records)`` keeps the records sorted by id as ``records`` and
    builds the tables from them, reading each record's boxes once. A
    dataset read from files builds ``records`` on first use. A repeated
    image id raises SchemaError.
    """

    def __init__(self, records: Iterable[ImageRecord]):
        self.records = ordered = sorted(records, key=attrgetter("image_id"))
        self._ids, self.dims = [r.image_id for r in ordered], [r.dims for r in ordered]
        _check_unique(self._ids)
        self.tables = box_tables((r.ground_truth, r.predictions) for r in ordered)

    @classmethod
    def _from_tables(cls, ids: list[str], dims: list[ImageDims],
                     tables: BoxTables) -> Dataset:
        # The images ``ids``, unique and in id order, in frames ``dims``, with ``tables``.
        dataset = cls.__new__(cls)
        dataset._ids, dataset.dims, dataset.tables = ids, dims, tables
        return dataset

    @cached_property
    def records(self) -> list[ImageRecord]:
        gt, pred = _boxes(self.tables.gt), _boxes(self.tables.pred)
        gt_at, pred_at = (np.cumsum(counts).tolist() for counts
                          in (self.tables.gt_counts, self.tables.pred_counts))
        return [ImageRecord(image_id, dims, gt[g0:g1], pred[p0:p1])
                for image_id, dims, g0, g1, p0, p1 in zip(
                    self._ids, self.dims, [0, *gt_at], gt_at, [0, *pred_at], pred_at)]

    @cached_property
    def strata(self) -> dict[tuple[bool, bool], list[str]]:
        """Image ids by ground-truth composition ``(has_fungal,
        has_artefact)``, in ``STRATA`` order, each list in id order."""
        classes, counts = self.tables.gt[:, 4], self.tables.gt_counts
        present = zip(image_max(classes == FUNGAL, counts, False).tolist(),
                      image_max(classes == ARTEFACT, counts, False).tolist())
        by_stratum: dict[tuple[bool, bool], list[str]] = {s: [] for s in STRATA}
        for image_id, stratum in zip(self._ids, present):
            by_stratum[stratum].append(image_id)
        return by_stratum

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.records == other.records

    def __len__(self) -> int:
        return len(self._ids)

    def __iter__(self) -> Iterator[ImageRecord]:
        return iter(self.records)

    def ids(self) -> list[str]:
        return list(self._ids)


def as_dataset(records: Dataset | Iterable[ImageRecord]) -> Dataset:
    """``records`` if it is a :class:`Dataset`, else the Dataset of those
    records: how every entry point takes a Dataset or plain records."""
    return records if isinstance(records, Dataset) else Dataset(records)


# ---------------------------------------------------------------------------
# Line-oriented normalized format


def _warn_clipped(clipped: int, stacklevel: int, where: str = "") -> None:
    # The one warning for a label file's or COCO document's clipped boxes,
    # after ``where``, the file's path and ": " when a directory was read.
    if clipped:
        warnings.warn(f"{where}{clipped} box(es) clipped to the frame",
                      stacklevel=stacklevel + 1)


def _parse_texts(texts: list, frames: Sequence[ImageDims], with_confidence: bool,
                 paths: Sequence[str] | None = None
                 ) -> tuple[np.ndarray, list[int], np.ndarray, tuple | None]:
    # The rows of ``texts`` (with ``paths``, files' bytes or OSErrors) parsed up
    # to the first error, then checked by the box rules at once; each text's rows
    # and clipped boxes; and (k, the first error, in texts[k]) or None.
    n_fields = 6 if with_confidence else 5
    rows, lines, counts, error = [], [], [], None
    for k, text in enumerate(texts):
        start = len(rows)
        try:
            text = text if paths is None else _decode(text, paths[k], ParseError)
            for lineno, raw in enumerate(text.splitlines(), start=1):
                parts = raw.split()  # the fields of raw.strip(): both split on isspace()
                if not parts:
                    continue
                if len(parts) != n_fields:
                    raise ParseError(f"expected {n_fields} fields, got {len(parts)}",
                                     line=lineno)
                try:
                    row = (int(parts[0]), *map(float, parts[1:]))
                except ValueError:
                    raise ParseError(f"non-numeric field in {raw.strip()!r}",
                                     line=lineno) from None
                if row[0] not in (FUNGAL, ARTEFACT):
                    raise ClassError(f"unknown class id {row[0]}", line=lineno)
                rows.append(row)
                lines.append(lineno)
        except (OSError, ParseError) as exc:
            error = k, exc
        counts.append(len(rows) - start)
        if error is not None:
            break
    table, clipped, _, first = frame_rows(np.array(rows, dtype=float).reshape(
        -1, n_fields), frames[:len(counts)], counts)
    owner = np.repeat(np.arange(len(counts)), counts)
    if first is not None:  # on a line before any that did not parse
        (row, rule), line = first, lines[first[0]]
        error = int(owner[row]), (
            ParseError("zero-area box", line=line) if isinstance(rule, InvalidBoxError)
            else RangeError(str(rule), line=line) if isinstance(rule, RangeError)
            else rule)
    if paths and error and isinstance(error[1], ParseError) and error[1].line:
        error[1].args = (f"{shown_path(paths[error[0]])}: {error[1]}",)  # keeps .line
    return table, counts, np.bincount(owner[clipped], minlength=len(texts)), error


def _parse_lines(text: str, dims: ImageDims, with_confidence: bool) -> list[Box]:
    # The boxes of ``text``, or the first error in line order raised.
    table, _, clipped, error = _parse_texts([text], [dims], with_confidence)
    if error is not None:
        raise error[1]
    _warn_clipped(int(clipped.sum()), stacklevel=3)
    return _boxes(table)


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
        if _CONTROL.search(stem):
            raise SchemaError(f"image {shown}: file_name holds a control character")
        if img_id in frames:
            raise SchemaError(f"duplicate image id {shown}")
        frames[img_id] = (stem, ImageDims(width, height))

    # The rows up to the first annotation that does not read, then the box
    # rules on them: the first error in document order is raised.
    rows, owners, error = [], [], None
    for ann in annotations:
        try:
            img_ref, row = _coco_row(ann, frames, class_of_category)
        except KohevalError as exc:
            error = exc
            break
        rows.append(row)
        owners.append(img_ref)
    gt, clipped, _, first = frame_rows(np.array(rows, dtype=float).reshape(-1, 5),
                                       [frames[i][1] for i in owners], [1] * len(rows),
                                       normalized=False)
    if first is not None or error is not None:
        raise first[1] if first else error
    _warn_clipped(int(clipped.sum()), stacklevel=2)

    by_stem = sorted(frames, key=lambda img_id: frames[img_id][0])
    position = {img_id: k for k, img_id in enumerate(by_stem)}
    image_of = np.array([position[i] for i in owners], dtype=np.intp)
    return Dataset._from_tables(  # two file names may share a stem
        _check_unique([frames[i][0] for i in by_stem]), [frames[i][1] for i in by_stem],
        BoxTables(gt[np.argsort(image_of, kind="stable")],
                  np.bincount(image_of, minlength=len(frames)), np.empty((0, 6)),
                  np.zeros(len(frames), dtype=np.intp)))


def _coco_row(ann, frames: dict, class_of_category: dict[int, int]) -> tuple:
    # An annotation's image id and its row (class, x, y, w, h).
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
    return img_ref, (class_of_category[cat_ref], x, y, w, h)


def format_coco_json(dataset: Dataset) -> str:
    """Serialize a Dataset's ground truth as a COCO-style document.

    Output is deterministic: images sorted by image_id, stable integer
    ids, sorted keys.
    """
    records = list(enumerate(dataset.records, start=1))
    boxes = [(idx, box) for idx, rec in records for box in rec.ground_truth]
    return dump_json({
        "images": [{"id": idx, "file_name": f"{rec.image_id}.png",
                    "width": rec.dims.width, "height": rec.dims.height}
                   for idx, rec in records],
        "annotations": [{"id": ann_id, "image_id": idx, "category_id": box.class_id + 1,
                         "bbox": [box.x_min, box.y_min,
                                  box.x_max - box.x_min, box.y_max - box.y_min]}
                        for ann_id, (idx, box) in enumerate(boxes, start=1)],
        "categories": [{"id": class_id + 1, "name": name}
                       for class_id, name in enumerate(CLASS_NAMES)],
    })


# ---------------------------------------------------------------------------
# Loading datasets from disk


_READ_SIZE = 65536


def _read_bytes(names: Sequence[str], head: str = "", dir_fd: int | None = None
                ) -> list[bytes | OSError]:
    """Each file's bytes, or the OSError naming its path (``head`` + name)
    that reading it raised. With ``dir_fd``, a handle of their directory,
    each (a regular file a walk found) ends at its first short read."""
    datas: list[bytes | OSError] = []
    for name in names:
        try:
            fd = os.open(name, os.O_RDONLY, dir_fd=dir_fd)
            try:
                data = os.read(fd, _READ_SIZE)
                if data and (len(data) == _READ_SIZE or dir_fd is None):
                    data += b"".join(iter(lambda: os.read(fd, _READ_SIZE), b""))
            finally:
                os.close(fd)
        except OSError as exc:  # os.read names no file, an open at dir_fd only the name
            data = OSError(exc.errno, exc.strerror, head + name)
        datas.append(data)
    return datas


def _decode(data: bytes | OSError, path: Path | str, error: type[KohevalError]) -> str:
    if isinstance(data, OSError):  # as _read_bytes gives a file it could not read
        raise data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{shown_path(path)}: not UTF-8 text ({exc.reason} at byte "
                    f"{exc.start})") from None


def read_text(path: Path | str, tree: InputTree | None = None) -> str:
    """A file's contents decoded as UTF-8; bytes that do not decode raise
    SchemaError naming the file. Line endings are kept: every reader here
    splits lines or parses JSON, and both accept CRLF. ``tree``, when given,
    keeps the bytes read, as :meth:`InputTree.keep` does."""
    data = _read_bytes([str(path)])[0]
    text = _decode(data, path, SchemaError)
    if tree is not None:
        tree.keep(Path(path), data)
    return text


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


# A surrogate escape or code point: only text holding one can decode to a
# string that is not Unicode text, so only such text is searched.
_SURROGATE = re.compile(r"\\u[dD][89a-fA-F]|[\ud800-\udfff]")


def _lone_surrogate(doc) -> str | None:
    # The first key or string in ``doc`` holding a lone surrogate, which no
    # strict UTF-8 output can print; walked with a stack, not recursion, as
    # ``doc`` may nest as deep as the decoder allows.
    stack = [doc]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack += [*item, *item.values()]
        elif isinstance(item, list):
            stack += item
        elif isinstance(item, str):
            try:
                item.encode()
            except UnicodeEncodeError:
                return item
    return None


def load_json(text: str | bytes, what: str) -> dict:
    """Decode a JSON document whose top level must be an object. Malformed
    text, NaN and infinite numbers, nesting deeper than the decoder's
    recursion limit, and a key or string holding a lone surrogate (as the
    escape ``\\udcff`` decodes) raise SchemaError naming ``what``; a NaN or
    infinite number held by a key, directly or in a list, is named by that key."""
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
    if isinstance(text, bytes) or _SURROGATE.search(text):
        if (bad := _lone_surrogate(doc)) is not None:
            raise SchemaError(f"{what}: {bad[:40]!r}{'...' * (len(bad) > 40)} "
                              "is not valid Unicode text")
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
    """Write a file atomically (temp file + rename in the same directory);
    an OSError names ``path``, never the temporary file's random name."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def sha256_file(path: Path | str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def shown_path(path: Path | str) -> str:
    """``path`` as one line of text that strict UTF-8 output can print:
    bytes of its name that are not UTF-8, C0 control characters and DEL
    become ``\\xNN`` escapes, and any other UTF-8 name is itself."""
    return os.fsencode(path).decode("utf-8", "backslashreplace").translate(_ESCAPED)


_ESCAPED = {code: f"\\x{code:02x}" for code in (*range(32), 127)}
_CONTROL = re.compile("[\x01-\x1f\x7f]")  # C0 controls ("\0" ends a name) and DEL
_NOT_SHOWN = re.compile("[\x01-\x1f\x7f\ud800-\udfff]")  # and lone surrogates, unencodable


class LabelFiles(NamedTuple):
    """A directory's label files in id order: their ids and names, its path
    and separator (``head``, to name a file in an error), and the tree's
    list of its files' bytes, ``datas``, the i-th label's at ``slots[i]``."""

    ids: list[str]
    names: list[str]
    head: str
    datas: list
    slots: Sequence[int]


class InputTree:
    """The files under an input path, walked once with ``os.scandir`` in
    the order of ``sorted(path.rglob("*"))``: each directory's entries in
    name order (``gt/`` before ``gt.x/``; of files alone, only their names
    are sorted), dotfiles included, symlinked directories not entered; a
    path that is no directory is a tree of its one file. The walk keeps each
    directory's path once, its files' names, their bytes beside them once
    read (None: not read), and the runs of its files between its
    subdirectories by position. Readers store the bytes they read; only
    :meth:`sha256` hashes, and it reads only the files no reader read."""

    def __init__(self, path: Path | str):
        self.path = Path(path)
        # _dirs: directory parts -> (path and separator, file names, bytes read),
        # where a file's tree holds its file as "" in (); _runs: (parts, start,
        # stop) in walk order; _odd: parts -> .txt entries that are no file.
        self._dirs, self._runs, self._odd = {(): ("", [""], [None])}, [], {}
        root = "" if self.path == Path(".") else str(self.path)
        self._file = None if self.path.is_dir() else root
        if self._file is None:
            self._walk(root, ())

    def _walk(self, directory: str, prefix: tuple[str, ...]) -> None:
        """Record ``directory``'s files and walk its subdirectories: files
        alone, as in a label directory, are one run of their sorted names."""
        # "" stands for ".", so that paths read as str(Path(...)) reads them.
        with os.scandir(directory or ".") as listing:
            entries = list(listing)
        head, start = os.path.join(directory, ""), 0
        if all(map(os.DirEntry.is_file, entries)):
            files, stops = sorted(map(attrgetter("name"), entries)), []
        else:  # a subdirectory (which no file is), a FIFO, a dangling link
            files = sorted(entry.name for entry in entries if entry.is_file())
            others = sorted((entry.name, entry) for entry in entries if not entry.is_file())
            self._odd[prefix] = [name for name, _ in others if name.endswith(".txt")]
            stops = [(bisect_left(files, name), name) for name, entry in others
                     if entry.is_dir(follow_symlinks=False)]
        self._dirs[prefix] = (head, files, [None] * len(files))
        for stop, name in stops:
            self._runs.append((prefix, start, stop))
            self._walk(head + name, (*prefix, name))
            start = stop
        self._runs.append((prefix, start, len(files)))

    def keep(self, path: Path, data: bytes) -> None:
        """Keep ``data``, read from the file at ``path``, for :meth:`sha256`
        to hash, if the walk found that file."""
        if not path.is_relative_to(self.path):
            return
        *parts, name = path.relative_to(self.path).parts or [""]  # "": a file's tree
        _, names, datas = self._dirs.get(tuple(parts), ("", [], []))
        if name in names:  # dims.json beside gt/ and pred/, say, or a COCO file
            datas[names.index(name)] = data

    def label_files(self, directory: Path) -> LabelFiles:
        """The ``.txt`` files directly in ``directory`` (each name's
        ``Path.stem`` is its image id). A ``.txt`` entry whose name is not
        UTF-8 or holds a control character (an id no line of strict UTF-8
        output can print), or that is not a regular file or a link to one,
        raises SchemaError, as do two names of one id (``.txt`` and
        ``.txt.txt``). A listing of ``.txt`` files alone is checked as a whole,
        and id by id, in id order, only to name the first offender, if a name
        is ``.txt``, or if ids sort apart from names (``a-b.txt`` before
        ``a.txt``, but ``a`` before ``a-b``)."""
        if directory != self.path and directory.is_symlink():  # not walked, still read
            return InputTree(directory).label_files(directory)
        parts = directory.relative_to(self.path).parts
        head, names, datas = self._dirs.get(parts, ("", [], []))
        joined = "\0".join([*names, ""])  # no name holds "\0": ".txt\0" ends a label
        odd, slots = self._odd.get(parts, []), range(len(names))
        ids = joined.replace(".txt\0", "\0").split("\0")[:-1]
        if (odd or joined.count(".txt\0") != len(names) or ".txt" in names
                or _NOT_SHOWN.search(joined) or ids != sorted(ids)):
            labels = sorted((name[:-4] or name, name, slot) for slot, name in [
                *enumerate(names), *zip(repeat(None), odd)] if name.endswith(".txt"))
            for k, (image_id, name, slot) in enumerate(labels):
                if bad := _NOT_SHOWN.search(image_id):
                    raise SchemaError(f"{shown_path(head + name)}: file name " + (
                        "holds a control character" if _CONTROL.match(bad[0])
                        else "is not UTF-8"))
                if slot is None:  # a FIFO, say: never opened, as it would block
                    raise SchemaError(f"{shown_path(head + name)}: not a regular file")
                if k and labels[k - 1][0] == image_id:
                    raise SchemaError(f"{shown_path(head + labels[k - 1][1])} and "
                                      f"{shown_path(head + name)}: duplicate image_id "
                                      f"{image_id!r}")
            ids, names, slots = ([label[k] for label in labels] for k in range(3))
        return LabelFiles(ids, names, head, datas, slots)

    def sha256(self) -> str:
        """Digest of the file, or of the directory as the digest of its sorted
        (relative name, file digest) pairs, names as file-system bytes."""
        def hexdigest(path: str, data: bytes | None) -> str:  # kept bytes, or read now
            return sha256_file(path) if data is None else hashlib.sha256(data).hexdigest()
        if self._file is not None:  # the tree of one file
            return hexdigest(self._file, self._dirs[()][2][0])
        digest = hashlib.sha256()
        for parts, start, stop in self._runs:
            head, names, datas = self._dirs[parts]
            prefix = "".join(f"{part}/" for part in parts)
            # A piece at a time, so that no string holds a large run's whole listing.
            for at in range(start, stop, 1024):
                end = min(at + 1024, stop)
                piece = names[at:end]
                hexes = map(hexdigest, map(head.__add__, piece), datas[at:end])
                pairs = map("\0".join, zip(piece, hexes))
                digest.update(os.fsencode(  # "<prefix><name>\0<digest>\0" per file
                    prefix + ("\0" + prefix).join(pairs) + "\0"))
        return digest.hexdigest()


# The first line of a batch the column reader takes: ASCII, a class digit
# and plain decimals, each after one space or tab, ending in "\n" or "\r\n";
# for ground truth (5 fields) and for predictions (6).
_CANONICAL_LINE = {with_confidence: re.compile(
    rf"[01](?:[ \t][0-9]+(?:\.[0-9]+)?){{{n}}}\r?\n".encode())
    for with_confidence, n in ((False, 4), (True, 5))}


def _fixed_layout_rows(batch: bytes, n_lines: int, line: re.Pattern) -> np.ndarray | None:
    """The rows of ``batch``, ``n_lines`` lines each ending in ``"\\n"``, if
    all of them have the layout of the first, which ``line`` matches: its
    length, its ".", "\\r" and "\\n" columns, a digit in each of its digit
    columns (0 or 1 in the class column) and a space or tab in each of its
    blank columns. Else None, as for a field of more than 15 digits.

    A field of at most 15 digits is exactly its digits, taken as an integer,
    over a power of ten, and so is read as ``float()`` reads it (Clinger,
    PLDI 1990): bit for bit. Each field's columns are
    folded into one int64 per line, so memory stays a few bytes a line.
    """
    width = len(batch) // n_lines if n_lines else 0
    if not width or width * n_lines != len(batch) or not line.fullmatch(batch, 0, width):
        return None
    grid = np.frombuffer(batch, dtype=np.uint8).reshape(n_lines, width)
    first = grid[0]
    digit, blank = first - ord("0") <= 9, (first == ord(" ")) | (first == ord("\t"))
    # Each column's bytes lie in [low, low + span]: for a blank column, a tab
    # to a space, of which only those two are then let through.
    low, span = first.copy(), np.zeros(width, dtype=np.uint8)
    low[digit], span[digit] = ord("0"), 9
    low[blank], span[blank] = ord("\t"), ord(" ") - ord("\t")
    span[0] = 1
    blanks = grid[:, blank]
    if ((grid - low) > span).any() or ((blanks != ord(" ")) & (blanks != ord("\t"))).any():
        return None
    fields = [m.span() for m in re.finditer(rb"[0-9.]+", batch[:width])]
    rows = np.empty((n_lines, len(fields)))
    rows[:, 0] = grid[:, 0] - ord("0")
    for k, (start, stop) in enumerate(fields[1:], start=1):
        dot = batch.find(b".", start, stop)
        columns = [c for c in range(start, stop) if c != dot]
        if len(columns) > 15:
            return None
        value = np.zeros(n_lines, dtype=np.int64)
        for c in columns:
            value *= 10
            value += grid[:, c]
        value -= ord("0") * (10 ** len(columns) - 1) // 9  # the folded "0"s
        rows[:, k] = value / float(10 ** (stop - dot - 1 if dot >= 0 else 0))
    return rows


def _canonical_boxes(datas: list, dims: Sequence[ImageDims], with_confidence: bool
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The table rows of every file in ``datas`` (bytes, or the OSError
    reading it raised), the i-th in the frame ``dims[i]``, converted
    together, file after file, and each file's number of rows and of
    clipped boxes: the whole batch, or None.

    The batch is taken only if every file was read and ends in ``"\\n"``
    (or is empty), :func:`_fixed_layout_rows` takes the joined bytes, and
    no box breaks a rule of :func:`~koheval.geometry.frame_rows`. Line
    counts and rows' owners come from the joined bytes by numpy.
    """
    if not all(map(isinstance, datas, repeat(bytes))):
        return None
    joined = b"".join(datas)
    sizes = np.fromiter(map(len, datas), dtype=np.intp, count=len(datas))
    ends = np.cumsum(sizes)
    view = np.frombuffer(joined, dtype=np.uint8)
    breaks = np.flatnonzero(view == 10)
    # A file not ending in "\n" could join the next one's first line.
    if not (view[ends[sizes > 0] - 1] == 10).all():
        return None
    rows = _fixed_layout_rows(joined, len(breaks), _CANONICAL_LINE[with_confidence])
    if rows is None:
        return None
    counts = np.diff(np.searchsorted(breaks, ends), prepend=0)  # each file's lines
    table, clipped, _, first = frame_rows(rows, dims, counts)
    if first is not None:
        return None
    owner = np.repeat(np.arange(len(datas)), counts)
    return table, counts, np.bincount(owner[clipped], minlength=len(datas))


def _read_label_files(directory: Path, labels: LabelFiles, dims: Sequence[ImageDims],
                      with_confidence: bool) -> tuple[np.ndarray, np.ndarray]:
    """The table rows of the label files ``labels.names`` in ``directory``,
    the i-th in the frame ``dims[i]``, file after file, and each file's
    number of rows.

    A file costs its open (by name, in the directory opened once), read
    and close. The column reader, :func:`_canonical_boxes`, takes the
    directory whole or not at all; if not, every file's lines are parsed
    as by :func:`parse_gt_file`, and their boxes checked at once, with
    each path built to name a file in an error. So the first file that
    fails to read, decode or parse raises, and clipped boxes warn in file
    order, each naming its file. Their bytes go into ``labels.datas``.
    """
    handle = os.open(directory, os.O_RDONLY | os.O_DIRECTORY)
    try:
        datas = _read_bytes(labels.names, labels.head, dir_fd=handle)
    finally:
        os.close(handle)
    batch = _canonical_boxes(datas, dims, with_confidence)
    table, counts, clipped, error = (*batch, None) if batch else _parse_texts(
        datas, dims, with_confidence, [labels.head + name for name in labels.names])
    for i in np.flatnonzero(clipped[:error[0] if error else None]).tolist():
        _warn_clipped(int(clipped[i]), 1, f"{shown_path(labels.head + labels.names[i])}: ")
    if error is not None:
        raise error[1]
    for slot, data in zip(labels.slots, datas):
        labels.datas[slot] = data
    return table, np.asarray(counts, dtype=np.intp)


def load_ground_truth(path: Path | str, dims: ImageDims | None = None,
                      tree: InputTree | None = None) -> Dataset:
    """Load ground truth from a COCO-style ``.json`` file or a directory of
    line-format ``.txt`` files (one image per file, named by image id).

    Line-format directories need ``dims`` because the format stores only
    normalized fractions. Files are read through ``tree``, a walk holding
    ``path`` (by default, a new one), which keeps their bytes and hashes none.
    """
    path = Path(path)
    tree = tree or InputTree(path)
    if path.is_file():
        return parse_coco_json(read_text(path, tree))
    if path.is_dir():
        if dims is None:
            raise SchemaError("line-format ground truth needs image dimensions (--dims)")
        labels = tree.label_files(path)
        if not labels.ids:
            raise SchemaError(f"no .txt annotation files under {shown_path(path)}")
        frames = [dims] * len(labels.ids)
        gt, counts = _read_label_files(path, labels, frames, False)
        return Dataset._from_tables(labels.ids, frames, BoxTables(
            gt, counts, np.empty((0, 6)), np.zeros(len(frames), dtype=np.intp)))
    if path.exists():
        raise SchemaError(f"ground-truth path {shown_path(path)} is not a regular "
                          "file or directory")
    raise SchemaError(f"ground-truth path {shown_path(path)} does not exist")


def attach_predictions(dataset: Dataset, pred_dir: Path | str,
                       tree: InputTree | None = None) -> Dataset:
    """Pair per-image prediction files with the dataset's images.

    A missing file means an empty prediction list; a file whose id is not
    in the dataset is a referential error. Files are read through ``tree``
    as in :func:`load_ground_truth`.
    """
    pred_dir = Path(pred_dir)
    if not pred_dir.is_dir():
        raise SchemaError(f"prediction path {shown_path(pred_dir)} is not a directory"
                          if pred_dir.exists() else
                          f"prediction directory {shown_path(pred_dir)} does not exist")
    tree = tree or InputTree(pred_dir)
    labels = tree.label_files(pred_dir)
    ids, frames = dataset.ids(), dataset.dims
    paired = slice(None)  # a prediction file for each image, the common case
    if labels.ids != ids:
        position = dict(zip(ids, range(len(ids))))
        paired = [position.get(image_id, -1) for image_id in labels.ids]
        if -1 in paired:  # the first file, in id order, of no image
            raise ReferentialError(f"prediction file {labels.names[paired.index(-1)]} "
                                   "has no matching image")
        frames = [frames[i] for i in paired]
    pred, counts = _read_label_files(pred_dir, labels, frames, True)
    pred_counts = np.zeros(len(ids), dtype=np.intp)
    pred_counts[paired] = counts
    return Dataset._from_tables(ids, dataset.dims, dataset.tables._replace(
        pred=pred, pred_counts=pred_counts))


def is_cohort_dir(path: Path) -> bool:
    """Whether ``path`` is a cohort directory: dims.json beside gt/."""
    return (path / "dims.json").is_file() and (path / "gt").is_dir()


def read_cohort_dims(path: Path | str, tree: InputTree | None = None) -> ImageDims:
    """The frame size a cohort directory's dims.json records (see read_text)."""
    dims_file = Path(path) / "dims.json"
    shown = shown_path(dims_file)
    if not dims_file.is_file():
        raise SchemaError(f"{shown_path(path)}: not a cohort directory (no dims.json)")
    doc = load_json(read_text(dims_file, tree), shown)
    sides = [require(doc, side, int, shown) for side in ("width", "height")]
    try:
        return ImageDims(*sides)
    except SchemaError as exc:
        raise SchemaError(f"{shown}: {exc}") from None


def read_cohort(path: Path | str, tree: InputTree | None = None) -> Dataset:
    """Read a cohort directory written by ``synth.write_cohort``: dims.json,
    gt/ and pred/; a cohort without pred/ has no detections. Files are
    read through ``tree``, a walk of the cohort (by default, a new one)."""
    root = Path(path)
    tree = tree or InputTree(root)
    dataset = load_ground_truth(root / "gt", read_cohort_dims(root, tree), tree)
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


def stratified_split(dataset: Dataset | Sequence[ImageRecord],
                     fractions: Sequence[float] = (0.8, 0.1, 0.1),
                     seed: int = 0) -> SplitAssignment:
    """Partition image ids into train/val/test, stratified by ground-truth
    composition ``(has_fungal, has_artefact)``, of a Dataset or any
    sequence of records.

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
    for s_index, (stratum, ids) in enumerate(as_dataset(dataset).strata.items()):
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


def split_table(dataset: Dataset | Sequence[ImageRecord],
                assignment: SplitAssignment) -> str:
    """Render per-stratum counts of a split as an aligned text table."""
    parts = ("train", "val", "test")
    part_of = {image_id: part for part in parts
               for image_id in getattr(assignment, part)}
    rows = [("stratum", "total", *parts)]
    for stratum, ids in as_dataset(dataset).strata.items():
        if ids:
            label = "+".join(name for name, present
                             in zip(CLASS_NAMES, stratum) if present)
            counts = Counter(part_of[image_id] for image_id in ids)
            rows.append((label or "empty", len(ids), *(counts[p] for p in parts)))
    rows.append(("all", len(dataset), *(len(getattr(assignment, p)) for p in parts)))
    return "".join(f"{label:<16}" + "".join(f"{v:>8}" for v in values) + "\n"
                   for label, *values in rows)
