"""Versioned run reports and their presentation forms.

A report is a plain dict with a ``schema_version`` field, rendered to
canonical JSON (sorted keys, two-space indent, trailing newline) so that
parse + render is byte-identical. CSV and table renderers are
presentation-only; every number lives in the report as a fraction and is
formatted at the edge (AP as a two-decimal percentage, counts as
integers, everything else to four decimals). One walk of a report's
cells feeds the checker, the CSV and the table, so every field a renderer
reads, both screening id lists included, is checked. CSV fields are
quoted as RFC 4180 requires.
"""

from __future__ import annotations

from dataclasses import asdict, fields
from pathlib import Path
from typing import Mapping

from .dataset import dump_json, load_json, require, shown_path
from .errors import SchemaError
from .geometry import CLASS_NAMES
from .manifest import TrainManifest
from .metrics import ClassMetrics, ObjectMetrics, OperatingPoint, PRCurve
from .screening import ScreeningReport

SCHEMA_VERSION = "koheval-report/1"
TOOL_VERSION = "0.1.0"

_RATE_NAMES = ("sensitivity", "specificity", "precision", "npv",
               "accuracy", "f1", "balanced_accuracy")
_CLASS_FIELDS = tuple(f.name for f in fields(ClassMetrics))


# ---------------------------------------------------------------------------
# Report assembly


def build_report(*, op: OperatingPoint, interpolation: str = "101",
                 object_metrics: ObjectMetrics | None = None,
                 screening: ScreeningReport | None = None,
                 manifest: TrainManifest | None = None,
                 inputs: Mapping[str, tuple[Path | str, str]] | None = None
                 ) -> dict:
    """The report document. ``inputs`` maps a name to the (path, SHA-256)
    of an input as it was read, so nothing is read again here."""
    report: dict = {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "koheval", "version": TOOL_VERSION},
        "operating_point": asdict(op),
        "interpolation": interpolation,
    }
    if inputs:
        report["inputs"] = {
            name: {"path": shown_path(path), "sha256": sha256}
            for name, (path, sha256) in sorted(inputs.items())
        }
    if object_metrics is not None:
        report["object_metrics"] = {
            "per_class": {CLASS_NAMES[class_id]: asdict(metrics) for class_id, metrics
                          in sorted(object_metrics.per_class.items())},
            "macro": asdict(object_metrics.macro),
        }
    if screening is not None:
        report["screening"] = {
            "matrix": asdict(screening.matrix),
            "rates": {name: getattr(screening.matrix, name) for name in _RATE_NAMES},
            "false_negative_ids": list(screening.false_negative_ids),
            "false_positive_ids": list(screening.false_positive_ids),
        }
    if manifest is not None:
        report["manifest"] = asdict(manifest)
    return report


def parse_report(text: str) -> dict:
    report = load_json(text, "report")
    if report.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError(
            f"unsupported schema_version {report.get('schema_version')!r}; "
            f"expected {SCHEMA_VERSION!r}"
        )
    _cells(report)
    return report


def _cells(report: dict) -> list[tuple[str, str, str, object]]:
    """Every (section, metric, row, value) cell the renderers read, in CSV
    order, each value required to be of the kind they format: a number or
    null, but a string for the interpolation and any scalar in the manifest.
    The blocks the table prints beside the cells are required too: ``tool``,
    each ``inputs`` entry's path and digest, and both screening id lists."""
    cells: list[tuple[str, str, str, object]] = []

    def take(section, row, block, keys, where, kinds=(int, float, type(None))):
        cells.extend((section, key, row, require(block, key, kinds, where))
                     for key in keys)

    require(report, "tool", dict, "report")
    take("run", "", require(report, "operating_point", dict, "report"),
         ("conf_threshold", "iou_threshold"), "report: operating_point")
    take("run", "", report, ("interpolation",), "report", str)
    if "inputs" in report:
        for name, entry in require(report, "inputs", dict, "report").items():
            for key in ("path", "sha256"):
                require(entry, key, str, f"report: inputs.{name}")
    if "object_metrics" in report:
        block = require(report, "object_metrics", dict, "report")
        where = "report: object_metrics"
        per_class = require(block, "per_class", dict, where)
        for name in sorted(per_class):
            take("object", name, require(per_class, name, dict, f"{where}.per_class"),
                 _CLASS_FIELDS, f"{where}.per_class.{name}")
        macro = require(block, "macro", dict, where)
        take("object", "macro", macro, sorted(macro), f"{where}.macro")
    if "screening" in report:
        block = require(report, "screening", dict, "report")
        where = "report: screening"
        take("screening", "", require(block, "matrix", dict, where),
             ("tp", "fn", "fp", "tn"), f"{where}.matrix")
        take("screening", "", require(block, "rates", dict, where), _RATE_NAMES,
             f"{where}.rates")
        for key in ("false_negative_ids", "false_positive_ids"):
            if not all(isinstance(i, str) for i in require(block, key, list, where)):
                raise SchemaError(f"{where}: {key!r} must be a list of strings")
    if "manifest" in report:
        manifest = require(report, "manifest", dict, "report")
        take("manifest", "", manifest, sorted(manifest), "report: manifest",
             (str, int, float, bool, type(None)))
    return cells


# ---------------------------------------------------------------------------
# Presentation


def _fmt(value, percent: bool = False) -> str:
    if value is None:
        return "-"
    if isinstance(value, int):
        return str(value)
    return f"{100.0 * value:.2f}" if percent else f"{value:.4f}"


def _aligned(rows: list[list[str]], indent: str = "  ") -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return [indent + "  ".join([row[0].ljust(widths[0]),
                                *map(str.rjust, row[1:], widths[1:])]).rstrip()
            for row in rows]


def render_table(report: dict) -> str:
    grid: dict[tuple[str, str], dict] = {}  # (section, row) -> metric -> value
    for section, metric, row, value in _cells(report):
        grid.setdefault((section, row), {})[metric] = value
    run = grid["run", ""]
    lines = [f"koheval report (schema {report.get('schema_version')})",
             f"operating point: conf {_fmt(run['conf_threshold'])}, "
             f"IoU {_fmt(run['iou_threshold'])}, "
             f"interpolation {run['interpolation']}"]

    if "inputs" in report:
        lines += ["", "inputs"]
        lines += [f"  {name}: {entry['path']}  sha256 {entry['sha256'][:12]}"
                  for name, entry in sorted(report["inputs"].items())]

    if "object_metrics" in report:
        lines += ["", "object level"]
        rows = [["class", "tp", "fp", "fn", "prec", "rec", "f1",
                 "ap50%", "ap50:95%", "miou"]]
        # The macro row has no counts; its missing cells render as "-".
        rows += [[name] + [_fmt(m.get(field), percent=field.startswith("ap"))
                           for field in _CLASS_FIELDS]
                 for (section, name), m in grid.items() if section == "object"]
        lines += _aligned(rows)

    if "screening" in report:
        counts = grid["screening", ""]  # the matrix and the rates
        lines += ["", "image level", *_aligned([
            ["", "called +", "called -"],
            ["actual +", str(counts["tp"]), str(counts["fn"])],
            ["actual -", str(counts["fp"]), str(counts["tn"])]])]
        lines += _aligned([[name, _fmt(counts[name])] for name in _RATE_NAMES])
        if missed := report["screening"]["false_negative_ids"]:
            lines.append("  missed positives: " + ", ".join(missed))

    if "manifest" in report:
        lines += ["", "manifest"]
        lines += [f"  {key}: {_fmt(value) if value is None else value}"
                  for key, value in grid.get(("manifest", ""), {}).items()]

    return "\n".join(lines) + "\n"


def _csv_field(value) -> str:
    """``value`` as a CSV field: null empty, a boolean as JSON spells it, a
    float in full, and text holding a comma, a quote or a line break quoted
    as RFC 4180 requires."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def render_csv(report: dict) -> str:
    rows = [("section", "metric", "class", "value"), *_cells(report)]
    return "".join(",".join(map(_csv_field, row)) + "\n" for row in rows)


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return dump_json(report)
    if fmt == "csv":
        return render_csv(report)
    if fmt == "table":
        return render_table(report)
    raise SchemaError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# PR-curve plots


_SVG_COLORS = ("#b03030", "#2060a8", "#208050", "#806020")


def pr_curve_svg(curves: Mapping[str, PRCurve]) -> str:
    """Self-contained SVG of one or more precision-recall curves.

    The raw points ride along in a ``<desc>`` block, so the plot is also
    a data file; nothing is computed here.
    """
    width, height = 640, 460
    ml, mr, mt, mb = 54, 16, 16, 44
    pw, ph = width - ml - mr, height - mt - mb

    def sx(recall: float) -> float:
        return ml + recall * pw

    def sy(precision: float) -> float:
        return mt + (1.0 - precision) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" '
        f'font-size="12">',
        "<desc>" + dump_json(
            {name: {"total_gt": c.total_gt, "points": [list(p) for p in c.points]}
             for name, c in curves.items()}, indent=None).rstrip() + "</desc>",
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#404040"/>',
    ]
    for v in (k / 5.0 for k in range(6)):
        parts += [f'<line x1="{sx(v):.1f}" y1="{mt}" x2="{sx(v):.1f}" '
                  f'y2="{mt + ph}" stroke="#d8d8d8"/>',
                  f'<line x1="{ml}" y1="{sy(v):.1f}" x2="{ml + pw}" '
                  f'y2="{sy(v):.1f}" stroke="#d8d8d8"/>',
                  f'<text x="{sx(v):.1f}" y="{mt + ph + 16}" '
                  f'text-anchor="middle">{v:.1f}</text>',
                  f'<text x="{ml - 6}" y="{sy(v) + 4:.1f}" '
                  f'text-anchor="end">{v:.1f}</text>']
    parts += [f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" '
              f'text-anchor="middle">recall</text>',
              f'<text x="14" y="{mt + ph / 2:.1f}" text-anchor="middle" '
              f'transform="rotate(-90 14 {mt + ph / 2:.1f})">precision</text>']

    for slot, (name, curve) in enumerate(sorted(curves.items())):
        color = _SVG_COLORS[slot % len(_SVG_COLORS)]
        coords = [(sx(r), sy(p)) for _, p, r in curve.points]
        if coords:
            path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
            parts.append(f'<polyline points="{path}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
            for x, y in coords:
                parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="2.2" '
                             f'fill="{color}"/>')
        ly = mt + 16 + 16 * slot
        parts += [f'<rect x="{ml + pw - 120}" y="{ly - 9}" width="10" '
                  f'height="10" fill="{color}"/>',
                  f'<text x="{ml + pw - 104}" y="{ly}">{name}</text>']
    return "\n".join([*parts, "</svg>"]) + "\n"
