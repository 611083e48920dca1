"""Versioned run reports and their presentation forms.

A report is a plain dict with a ``schema_version`` field, rendered to
canonical JSON (sorted keys, two-space indent, trailing newline) so that
parse + render is byte-identical. CSV and table renderers are
presentation-only; every number lives in the report as a fraction and is
formatted at the edge (AP as a two-decimal percentage, counts as
integers, everything else to four decimals).
"""

from __future__ import annotations

from dataclasses import asdict, fields
from pathlib import Path
from typing import Mapping

from .dataset import dump_json, load_json, require
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
            name: {"path": str(path), "sha256": sha256}
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
    _check_blocks(report)
    return report


def _numbers(block: dict, keys, where: str) -> None:
    """``block``'s ``keys`` (all of its keys when None) must hold numbers or
    null, which is what the renderers format."""
    for key in keys or block:
        require(block, key, (int, float, type(None)), where)


def _check_blocks(report: dict) -> None:
    """Require the header blocks build_report always writes, and every
    block the renderers read to have the shape they read."""
    require(report, "tool", dict, "report")
    _numbers(require(report, "operating_point", dict, "report"),
             ("conf_threshold", "iou_threshold"), "report: operating_point")
    require(report, "interpolation", str, "report")
    if "inputs" in report:
        for name, entry in require(report, "inputs", dict, "report").items():
            require(entry, "path", str, f"report: inputs.{name}")
            require(entry, "sha256", str, f"report: inputs.{name}")
    if "object_metrics" in report:
        block = require(report, "object_metrics", dict, "report")
        where = "report: object_metrics"
        per_class = require(block, "per_class", dict, where)
        for name in per_class:
            _numbers(require(per_class, name, dict, f"{where}.per_class"),
                     _CLASS_FIELDS, f"{where}.per_class.{name}")
        _numbers(require(block, "macro", dict, where), None, f"{where}.macro")
    if "screening" in report:
        block = require(report, "screening", dict, "report")
        where = "report: screening"
        _numbers(require(block, "matrix", dict, where), ("tp", "fn", "fp", "tn"),
                 f"{where}.matrix")
        _numbers(require(block, "rates", dict, where), _RATE_NAMES, f"{where}.rates")
        missed = block.get("false_negative_ids", [])
        if not (isinstance(missed, list) and all(isinstance(i, str) for i in missed)):
            raise SchemaError(f"{where}: 'false_negative_ids' must be a list "
                              "of strings")
    if "manifest" in report:
        require(report, "manifest", dict, "report")


# ---------------------------------------------------------------------------
# Presentation


def _fmt(value, percent: bool = False) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int):
        return str(value)
    if percent:
        return f"{100.0 * value:.2f}"
    return f"{value:.4f}"


def _aligned(rows: list[list[str]], indent: str = "  ") -> list[str]:
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    out = []
    for row in rows:
        cells = [row[0].ljust(widths[0])]
        cells += [cell.rjust(width) for cell, width in zip(row[1:], widths[1:])]
        out.append(indent + "  ".join(cells).rstrip())
    return out


def render_table(report: dict) -> str:
    lines: list[str] = []
    op = report.get("operating_point", {})
    lines.append(f"koheval report (schema {report.get('schema_version')})")
    lines.append(
        f"operating point: conf {_fmt(op.get('conf_threshold'))}, "
        f"IoU {_fmt(op.get('iou_threshold'))}, "
        f"interpolation {report.get('interpolation')}"
    )

    if "inputs" in report:
        lines.append("")
        lines.append("inputs")
        for name, entry in sorted(report["inputs"].items()):
            lines.append(f"  {name}: {entry['path']}  sha256 "
                         f"{entry['sha256'][:12]}")

    if "object_metrics" in report:
        lines.append("")
        lines.append("object level")
        header = ["class", "tp", "fp", "fn", "prec", "rec", "f1",
                  "ap50%", "ap50:95%", "miou"]
        rows = [header]
        block = report["object_metrics"]
        # The macro row has no counts; its missing cells render as "-".
        for name, m in [*sorted(block["per_class"].items()), ("macro", block["macro"])]:
            rows.append([name] + [_fmt(m.get(field), percent=field.startswith("ap"))
                                  for field in _CLASS_FIELDS])
        lines.extend(_aligned(rows))

    if "screening" in report:
        block = report["screening"]
        matrix = block["matrix"]
        lines.append("")
        lines.append("image level")
        rows = [["", "called +", "called -"],
                ["actual +", str(matrix["tp"]), str(matrix["fn"])],
                ["actual -", str(matrix["fp"]), str(matrix["tn"])]]
        lines.extend(_aligned(rows))
        rates = block["rates"]
        rows = [[name, _fmt(rates[name])] for name in _RATE_NAMES]
        lines.extend(_aligned(rows))
        if block.get("false_negative_ids"):
            lines.append("  missed positives: "
                         + ", ".join(block["false_negative_ids"]))

    if "manifest" in report:
        lines.append("")
        lines.append("manifest")
        for key, value in sorted(report["manifest"].items()):
            lines.append(f"  {key}: {_fmt(value) if value is None else value}")

    return "\n".join(lines) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_csv(report: dict) -> str:
    rows = [("section", "metric", "class", "value")]
    op = report.get("operating_point", {})
    rows.append(("run", "conf_threshold", "", _csv_cell(op.get("conf_threshold"))))
    rows.append(("run", "iou_threshold", "", _csv_cell(op.get("iou_threshold"))))
    rows.append(("run", "interpolation", "", report.get("interpolation", "")))
    if "object_metrics" in report:
        block = report["object_metrics"]
        for name, m in sorted(block["per_class"].items()):
            for metric in _CLASS_FIELDS:
                rows.append(("object", metric, name, _csv_cell(m[metric])))
        for metric, value in sorted(block["macro"].items()):
            rows.append(("object", metric, "macro", _csv_cell(value)))
    if "screening" in report:
        block = report["screening"]
        for cell in ("tp", "fn", "fp", "tn"):
            rows.append(("screening", cell, "", _csv_cell(block["matrix"][cell])))
        for name in _RATE_NAMES:
            rows.append(("screening", name, "", _csv_cell(block["rates"][name])))
    if "manifest" in report:
        for key, value in sorted(report["manifest"].items()):
            rows.append(("manifest", key, "", _csv_cell(value)))
    return "\n".join(",".join(row) for row in rows) + "\n"


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
    for k in range(6):
        v = k / 5.0
        parts.append(f'<line x1="{sx(v):.1f}" y1="{mt}" x2="{sx(v):.1f}" '
                     f'y2="{mt + ph}" stroke="#d8d8d8"/>')
        parts.append(f'<line x1="{ml}" y1="{sy(v):.1f}" x2="{ml + pw}" '
                     f'y2="{sy(v):.1f}" stroke="#d8d8d8"/>')
        parts.append(f'<text x="{sx(v):.1f}" y="{mt + ph + 16}" '
                     f'text-anchor="middle">{v:.1f}</text>')
        parts.append(f'<text x="{ml - 6}" y="{sy(v) + 4:.1f}" '
                     f'text-anchor="end">{v:.1f}</text>')
    parts.append(f'<text x="{ml + pw / 2:.1f}" y="{height - 8}" '
                 f'text-anchor="middle">recall</text>')
    parts.append(f'<text x="14" y="{mt + ph / 2:.1f}" text-anchor="middle" '
                 f'transform="rotate(-90 14 {mt + ph / 2:.1f})">precision</text>')

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
        parts.append(f'<rect x="{ml + pw - 120}" y="{ly - 9}" width="10" '
                     f'height="10" fill="{color}"/>')
        parts.append(f'<text x="{ml + pw - 104}" y="{ly}">{name}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
