"""Training-protocol manifest: a validated record of the hyperparameters
the upstream detector was trained with.

The manifest is stored and echoed in reports but never executed; its only
job is provenance. ``validate_manifest`` checks a manifest field by field
against the reference protocol this toolkit evaluates.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .dataset import dump_json, load_json, require
from .errors import SchemaError

# JSON kinds a field of each type accepts (types are strings under
# postponed annotations); an integer read for a float field becomes a float.
_KINDS = {"int": int, "float": (int, float), "bool": bool, "str": str}


@dataclass(frozen=True)
class TrainManifest:
    """Hyperparameter record. The defaults are the reference protocol."""

    epochs: int = 250
    optimizer: str = "AdamW"
    initial_lr: float = 5e-4
    cosine_warmup: bool = True
    batch_size: int = 8
    box_loss_weight: float = 7.5
    cls_loss_weight: float = 1.0
    patience: int = 50
    flip_prob: float = 0.2
    scale_jitter: float = 0.20
    translate_jitter: float = 0.05
    rotation_jitter_deg: float = 2.0
    mixup_enabled: bool = False
    input_size: int = 1024
    confidence_threshold: float = 0.25

    def __post_init__(self):
        # Each check states what must hold, so NaN fails it.
        positive = ("epochs", "initial_lr", "batch_size", "box_loss_weight",
                    "cls_loss_weight", "patience", "input_size",
                    "confidence_threshold")
        for name in positive:
            if not getattr(self, name) > 0:
                raise SchemaError(f"{name} must be positive")
        for name in ("flip_prob", "confidence_threshold"):
            if not getattr(self, name) <= 1.0:
                raise SchemaError(f"{name} must not exceed 1")
        for name in ("flip_prob", "scale_jitter", "translate_jitter",
                     "rotation_jitter_deg"):
            if not getattr(self, name) >= 0:
                raise SchemaError(f"{name} must be non-negative")
        if not self.optimizer:
            raise SchemaError("optimizer name must be non-empty")

    def to_json(self) -> str:
        return dump_json(dataclasses.asdict(self))

    @classmethod
    def from_json(cls, text: str) -> "TrainManifest":
        doc = load_json(text, "manifest")
        fields = dataclasses.fields(cls)
        unknown = set(doc) - {spec.name for spec in fields}
        if unknown:
            raise SchemaError(f"unknown manifest field(s): {sorted(unknown)}")
        coerced = {}
        for spec in fields:
            value = require(doc, spec.name, _KINDS[spec.type], "manifest")
            try:
                coerced[spec.name] = float(value) if spec.type == "float" else value
            except OverflowError:
                raise SchemaError(f"manifest: {spec.name!r} is too large "
                                  "for a float") from None
        return cls(**coerced)


REFERENCE_PROTOCOL = TrainManifest()


@dataclass(frozen=True)
class FieldVerdict:
    field: str
    expected: object
    actual: object
    ok: bool


def _values_match(expected, actual) -> bool:
    if isinstance(expected, bool) or isinstance(actual, bool):
        return expected is actual
    if isinstance(expected, float) or isinstance(actual, float):
        return math.isclose(expected, actual, rel_tol=1e-9, abs_tol=0.0)
    if isinstance(expected, str):
        return expected.lower() == str(actual).lower()
    return expected == actual


def validate_manifest(manifest: TrainManifest) -> list[FieldVerdict]:
    """Compare every manifest field against the reference protocol."""
    pairs = [(spec.name, getattr(REFERENCE_PROTOCOL, spec.name),
              getattr(manifest, spec.name)) for spec in dataclasses.fields(TrainManifest)]
    return [FieldVerdict(name, expected, actual, _values_match(expected, actual))
            for name, expected, actual in pairs]


def manifest_conforms(verdicts: list[FieldVerdict]) -> bool:
    return all(v.ok for v in verdicts)


def verdict_table(verdicts: list[FieldVerdict]) -> str:
    lines = [f"{'field':<22}{'expected':>14}{'actual':>14}  verdict"]
    lines += [f"{v.field:<22}{v.expected!s:>14}{v.actual!s:>14}  "
              + ("ok" if v.ok else "MISMATCH") for v in verdicts]
    return "\n".join(lines) + "\n"
