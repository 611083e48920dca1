import dataclasses
import json

import pytest

from koheval.errors import SchemaError
from koheval.manifest import (
    REFERENCE_PROTOCOL,
    TrainManifest,
    manifest_conforms,
    validate_manifest,
    verdict_table,
)

PERTURBATIONS = {
    "epochs": 300,
    "optimizer": "SGD",
    "initial_lr": 5e-3,
    "cosine_warmup": False,
    "batch_size": 16,
    "box_loss_weight": 5.0,
    "cls_loss_weight": 0.5,
    "patience": 100,
    "flip_prob": 0.5,
    "scale_jitter": 0.1,
    "translate_jitter": 0.1,
    "rotation_jitter_deg": 10.0,
    "mixup_enabled": True,
    "input_size": 640,
    "confidence_threshold": 0.5,
}


class TestTrainManifest:
    def test_defaults_are_reference_protocol(self):
        manifest = TrainManifest()
        assert manifest.epochs == 250
        assert manifest.optimizer == "AdamW"
        assert manifest.initial_lr == 5e-4
        assert manifest.batch_size == 8
        assert manifest.box_loss_weight == 7.5
        assert manifest.cls_loss_weight == 1.0
        assert manifest.patience == 50
        assert manifest.flip_prob == 0.2
        assert manifest.scale_jitter == 0.20
        assert manifest.translate_jitter == 0.05
        assert manifest.rotation_jitter_deg == 2.0
        assert manifest.mixup_enabled is False
        assert manifest.input_size == 1024
        assert manifest.confidence_threshold == 0.25
        assert manifest == REFERENCE_PROTOCOL

    def test_structural_validation(self):
        with pytest.raises(SchemaError):
            TrainManifest(epochs=0)
        with pytest.raises(SchemaError):
            TrainManifest(flip_prob=1.5)
        with pytest.raises(SchemaError):
            TrainManifest(scale_jitter=-0.1)
        with pytest.raises(SchemaError):
            TrainManifest(optimizer="")

    def test_json_round_trip(self):
        manifest = TrainManifest(batch_size=4, mixup_enabled=True)
        assert TrainManifest.from_json(manifest.to_json()) == manifest
        assert TrainManifest.from_json(manifest.to_json()).to_json() \
            == manifest.to_json()

    def test_from_json_rejects_unknown_field(self):
        doc = json.loads(REFERENCE_PROTOCOL.to_json())
        doc["momentum"] = 0.9
        with pytest.raises(SchemaError, match="unknown"):
            TrainManifest.from_json(json.dumps(doc))

    def test_from_json_rejects_missing_field(self):
        doc = json.loads(REFERENCE_PROTOCOL.to_json())
        del doc["patience"]
        with pytest.raises(SchemaError, match="missing"):
            TrainManifest.from_json(json.dumps(doc))

    def test_from_json_rejects_bool_as_int(self):
        doc = json.loads(REFERENCE_PROTOCOL.to_json())
        doc["epochs"] = True
        with pytest.raises(SchemaError):
            TrainManifest.from_json(json.dumps(doc))

    @pytest.mark.parametrize("field", ["initial_lr", "flip_prob", "scale_jitter",
                                       "confidence_threshold", "translate_jitter"])
    def test_nan_fails_the_range_checks(self, field):
        with pytest.raises(SchemaError, match=field):
            TrainManifest(**{field: float("nan")})
        doc = REFERENCE_PROTOCOL.to_json().replace(
            f'"{field}": {getattr(REFERENCE_PROTOCOL, field)!r}', f'"{field}": NaN')
        assert "NaN" in doc
        # JSON has no NaN: the reader refuses it before the range checks,
        # naming the field that holds it.
        with pytest.raises(SchemaError, match=f"^manifest: '{field}' is not a "
                           r"finite number \(NaN\)$"):
            TrainManifest.from_json(doc)

    def test_from_json_rejects_a_float_field_past_float_range(self):
        doc = json.loads(REFERENCE_PROTOCOL.to_json())
        doc["initial_lr"] = 10**400
        with pytest.raises(SchemaError, match="initial_lr.*too large"):
            TrainManifest.from_json(json.dumps(doc))

    def test_from_json_coerces_int_to_float(self):
        doc = json.loads(REFERENCE_PROTOCOL.to_json())
        doc["cls_loss_weight"] = 1
        manifest = TrainManifest.from_json(json.dumps(doc))
        assert manifest.cls_loss_weight == 1.0
        assert isinstance(manifest.cls_loss_weight, float)


class TestValidation:
    def test_reference_passes_every_field(self):
        verdicts = validate_manifest(REFERENCE_PROTOCOL)
        assert len(verdicts) == len(dataclasses.fields(TrainManifest))
        assert manifest_conforms(verdicts)

    @pytest.mark.parametrize("field", sorted(PERTURBATIONS))
    def test_single_field_perturbation_is_flagged(self, field):
        manifest = dataclasses.replace(REFERENCE_PROTOCOL,
                                       **{field: PERTURBATIONS[field]})
        verdicts = validate_manifest(manifest)
        assert not manifest_conforms(verdicts)
        flagged = [v.field for v in verdicts if not v.ok]
        assert flagged == [field]

    def test_optimizer_name_case_insensitive(self):
        manifest = dataclasses.replace(REFERENCE_PROTOCOL, optimizer="adamw")
        assert manifest_conforms(validate_manifest(manifest))

    def test_table_marks_mismatches(self):
        manifest = dataclasses.replace(REFERENCE_PROTOCOL, mixup_enabled=True)
        table = verdict_table(validate_manifest(manifest))
        assert "MISMATCH" in table
        assert "mixup_enabled" in table
