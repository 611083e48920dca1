import builtins
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import koheval
import koheval.dataset
from koheval.cli import main
from koheval.dataset import InputTree, dump_json, format_coco_json, read_cohort
from koheval.errors import SchemaError
from koheval.manifest import REFERENCE_PROTOCOL
from koheval.metrics import OperatingPoint, PRCurve, evaluate_detections
from koheval.report import (
    SCHEMA_VERSION,
    build_report,
    parse_report,
    pr_curve_svg,
    render,
    render_csv,
    render_table,
)
from koheval.screening import screen_dataset
from koheval.synth import SynthSpec, generate

_MISSING = "<missing>"  # conftest's mutate deletes a key given this value


@pytest.fixture()
def sample_report():
    dataset, _ = generate(SynthSpec(n_images=6, seed=1))
    return build_report(
        op=OperatingPoint(),
        object_metrics=evaluate_detections(dataset.records),
        screening=screen_dataset(dataset.records),
        manifest=REFERENCE_PROTOCOL,
    )


class TestReportDocument:
    def test_structure(self, sample_report):
        assert sample_report["schema_version"] == SCHEMA_VERSION
        assert sample_report["tool"]["name"] == "koheval"
        assert set(sample_report["object_metrics"]["per_class"]) == \
            {"fungal", "artefact"}
        assert "matrix" in sample_report["screening"]

    def test_json_round_trip_byte_identical(self, sample_report):
        text = dump_json(sample_report)
        assert dump_json(parse_report(text)) == text

    def test_parse_rejects_wrong_schema(self):
        with pytest.raises(SchemaError):
            parse_report('{"schema_version": "other/9"}')
        with pytest.raises(SchemaError):
            parse_report("[1, 2]")
        with pytest.raises(SchemaError):
            parse_report("{broken")

    def test_table_renders_percent_ap(self, sample_report):
        table = render_table(sample_report)
        ap50 = sample_report["object_metrics"]["per_class"]["fungal"]["ap50"]
        assert f"{100 * ap50:.2f}" in table
        assert "image level" in table
        assert "mixup_enabled" in table

    def test_csv_stable_and_headed(self, sample_report):
        csv = render_csv(sample_report)
        assert csv.splitlines()[0] == "section,metric,class,value"
        assert render_csv(sample_report) == csv
        assert "object,tp,fungal," in csv

    def test_unknown_format(self, sample_report):
        with pytest.raises(SchemaError):
            render(sample_report, "yaml")

    def test_none_rates_render_as_dash_and_empty(self):
        dataset, _ = generate(SynthSpec(n_images=4, seed=2,
                                        fungal_per_image=(0, 0),
                                        artefact_per_image=(1, 2)))
        report = build_report(op=OperatingPoint(),
                              screening=screen_dataset(dataset.records))
        table_line = next(line for line in render_table(report).splitlines()
                          if "sensitivity" in line)
        assert table_line.rstrip().endswith("-")
        assert "screening,sensitivity,,\n" in render_csv(report)


class TestDigests:
    def test_file_and_directory(self, tmp_path):
        f = tmp_path / "a.txt"
        f.write_text("hello\n")
        file_digest = InputTree(f).sha256()
        assert len(file_digest) == 64
        d = tmp_path / "dir"
        d.mkdir()
        (d / "x.txt").write_text("one\n")
        before = InputTree(d).sha256()
        (d / "x.txt").write_text("two\n")
        assert InputTree(d).sha256() != before

    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            InputTree(tmp_path / "ghost").sha256()

    def test_directory_digest_equals_the_rglob_reference(self, tmp_path):
        root = tmp_path / "tree"
        files = {"dims.json": "{}", "gt/a.txt": "0 0.5 0.5 0.1 0.1\n",
                 "gt/b.txt": "", "gt/.hidden.txt": "h", "gt/notes.md": "n",
                 "gt/sub/deep/c.txt": "c", "gt.x/a.txt": "x", "gt-y": "y",
                 ".dotdir/z": "z", "pred/a.txt": "p", "truth.json": "[]"}
        for name, text in files.items():
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
        outside = tmp_path / "outside"
        outside.mkdir()
        (outside / "o.txt").write_text("outside")
        os.symlink(outside / "o.txt", root / "gt" / "linked.txt")
        os.symlink(outside, root / "linked-dir")
        os.symlink(tmp_path / "ghost", root / "gt" / "dangling.txt")
        expected = [p.relative_to(root).parts
                    for p in sorted(root.rglob("*")) if p.is_file()]
        assert list(InputTree(root).files.values()) == expected
        assert ("gt", "linked.txt") in expected
        assert not any(parts[0] == "linked-dir" for parts in expected)
        for path in (root, root / "gt", root / "gt.x", root / "dims.json"):
            assert InputTree(path).sha256() == _rglob_sha256_path(path)


def _rglob_sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _rglob_sha256_path(path):
    """The input digest as it was computed before the one-walk reader:
    rglob, sorted Path objects, and a second read of every file."""
    p = Path(path)
    if p.is_file():
        return _rglob_sha256_file(p)
    digest = hashlib.sha256()
    for child in sorted(f for f in p.rglob("*") if f.is_file()):
        digest.update(os.fsencode(child.relative_to(p).as_posix()))
        digest.update(b"\0")
        digest.update(_rglob_sha256_file(child).encode())
        digest.update(b"\0")
    return digest.hexdigest()


def _run_koheval(*argv) -> subprocess.CompletedProcess:
    src = Path(koheval.__file__).parent.parent
    return subprocess.run([sys.executable, "-m", "koheval.cli", *map(str, argv)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})


class TestSvg:
    def test_embeds_points(self):
        curve = PRCurve(points=((0.9, 1.0, 0.5), (0.5, 0.8, 1.0)), total_gt=2)
        svg = pr_curve_svg({"fungal": curve})
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "polyline" in svg
        embedded = json.loads(svg.split("<desc>")[1].split("</desc>")[0])
        assert embedded["fungal"]["points"] == [[0.9, 1.0, 0.5],
                                                [0.5, 0.8, 1.0]]


class TestCli:
    def test_synth_evaluate_prints_planted_numbers(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        assert main(["synth", "--plant-counts", "37,9,1", "--seed", "3",
                     "--out", str(cohort)]) == 0
        capsys.readouterr()
        assert main(["evaluate", str(cohort)]) == 0
        out = capsys.readouterr().out
        assert "0.8043" in out
        assert "0.9737" in out
        assert "0.8810" in out

    def test_evaluate_json_report_and_outfile(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        main(["synth", "--plant-counts", "4,1,1", "--out", str(cohort)])
        capsys.readouterr()
        run_file = tmp_path / "run.json"
        assert main(["evaluate", str(cohort), "--format", "json",
                     "--out", str(run_file)]) == 0
        stdout_report = parse_report(capsys.readouterr().out)
        file_report = parse_report(run_file.read_text())
        assert stdout_report == file_report
        assert dump_json(file_report) == run_file.read_text()
        fungal = file_report["object_metrics"]["per_class"]["fungal"]
        assert (fungal["tp"], fungal["fp"], fungal["fn"]) == (4, 1, 1)

    def test_report_rerender_round_trip(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        main(["synth", "--plant-counts", "2,1,0", "--out", str(cohort)])
        run_file = tmp_path / "run.json"
        main(["evaluate", str(cohort), "--out", str(run_file)])
        capsys.readouterr()
        assert main(["report", str(run_file), "--format", "json"]) == 0
        assert capsys.readouterr().out == run_file.read_text()

    def test_screen_gate_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        main(["synth", "--plant-matrix", "5,0,1,6", "--out", str(clean)])
        assert main(["screen", str(clean), "--fail-on-fn"]) == 0
        dirty = tmp_path / "dirty"
        main(["synth", "--plant-matrix", "5,2,1,6", "--out", str(dirty)])
        assert main(["screen", str(dirty), "--fail-on-fn"]) == 1
        assert main(["screen", str(dirty)]) == 0
        err = capsys.readouterr().err
        assert "false negative" in err

    def test_synth_same_seed_same_digest(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["synth", "--seed", "9", "--images", "5", "--out", str(a)])
        main(["synth", "--seed", "9", "--images", "5", "--out", str(b)])
        assert InputTree(a).sha256() == InputTree(b).sha256()

    def test_synth_rewrite_leaves_no_file_of_the_old_cohort(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        assert main(["synth", "--images", "40", "--seed", "1",
                     "--out", str(cohort)]) == 0
        assert main(["synth", "--plant-counts", "37,9,1", "--seed", "3",
                     "--out", str(cohort)]) == 0
        assert len(list((cohort / "gt").iterdir())) == 16
        assert [p.name for p in tmp_path.iterdir()] == ["cohort"]
        capsys.readouterr()
        assert main(["evaluate", str(cohort), "--format", "csv"]) == 0
        rows = set(capsys.readouterr().out.splitlines())
        assert {"object,tp,fungal,37", "object,fp,fungal,9", "object,fn,fungal,1",
                "object,tp,artefact,10", "object,fp,artefact,0",
                "object,fn,artefact,0"} <= rows

    def test_synth_refuses_a_directory_that_is_not_a_cohort(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("keep me")
        assert main(["synth", "--images", "2", "--out", str(out)]) == 2
        assert "refusing to replace" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["notes.txt"]
        assert (out / "notes.txt").read_text() == "keep me"

    def test_split_writes_assignment(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "20", "--out", str(cohort)])
        out_file = tmp_path / "split.json"
        assert main(["split", str(cohort / "gt"), "--dims", "2048x2048",
                     "--out", str(out_file)]) == 0
        table = capsys.readouterr().out
        assert "stratum" in table
        payload = json.loads(out_file.read_text())
        assert set(payload) == {"seed", "train", "val", "test"}
        assert len(payload["train"]) + len(payload["val"]) \
            + len(payload["test"]) == 20

    def test_split_accepts_cohort_directory(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "20", "--out", str(cohort)])
        out_file = tmp_path / "split.json"
        assert main(["split", str(cohort), "--out", str(out_file)]) == 0
        from_cohort = json.loads(out_file.read_text())
        assert main(["split", str(cohort / "gt"), "--dims", "2048x2048",
                     "--out", str(out_file)]) == 0
        assert json.loads(out_file.read_text()) == from_cohort

    def test_split_rejects_bad_fractions(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "4", "--out", str(cohort)])
        capsys.readouterr()
        code = main(["split", str(cohort / "gt"), "--dims", "2048x2048",
                     "--fractions", "0.9,0.2,0.1"])
        assert code == 2
        assert "fractions" in capsys.readouterr().err

    def test_dims_flag_past_float_range_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:  # argparse rejects the value
            main(["evaluate", str(tmp_path), "--dims", f"{10**400}x2048"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "expected WIDTHxHEIGHT" in err
        assert "(dims too large to convert to a float)" in err
        assert re.search("[0-9]{17}", err) is None

    def test_validate_manifest_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(REFERENCE_PROTOCOL.to_json())
        assert main(["validate-manifest", str(good)]) == 0

        doc = json.loads(REFERENCE_PROTOCOL.to_json())
        doc["initial_lr"] = 5e-3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate-manifest", str(bad)]) == 1
        assert "MISMATCH" in capsys.readouterr().out

        broken = tmp_path / "broken.json"
        broken.write_text("{")
        assert main(["validate-manifest", str(broken)]) == 2

        capsys.readouterr()
        # The field check names the field; the JSON reader, which refuses
        # NaN and infinities before any field is checked, names the token
        # and the field that holds it.
        for field, value, named in (
                ("initial_lr", "1" + "0" * 400, "initial_lr"),
                ("initial_lr", "NaN", "'initial_lr' is not a finite number (NaN)"),
                ("scale_jitter", "Infinity",
                 "'scale_jitter' is not a finite number (Infinity)"),
                ("scale_jitter", "-1e400",
                 "'scale_jitter' is not a finite number (-1e400)")):
            text = REFERENCE_PROTOCOL.to_json().replace(
                f'"{field}": {getattr(REFERENCE_PROTOCOL, field)!r}',
                f'"{field}": {value}')
            assert value in text
            broken.write_text(text)
            assert main(["validate-manifest", str(broken)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert named in err

    def test_missing_input_is_toolkit_error(self, tmp_path, capsys):
        assert main(["evaluate", str(tmp_path / "nowhere")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_output_dir_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KOHEVAL_OUTPUT_DIR", str(tmp_path / "outs"))
        assert main(["synth", "--plant-counts", "1,1,0"]) == 0
        assert (tmp_path / "outs" / "synth-cohort" / "dims.json").is_file()

    def test_curves_svg_written(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        main(["synth", "--plant-counts", "3,1,1", "--out", str(cohort)])
        svg_file = tmp_path / "curves.svg"
        assert main(["evaluate", str(cohort),
                     "--curves", str(svg_file)]) == 0
        assert svg_file.read_text().startswith("<svg")

    def test_explicit_prediction_dir_overrides_cohort(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        main(["synth", "--plant-counts", "3,2,1", "--out", str(cohort)])
        empty = tmp_path / "empty-preds"
        empty.mkdir()
        capsys.readouterr()
        assert main(["evaluate", str(cohort), str(empty),
                     "--format", "json"]) == 0
        report = parse_report(capsys.readouterr().out)
        fungal = report["object_metrics"]["per_class"]["fungal"]
        assert fungal["tp"] == 0
        assert fungal["recall"] == 0.0

    def test_evaluate_reruns_write_identical_reports(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "12", "--seed", "5", "--out", str(cohort)])
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        assert main(["evaluate", str(cohort), "--out", str(first)]) == 0
        assert main(["evaluate", str(cohort), "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    @staticmethod
    def _parses_of_each_file(cohort, capsys, monkeypatch, ending):
        """Files read through the batch and per-file parser calls of one
        `evaluate` with an explicit pred dir, after rewriting every label
        file with ``ending`` line ends; and how many files are empty."""
        main(["synth", "--images", "20", "--out", str(cohort)])
        empty = Counter()
        for kind in ("gt", "pred"):
            for label in cohort.glob(f"{kind}/*.txt"):
                label.write_bytes(label.read_bytes().replace(b"\n", ending))
                empty[kind] += not label.stat().st_size
        parsed = Counter()
        for name in ("parse_gt_file", "parse_pred_file"):
            original = getattr(koheval.dataset, name)

            def counting(*args, _name=name, _original=original):
                parsed[_name] += 1
                return _original(*args)
            monkeypatch.setattr(koheval.dataset, name, counting)
        original_batch = koheval.dataset._canonical_boxes

        def counting_batch(datas, dims, with_confidence):
            boxes = original_batch(datas, dims, with_confidence)
            parsed["pred batch" if with_confidence else "gt batch"] += sum(
                b is not None for b in boxes)
            return boxes
        monkeypatch.setattr(koheval.dataset, "_canonical_boxes", counting_batch)
        capsys.readouterr()
        assert main(["evaluate", str(cohort), str(cohort / "pred"),
                     "--format", "json"]) == 0
        inputs = parse_report(capsys.readouterr().out)["inputs"]
        assert inputs == {
            "ground_truth": {"path": str(cohort / "gt"),
                             "sha256": InputTree(cohort / "gt").sha256()},
            "predictions": {"path": str(cohort / "pred"),
                            "sha256": InputTree(cohort / "pred").sha256()},
        }
        return +parsed, empty

    def test_explicit_prediction_dir_parses_each_file_once(self, tmp_path,
                                                          capsys, monkeypatch):
        # Files in the spelling synth writes all go through the batch.
        parsed, _ = self._parses_of_each_file(tmp_path / "cohort", capsys,
                                              monkeypatch, b"\n")
        assert parsed == {"gt batch": 20, "pred batch": 20}

    def test_explicit_crlf_prediction_dir_parses_each_file_once(self, tmp_path,
                                                                capsys, monkeypatch):
        # CRLF files go through the per-file parsers; an empty file has no
        # line to end and stays in the batch.
        parsed, empty = self._parses_of_each_file(tmp_path / "cohort", capsys,
                                                  monkeypatch, b"\r\n")
        assert parsed == +Counter({
            "parse_gt_file": 20 - empty["gt"], "gt batch": empty["gt"],
            "parse_pred_file": 20 - empty["pred"], "pred batch": empty["pred"]})

    @pytest.mark.parametrize("dims", ['{"width": 2048}',
                                      '{"width": 2048, "height": "2048"}',
                                      '{"width": 2048, "height": 20.5}',
                                      '[2048, 2048]', '{"width":',
                                      '{"width": 1' + "0" * 400 + ', "height": 2048}',
                                      '{"width": -1' + "0" * 300 + ', "height": 2048}',
                                      '{"width": 0, "height": 2048}'])
    def test_bad_dims_json_exits_2_without_traceback(self, tmp_path, dims):
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "2", "--out", str(cohort)])
        (cohort / "dims.json").write_text(dims)
        src = Path(koheval.__file__).parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "koheval.cli", "evaluate", str(cohort)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") \
            and result.stderr.count("\n") == 1
        assert str(cohort / "dims.json") in result.stderr
        assert not re.search("[0-9]{16}", result.stderr)

    def test_cohort_without_pred_dir_has_no_detections(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        main(["synth", "--plant-matrix", "3,0,1,2", "--out", str(cohort)])
        for pred in (cohort / "pred").iterdir():
            pred.unlink()
        (cohort / "pred").rmdir()
        capsys.readouterr()
        assert main(["evaluate", str(cohort), "--format", "json"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert report["inputs"] == {"cohort": {"path": str(cohort),
                                               "sha256": InputTree(cohort).sha256()}}
        for metrics in report["object_metrics"]["per_class"].values():
            assert (metrics["tp"], metrics["fp"]) == (0, 0) and metrics["fn"] > 0
        assert main(["screen", str(cohort), "--format", "json"]) == 0
        matrix = parse_report(capsys.readouterr().out)["screening"]["matrix"]
        assert matrix == {"tp": 0, "fn": 3, "fp": 0, "tn": 3}
        assert main(["screen", str(cohort), "--fail-on-fn"]) == 1

    def test_evaluate_and_screen_open_each_input_file_once(self, tmp_path,
                                                           capsys, monkeypatch):
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "12", "--seed", "5", "--out", str(cohort)])
        opened = Counter()

        def counting(real_open):
            def counting_open(file, *args, **kwargs):
                opened[os.path.abspath(file)] += 1
                return real_open(file, *args, **kwargs)
            return counting_open
        # read_text reads through os.open, sha256_file through open.
        monkeypatch.setattr(builtins, "open", counting(builtins.open))
        monkeypatch.setattr(os, "open", counting(os.open))
        monkeypatch.chdir(cohort)
        every = {str(p) for p in cohort.rglob("*") if p.is_file()}
        labels = {f for f in every if "/gt/" in f or "/pred/" in f}
        assert len(every) == 26 and len(labels) == 24
        out = tmp_path / "report.json"
        for argv, inputs in (
                ([str(cohort)], every),
                (["."], every),
                ([str(cohort), str(cohort / "pred")],
                 labels | {str(cohort / "dims.json")})):
            for command in ("evaluate", "screen"):
                opened.clear()
                assert main([command, *argv, "--out", str(out)]) == 0
                assert {f: n for f, n in opened.items() if f in every} \
                    == dict.fromkeys(inputs, 1)

    def test_symlinked_pred_dir_is_read_but_not_hashed(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "8", "--seed", "5", "--out", str(cohort)])
        capsys.readouterr()
        assert main(["evaluate", str(cohort), "--format", "json"]) == 0
        real = parse_report(capsys.readouterr().out)
        (cohort / "pred").rename(tmp_path / "model-output")
        os.symlink(tmp_path / "model-output", cohort / "pred")
        assert main(["evaluate", str(cohort), "--format", "json"]) == 0
        linked = parse_report(capsys.readouterr().out)
        assert linked["object_metrics"] == real["object_metrics"]
        assert linked["inputs"]["cohort"]["sha256"] == _rglob_sha256_path(cohort)

    def test_inputs_digests_match_the_pinned_ones(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "12", "--seed", "5", "--out", str(cohort)])
        out = tmp_path / "report.json"
        assert main(["evaluate", str(cohort), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["inputs"] == {"cohort": {
            "path": str(cohort),
            "sha256": "6d28e8663a22e1fcbc2ae55a01c74a525f1b422e876dda33817a3daa78b212b2"}}
        assert main(["evaluate", str(cohort), str(cohort / "pred"),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["inputs"] == {
            "ground_truth": {
                "path": str(cohort / "gt"),
                "sha256": "53fd835e137aadf1eb5ace7c73d0277e3cac26589f6b193827137689867d8166"},
            "predictions": {
                "path": str(cohort / "pred"),
                "sha256": "0c7cc2812c36727d9768f3ee7b9ed34c74ab1dc62a868924db7b837916aa14c5"}}

    def test_non_utf8_file_names_are_digested_as_their_bytes(self, tmp_path,
                                                           capsys):
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "4", "--seed", "1", "--out", str(cohort)])
        capsys.readouterr()
        try:  # a note beside dims.json
            Path(os.fsdecode(os.fsencode(cohort) + b"/notes-\xff")).write_bytes(b"")
        except OSError:
            pytest.skip("the file system refuses a name that is not UTF-8")
        out = tmp_path / "report.json"
        for command in ("evaluate", "screen"):
            assert main([command, str(cohort), "--out", str(out)]) == 0
            digest = json.loads(out.read_text())["inputs"]["cohort"]["sha256"]
            assert digest == _rglob_sha256_path(cohort)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("folder", ["gt", "pred"])
    def test_label_file_name_not_utf8_exits_2_naming_it(self, tmp_path, monkeypatch,
                                                        folder):
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "4", "--seed", "1", "--out", str(cohort)])
        try:  # an image without boxes, whose id no strict output can print
            Path(os.fsdecode(os.fsencode(cohort / folder) + b"/\xff.txt")).write_bytes(b"")
        except OSError:
            pytest.skip("the file system refuses a name that is not UTF-8")
        monkeypatch.setenv("PYTHONIOENCODING", "utf-8:strict")
        result = _run_koheval("screen", cohort)
        assert result.returncode == 2
        assert result.stderr == \
            f"error: {cohort / folder}/\\xff.txt: file name is not UTF-8\n"

    @pytest.mark.parametrize("path, value", [
        ("images.0.width", True),
        ("images.0.height", False),
        ("annotations.0.bbox", ["a", 1, 5, 5]),
        ("annotations.0.bbox", [None, 1, 5, 5]),
        ("images", 5),
        ("images", None),
        ("annotations", None),
        ("categories", 5),
        ("images.0.id", [1]),
        ("annotations.0.category_id", {"id": 1}),
        ("images.0.id", True),
        ("annotations.0.image_id", None),
        ("images.0.file_name", 5),
        ("annotations.0.bbox", ["0", 0, 0.5, 0.5]),
        ("annotations.0.bbox", [True, 0, 0.5, 0.5]),
        # Echoed ids and bboxes with 60 and 400 digits: each run is cut.
        pytest.param("images", [{"id": 10**59, "file_name": name, "width": 64,
                                 "height": 64} for name in ("a.png", "b.png")],
                     id="duplicate-id-60-digits"),
        pytest.param("annotations.0.image_id", 10**59, id="unknown-image-60-digits"),
        pytest.param("annotations.0.category_id", 10**399,
                     id="unknown-category-400-digits"),
        pytest.param("images.0", {"id": 10**59, "file_name": "", "width": 64,
                                  "height": 64}, id="empty-file-name-60-digits"),
        pytest.param("images.0", {"id": 10**399, "file_name": "a.png", "width": 1.5,
                                  "height": 64}, id="float-width-400-digits"),
        pytest.param("annotations.0.bbox", [0, 0, -(10**59), 1],
                     id="non-positive-bbox-60-digits"),
        pytest.param("annotations.0.bbox", [0, 0, 10**399, 1],
                     id="bbox-too-large-400-digits"),
        pytest.param("annotations.0.bbox", [10**59, 0, 1],
                     id="three-number-bbox-60-digits"),
    ], ids=str)
    def test_bad_coco_document_exits_2_without_traceback(self, tmp_path, mutate,
                                                         path, value):
        document = {
            "images": [{"id": 1, "file_name": "a.png", "width": 64, "height": 64}],
            "annotations": [{"id": 1, "image_id": 1, "category_id": 1,
                             "bbox": [0, 0, 0.5, 0.5]}],
            "categories": [{"id": 1, "name": "fungal"}],
        }
        coco, preds = tmp_path / "coco.json", tmp_path / "pred"
        preds.mkdir()
        coco.write_text(json.dumps(document))
        assert _run_koheval("evaluate", coco, preds).returncode == 0
        mutate(document, path, value)
        coco.write_text(json.dumps(document))
        result = _run_koheval("evaluate", coco, preds)
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith("error: ") \
            and result.stderr.count("\n") == 1
        assert not re.search("[0-9]{16}", result.stderr)

    def test_missing_explicit_prediction_dir_exits_2(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        main(["synth", "--plant-counts", "2,1,0", "--out", str(cohort)])
        capsys.readouterr()
        for command in ("evaluate", "screen"):
            assert main([command, str(cohort), str(tmp_path / "nowhere")]) == 2
            assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["split", "FIFO"], "ground-truth path FIFO is not a regular file or directory"),
        (["evaluate", "FIFO", "cohort/pred"],
         "ground-truth path FIFO is not a regular file or directory"),
        (["evaluate", "cohort/gt", "FIFO", "--dims", "2048x2048"],
         "prediction path FIFO is not a directory"),
        (["evaluate", "cohort/gt", "cohort/dims.json", "--dims", "2048x2048"],
         "prediction path cohort/dims.json is not a directory"),
        (["split", "ghost"], "ground-truth path ghost does not exist"),
    ], ids=["split-fifo", "evaluate-fifo-gt", "evaluate-fifo-pred",
            "evaluate-file-pred", "split-missing"])
    def test_existing_path_of_the_wrong_type_exits_2_and_says_so(
            self, tmp_path, capsys, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        main(["synth", "--images", "3", "--out", "cohort"])
        os.mkfifo("FIFO")

        def guard(real_open):  # opening a FIFO would block
            def guarded_open(file, *args, **kwargs):
                assert os.path.basename(str(file)) != "FIFO", "opened the FIFO"
                return real_open(file, *args, **kwargs)
            return guarded_open
        monkeypatch.setattr(os, "open", guard(os.open))
        monkeypatch.setattr(builtins, "open", guard(builtins.open))
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_pred_is_refused_before_any_file_is_read(self, tmp_path,
                                                              capsys, monkeypatch):
        labels = tmp_path / "cohort" / "gt"
        main(["synth", "--images", "6", "--out", str(labels.parent)])
        capsys.readouterr()
        opened = []

        def counting(real_open):
            def counting_open(file, *args, **kwargs):
                opened.append(os.path.abspath(file))
                return real_open(file, *args, **kwargs)
            return counting_open
        monkeypatch.setattr(builtins, "open", counting(builtins.open))
        monkeypatch.setattr(os, "open", counting(os.open))
        for command in ("evaluate", "screen"):
            assert main([command, str(labels), "--dims", "2048x2048"]) == 2
            assert capsys.readouterr().err == (
                "error: a prediction directory is required unless the "
                "ground-truth path is a cohort directory\n")
        assert not [f for f in opened if f.startswith(str(tmp_path))]

    def test_crlf_label_files_read_like_lf(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "6", "--out", str(cohort)])
        capsys.readouterr()
        assert main(["evaluate", str(cohort), "--format", "json"]) == 0
        lf = parse_report(capsys.readouterr().out)
        for label in [*cohort.glob("gt/*.txt"), *cohort.glob("pred/*.txt")]:
            label.write_bytes(label.read_bytes().replace(b"\n", b"\r\n"))
        assert main(["evaluate", str(cohort), "--format", "json"]) == 0
        crlf = parse_report(capsys.readouterr().out)
        assert crlf["object_metrics"] == lf["object_metrics"]

    @pytest.mark.parametrize("folder", ["gt", "pred"])
    def test_non_utf8_label_file_exits_2_without_traceback(self, tmp_path, folder):
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "3", "--out", str(cohort)])
        bad = cohort / folder / "synth-0001.txt"
        bad.write_bytes(b"\xff\xfe0\x00 \x00" + bad.read_bytes())
        src = Path(koheval.__file__).parent.parent
        result = subprocess.run(
            [sys.executable, "-m", "koheval.cli", "evaluate", str(cohort)],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith(f"error: {bad}: not UTF-8") \
            and result.stderr.count("\n") == 1

    def test_screen_has_no_iou_flag(self, tmp_path, capsys):
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "2", "--out", str(cohort)])
        with pytest.raises(SystemExit) as exit_:  # argparse refuses the flag
            main(["screen", str(cohort), "--iou", "0.7"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --iou 0.7" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["dangling symlink", "directory", "fifo"])
    @pytest.mark.parametrize("folder, command", [("gt", "screen"), ("pred", "evaluate")])
    def test_non_regular_label_entry_exits_2_and_names_it(
            self, tmp_path, capsys, monkeypatch, kind, folder, command):
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "4", "--seed", "2", "--out", str(cohort)])
        # Without its prediction file, an image whose ground truth is
        # skipped would leave no trace.
        (cohort / "pred" / "synth-0001.txt").unlink()
        entry = cohort / folder / "synth-0001.txt"
        entry.unlink(missing_ok=True)
        if kind == "dangling symlink":
            os.symlink(tmp_path / "ghost", entry)
        elif kind == "directory":
            entry.mkdir()
        else:
            os.mkfifo(entry)
        real_open = os.open

        def guarded_open(file, *args, **kwargs):
            assert os.fspath(file) != str(entry), "opened a non-regular entry"
            return real_open(file, *args, **kwargs)
        monkeypatch.setattr(os, "open", guarded_open)  # a FIFO would block
        capsys.readouterr()
        assert main([command, str(cohort)]) == 2
        assert capsys.readouterr().err == f"error: {entry}: not a regular file\n"


@pytest.mark.parametrize("argv", [
    ["split", "COHORT", "--fractions", "a,b,c"],
    ["split", "COHORT", "--fractions", "nan,0.5,0.5"],
    ["split", "COHORT", "--seed", "-1"],
    ["synth", "--seed", "-1"],
    ["synth", "--plant-counts", "1,2"],
    ["synth", "--plant-counts=--5,1,1"],
    ["synth", "--plant-counts", "\u00b2,1,1"],
    ["synth", "--plant-matrix", "1,2,3"],
    ["synth", "--plant-counts", "99999999999999999999,0,0"],
    ["synth", "--plant-matrix", "0,0,0,99999999999999999999"],
    ["synth", "--plant-counts", "1000000000000000,0,0"],
    ["synth", "--plant-counts", "9" * 60 + ",1"],
    ["synth", "--plant-matrix", "9" * 60 + ",1"],
    ["split", "COHORT", "--fractions", "9" * 60 + ",x"],
], ids=" ".join)
def test_bad_split_and_synth_numbers_exit_2(tmp_path, monkeypatch, capsys, argv):
    cohort, outs = tmp_path / "cohort", tmp_path / "outs"
    main(["synth", "--images", "4", "--out", str(cohort)])
    capsys.readouterr()
    monkeypatch.setenv("KOHEVAL_OUTPUT_DIR", str(outs))
    assert main([str(cohort) if arg == "COHORT" else arg for arg in argv]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not re.search("[0-9]{16}", out + err)
    assert not outs.exists()


# SHA-256 of the `evaluate --out` report and the `--curves` SVG. The run
# starts in the cohort's parent, so the report's input path is "cohort".
_SPARSE = ["--images", "40", "--seed", "5"]
_SPARSE_SVG = "672c268d6da8350b8577458a3756d77ee1bda5293fc242eec85635acd7540d3c"
_PLANTED = ["--plant-counts", "37,9,1", "--seed", "3"]
_PLANTED_SVG = "1c5f3b9472d12c851877ffaad968205e98f7cb502ba68461c7ed9eb2b5305a52"


@pytest.mark.parametrize("synth, interp, report_sha256, svg_sha256", [
    (_SPARSE, "101",
     "63d8ef9df30a496306c3971034d4a86cd8d6488b77d807111a1bfdddd385d583", _SPARSE_SVG),
    (_SPARSE, "all",
     "e2a7ea9bbd524af199bfb4159c8cee6a96b90b80cc60822931f6718b5a1fc0b6", _SPARSE_SVG),
    (_PLANTED, "101",
     "58e94930723d7a8479bf2f392571c6e9e90f82f245e574e6894a90336216dabf", _PLANTED_SVG),
    (_PLANTED, "all",
     "2b8d1a7ccc7d9cdc29526c529027496a7f6e1b7d5b45f2a611155d240daa8e0e", _PLANTED_SVG),
], ids=["sparse-101", "sparse-all", "planted-101", "planted-all"])
def test_evaluate_output_bytes_match_the_pinned_ones(tmp_path, monkeypatch, synth,
                                                     interp, report_sha256, svg_sha256):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", *synth, "--out", "cohort"]) == 0
    assert main(["evaluate", "cohort", "--interp", interp, "--out", "report.json",
                 "--curves", "curves.svg"]) == 0
    assert hashlib.sha256(Path("report.json").read_bytes()).hexdigest() == report_sha256
    assert hashlib.sha256(Path("curves.svg").read_bytes()).hexdigest() == svg_sha256


# SHA-256 of the `screen --out` report and the `screen --format csv` stdout,
# on a cohort with two missed positives and a false alarm, run from its parent.
def test_screen_output_bytes_match_the_pinned_ones(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--plant-matrix", "5,2,1,6", "--seed", "1",
                 "--out", "cohort"]) == 0
    capsys.readouterr()
    assert main(["screen", "cohort", "--format", "csv", "--out", "report.json"]) == 0
    written = {"report": Path("report.json").read_bytes(),
               "csv": capsys.readouterr().out.encode()}
    assert {name: hashlib.sha256(data).hexdigest() for name, data in written.items()} == {
        "report": "892a18c52f5058eeb06cb8ec2489cbf30ea58eb3bd9dfae1e763b6949a08f687",
        "csv": "9cb0db7845a06ad66c450dade27e8a70f557ead8f9d778883459917e4f311da1"}


# SHA-256 of JSON outputs the tests above do not pin, from the same cohort
# as the evaluate pins.
def test_json_writer_output_bytes_match_the_pinned_ones(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["synth", *_SPARSE, "--out", "cohort"]) == 0
    assert main(["split", "cohort", "--seed", "7", "--out", "split.json"]) == 0
    written = {"split": Path("split.json").read_bytes(),
               "coco": format_coco_json(read_cohort("cohort")).encode(),
               "manifest": REFERENCE_PROTOCOL.to_json().encode()}
    assert {name: hashlib.sha256(data).hexdigest() for name, data in written.items()} == {
        "split": "07eea0a98339086a4c4e5c94008fb6b347969536e291b99cb92ff624d4729285",
        "coco": "c13e88d182a41c0c598d3ada35921158e51fbf90a4df59095f17354800e0b5a7",
        "manifest": "dae378a639693fd1103d9fec02010941a054da4bfeeb143d9c96bb2da5a68522"}


@pytest.mark.parametrize("nesting", ["[" * 100_000,
                                     '{"a": ' * 100_000 + "1" + "}" * 100_000],
                         ids=["lists", "objects"])
@pytest.mark.parametrize("command", ["report", "validate-manifest", "evaluate",
                                     "screen"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command, nesting):
    cohort, deep = tmp_path / "cohort", tmp_path / "deep.json"
    main(["synth", "--images", "2", "--out", str(cohort)])
    capsys.readouterr()
    argv = {"report": [deep], "validate-manifest": [deep],
            "evaluate": [deep, cohort / "pred"], "screen": [cohort]}[command]
    (cohort / "dims.json" if command == "screen" else deep).write_text(nesting)
    assert main([command, *map(str, argv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "not valid JSON" in captured.err


@pytest.mark.parametrize("path, value", [
    ("object_metrics.macro", _MISSING),
    ("object_metrics.per_class", _MISSING),
    ("object_metrics.per_class", []),
    ("object_metrics.macro", 0.5),
    ("object_metrics.per_class.fungal.ap50", _MISSING),
    ("object_metrics.per_class.fungal.tp", "4"),
    ("object_metrics.per_class.fungal", None),
    ("object_metrics", []),
    ("screening.rates", _MISSING),
    ("screening.matrix", 3),
    ("screening.matrix.tn", _MISSING),
    ("screening.rates.f1", _MISSING),
    ("screening.false_negative_ids", "img-1"),
    ("screening", "ok"),
    ("inputs", []),
    ("inputs.cohort.sha256", _MISSING),
    ("operating_point.conf_threshold", "0.25"),
    ("operating_point.iou_threshold", _MISSING),
    ("operating_point", _MISSING),
    ("interpolation", 101),
    ("interpolation", _MISSING),
    ("tool", _MISSING),
    ("tool", "koheval"),
    ("manifest", []),
], ids=str)
def test_report_with_malformed_block_exits_2(sample_report, tmp_path, capsys,
                                             mutate, path, value):
    report = json.loads(dump_json({**sample_report, "inputs": {
        "cohort": {"path": "cohort", "sha256": "0" * 64}}}))
    mutate(report, path, value)
    stored = tmp_path / "report.json"
    stored.write_text(json.dumps(report))
    for fmt in ("table", "csv", "json"):
        assert main(["report", str(stored), "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: report: ") and err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_report_holding_only_schema_version_exits_2(tmp_path, capsys, fmt):
    stored = tmp_path / "report.json"
    stored.write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
    assert main(["report", str(stored), "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: report: ") \
        and captured.err.count("\n") == 1


def test_non_utf8_report_exits_2(tmp_path, capsys):
    stored = tmp_path / "report.json"
    stored.write_bytes(b"\xff\xfe{}")
    assert main(["report", str(stored)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {stored}: not UTF-8")


@pytest.mark.parametrize("command", ["report", "validate-manifest"])
def test_directory_given_as_a_file_exits_2_naming_it(tmp_path, capsys, command):
    assert main([command, str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert str(tmp_path) in captured.err


_COCO = ('{"images": [{"id": 1, "file_name": "a.png", "width": 64, "height": 64}], '
         '"annotations": [{"id": 1, "image_id": 1, "category_id": 1, "bbox": BBOX}], '
         '"categories": [{"id": 1, "name": "fungal"}]}')


@pytest.mark.parametrize("command, text, message", [
    ("evaluate", _COCO.replace("BBOX", "[0, 0, NaN, 1]"),
     "COCO document: 'bbox' is not a finite number (NaN)"),
    ("evaluate", _COCO.replace('"width": 64', '"width": -Infinity'),
     "COCO document: 'width' is not a finite number (-Infinity)"),
    ("evaluate", _COCO.replace("BBOX", "[0, 0, 1e400, 1]"),
     "COCO document: 'bbox' is not a finite number (1e400)"),
    # No key holds it directly or in a list: the decoder's message stays.
    ("evaluate", _COCO.replace("BBOX", "[[NaN], 0, 1, 1]"),
     "COCO document: not valid JSON: NaN is not a finite number"),
    ("validate-manifest", "[Infinity]",
     "manifest: not valid JSON: Infinity is not a finite number"),
    # The decoder's message is kept, its digit run cut.
    ("validate-manifest", '{"a": [[1e99999999999999999999]]}',
     "manifest: not valid JSON: 1e99999999... is not a finite number"),
], ids=["coco-bbox", "coco-width", "coco-1e400", "coco-nested-list",
        "top-level-list", "nested-long-exponent"])
def test_non_finite_number_names_the_field_holding_it(tmp_path, capsys, command,
                                                      text, message):
    document, preds = tmp_path / "doc.json", tmp_path / "pred"
    preds.mkdir()
    document.write_text(text)
    argv = [str(document)] + ([str(preds)] if command == "evaluate" else [])
    assert main([command, *argv]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_report_holding_a_non_finite_number_exits_2(sample_report, tmp_path,
                                                    capsys, value):
    report = {**sample_report, "inputs": {
        "cohort": {"path": "cohort", "sha256": "0" * 64}}}
    report["object_metrics"]["per_class"]["fungal"]["ap50"] = "@"
    stored = tmp_path / "report.json"
    stored.write_text(dump_json(report).replace('"@"', value))
    for fmt in ("table", "csv", "json"):
        assert main(["report", str(stored), "--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err == f"error: report: 'ap50' is not a finite number ({value})\n"
    # The writer refuses what the reader refuses.
    report["object_metrics"]["per_class"]["fungal"]["ap50"] = float(value)
    with pytest.raises(ValueError):
        dump_json(report)


def test_report_with_every_block_renders(sample_report, tmp_path, capsys):
    report = {**sample_report, "inputs": {
        "cohort": {"path": "cohort", "sha256": "0" * 64}}}
    stored = tmp_path / "report.json"
    stored.write_text(dump_json(report))
    for fmt in ("table", "csv", "json"):
        assert main(["report", str(stored), "--format", fmt]) == 0
    assert capsys.readouterr().err == ""
