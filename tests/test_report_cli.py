import builtins
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import koheval
import koheval.dataset
import koheval.metrics
from koheval.cli import main
from koheval.dataset import (
    InputTree,
    attach_predictions,
    dump_json,
    format_coco_json,
    load_ground_truth,
    read_cohort,
)
from koheval.errors import SchemaError
from koheval.geometry import ARTEFACT, FUNGAL, ImageDims
from koheval.manifest import REFERENCE_PROTOCOL
from koheval.metrics import OperatingPoint, PRCurve, evaluate_detections, pr_curve
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
# A box per kind of label file that crosses the frame's right edge.
CLIPPED = {"gt": b"1 0.990000 0.500000 0.100000 0.100000\n",
           "pred": b"0 0.990000 0.500000 0.100000 0.100000 0.700000\n"}

# Trees of files (bytes), FIFOs (None) and directories (dicts), named so that
# names sort around the separator ("gt" < "gt-y" < "gt.x", and "gt/" before
# "gt-y"), with dotfiles and a directory that may be named x.txt.
ENTRY_NAMES = st.sampled_from(["gt", "gt-y", "gt.x", "x.txt", "a.txt", ".d", ".d.txt",
                               "b"])
TREES = st.recursive(st.binary(max_size=4) | st.none(),
                     lambda children: st.dictionaries(ENTRY_NAMES, children, max_size=4),
                     max_leaves=12)
# Symlinks (str): "file" links to a file outside the tree, "ghost" dangles.
# A directory of files alone (regular files and links to files), which the
# walk lists by name only, and the entry that puts a directory on the other
# path: a subdirectory, a FIFO, a dangling link, or a directory named x.txt.
FILES_ALONE = st.dictionaries(ENTRY_NAMES, st.binary(max_size=4) | st.just("file"),
                              max_size=4)
OTHER_ENTRY = st.sampled_from([("gt", {"b.txt": b"b"}), ("a.txt", None),
                               (".d.txt", "ghost"), ("x.txt", {"a.txt": b"a"})])


# Label directories: image ids that sort apart from their names ("a-b.txt"
# before "a.txt", id "a" before "a-b"); each image's ground truth and, or
# not, its predictions, in the batch's spelling, in CRLF, in exponent
# spelling (which the per-line parser reads) or empty; and, per folder,
# entries beside the labels: a subdirectory "<id>.d" holding a file, which
# sorts between "<id>-b.txt" and "<id>.txt" and so splits the folder's files
# into runs, or a note "<id>.md".
LABEL_IDS = st.text(alphabet="ab-.", min_size=1, max_size=3).filter(
    lambda image_id: image_id not in (".", ".."))
GT_TEXTS = [b"", b"0 0.500000 0.500000 0.100000 0.100000\n",
            b"1 0.25 0.25 0.1 0.1\r\n0 0.75 0.75 0.2 0.2\r\n", b"1 5e-1 0.5 0.2 0.2\n"]
PRED_TEXTS = [b"", b"0 0.500000 0.500000 0.100000 0.100000 0.900000\n",
              b"1 0.25 0.25 0.1 0.1 0.5\r\n", b"0 5e-1 0.5 0.2 0.2 1e-1\n"]
LABEL_EXTRAS = st.dictionaries(LABEL_IDS, st.sampled_from(["d", "md"]), max_size=3)


def _make_tree(directory, tree, outside=None):
    # A str entry is a symlink to that name in the directory ``outside``.
    for name, entry in tree.items():
        if isinstance(entry, dict):
            (directory / name).mkdir()
            _make_tree(directory / name, entry, outside)
        elif entry is None:
            os.mkfifo(directory / name)
        elif isinstance(entry, str):
            os.symlink(outside / entry, directory / name)
        else:
            (directory / name).write_bytes(entry)


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
        assert ("gt", "linked.txt") in expected
        assert not any(parts[0] == "linked-dir" for parts in expected)
        for path in (root, root / "gt", root / "gt.x", root / "dims.json"):
            assert InputTree(path).sha256() == _rglob_sha256_path(path)

    @settings(derandomize=True, deadline=None, max_examples=80)
    @given(st.dictionaries(ENTRY_NAMES, TREES, max_size=5), FILES_ALONE,
           st.dictionaries(ENTRY_NAMES, TREES | st.sampled_from(["file", "ghost"]),
                           max_size=3), OTHER_ENTRY)
    @example({"gt": {"a.txt": b"a", "x.txt": {"b.txt": b"b"}, "z.txt": b"z"},
              "gt-y": b"y", "gt.x": {".d": b"d"}, ".hidden": b"h"},
             {"a.txt": b"a", "b": "file"}, {"b": "file"}, ("a.txt", None))
    def test_walk_of_a_generated_tree_equals_the_rglob_reference(
            self, tmp_path_factory, tree, alone, mixed, other):
        # A directory's files come in runs between its subdirectories: the
        # walk must not list them before or after a subdirectory's files.
        # Every tree has a directory of files alone, "pred", one of them a
        # link, and one with another entry, "pred.x".
        outside = tmp_path_factory.mktemp("outside")
        (outside / "file").write_bytes(b"linked")
        root = tmp_path_factory.mktemp("tree")
        _make_tree(root, {**tree, "pred": {**alone, "linked.txt": "file"},
                          "pred.x": dict([*mixed.items(), other])}, outside)
        for path in [root, *(p for p in sorted(root.rglob("*")) if p.is_dir())]:
            assert InputTree(path).sha256() == _rglob_sha256_path(path)

    def test_an_unhashed_tree_hashes_every_file(self, tmp_path):
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "6", "--seed", "1", "--out", str(cohort)])
        (cohort / "gt" / "notes.md").write_text("n")
        # A tree no reader read through hashes every file from disk; one
        # read in part hashes the rest from disk.
        for path in (cohort, cohort / "gt", cohort / "dims.json"):
            assert InputTree(path).sha256() == _rglob_sha256_path(path)
        for path, tree in ((cohort, InputTree(cohort)),
                           (cohort / "gt", InputTree(cohort / "gt"))):
            load_ground_truth(cohort / "gt", ImageDims(2048, 2048), tree)
            assert tree.sha256() == _rglob_sha256_path(path)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.dictionaries(LABEL_IDS, st.tuples(st.sampled_from(GT_TEXTS), st.none()
                                                | st.sampled_from(PRED_TEXTS)),
                           min_size=1, max_size=6),
           LABEL_EXTRAS, LABEL_EXTRAS)
    @example({"a": (GT_TEXTS[1], PRED_TEXTS[1]), "a-b": (GT_TEXTS[3], None),
              "b": (GT_TEXTS[0], PRED_TEXTS[3])}, {"a": "d"}, {"a-b": "md", "a": "d"})
    def test_digests_the_readers_keep_equal_the_rglob_reference(
            self, tmp_path_factory, images, gt_extras, pred_extras):
        # Readers fill each label file's slot by its position in its
        # directory, through the .txt filter and the id re-sort; sha256()
        # reads from disk only the files no reader opened.
        root = tmp_path_factory.mktemp("cohort")
        (root / "dims.json").write_text('{"width": 640, "height": 480}')
        for folder, extras in (("gt", gt_extras), ("pred", pred_extras)):
            (root / folder).mkdir()
            for image_id, kind in extras.items():
                if kind == "d":
                    (root / folder / f"{image_id}.d").mkdir()
                    (root / folder / f"{image_id}.d" / "inner.txt").write_bytes(b"i")
                else:
                    (root / folder / f"{image_id}.md").write_bytes(b"m")
        for image_id, (gt, pred) in images.items():
            (root / "gt" / f"{image_id}.txt").write_bytes(gt)
            if pred is not None:
                (root / "pred" / f"{image_id}.txt").write_bytes(pred)
        read = {str(p) for p in [root / "dims.json", *root.glob("*/*.txt")]}
        unread = {str(p) for p in root.rglob("*") if p.is_file()} - read
        dims = ImageDims(640, 480)
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as patch:
            warnings.simplefilter("ignore")  # boxes clipped to the frame
            from_disk = []
            real = koheval.dataset.sha256_file
            patch.setattr(koheval.dataset, "sha256_file",
                          lambda path: from_disk.append(str(path)) or real(path))
            tree = InputTree(root)
            read_cohort(root, tree)
            assert tree.sha256() == _rglob_sha256_path(root)
            assert sorted(from_disk) == sorted(unread)
            gt, pred = InputTree(root / "gt"), InputTree(root / "pred")
            attach_predictions(load_ground_truth(root / "gt", dims, gt),
                               root / "pred", pred)
            for folder, walked in (("gt", gt), ("pred", pred)):
                from_disk.clear()
                assert walked.sha256() == _rglob_sha256_path(root / folder)
                assert sorted(from_disk) == sorted(
                    p for p in unread if Path(p).parent.parent.name == folder
                    or Path(p).parent.name == folder)


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

    def test_split_hashes_no_file(self, tmp_path, monkeypatch, capsys):
        # split reports no digests, so it computes none; evaluate does.
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "20", "--out", str(cohort)])
        real, calls = hashlib.sha256, []

        def counted(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(hashlib, "sha256", counted)
        for argv in (["split", str(cohort)],
                     ["split", str(cohort / "gt"), "--dims", "2048x2048"]):
            assert main([*argv, "--out", str(tmp_path / "split.json")]) == 0
        assert calls == []
        assert main(["evaluate", str(cohort / "gt"), str(cohort / "pred"),
                     "--dims", "2048x2048"]) == 0
        assert calls

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

    def test_validate_manifest_exit_codes(self, tmp_path, capsys, monkeypatch):
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

        # A lone surrogate, which strict UTF-8 output cannot print, is refused.
        doc["optimizer"] = "\udcff"
        broken.write_text(json.dumps(doc))
        monkeypatch.setenv("PYTHONIOENCODING", "utf-8:strict")
        result = _run_koheval("validate-manifest", broken)
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr == "error: manifest: '\\udcff' is not valid Unicode text\n"

    def test_missing_input_is_toolkit_error(self, tmp_path, capsys):
        assert main(["evaluate", str(tmp_path / "nowhere")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_output_dir_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KOHEVAL_OUTPUT_DIR", str(tmp_path / "outs"))
        assert main(["synth", "--plant-counts", "1,1,0"]) == 0
        assert (tmp_path / "outs" / "synth-cohort" / "dims.json").is_file()

    def test_curves_svg_written(self, tmp_path, capsys, monkeypatch):
        cohort = tmp_path / "cohort"
        main(["synth", "--plant-counts", "3,1,1", "--out", str(cohort)])
        svg_file = tmp_path / "curves.svg"
        real_match, calls = koheval.metrics._match, []

        def counted(*args):
            calls.append(args)
            return real_match(*args)
        monkeypatch.setattr(koheval.metrics, "_match", counted)
        assert main(["evaluate", str(cohort),
                     "--curves", str(svg_file)]) == 0
        assert svg_file.read_text().startswith("<svg")
        assert len(calls) == 1  # the report and the SVG read one matching pass

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
    def _parses_of_each_file(cohort, capsys, monkeypatch, rewrite):
        """Files read through the batch and per-file parser calls of one
        `evaluate` with an explicit pred dir, after rewriting every label
        file's bytes with ``rewrite(kind, data)``."""
        main(["synth", "--images", "20", "--out", str(cohort)])
        for kind in ("gt", "pred"):
            for label in cohort.glob(f"{kind}/*.txt"):
                label.write_bytes(rewrite(kind, label.read_bytes()))
        parsed = Counter()
        for name in ("parse_gt_file", "parse_pred_file"):
            original = getattr(koheval.dataset, name)

            def counting(*args, _name=name, _original=original):
                parsed[_name] += 1
                return _original(*args)
            monkeypatch.setattr(koheval.dataset, name, counting)
        original_batch = koheval.dataset._canonical_boxes

        def counting_batch(datas, dims, with_confidence):
            batch = original_batch(datas, dims, with_confidence)
            if batch is not None:  # the batch read every file
                parsed["pred batch" if with_confidence else "gt batch"] += len(datas)
            return batch
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
        return +parsed

    def test_explicit_prediction_dir_parses_each_file_once(self, tmp_path,
                                                          capsys, monkeypatch):
        # Files in the spelling synth writes all go through the batch.
        parsed = self._parses_of_each_file(tmp_path / "cohort", capsys, monkeypatch,
                                           lambda kind, data: data)
        assert parsed == {"gt batch": 20, "pred batch": 20}

    @pytest.mark.parametrize("rewrite", [
        lambda kind, data: data.replace(b"\n", b"\r\n"),
        lambda kind, data: data.replace(b" ", b"\t"),
        lambda kind, data: data + CLIPPED[kind],
    ], ids=["crlf", "tabs", "clipped"])
    def test_explicit_crlf_prediction_dir_parses_each_file_once(self, tmp_path, capsys,
                                                                monkeypatch, rewrite):
        # CRLF and tab-separated files, and files with a box to clip, all go
        # through the batch too.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the clipped boxes warn
            parsed = self._parses_of_each_file(tmp_path / "cohort", capsys,
                                               monkeypatch, rewrite)
        assert parsed == {"gt batch": 20, "pred batch": 20}

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
        handles = {}  # directory handle -> the path it was opened with

        def counting(real_open):
            def counting_open(file, *args, **kwargs):
                # A name opened relative to a directory handle (dir_fd=)
                # counts as the file in that directory.
                path = os.path.abspath(os.path.join(
                    handles.get(kwargs.get("dir_fd"), ""), file))
                opened[path] += 1
                result = real_open(file, *args, **kwargs)
                if isinstance(result, int) and os.path.isdir(path):
                    handles[result] = path
                return result
            return counting_open
        # Label files are read through os.open, relative to a handle of
        # their directory; read_text reads through os.open, sha256_file
        # through open.
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

    def test_evaluate_and_screen_hash_each_input_file_once(self, tmp_path,
                                                           capsys, monkeypatch):
        # The readers hash the bytes they read; sha256_file reads only the
        # files no reader opened (truth.json, a note), each once.
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "12", "--seed", "5", "--out", str(cohort)])
        (cohort / "pred" / "notes.md").write_text("a note\n")
        every = {p for p in cohort.rglob("*") if p.is_file()}
        labels = {p for p in every if p.parent.name in ("gt", "pred")} \
            - {cohort / "pred" / "notes.md"}
        assert (cohort / "truth.json") in every and len(labels) == 24
        coco = tmp_path / "coco.json"
        coco.write_text(format_coco_json(read_cohort(cohort)))
        made, from_disk = [], []
        real_sha256, real_file = hashlib.sha256, koheval.dataset.sha256_file

        def counting_sha256(*args):
            made.append(args)
            return real_sha256(*args)

        def counting_file(path):
            from_disk.append(Path(path))
            return real_file(path)
        monkeypatch.setattr(hashlib, "sha256", counting_sha256)
        monkeypatch.setattr(koheval.dataset, "sha256_file", counting_file)
        cohort_files = (every, labels | {cohort / "dims.json"}, 1)
        pred_dir_files = ({p for p in every if p.parent.name in ("gt", "pred")},
                          labels, 2)
        for argv, (hashed, read, trees) in (
                ([str(cohort)], cohort_files),
                ([str(cohort), str(cohort / "pred")], pred_dir_files)):
            for command in ("evaluate", "screen"):
                made.clear()
                from_disk.clear()
                assert main([command, *argv, "--out", str(tmp_path / "r.json")]) == 0
                # One hash per file, and one per input tree for its digest.
                assert len(made) == len(hashed) + trees
                assert sorted(from_disk) == sorted(hashed - read)
                assert sorted(args[0] for args in made if args) \
                    == sorted(p.read_bytes() for p in read)
        # The library readers, given no tree, walk one that digests nothing.
        made.clear()
        from_disk.clear()
        read_cohort(cohort)
        attach_predictions(load_ground_truth(cohort / "gt", ImageDims(2048, 2048)),
                           cohort / "pred")
        load_ground_truth(coco)
        assert made == [] and from_disk == []

    def test_reading_hashes_nothing_and_sha256_hashes_what_was_read(
            self, tmp_path, monkeypatch):
        # Readers keep the bytes they read in the caller's tree and hash
        # nothing; tree.sha256() hashes each file read once, the tree once,
        # and reads from disk only the files no reader read.
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "12", "--seed", "5", "--out", str(cohort)])
        (cohort / "pred" / "notes.md").write_text("a note\n")
        read = [cohort / "dims.json", *cohort.glob("gt/*.txt"), *cohort.glob("pred/*.txt")]
        assert len(read) == 25
        expected = _rglob_sha256_path(cohort)
        made, from_disk = [], []
        real_sha256, real_file = hashlib.sha256, koheval.dataset.sha256_file
        monkeypatch.setattr(hashlib, "sha256",
                            lambda *args: made.append(args) or real_sha256(*args))
        monkeypatch.setattr(koheval.dataset, "sha256_file",
                            lambda path: from_disk.append(Path(path)) or real_file(path))
        tree = InputTree(cohort)
        read_cohort(cohort, tree)
        assert made == [] and from_disk == []
        assert tree.sha256() == expected
        assert sorted(from_disk) == [cohort / "pred" / "notes.md", cohort / "truth.json"]
        # sha256_file makes one hash of its own per file.
        assert len(made) == len(read) + 1 + len(from_disk)
        assert sorted(args[0] for args in made if args) \
            == sorted(path.read_bytes() for path in read)

    @pytest.mark.parametrize("command", ["evaluate", "screen"])
    @pytest.mark.parametrize("kind", ["gt", "pred"])
    @pytest.mark.parametrize("replacement, reason", [
        (None, "No such file or directory"), ("directory", "Is a directory")])
    def test_label_file_changed_after_the_walk_is_named_by_its_path(
            self, tmp_path, capsys, monkeypatch, command, kind, replacement, reason):
        # The file is opened by its name relative to a handle of its
        # directory; the error still names its full path, and neither the
        # handle nor the file's descriptor is left open.
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "6", "--seed", "5", "--out", str(cohort)])
        changed = cohort / kind / "synth-0002.txt"
        walk = InputTree.__init__

        def walk_then_change(self, *args, **kwargs):
            walk(self, *args, **kwargs)
            if changed.is_file():
                changed.unlink()
                if replacement == "directory":
                    changed.mkdir()
        monkeypatch.setattr(InputTree, "__init__", walk_then_change)
        descriptors = Path("/proc/self/fd")
        before = sorted(os.listdir(descriptors)) if descriptors.is_dir() else None
        capsys.readouterr()
        assert main([command, str(cohort)]) == 2
        assert capsys.readouterr().err == f"error: {changed}: {reason}\n"
        if before is not None:
            assert sorted(os.listdir(descriptors)) == before

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

    @pytest.mark.parametrize("folder", ["gt", "pred"])
    @pytest.mark.parametrize("name, shown", [("odd\nname", "odd\\x0aname"),
                                             ("odd\tname", "odd\\x09name"),
                                             ("odd\x7fname", "odd\\x7fname")])
    def test_label_file_name_with_a_control_character_exits_2_naming_it(
            self, tmp_path, capsys, folder, name, shown):
        # Such an id would split a line of output: an error's, or the list
        # of ids on the --fail-on-fn gate's line.
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "4", "--seed", "1", "--out", str(cohort)])
        (cohort / folder / f"{name}.txt").write_bytes(b"")
        capsys.readouterr()
        for command in ["evaluate", "screen"] + (["split"] if folder == "gt" else []):
            assert main([command, str(cohort), "--out", str(tmp_path / "out.json")]) == 2
            assert capsys.readouterr().err == (f"error: {cohort / folder}/{shown}.txt: "
                                               "file name holds a control character\n")
        assert not (tmp_path / "out.json").exists()

    def test_coco_file_name_with_a_control_character_exits_2(self, tmp_path, capsys):
        coco, pred = tmp_path / "coco.json", tmp_path / "pred"
        coco.write_text(json.dumps({
            "images": [{"id": 1, "file_name": "odd\nname.png", "width": 64,
                        "height": 64}], "annotations": [], "categories": []}))
        pred.mkdir()
        for argv in (["split", str(coco)], ["evaluate", str(coco), str(pred)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == \
                "error: image 1: file_name holds a control character\n"

    def test_a_missing_gt_path_with_a_control_character_is_shown_escaped(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        os.mkdir("pred")
        for argv in (["split", "no\nsuch", "--dims", "64x64"],
                     ["evaluate", "no\nsuch", "pred", "--dims", "64x64"]):
            assert main(argv) == 2
            assert capsys.readouterr().err == \
                "error: ground-truth path no\\x0asuch does not exist\n"

    @pytest.mark.parametrize("command, folder", [("evaluate", "gt"), ("evaluate", "pred"),
                                                 ("split", "gt")])
    @pytest.mark.parametrize("other", ["fifo", "directory"])
    @pytest.mark.parametrize("first", ["not utf-8", "other"])
    def test_the_first_of_two_bad_label_entries_in_id_order_is_named(
            self, tmp_path, capsys, command, folder, other, first):
        # The listing is checked as a whole; the entry named must still be
        # the first offender in id order, as an id-by-id check names it.
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "4", "--seed", "1", "--out", str(cohort)])
        bad_name = (b"a" if first == "not utf-8" else b"z") + b"\xff.txt"
        try:  # "a\xff" sorts before "m", "z\xff" after it
            Path(os.fsdecode(os.fsencode(cohort / folder) + b"/" + bad_name)).write_bytes(b"")
        except OSError:
            pytest.skip("the file system refuses a name that is not UTF-8")
        entry = cohort / folder / "m.txt"
        if other == "fifo":
            os.mkfifo(entry)
        else:
            entry.mkdir()
        capsys.readouterr()
        assert main([command, str(cohort)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cohort / folder}/{bad_name[0]:c}\\xff.txt: file name is not UTF-8\n"
            if first == "not utf-8" else f"error: {entry}: not a regular file\n")

    def test_names_that_are_not_utf8_are_shown_escaped(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cohort = os.fsdecode(b"c\xff")
        try:
            os.mkdir(cohort)
        except OSError:
            pytest.skip("the file system refuses a name that is not UTF-8")
        os.rmdir(cohort)
        monkeypatch.setenv("PYTHONIOENCODING", "utf-8:strict")
        synth = _run_koheval("synth", "--images", "3", "--out", cohort)
        assert (synth.returncode, synth.stderr) == (0, "")
        assert synth.stdout.startswith("written: c\\xff (3 images;")
        split = _run_koheval("split", cohort, "--out", os.fsdecode(b"\xff.json"))
        assert split.returncode == 0 and "Traceback" not in split.stderr
        assert split.stdout.endswith("written: \\xff.json\n")
        evaluate = _run_koheval("evaluate", cohort, "--out", "run.json")
        assert (evaluate.returncode, evaluate.stderr) == (0, "")
        assert "  cohort: c\\xff  sha256 " in evaluate.stdout
        stored = json.loads(Path("run.json").read_text())
        assert stored["inputs"]["cohort"]["path"] == "c\\xff"
        report = _run_koheval("report", "run.json")
        assert (report.returncode, report.stdout) == (0, evaluate.stdout)
        # The same name stored as a lone surrogate is refused.
        Path("run.json").write_text(dump_json(stored).replace("c\\\\xff", "c\\udcff"))
        report = _run_koheval("report", "run.json")
        assert (report.returncode, report.stdout) == (2, "")
        assert report.stderr == "error: report: 'c\\udcff' is not valid Unicode text\n"

    def test_input_paths_that_are_not_utf8_are_shown_escaped_in_errors(
            self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cohort, missing = os.fsdecode(b"d\xff"), os.fsdecode(b"nope\xff")
        try:
            os.mkdir(cohort)
        except OSError:
            pytest.skip("the file system refuses a name that is not UTF-8")
        os.rmdir(cohort)
        assert main(["synth", "--images", "3", "--out", cohort]) == 0
        os.symlink("ghost", os.path.join(cohort, "pred", "zz.txt"))  # dangling
        monkeypatch.setenv("PYTHONIOENCODING", "utf-8:strict")
        pred = os.path.join(cohort, "pred")
        for argv, message in (
                (["evaluate", cohort], "d\\xff/pred/zz.txt: not a regular file"),
                (["evaluate", cohort, missing],
                 "prediction directory nope\\xff does not exist"),
                (["split", missing, "--dims", "64x64"],
                 "ground-truth path nope\\xff does not exist"),
                (["split", pred, "--dims", "64x64"],
                 "no .txt annotation files under d\\xff/pred")):
            if argv[1] == pred:
                shutil.rmtree(pred)
                os.mkdir(pred)
            result = _run_koheval(*argv)
            assert (result.returncode, result.stdout) == (2, "")
            assert result.stderr == f"error: {message}\n"

    @pytest.mark.parametrize("option", ["--out", "--curves"])
    def test_a_failed_write_names_its_target_escaped(self, tmp_path, monkeypatch,
                                                     option):
        monkeypatch.chdir(tmp_path)
        target = os.fsdecode(b"d\xff")
        try:
            os.mkdir(target)  # renaming a file onto a directory fails
        except OSError:
            pytest.skip("the file system refuses a name that is not UTF-8")
        assert main(["synth", "--images", "3", "--out", "c"]) == 0
        monkeypatch.setenv("PYTHONIOENCODING", "utf-8:strict")
        for _ in range(2):  # the same message each run: no temporary file's name
            result = _run_koheval("evaluate", "c", option, target)
            assert (result.returncode, result.stderr) == (
                2, "error: d\\xff: Is a directory\n")
        assert sorted(os.listdir()) == ["c", target]  # no temporary file left
        assert os.listdir(target) == []

    def test_a_report_written_onto_a_directory_exits_2(self, tmp_path, monkeypatch,
                                                       capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--images", "3", "--out", "c"]) == 0
        os.mkdir("target")
        capsys.readouterr()
        assert main(["evaluate", "c", "--out", "target"]) == 2
        assert capsys.readouterr().err == "error: target: Is a directory\n"
        assert sorted(os.listdir()) == ["c", "target"]  # no temporary file left
        assert os.listdir("target") == []

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
        # An image id that no strict output can print.
        pytest.param("images.0.file_name", "\udcff.png", id="file-name-lone-surrogate"),
    ], ids=str)
    def test_bad_coco_document_exits_2_without_traceback(self, tmp_path, monkeypatch,
                                                         mutate, path, value):
        monkeypatch.setenv("PYTHONIOENCODING", "utf-8:strict")
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


    @pytest.mark.parametrize("folder, command", [
        ("gt", "evaluate"), ("gt", "screen"), ("gt", "split"),
        ("pred", "evaluate"), ("pred", "screen")])
    def test_two_label_files_of_one_image_id_exit_2_naming_both(
            self, tmp_path, capsys, folder, command):
        # ".txt" and ".txt.txt" both have the Path.stem ".txt"; reading one
        # of them as the image would drop the other's boxes unseen.
        cohort = tmp_path / "cohort"
        main(["synth", "--images", "4", "--seed", "1", "--out", str(cohort)])
        box = "0 0.5 0.5 0.1 0.1" + " 0.9" * (folder == "pred") + "\n"
        (cohort / folder / ".txt").write_text(box)
        (cohort / folder / ".txt.txt").write_text("")
        capsys.readouterr()
        assert main([command, str(cohort)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cohort / folder}/.txt and {cohort / folder}/.txt.txt: "
            "duplicate image_id '.txt'\n")

    @pytest.mark.parametrize("folder", ["gt", "pred"])
    def test_label_names_x_txt_and_x_txt_txt_are_two_images(self, tmp_path, capsys,
                                                           folder):
        # Two negative images, then "x.txt" and "x.txt.txt" (ids "x" and
        # "x.txt"), each with a fungal box in ``folder`` and none in the other.
        cohort = tmp_path / "cohort"
        main(["synth", "--plant-matrix", "0,0,0,2", "--seed", "1", "--out", str(cohort)])
        for name in ("x.txt", "x.txt.txt"):
            (cohort / "gt" / name).write_text(
                "0 0.5 0.5 0.1 0.1\n" if folder == "gt" else "")
            if folder == "pred":
                (cohort / "pred" / name).write_text("0 0.5 0.5 0.1 0.1 0.9\n")
        missed, false = (2, 0) if folder == "gt" else (0, 2)
        capsys.readouterr()
        assert main(["screen", str(cohort), "--format", "json"]) == 0
        assert parse_report(capsys.readouterr().out)["screening"]["matrix"] == {
            "tp": 0, "fn": missed, "fp": false, "tn": 2}
        assert main(["evaluate", str(cohort), "--format", "json"]) == 0
        per_class = parse_report(capsys.readouterr().out)["object_metrics"]["per_class"]
        assert (per_class["fungal"]["fn"], per_class["fungal"]["fp"]) == (missed, false)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # strata of one image
            assert main(["split", str(cohort), "--out", str(tmp_path / "split.json")]) == 0
        split = json.loads((tmp_path / "split.json").read_text())
        assert sorted(split["train"] + split["val"] + split["test"]) == [
            "screen-0000", "screen-0001", "x", "x.txt"]


_REFUSED = [
    (["split", "COHORT", "--fractions", "a,b,c"],
     "--fractions must be comma-separated numbers, got 'a,b,c'"),
    (["split", "COHORT", "--fractions", "nan,0.5,0.5"],
     "fractions must be three non-negative values"),
    (["split", "COHORT", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["synth", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["synth", "--plant-counts", "1,2"],
     "expected 3 comma-separated integers for --plant-counts, got '1,2'"),
    (["synth", "--plant-counts=--5,1,1"],
     "expected 3 comma-separated integers for --plant-counts, got '--5,1,1'"),
    (["synth", "--plant-counts", "\u00b2,1,1"],
     "expected 3 comma-separated integers for --plant-counts, got '\u00b2,1,1'"),
    (["synth", "--plant-matrix", "1,2,3"],
     "expected 4 comma-separated integers for --plant-matrix, got '1,2,3'"),
    (["synth", "--plant-counts", "99999999999999999999,0,0"], "counts too large to plant"),
    (["synth", "--plant-matrix", "0,0,0,99999999999999999999"], "counts too large to plant"),
    (["synth", "--plant-counts", "1000000000000000,0,0"], "counts too large to plant"),
    (["synth", "--plant-counts", "9" * 60 + ",1"],
     "expected 3 comma-separated integers for --plant-counts, got '99999999...,1'"),
    (["synth", "--plant-matrix", "9" * 60 + ",1"],
     "expected 4 comma-separated integers for --plant-matrix, got '99999999...,1'"),
    (["split", "COHORT", "--fractions", "9" * 60 + ",x"],
     "--fractions must be comma-separated numbers, got '99999999...,x'"),
    (["synth", "--plant-counts", "1,0,0", "--plant-matrix", "1,0,0,1"],
     "--plant-counts and --plant-matrix are exclusive"),
    (["synth", "--images", "0"], "n_images must be at least 1"),
    (["synth", "--plant-matrix", "0,0,0,0"],
     "matrix cells must be non-negative and not all zero"),
    (["split", "EMPTY"], "cannot split an empty dataset"),
    (["split", "LABELS", "--dims", "64x64"], "no .txt annotation files under LABELS"),
]


@pytest.mark.parametrize("argv, message", _REFUSED,
                         ids=[" ".join(argv) for argv, _ in _REFUSED])
def test_refused_split_and_synth_requests_exit_2(tmp_path, monkeypatch, capsys,
                                                 argv, message):
    cohort, outs = tmp_path / "cohort", tmp_path / "outs"
    main(["synth", "--images", "4", "--out", str(cohort)])
    empty = tmp_path / "empty.json"  # a COCO document with no images
    empty.write_text('{"images": [], "annotations": [], "categories": []}')
    (tmp_path / "LABELS").mkdir()  # a label directory with no label file
    capsys.readouterr()
    monkeypatch.setenv("KOHEVAL_OUTPUT_DIR", str(outs))
    monkeypatch.chdir(tmp_path)
    paths = {"COHORT": str(cohort), "EMPTY": str(empty)}
    assert main([paths.get(arg, arg) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
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
    # The curves of the report's pass are those pr_curve makes on its own.
    records = sorted(read_cohort("cohort").records, key=lambda r: r.image_id)
    scenes = [(r.ground_truth, r.predictions) for r in records]
    for iou in (0.50, 0.70):
        curves = evaluate_detections(records, OperatingPoint(iou_threshold=iou)).curves
        assert list(curves) == [FUNGAL, ARTEFACT]  # both classes have ground truth
        for class_id, curve in curves.items():
            assert curve == pr_curve(scenes, class_id, iou)


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


# SHA-256 of the text table and the CSV of the report with every block, and
# of the `evaluate --format table` and `--format csv` stdout on the cohort of
# the evaluate pins, run from its parent.
def test_table_and_csv_bytes_match_the_pinned_ones(sample_report, tmp_path,
                                                   monkeypatch, capsys):
    report = {**sample_report, "inputs": {
        "cohort": {"path": "cohort", "sha256": "0" * 64}}}
    written = {"table": render_table(report), "csv": render_csv(report)}
    monkeypatch.chdir(tmp_path)
    assert main(["synth", *_SPARSE, "--out", "cohort"]) == 0
    for fmt in ("table", "csv"):
        capsys.readouterr()
        assert main(["evaluate", "cohort", "--format", fmt]) == 0
        written[f"evaluate-{fmt}"] = capsys.readouterr().out
    assert {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in written.items()} == {
        "table": "d0db612d2b279c6ee02fee6686e1f272e9f11fe4152d992508942eb31b76452f",
        "csv": "dbbd5eaac8e43d1d4a3bc3ca1d2a8add57051a625e4c18553d346f5990690d39",
        "evaluate-table": "010968baf458abc3fb3dd155fd6d621cdc7caa6d47a6a8470dd3dadd79b68f2a",
        "evaluate-csv": "77fcafd6320bcdef4e4170b14570134845a0bc9bc2d7438321bad0ae031c2d00"}


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
    ("screening.false_positive_ids", "img-1"),
    ("screening.false_positive_ids", [1]),
    ("screening.false_positive_ids", _MISSING),
    ("screening", "ok"),
    ("inputs", []),
    ("inputs.cohort.sha256", _MISSING),
    ("operating_point.conf_threshold", "0.25"),
    ("operating_point.iou_threshold", _MISSING),
    ("operating_point", _MISSING),
    ("interpolation", 101),
    ("interpolation", _MISSING),
    pytest.param("interpolation", "\udcff", id="interpolation-lone-surrogate"),
    ("tool", _MISSING),
    ("tool", "koheval"),
    ("manifest", []),
    ("manifest.epochs", [250]),
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
