"""Bad input files exit with code 2 and an error naming the file.

The CLI contract: malformed, non-finite, out-of-range or inconsistent input
gives exit code 2 and a `file:line` message, never a traceback, exit 1 or a
silent mis-parse.
"""

import contextlib
import io
import re
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from segdetect.bboxreg import collect_training_pairs
from segdetect.cli import main
from segdetect.dataset import Dataset, read_manifest, read_seg_scores_file
from segdetect.errors import InputError


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    """8-image synthetic world plus a model, a regressor and detections."""
    root = tmp_path_factory.mktemp("bad_input")
    assert main(["synth", "--out", str(root), "--seed", "0", "--images", "8"]) == 0
    common = ["--manifest", str(root / "manifest.txt"),
              "--config", str(root / "config.txt")]
    assert main(["train", *common, "--out", str(root / "model.txt")]) == 0
    assert main(["regress", "fit", *common, "--out", str(root / "reg.txt")]) == 0
    assert main(["detect", *common, "--model", str(root / "model.txt"),
                 "--out", str(root / "dets.csv")]) == 0
    return root


def _argv(root, command):
    common = ["--manifest", str(root / "manifest.txt"),
              "--config", str(root / "config.txt")]
    if command == "eval":
        return ["eval", *common, "--detections", str(root / "dets.csv"),
                "--out", str(root / "report.csv")]
    if command == "fit":
        return ["regress", "fit", *common, "--out", str(root / "reg2.txt")]
    argv = ["regress", "iterate", *common, "--model", str(root / "model.txt"),
            "--regressor", str(root / "reg.txt"), "--out", str(root / "refined.csv")]
    if command == "iterate-no-regressor":
        argv.remove("--regressor")
        argv.remove(str(root / "reg.txt"))
    return argv


def _set_field(lineno, index, value, sep=","):
    """Edit that replaces field `index` of line `lineno` (1-based)."""
    def edit(text):
        lines = text.splitlines()
        fields = lines[lineno - 1].split(sep)
        fields[index] = value
        lines[lineno - 1] = (sep or " ").join(fields)
        return "\n".join(lines) + "\n"
    return edit


def _replace(old, new):
    def edit(text):
        assert old in text
        return text.replace(old, new, 1)
    return edit


def _repeat_line(lineno):
    """Edit that writes line `lineno` (1-based) twice."""
    def edit(text):
        lines = text.splitlines(keepends=True)
        return "".join(lines[:lineno] + lines[lineno - 1:])
    return edit


def _config(key, value):
    return "config.txt", lambda text: re.sub(rf"(?m)^{key} .*$", f"{key} {value}", text)


# (id, file to edit, edit, command, regex the error must match)
CASES = [
    ("box-nan", "boxes.csv", _set_field(1, 2, "nan"), "iterate", r"boxes\.csv:1: "),
    # the boxes file loses a line whose feature rows the matrices keep
    ("boxes-line-dropped", "boxes.csv", lambda text: text.split("\n", 1)[1], "iterate",
     r"app\.feat: appearance matrix has \d+ rows, boxes file \S*boxes\.csv has \d+"),
    ("box-outside-image", "boxes.csv", _set_field(1, 4, "560.0"), "iterate",
     r"boxes\.csv:1: .*outside"),
    ("gt-outside-image", "gt.csv", _set_field(2, 5, "64.0"), "iterate",
     r"gt\.csv:2: .*outside"),
    ("gt-class-9", "gt.csv", _set_field(1, 1, "9"), "iterate",
     r"gt\.csv:1: ground truth with invalid class id 9"),
    ("seg-score-class-7", "seg_scores.csv", _set_field(1, 2, "7"), "iterate",
     r"seg_scores\.csv:1: segment score with invalid class id 7"),
    ("duplicate-box-id", "boxes.csv", _set_field(2, 1, "0"), "iterate",
     r"boxes\.csv:2: duplicate box id 0 in image img0000"),
    ("missing-seg-score", "seg_scores.csv", lambda text: text.split("\n", 1)[1],
     "iterate", r"seg_scores\.csv: missing score for segment 0 of img0000, class 1"),
    ("repeated-mask", "masks.txt", _repeat_line(1), "iterate",
     r"masks\.txt:2: duplicate segment id 0 in image img0000"),
    # synth worlds keep every segment (min_segment_pixels 0), so an empty one is kept
    ("empty-kept-mask", "masks.txt", _set_field(1, 4, "-", None), "iterate",
     r"masks\.txt:1: segment 0 of img0000 is empty"),
    # each bad run of a 64x64 mask, including one past int32 and malformed pairs
    *[(f"mask-run-{what}", "masks.txt", _set_field(1, 4, runs, None), "iterate",
       r"masks\.txt:1: ")
      for what, runs in [("overlapping", "0:5,3:4"), ("unsorted", "10:2,0:2"),
                         ("past-end", "4090:7"), ("zero-length", "0:0"),
                         ("huge", "99999999999999999999:1"),
                         ("three-fields", "3:4:5"), ("one-field", "3")]],
    ("repeated-seg-score", "seg_scores.csv", _repeat_line(1), "iterate",
     r"seg_scores\.csv:2: duplicate score for segment 0 of img0000, class 1"),
    ("image-zero-width", "manifest.txt", _replace("img0000 64 64", "img0000 0 64"),
     "iterate", r"manifest\.txt:\d+: .*width"),
    # 2**31 pixels, the count a mask may not reach
    ("image-2**31-pixels", "manifest.txt", _replace("img0000 64 64", "img0000 65536 32768"),
     "iterate", r"manifest\.txt:5: image img0000 needs .*below 2\*\*31"),
    ("class-name-path-separator", "manifest.txt", _replace("class class1\n", "class a/b\n"),
     "iterate", r"manifest\.txt:2: .*a/b"),
    ("class-name-repeated", "manifest.txt", _replace("class class2\n", "class class1\n"),
     "iterate", r"manifest\.txt:3: .*class1"),
    ("image-id-repeated", "manifest.txt", _repeat_line(10), "iterate",
     r"manifest\.txt:11: duplicate image id img0005"),
    *[(f"no-regression-entry-{command}", "manifest.txt", _replace("regression reg.feat\n", ""),
       command, r"manifest\.txt: missing regression entry") for command in ("iterate", "fit")],
    ("manifest-repeated-boxes", "manifest.txt",
     _replace("boxes boxes.csv\n", "boxes boxes.csv\nboxes gt.csv\n"),
     "iterate", r"manifest\.txt:\d+: .*boxes"),
    ("missing-gt-file", "manifest.txt", _replace("ground_truth gt.csv",
                                                 "ground_truth no_such_gt.csv"),
     "iterate", r"no_such_gt\.csv"),
    ("model-detector-0", "model.txt", _replace("detector 1\n", "detector 0\n"),
     "iterate", r"model\.txt:7: "),
    ("model-duplicate-detector", "model.txt", _replace("detector 2\n", "detector 1\n"),
     "iterate", r"model\.txt:12: .*detector"),
    ("model-detector-x", "model.txt", _replace("detector 1\n", "detector x\n"),
     "iterate", r"model\.txt:7: "),
    ("model-header-no-value", "model.txt", _replace("d_app 16\n", "d_app\n"),
     "iterate", r"model\.txt:5: .*d_app"),
    ("model-repeated-header-key", "model.txt",
     _replace("n_classes 3\n", "n_classes 3\nn_classes 2\n"),
     "iterate", r"model\.txt:3: .*n_classes"),
    # a config caps grid_k at 16, and so does a model header
    ("model-grid_k-17", "model.txt", _replace("grid_k 2\n", "grid_k 17\n"), "iterate",
     r"model\.txt: bad model: grid_k must be in \[1, 16\], got 17"),
    # checked against the detector blocks without a list of 10**12 ids
    ("model-n_classes-1e12", "model.txt", _replace("n_classes 3\n", "n_classes 1000000000000\n"),
     "iterate", r"model\.txt: bad model: need detector blocks 1\.\.1000000000000, got"),
    ("model-unknown-header-key", "model.txt", _replace("grid_k 2\n", "grid_k 2\ngrid_kk 5\n"),
     "iterate", r"model\.txt:4: .*grid_kk"),
    ("model-missing-header-key", "model.txt", _replace("d_ctx 8\n", ""), "iterate",
     r"model\.txt: no d_ctx header line"),
    ("regressor-unknown-header-key", "reg.txt", _replace("ridge 1.0\n", "ridge 1.0\nridgee 7\n"),
     "iterate", r"reg\.txt:4: .*ridgee"),
    ("regressor-nan-weight", "reg.txt", _replace("\nw ", "\nw nan "), "iterate",
     r"reg\.txt:6: .*non-finite"),
    ("regressor-d_reg-mismatch", "reg.txt", _replace("d_reg 5\n", "d_reg 99\n"),
     "iterate", r"reg\.txt: .*d_reg"),
    ("detections-nan-score", "dets.csv", _set_field(1, 2, "nan"), "eval",
     r"dets\.csv:1: .*non-finite"),
    ("detections-class-9", "dets.csv", _set_field(1, 1, "9"), "eval",
     r"dets\.csv:1: detection with invalid class id 9"),
    ("detections-unknown-image", "dets.csv", _set_field(1, 0, "img9999"), "eval",
     r"dets\.csv:1: detection of image img9999, which the manifest does not list"),
    ("iterate-without-regressor", None, None, "iterate-no-regressor", r"--regressor"),
    ("config-repeated-key", "config.txt", lambda text: text + "epochs 2\n", "iterate",
     r"config\.txt:\d+: .*epochs"),
    # config files written before the thread pools were removed end in this line
    ("config-old-threads-line", "config.txt", lambda text: text + "threads 0\n", "iterate",
     r"config\.txt:\d+: .*threads"),
    *[(f"config-{key}-{value}", *_config(key, value), "iterate",
       rf"config\.txt:\d+: .*{key}")
      for key, value in [("batch_size", 0), ("nms_iou", -5), ("top_k", -3),
                         ("epochs", -1), ("eval_iou", 0), ("eta0", 0),
                         ("change_thresh", 2), ("lambda_bias", "nan")]],
    # a block of 2 * 100000**2 + 4 floats per pair would not fit in memory
    ("config-grid_k-100000", *_config("grid_k", 100000), "iterate",
     r"config\.txt:\d+: grid_k must be in"),
]


@pytest.mark.parametrize("name,edit,command,expect",
                         [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_bad_input_exits_2_naming_the_file(world, tmp_path, capsys,
                                           name, edit, command, expect):
    root = tmp_path / "w"
    shutil.copytree(world, root)
    if name:
        path = root / name
        path.write_text(edit(path.read_text()))
    assert main(_argv(root, command)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert re.search(expect, err), err


@pytest.mark.parametrize("rows,cols,expect", [
    (2 ** 63, 0, r"app\.feat:0: 9223372036854775808x0 header"),
    (0, 2 ** 63, r"app\.feat:0: 0x9223372036854775808 header"),
    (2 ** 60, 0, r"app\.feat:0: 1152921504606846976x0 header"),
    (0, 2 ** 64 - 1, r"app\.feat:0: 0x18446744073709551615 header"),
    # numpy takes a dimension below 2**60; the boxes file's row count rejects it
    (2 ** 60 - 1, 0, r"app\.feat: appearance matrix has 1152921504606846975 rows"),
    (0, 2 ** 60 - 1, r"app\.feat: appearance matrix has 0 rows"),
], ids=["2**63x0", "0x2**63", "2**60x0", "0x2**64-1", "2**60-1x0", "0x2**60-1"])
def test_feature_header_numpy_cannot_shape_exits_2(world, tmp_path, capsys, rows, cols,
                                                   expect):
    """A zero dimension passes the payload length check (0 bytes) however large
    the other one is; numpy refuses an array whose dimension times 8 bytes
    passes 2**63 - 1, even with no elements."""
    root = tmp_path / "w"
    shutil.copytree(world, root)
    (root / "app.feat").write_bytes(b"SDMF" + struct.pack("<I", 1)
                                    + struct.pack("<QQ", rows, cols))
    assert main(["train", "--manifest", str(root / "manifest.txt"),
                 "--config", str(root / "config.txt"),
                 "--out", str(tmp_path / "model.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and re.search(expect, err), err


def test_test_manifest_keeps_its_own_scores_and_checks_every_line(world, tmp_path,
                                                                   capsys):
    """The split manifests share one scores file; each keeps only its images'."""
    dataset = Dataset(read_manifest(world / "manifest_test.txt"), min_segment_pixels=0)
    sizes = {image_id: (w, h) for image_id, w, h in read_manifest(world / "manifest.txt").images}
    rows = read_seg_scores_file(world / "seg_scores.csv", sizes, dataset.n_classes)
    own = {key: score for key, score in rows.items() if key[0] in dataset.images}
    kept = {(rec.image_id, mask.segment_id, c): score for rec in dataset.images.values()
            for mask, row in zip(rec.masks, rec.seg_scores.tolist())
            for c, score in enumerate(row, 1)}
    assert kept == own and len(own) < len(rows)
    root = tmp_path / "w"
    shutil.copytree(world, root)
    lines = (root / "seg_scores.csv").read_text().splitlines()
    n = max(k for k, line in enumerate(lines, 1)
            if line.split(",")[0] not in dataset.images)
    (root / "seg_scores.csv").write_text(_set_field(n, 3, "nan")("\n".join(lines)))
    assert main(["train", "--manifest", str(root / "manifest_test.txt"),
                 "--config", str(root / "config.txt"),
                 "--out", str(tmp_path / "model.txt")]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"seg_scores\.csv:{n}: .*non-finite", err), err


def test_test_manifest_builds_only_its_own_masks_and_checks_every_run(world, tmp_path,
                                                                     capsys, monkeypatch):
    """The split manifests share one masks file; each builds only its images' masks."""
    from segdetect.masks import SegmentMask
    built = []
    init = SegmentMask.__init__

    def counted(self, image_id, *args):
        built.append(image_id)
        init(self, image_id, *args)

    monkeypatch.setattr(SegmentMask, "__init__", counted)
    dataset = Dataset(read_manifest(world / "manifest_test.txt"), min_segment_pixels=0)
    lines = (world / "masks.txt").read_text().splitlines()
    assert sorted(built) == sorted(line.split()[0] for line in lines
                                   if line.split()[0] in dataset.images)
    assert len(built) < len(lines)
    monkeypatch.undo()
    root = tmp_path / "w"
    shutil.copytree(world, root)
    n = max(k for k, line in enumerate(lines, 1)
            if line.split()[0] not in dataset.images)
    (root / "masks.txt").write_text(_set_field(n, 4, "10:2,0:2", None)("\n".join(lines)))
    assert main(["train", "--manifest", str(root / "manifest_test.txt"),
                 "--config", str(root / "config.txt"),
                 "--out", str(tmp_path / "model.txt")]) == 2
    err = capsys.readouterr().err
    assert re.search(rf"masks\.txt:{n}: bad run \(0,2\)", err), err


def test_huge_image_without_masks_exits_2_naming_the_manifest(world, tmp_path, capsys):
    """An image with no masks escapes the mask dims check; its size bound still holds."""
    root = tmp_path / "w"
    shutil.copytree(world, root)
    manifest = root / "manifest.txt"
    manifest.write_text(_replace("img0000 64 64", f"img0000 {10 ** 22} 64")(
        manifest.read_text()))
    masks = root / "masks.txt"
    masks.write_text("".join(line + "\n" for line in masks.read_text().splitlines()
                             if not line.startswith("img0000 ")))
    boxes = root / "boxes.csv"
    boxes.write_text(_set_field(1, 4, "1e21")(boxes.read_text()))
    assert main(["detect", "--manifest", str(manifest), "--config", str(root / "config.txt"),
                 "--model", str(root / "model.txt"), "--out", str(root / "d.csv")]) == 2
    err = capsys.readouterr().err
    assert re.search(r"manifest\.txt:5: image img0000 needs .*below 2\*\*31", err), err


@pytest.mark.filterwarnings("error")
def test_overflowing_regressor_exits_3_without_traceback(world, tmp_path, capsys):
    """Finite weights of 1e308 overflow the targets: a numerical error, not a crash."""
    root = tmp_path / "w"
    shutil.copytree(world, root)

    def huge(line):
        key, *values = line.split()
        return " ".join([key] + ["1e308"] * len(values)) if key in ("w", "intercepts") else line

    lines = (root / "reg.txt").read_text().splitlines()
    (root / "reg.txt").write_text("".join(huge(line) + "\n" for line in lines))
    assert main(_argv(root, "iterate")) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: image ") and "regressor" in err, err
    assert "Traceback" not in err and not (root / "refined.csv").exists()


def _synth_and_fit(tmp_path, seed, images):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", str(seed),
                 "--images", str(images)]) == 0
    return data, main(["regress", "fit", "--manifest", str(data / "manifest_train.txt"),
                       "--config", str(data / "config.txt"),
                       "--out", str(tmp_path / "reg.txt")])


def test_regress_fit_names_the_class_with_too_few_pairs(tmp_path, capsys, caplog):
    """Seed 3 leaves class 3 with 2 pairs at reg_pair_iou 0.6, under d_reg + 1.

    The class is skipped with a warning, and the other classes are fit.
    """
    _, code = _synth_and_fit(tmp_path, 3, 6)
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert len(warnings) == 1 and warnings[0].startswith("class 3: need at least 6 pairs, got 2")
    classes = [line for line in (tmp_path / "reg.txt").read_text().splitlines()
               if line.startswith("class ")]
    assert classes == ["class 1", "class 2"]


def test_refine_only_clips_the_boxes_of_a_class_with_too_few_pairs(tmp_path):
    from segdetect.boxes import Box, clip_box
    from segdetect.cli import _load_regressor
    data, code = _synth_and_fit(tmp_path, 3, 6)
    assert code == 0
    regressor = _load_regressor(tmp_path / "reg.txt")
    box, row = Box(-3.5, 2.2, 70.4, 60.0), [0.3, -1.0, 2.0, 0.5, 1.5]
    assert regressor.refine(3, row, box, 64, 48) == clip_box(box, 64, 48)
    assert regressor.refine(2, row, box, 64, 48) != clip_box(box, 64, 48)


def test_regress_fit_exits_2_when_no_class_has_enough_pairs(tmp_path, capsys):
    """Seed 3 with 1 image leaves only class 2, with 4 pairs: nothing can be fit."""
    _, code = _synth_and_fit(tmp_path, 3, 1)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no class has the 6 regression pairs a fit needs"), err
    assert "Traceback" not in err and not (tmp_path / "reg.txt").exists()


def test_regress_fit_exits_2_when_no_pair_reaches_reg_pair_iou(tmp_path, capsys):
    """Jittered proposals never match a ground-truth box exactly, as IoU 1 asks."""
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--images", "4", "--box-jitter", "0.2"]) == 0
    config = data / "config.txt"
    config.write_text(re.sub(r"(?m)^reg_pair_iou .*$", "reg_pair_iou 1.0", config.read_text()))
    manifest = data / "manifest.txt"
    assert collect_training_pairs(Dataset(read_manifest(manifest), min_segment_pixels=0),
                                  1.0) == {}
    assert main(["regress", "fit", "--manifest", str(manifest), "--config", str(config),
                 "--out", str(tmp_path / "reg.txt")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no class has the 6 regression pairs a fit needs"), err
    assert not (tmp_path / "reg.txt").exists()


# command -> argv writing its output to `bad`, given the world and a scratch dir
UNWRITABLE = {
    "train --out": lambda common, root, tmp, bad: ["train", *common, "--out", bad],
    "train --log": lambda common, root, tmp, bad: [
        "train", *common, "--out", str(tmp / "model.txt"), "--log", bad],
    "detect --out": lambda common, root, tmp, bad: [
        "detect", *common, "--model", str(root / "model.txt"), "--out", bad],
    "eval --curves": lambda common, root, tmp, bad: [
        "eval", *common, "--detections", str(root / "dets.csv"),
        "--out", str(tmp / "report.csv"), "--curves", bad],
    "synth --out": lambda common, root, tmp, bad: ["synth", "--out", bad, "--images", "4"],
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE))
def test_unwritable_output_exits_2_naming_the_path(world, tmp_path, capsys, command):
    (tmp_path / "file").write_text("a regular file, not a directory\n")
    bad = str(tmp_path / "file" / "out")
    common = ["--manifest", str(world / "manifest.txt"),
              "--config", str(world / "config.txt")]
    assert main(UNWRITABLE[command](common, world, tmp_path, bad)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad in err, err


# where --out or --log points, given a scratch dir holding a regular file "file"
UNUSABLE_OUTPUT = {
    "under-a-file": lambda tmp: tmp / "file" / "out",
    "missing-directory": lambda tmp: tmp / "nowhere" / "out",
    "a-directory": lambda tmp: tmp,
}


@pytest.mark.parametrize("flag", ["--out", "--log"])
@pytest.mark.parametrize("where", sorted(UNUSABLE_OUTPUT))
def test_train_checks_outputs_before_training(world, tmp_path, capsys, monkeypatch,
                                              flag, where):
    def never(*args, **kwargs):
        raise AssertionError("train ran before its outputs were checked")

    monkeypatch.setattr("segdetect.cli.train", never)
    (tmp_path / "file").write_text("a regular file, not a directory\n")
    bad = str(UNUSABLE_OUTPUT[where](tmp_path))
    paths = {"--out": str(tmp_path / "model.txt"), "--log": str(tmp_path / "log.csv"),
             flag: bad}
    before = sorted(tmp_path.rglob("*"))
    assert main(["train", "--manifest", str(world / "manifest.txt"),
                 "--config", str(world / "config.txt"),
                 "--out", paths["--out"], "--log", paths["--log"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and bad in err, err
    assert sorted(tmp_path.rglob("*")) == before     # nothing created


# (SynthConfig field, synth flag, bad value)
BAD_SYNTH = [("width", "--width", "5"), ("height", "--height", "5"),
             ("n_classes", "--classes", "0"), ("d_app", "--dapp", "0"),
             ("box_jitter", "--box-jitter", "-1"), ("n_images", "--images", "0"),
             ("seed", "--seed", "-1"), ("seg_noise", "--seg-noise", "-0.5"),
             ("feature_noise", "--feat-noise", "nan"),
             # finite, but past what a float32 feature or a float64 score holds
             ("feature_noise", "--feat-noise", "1e39"),
             ("score_noise", "--score-noise", "1e308"),
             # 40000000 x 64 pixels is past the 2**31 a mask may hold
             ("width * height", "--width", "40000000"),
             # 2**28 images of 8 boxes is 2**31 boxes
             ("n_images * max(boxes_per_image, segments_per_image, 1)", "--images",
              str(2 ** 28))]


@pytest.mark.parametrize("field,flag,value", BAD_SYNTH,
                         ids=[f"{flag}={value}" for _, flag, value in BAD_SYNTH])
def test_bad_synth_argument_exits_2_before_writing(tmp_path, capsys, field, flag, value):
    out = tmp_path / "w"
    assert main(["synth", "--out", str(out), "--images", "4", flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} must be"), err
    assert not out.exists()


def test_failed_allocation_exits_2_before_writing(tmp_path, capsys):
    """d_app 10**15 asks numpy for 28.4 PiB of class prototypes, which fails at once."""
    out = tmp_path / "d"
    assert main(["synth", "--out", str(out), "--images", "1",
                 "--dapp", "1000000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not enough memory: "), err
    assert "Traceback" not in err and not out.exists()


# file -> command that reads it
FUZZ_FILES = {"boxes.csv": "iterate", "masks.txt": "iterate", "seg_scores.csv": "iterate",
              "gt.csv": "iterate", "manifest.txt": "iterate", "config.txt": "iterate",
              "model.txt": "iterate", "reg.txt": "iterate", "dets.csv": "eval"}
JUNK = st.one_of(st.sampled_from(["nan", "inf", "-inf", "", "-1", "-3.5", "x"]),
                 st.text(alphabet="0123456789.-,:; ex", max_size=6))


@settings(derandomize=True, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(FUZZ_FILES)), data=st.data())
def test_fuzzed_input_exits_0_or_2(world, name, data):
    lines = (world / name).read_text().splitlines()
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    op = data.draw(st.sampled_from(["token", "drop", "duplicate", "truncate"]), label="op")
    if op == "token":
        parts = re.split(r"([,;:\s])", lines[i])
        k = data.draw(st.integers(0, len(parts) // 2), label="token") * 2
        parts[k] = data.draw(JUNK, label="junk")
        lines[i] = "".join(parts)
    elif op == "drop":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    else:
        lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i])), label="cut")]
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(world, tmp, dirs_exist_ok=True)
        with open(f"{tmp}/{name}", "w") as f:
            f.write("\n".join(lines) + "\n")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = main(_argv(Path(tmp), FUZZ_FILES[name]))
    assert rc in (0, 2), out.getvalue()


# A two-image world whose files also hold lines of image z, which the manifest
# does not list; its boxes may leave any image, but every other check holds.
TINY_WORLD = {
    "manifest.txt": "version 1\nclass c1\nclass c2\nimage a 8 6\nimage b 5 5\n"
                    "boxes boxes.csv\nmasks masks.txt\nseg_scores scores.csv\n"
                    "ground_truth gt.csv\nappearance app.feat\ncontext ctx.feat\n",
    "boxes.csv": "a,0,0.0,0.0,4.0,3.0\na,1,1.0,1.0,7.0,5.0\nb,0,0.0,0.0,4.0,4.0\n"
                 "z,0,-5.0,0.0,99.0,4.0\n",
    "masks.txt": "a 0 6 8 0:4,8:4\na 1 6 8 10:3\nb 0 5 5 0:5\nz 0 3 3 -\n",
    "scores.csv": "a,0,1,0.5\na,0,2,-0.5\na,1,1,1.5\na,1,2,2.5\nb,0,1,0.25\nb,0,2,-1.0\n"
                  "z,0,1,7.0\n",
    "gt.csv": "a,1,0.0,0.0,4.0,3.0,0\nb,2,0.0,0.0,4.0,4.0,1\nz,1,-1.0,0.0,50.0,4.0,0\n",
    "dets.csv": "a,1,0.5,0.0,0.0,4.0,3.0,0;NONE\nb,2,-0.25,0.0,0.0,4.0,4.0,NONE;0\n",
}


def _tiny_world(root, name=None, edit=None):
    """Write TINY_WORLD to root; edit replaces file `name` whole (a str) or
    the lines its {line number: text} dict names."""
    from segdetect.dataset import write_feature_matrix
    for fname, text in TINY_WORLD.items():
        if fname == name and isinstance(edit, str):
            text = edit
        elif fname == name:
            lines = text.split("\n")
            for lineno, line in edit.items():
                lines[lineno - 1] = line
            text = "\n".join(lines)
        (root / fname).write_bytes(text.encode())
    for fname, width in (("app.feat", 3), ("ctx.feat", 2)):
        write_feature_matrix(root / fname, np.ones((4, width)))


def _load_tiny(root):
    """The tiny world's Dataset and detections."""
    from segdetect.model import read_detections
    dataset = Dataset(read_manifest(root / "manifest.txt"), min_segment_pixels=0)
    return dataset, read_detections(root / "dets.csv", dataset)


# (id, file, edit, the whole error after "<directory>/"), taken from the
# per-line reader: the smallest failing line wins, then the first failing
# check in that line's order (field count, each field's conversion from
# left to right, then the checks across fields)
PINNED = [
    ("boxes-field-count", "boxes.csv", {2: "a,1,1.0,1.0,7.0"},
     'boxes.csv:2: expected 6 fields, got 5'),
    ("boxes-bad-int", "boxes.csv", {2: "a,x,1.0,1.0,7.0,5.0"},
     "boxes.csv:2: invalid literal for int() with base 10: 'x'"),
    ("boxes-bad-float", "boxes.csv", {2: "a,1,1.0,y,7.0,5.0"},
     "boxes.csv:2: could not convert string to float: 'y'"),
    ("boxes-nan", "boxes.csv", {2: "a,1,nan,1.0,7.0,5.0"},
     'boxes.csv:2: non-finite value nan'),
    ("boxes-duplicate", "boxes.csv", {2: "a,0,1.0,1.0,7.0,5.0"},
     'boxes.csv:2: duplicate box id 0 in image a'),
    ("boxes-inverted", "boxes.csv", {2: "a,1,7.0,1.0,1.0,5.0"},
     'boxes.csv:2: inverted box Box(x1=7.0, y1=1.0, x2=1.0, y2=5.0)'),
    ("boxes-outside", "boxes.csv", {2: "a,1,1.0,1.0,8.0,5.0"},
     'boxes.csv:2: Box(x1=1.0, y1=1.0, x2=8.0, y2=5.0) lies outside the 8x6 image a'),
    ("boxes-inverted-other-image", "boxes.csv", {4: "z,0,5.0,0.0,1.0,4.0"},
     'boxes.csv:4: inverted box Box(x1=5.0, y1=0.0, x2=1.0, y2=4.0)'),
    ("boxes-earlier-line-later-column", "boxes.csv", {2: "a,1,1.0,1.0,7.0,inf",
                                                      3: "b,x,0.0,0.0,4.0,4.0"},
     'boxes.csv:2: non-finite value inf'),
    ("boxes-earlier-line-later-check", "boxes.csv", {2: "a,1,1.0,1.0,8.0,5.0",
                                                     3: "b,0,0.0,0.0,4.0"},
     'boxes.csv:2: Box(x1=1.0, y1=1.0, x2=8.0, y2=5.0) lies outside the 8x6 image a'),
    ("boxes-two-lines-fail-one-check", "boxes.csv",
     {2: "a,1,1.0,1.0,7.0,nan", 3: "b,0,0.0,0.0,4.0,nan"},
     'boxes.csv:2: non-finite value nan'),
    # the repeat of line 1 sits past the first block of lines a reader takes
    ("boxes-duplicate-far-below", "boxes.csv",
     TINY_WORLD["boxes.csv"] + "".join(f"z,{i},0.0,0.0,1.0,1.0\n" for i in range(1, 5000))
     + "a,0,0.0,0.0,4.0,3.0\n", 'boxes.csv:5004: duplicate box id 0 in image a'),
    ("boxes-after-blank-lines", "boxes.csv",
     "a,0,0.0,0.0,4.0,3.0\n\n   \n\t\na,1,1.0,1.0,7.0,5.0\nb,0,0.0,0.0,4.0,4.0,9\n"
     "z,0,-5.0,0.0,99.0,4.0\n",
     'boxes.csv:6: expected 6 fields, got 7'),
    ("boxes-crlf", "boxes.csv",
     "a,0,0.0,0.0,4.0,3.0\r\n  a,1,1.0,1.0,7.0,5.0  \r\n\r\nb,0,0.0,0.0,4.0\r\n"
     "z,0,-5.0,0.0,99.0,4.0\r\n",
     'boxes.csv:4: expected 6 fields, got 5'),
    ("boxes-cr", "boxes.csv",
     "a,0,0.0,0.0,4.0,3.0\ra,1,1.0,1.0,7.0,5.0\rb,0,0.0,0.0,4.0,4.0\rz,0\r",
     'boxes.csv:4: expected 6 fields, got 2'),
    ("masks-field-count", "masks.txt", {2: "a 1 6 8"},
     'masks.txt:2: expected 5 fields, got 4'),
    ("masks-bad-int", "masks.txt", {2: "a 1 six 8 10:3"},
     "masks.txt:2: invalid literal for int() with base 10: 'six'"),
    ("masks-overlapping", "masks.txt", {2: "a 1 6 8 0:5,3:4"},
     'masks.txt:2: bad run (3,4) in segment 1 of a'),
    ("masks-unsorted", "masks.txt", {2: "a 1 6 8 10:2,0:2"},
     'masks.txt:2: bad run (0,2) in segment 1 of a'),
    ("masks-past-end", "masks.txt", {2: "a 1 6 8 10:3,40:9"},
     'masks.txt:2: bad run (40,9) in segment 1 of a'),
    ("masks-zero-length", "masks.txt", {2: "a 1 6 8 10:0"},
     'masks.txt:2: bad run (10,0) in segment 1 of a'),
    ("masks-run-huge", "masks.txt", {2: "a 1 6 8 10:3,99999999999999999999:1"},
     'masks.txt:2: bad run (99999999999999999999,1) in segment 1 of a'),
    ("masks-run-negative-huge", "masks.txt", {2: "a 1 6 8 -99999999999999999999:1"},
     'masks.txt:2: bad run (-99999999999999999999,1) in segment 1 of a'),
    ("masks-run-three-fields", "masks.txt", {2: "a 1 6 8 10:3,3:4:5"},
     'masks.txt:2: too many values to unpack (expected 2)'),
    ("masks-run-one-field", "masks.txt", {2: "a 1 6 8 10:3,3"},
     'masks.txt:2: not enough values to unpack (expected 2, got 1)'),
    # the same numbers as the good runs 10:3,20:2, with the separators moved
    ("masks-run-misplaced-separators", "masks.txt", {2: "a 1 6 8 10,3:20:2"},
     'masks.txt:2: not enough values to unpack (expected 2, got 1)'),
    ("masks-run-bad-int", "masks.txt", {2: "a 1 6 8 10:3,x:4"},
     "masks.txt:2: invalid literal for int() with base 10: 'x'"),
    ("masks-run-empty-pair", "masks.txt", {2: "a 1 6 8 10:3,"},
     'masks.txt:2: not enough values to unpack (expected 2, got 1)'),
    ("masks-wrong-dims", "masks.txt", {2: "a 1 8 6 10:3"},
     'masks.txt:2: mask dims 8x6 differ from image a dims 6x8'),
    ("masks-other-image-bad-dims", "masks.txt", {4: "z 0 0 3 -"},
     'masks.txt:4: bad mask dims 0x3: need 1 to 2**31 - 1 pixels'),
    ("masks-other-image-huge-dims", "masks.txt", {4: "z 0 65536 32768 -"},
     'masks.txt:4: bad mask dims 65536x32768: need 1 to 2**31 - 1 pixels'),
    ("masks-other-image-bad-run", "masks.txt", {4: "z 0 3 3 5:9"},
     'masks.txt:4: bad run (5,9) in segment 0 of z'),
    ("masks-duplicate", "masks.txt", {2: "a 0 6 8 10:3"},
     'masks.txt:2: duplicate segment id 0 in image a'),
    ("masks-empty-kept", "masks.txt", {2: "a 1 6 8 -"},
     'masks.txt:2: segment 1 of a is empty'),
    ("masks-earlier-line-later-column", "masks.txt", {2: "a 1 6 8 10:3,12:1",
                                                      3: "b 0 5 five 0:5"},
     'masks.txt:2: bad run (12,1) in segment 1 of a'),
    ("masks-after-blank-lines", "masks.txt",
     "a 0 6 8 0:4,8:4\n\n\na 1 6 8 10:3\n \nb 0 5 5 0:5,2:1\nz 0 3 3 -\n",
     'masks.txt:6: bad run (2,1) in segment 0 of b'),
    ("masks-crlf", "masks.txt",
     " a 0 6 8 0:4,8:4 \r\na 1 6 8 10:3\r\n\r\nb 0 5 5 0:5 9\r\nz 0 3 3 -\r\n",
     'masks.txt:4: expected 5 fields, got 6'),
    ("scores-field-count", "scores.csv", {3: "a,1,1"},
     'scores.csv:3: expected 4 fields, got 3'),
    ("scores-bad-int", "scores.csv", {3: "a,1,one,1.5"},
     "scores.csv:3: invalid literal for int() with base 10: 'one'"),
    ("scores-bad-float", "scores.csv", {3: "a,1,1,1.5.5"},
     "scores.csv:3: could not convert string to float: '1.5.5'"),
    ("scores-nan", "scores.csv", {3: "a,1,1,nan"},
     'scores.csv:3: non-finite value nan'),
    ("scores-class-out-of-range", "scores.csv", {3: "a,1,3,1.5"},
     'scores.csv:3: segment score with invalid class id 3'),
    ("scores-class-out-of-range-other-image", "scores.csv", {7: "z,0,0,7.0"},
     'scores.csv:7: segment score with invalid class id 0'),
    ("scores-duplicate", "scores.csv", {4: "a,1,1,2.5"},
     'scores.csv:4: duplicate score for segment 1 of a, class 1'),
    ("scores-missing", "scores.csv", {4: "z,9,2,2.5"},
     'scores.csv: missing score for segment 1 of a, class 2'),
    ("scores-earlier-line-later-column", "scores.csv", {3: "a,1,1,-inf", 4: "a,1,x,2.5"},
     'scores.csv:3: non-finite value -inf'),
    ("gt-field-count", "gt.csv", {1: "a,1,0.0,0.0,4.0,3.0"},
     'gt.csv:1: expected 7 fields, got 6'),
    ("gt-bad-int", "gt.csv", {1: "a,one,0.0,0.0,4.0,3.0,0"},
     "gt.csv:1: invalid literal for int() with base 10: 'one'"),
    ("gt-bad-float", "gt.csv", {1: "a,1,0.0,0.0,4.0,3.0.0,0"},
     "gt.csv:1: could not convert string to float: '3.0.0'"),
    ("gt-nan", "gt.csv", {1: "a,1,0.0,nan,4.0,3.0,0"},
     'gt.csv:1: non-finite value nan'),
    ("gt-difficult", "gt.csv", {1: "a,1,0.0,0.0,4.0,3.0,2"},
     'gt.csv:1: difficult flag must be 0 or 1, got 2'),
    ("gt-class-out-of-range", "gt.csv", {2: "b,3,0.0,0.0,4.0,4.0,1"},
     'gt.csv:2: ground truth with invalid class id 3'),
    ("gt-inverted", "gt.csv", {2: "b,2,0.0,4.0,4.0,0.0,1"},
     'gt.csv:2: inverted box Box(x1=0.0, y1=4.0, x2=4.0, y2=0.0)'),
    ("gt-outside", "gt.csv", {2: "b,2,0.0,0.0,4.0,5.0,1"},
     'gt.csv:2: Box(x1=0.0, y1=0.0, x2=4.0, y2=5.0) lies outside the 5x5 image b'),
    ("gt-earlier-line-later-column", "gt.csv", {1: "a,1,0.0,0.0,4.0,3.0,yes",
                                                2: "b,2,x,0.0,4.0,4.0,1"},
     'gt.csv:1: difficult flag must be 0 or 1, got yes'),
    ("dets-field-count", "dets.csv", {2: "b,2,-0.25,0.0,0.0,4.0,4.0"},
     'dets.csv:2: expected 8 fields, got 7'),
    ("dets-bad-int", "dets.csv", {2: "b,two,-0.25,0.0,0.0,4.0,4.0,NONE;0"},
     "dets.csv:2: invalid literal for int() with base 10: 'two'"),
    ("dets-bad-float", "dets.csv", {2: "b,2,-0.25,0.0,0.0,4.0,4.0e,NONE;0"},
     "dets.csv:2: could not convert string to float: '4.0e'"),
    ("dets-nan", "dets.csv", {2: "b,2,nan,0.0,0.0,4.0,4.0,NONE;0"},
     'dets.csv:2: non-finite value nan'),
    ("dets-bad-segment", "dets.csv", {2: "b,2,-0.25,0.0,0.0,4.0,4.0,NONE;x"},
     "dets.csv:2: invalid literal for int() with base 10: 'x'"),
    ("dets-class-out-of-range", "dets.csv", {2: "b,0,-0.25,0.0,0.0,4.0,4.0,NONE;0"},
     'dets.csv:2: detection with invalid class id 0'),
    ("dets-unknown-image", "dets.csv", {2: "z,2,-0.25,0.0,0.0,4.0,4.0,NONE;0"},
     'dets.csv:2: detection of image z, which the manifest does not list'),
    ("dets-inverted", "dets.csv", {2: "b,2,-0.25,4.0,0.0,0.0,4.0,NONE;0"},
     'dets.csv:2: inverted box Box(x1=4.0, y1=0.0, x2=0.0, y2=4.0)'),
    ("dets-earlier-line-later-column", "dets.csv", {1: "a,1,0.5,0.0,0.0,4.0,3.0,0;NONE;x",
                                                    2: "b,x,-0.25,0.0,0.0,4.0,4.0,NONE;0"},
     "dets.csv:1: invalid literal for int() with base 10: 'x'"),
]


@pytest.mark.parametrize("name,edit,expect", [case[1:] for case in PINNED],
                         ids=[case[0] for case in PINNED])
def test_text_table_errors_are_pinned_in_full(tmp_path, name, edit, expect):
    _tiny_world(tmp_path, name, edit)
    with pytest.raises(InputError) as raised:
        _load_tiny(tmp_path)
    assert str(raised.value) == f"{tmp_path}/{expect}"


def test_a_bad_line_before_bytes_that_do_not_decode_is_reported_first(tmp_path):
    """A text file decodes 8 KiB at a time as it is iterated, so a per-line
    reader reports line 1 before it reaches the bad byte."""
    _tiny_world(tmp_path)
    rows = "".join(f"z,{i},0.0,0.0,1.0,1.0\n" for i in range(1, 1000))
    (tmp_path / "boxes.csv").write_bytes(b"a,0,0.0,0.0,4.0\n" + rows.encode() + b"\xff\n")
    with pytest.raises(InputError) as raised:
        _load_tiny(tmp_path)
    assert str(raised.value) == f"{tmp_path}/boxes.csv:1: expected 6 fields, got 5"


# (file, edit): each reads as TINY_WORLD does
SAME_VALUES = [
    ("boxes.csv", "a,0,0.0,0.0,4.0,3.0\r\n\r\n  a,1,1.0,1.0,7.0,5.0  \r\nb,0,0.0,0.0,4.0,4.0\r"
                  "z,0,-5.0,0.0,99.0,4.0"),
    ("masks.txt", "\ta 0 6 8 0:4,8:4\r\na  1\t6 8 10:3 \r\n\r\nb 0 5 5 0:5\r\nz 0 3 3 -\r\n"),
    ("scores.csv", {1: " a,0,1,0.5 ", 2: "\t\ta,0,2,-0.5\r", 7: "z,0,1,7.0\r\n"}),
    ("gt.csv", "\n\na,1,0.0,0.0,4.0,3.0,0\r\nb,2,0.0,0.0,4.0,4.0,1\r\n\r\n"
               "z,1,-1.0,0.0,50.0,4.0,0\r\n"),
    ("dets.csv", {1: "  a,1,0.5,0.0,0.0,4.0,3.0,0;NONE  "}),
    # int() and float() take underscores between digits, a sign and spaces
    ("boxes.csv", {1: "a,0_0,0.0,0.0,4.0,3.0", 2: "a, +1,1.0,1.0,7_0e-1,5.0"}),
    ("masks.txt", {2: "a +1 0_6 8 1_0:+3"}),
    ("scores.csv", {3: "a,1, +1,1_5e-1", 4: "a,0_1,2,2.5"}),
    ("gt.csv", {2: "b, +2,0.0,0.0,4.0,4.0,1"}),
    ("dets.csv", {2: "b, +2,-0.25,0.0,0.0,4.0,4.0,NONE;+0"}),
]


def _fields(dataset, detections):
    images = [dataset.record(i) for i in dataset.image_order]
    return ([(r.box_ids, r.boxes, r.rows, r.gts,
              [(m.segment_id, m.runs.tolist(), m.pixel_count) for m in r.masks],
              r.seg_scores.tolist()) for r in images],
            [(d.image_id, d.class_id, d.box_id, d.box, d.score, d.chosen_segments)
             for d in detections])


@pytest.mark.parametrize("name,edit", SAME_VALUES)
def test_padding_line_endings_and_int_spellings_read_as_before(tmp_path, name, edit):
    _tiny_world(tmp_path)
    expect = _fields(*_load_tiny(tmp_path))
    _tiny_world(tmp_path, name, edit)
    assert _fields(*_load_tiny(tmp_path)) == expect
