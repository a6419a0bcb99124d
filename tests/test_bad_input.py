"""Bad input files exit with code 2 and an error naming the file.

The CLI contract: malformed, non-finite, out-of-range or inconsistent input
gives exit code 2 and a `file:line` message, never a traceback, exit 1 or a
silent mis-parse.
"""

import contextlib
import io
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from segdetect.bboxreg import collect_training_pairs
from segdetect.cli import main
from segdetect.dataset import Dataset, read_manifest, read_seg_scores_file


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
    ("class-name-path-separator", "manifest.txt", _replace("class class1\n", "class a/b\n"),
     "iterate", r"manifest\.txt:2: .*a/b"),
    ("class-name-repeated", "manifest.txt", _replace("class class2\n", "class class1\n"),
     "iterate", r"manifest\.txt:3: .*class1"),
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


def test_test_manifest_keeps_its_own_scores_and_checks_every_line(world, tmp_path,
                                                                   capsys):
    """The split manifests share one scores file; each keeps only its images'."""
    dataset = Dataset(read_manifest(world / "manifest_test.txt"), min_segment_pixels=0)
    rows = read_seg_scores_file(world / "seg_scores.csv", dataset.n_classes)
    own = {(image_id, seg, c): score for image_id, seg, c, score in rows
           if image_id in dataset.images}
    assert dataset.seg_scores == own and len(own) < len(rows)
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
