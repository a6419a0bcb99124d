import argparse
import dataclasses
import os
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from segdetect.boxes import Box, iou
from segdetect.cli import _nearest_box_provider, build_parser, main
from segdetect.config import load_config, save_config
from segdetect.dataset import Dataset, read_manifest
from segdetect.model import build_bundle, load_model, save_model


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synthetic dataset shared by the pipeline smoke tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    rc = main(["synth", "--out", str(data), "--seed", "0", "--images", "12"])
    assert rc == 0
    return root


def _p(workdir, name):
    return str(workdir / name)


def test_full_pipeline_smoke(workdir, capsys):
    data = workdir / "data"
    cfg = str(data / "config.txt")
    assert main(["train", "--manifest", str(data / "manifest_train.txt"),
                 "--config", cfg, "--out", _p(workdir, "model.txt"),
                 "--log", _p(workdir, "train.log")]) == 0
    assert main(["detect", "--manifest", str(data / "manifest_test.txt"),
                 "--config", cfg, "--model", _p(workdir, "model.txt"),
                 "--out", _p(workdir, "dets.csv")]) == 0
    assert main(["eval", "--manifest", str(data / "manifest_test.txt"),
                 "--config", cfg, "--detections", _p(workdir, "dets.csv"),
                 "--out", _p(workdir, "report.csv"),
                 "--curves", _p(workdir, "curves")]) == 0
    out = capsys.readouterr().out
    assert "mAP" in out
    assert os.path.exists(_p(workdir, "report.csv"))
    assert os.path.exists(os.path.join(_p(workdir, "curves"), "pr_class1.csv"))
    with open(_p(workdir, "train.log")) as f:
        header = f.readline().strip()
    assert header == "round,class_id,objective,num_hard_negs,num_latent_changed"


def test_regress_fit_and_iterate(workdir):
    data = workdir / "data"
    cfg = str(data / "config.txt")
    assert main(["regress", "fit", "--manifest", str(data / "manifest_train.txt"),
                 "--config", cfg, "--out", _p(workdir, "reg.txt")]) == 0
    assert main(["regress", "iterate", "--manifest", str(data / "manifest_test.txt"),
                 "--config", cfg, "--model", _p(workdir, "model.txt"),
                 "--regressor", _p(workdir, "reg.txt"),
                 "--out", _p(workdir, "dets_refined.csv")]) == 0
    assert os.path.getsize(_p(workdir, "dets_refined.csv")) > 0


def test_featdump(workdir):
    data = workdir / "data"
    assert main(["featdump", "--manifest", str(data / "manifest_test.txt"),
                 "--config", str(data / "config.txt"),
                 "--out", _p(workdir, "features.csv")]) == 0
    with open(_p(workdir, "features.csv")) as f:
        assert f.readline() == "image_id,box_id,segment_id,class_id,features\n"
        rows = [line.rstrip("\n").split(",") for line in f]
    cfg = load_config(data / "config.txt")
    dataset = Dataset(read_manifest(data / "manifest_test.txt"),
                      min_segment_pixels=cfg.min_segment_pixels)
    expected = []
    for image_id in dataset.image_order:
        bundle = build_bundle(dataset, image_id, cfg.grid_k, cfg.lambda_bias)
        for b, box_id in enumerate(bundle.box_ids):
            for s, seg_id in enumerate(bundle.seg_ids):
                for c in range(dataset.n_classes):
                    block = np.append(bundle.seg_base[b, s], bundle.sigmoid_scores[s, c])
                    expected.append(([image_id, str(box_id), str(seg_id), str(c + 1)],
                                     block))
    assert expected and len(rows) == len(expected)
    for (*key, vals), (want_key, block) in zip(rows, expected):
        assert key == want_key
        got = np.array([float(v) for v in vals.split(";")])
        assert got.tobytes() == block.tobytes()


def test_detect_missing_model_exit_2(workdir, capsys):
    data = workdir / "data"
    rc = main(["detect", "--manifest", str(data / "manifest_test.txt"),
               "--model", _p(workdir, "no_such_model.txt"),
               "--out", _p(workdir, "x.csv")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_missing_manifest_exit_2(workdir):
    assert main(["train", "--manifest", _p(workdir, "nope.txt"),
                 "--out", _p(workdir, "m.txt")]) == 2


def test_bad_config_exit_2(workdir, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("no_such_option 1\n")
    data = workdir / "data"
    assert main(["detect", "--manifest", str(data / "manifest_test.txt"),
                 "--config", str(bad), "--model", _p(workdir, "model.txt"),
                 "--out", _p(workdir, "x.csv")]) == 2


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """An 8-image synthetic world with a trained model and a fitted regressor."""
    root = tmp_path_factory.mktemp("trained")
    assert main(["synth", "--out", str(root), "--seed", "0", "--images", "8"]) == 0
    common = ["--manifest", str(root / "manifest.txt"), "--config", str(root / "config.txt")]
    assert main(["train", *common, "--out", str(root / "model.txt")]) == 0
    assert main(["regress", "fit", *common, "--out", str(root / "reg.txt")]) == 0
    return root


def _numerical_exit(argv, capsys):
    """main(argv)'s stderr, after checking it exits 3 without a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: ") and "Traceback" not in err, err
    return err


def _with_config(trained, tmp_path, **changes):
    path = tmp_path / "config.txt"
    save_config(path, dataclasses.replace(load_config(trained / "config.txt"), **changes))
    return ["--manifest", str(trained / "manifest.txt"), "--config", str(path)]


@pytest.mark.parametrize("command", ["detect", "iterate"])
def test_overflowing_scores_exit_3_and_write_nothing(trained, tmp_path, capsys, command):
    """Finite weights whose products overflow: scores would be inf."""
    weights = load_model(trained / "model.txt")
    weights.w_app[:] = 1e308
    save_model(tmp_path / "model.txt", weights)
    out = tmp_path / "dets.csv"
    argv = [*(["detect"] if command == "detect" else
              ["regress", "iterate", "--regressor", str(trained / "reg.txt")]),
            *_with_config(trained, tmp_path), "--model", str(tmp_path / "model.txt"),
            "--out", str(out)]
    err = _numerical_exit(argv, capsys)
    assert re.match(r"numerical error: image 'img0000': detector 1 scores a box ", err), err
    assert not out.exists()


def test_diverging_training_exits_3(trained, tmp_path, capsys):
    out = tmp_path / "model.txt"
    err = _numerical_exit(["train", *_with_config(trained, tmp_path, eta0=1e300),
                           "--out", str(out)], capsys)
    assert "exceeded 10x initial" in err
    assert not out.exists()


@pytest.mark.parametrize("ridge", [0.0, 1e-20, 1e-300])
def test_singular_ridge_fit_exits_3(trained, tmp_path, capsys, ridge):
    """Synth regression rows end in a constant 1, which duplicates the
    unpenalised intercept: with no ridge the system is singular."""
    out = tmp_path / "reg.txt"
    err = _numerical_exit(["regress", "fit", *_with_config(trained, tmp_path, ridge=ridge),
                           "--out", str(out)], capsys)
    assert re.match(rf"numerical error: class \d+ regressor, ridge {ridge!r}: ", err), err
    assert not out.exists()


def test_bad_flag_exit_2():
    assert main(["synth", "--no-such-flag"]) == 2


def test_nearest_box_provider_matches_python_max_on_ties():
    rng = np.random.default_rng(8)
    boxes = [Box(0, 0, 9, 9), Box(20, 0, 29, 9), Box(0, 0, 9, 9), Box(10, 0, 19, 9),
             Box(4.5, 2, 13.5, 11)]
    record = SimpleNamespace(boxes=boxes, rows=[40, 30, 20, 10, 0])
    features = np.arange(50.0)[:, None]
    dataset = SimpleNamespace(record=lambda image_id: record, appearance=features,
                              context=-features, regression=2 * features)
    provider = _nearest_box_provider(dataset)
    queries = [Box(0, 0, 9, 9),        # ties boxes 0 and 2
               Box(15, 0, 24, 9),      # ties boxes 1 and 3
               Box(40, 40, 49, 49)]    # overlaps none: every IoU is 0
    queries += [Box(x, y, x + w, y + h) for x, y, w, h in rng.uniform(0, 25, (40, 4))]
    for query in queries:
        best = max(range(len(boxes)), key=lambda i: iou(query, boxes[i]))
        row = record.rows[best]
        app, ctx, reg = provider("img", query)
        assert (app[0], ctx[0], reg[0]) == (row, -row, 2 * row)
    assert provider("img", queries[1])[0][0] == 30
    record.boxes = []
    with pytest.raises(KeyError):
        provider("img", queries[0])


_THREADS = ("threads", False, None, int, "ignored: every run is single-threaded")
# subcommand -> option -> (dest, required, default, type, help), as the CLI had
# them when the shared flags moved to one parent parser
CLI_SURFACE = {
    "synth": {"--out": ("out", True, None, None, None),
              **{flag: (dest, False, default, type(default), None)
                 for flag, dest, default in [
                     ("--seed", "seed", 0), ("--images", "n_images", 50),
                     ("--classes", "n_classes", 3), ("--boxes", "boxes_per_image", 8),
                     ("--segments", "segments_per_image", 4), ("--width", "width", 64),
                     ("--height", "height", 64), ("--box-jitter", "box_jitter", 0.0),
                     ("--seg-noise", "seg_noise", 0.0),
                     ("--feat-noise", "feature_noise", 0.0),
                     ("--score-noise", "score_noise", 0.0), ("--dapp", "d_app", 16),
                     ("--dctx", "d_ctx", 8)]}},
    "featdump": {},
    "train": {"--log": ("log", False, None, None, None),
              "--no-seg": ("no_seg", False, False, None,
                           "ablation: zero segmentation weights"),
              "--threads": _THREADS},
    "detect": {"--model": ("model", True, None, None, None), "--threads": _THREADS},
    "regress": {"mode": ("mode", True, None, None, None),
                "--model": ("model", False, None, None, None),
                "--regressor": ("regressor", False, None, None, None)},
    "eval": {"--detections": ("detections", True, None, None, None),
             "--curves": ("curves", False, None, None,
                          "directory for per-class PR curve CSVs")},
}
_SHARED = {"--manifest": ("manifest", True, None, None, None),
           "--config": ("config", False, None, None, None),
           "--out": ("out", True, None, None, None)}


def test_cli_surface_is_unchanged():
    """Every subcommand keeps its flags, their dests, requiredness, defaults,
    types and help, and `regress` its two modes."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert list(sub.choices) == list(CLI_SURFACE)
    for command, parser in sub.choices.items():
        want = CLI_SURFACE[command] if command == "synth" else {**_SHARED,
                                                                **CLI_SURFACE[command]}
        got = {option: (action.dest, action.required, action.default, action.type,
                        action.help)
               for action in parser._actions if action.dest != "help"
               for option in action.option_strings or [action.dest]}
        assert got == want, command
    mode = next(a for a in sub.choices["regress"]._actions if a.dest == "mode")
    assert mode.choices == ["fit", "iterate"]
