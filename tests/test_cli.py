import os

import pytest

from segdetect.cli import main


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
        assert f.readline().startswith("image_id,box_id,segment_id,class_id")


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


def test_bad_flag_exit_2():
    assert main(["synth", "--no-such-flag"]) == 2
