"""Golden output hashes of one seeded round trip through the CLI.

synth -> train -> detect -> regress fit -> regress iterate -> eval of both
detection files on a small noisy world whose hard-negative cache cap binds,
so mining, latent relabeling, NMS and the nearest-box provider all shape the
outputs.  The sha256 values pin
every output bit, so a speed-up that moves any of them fails here.  They
hold for one numpy/BLAS build: a BLAS that sums in another order may round
a dot product differently.
"""

import hashlib

import pytest

from segdetect.cli import main

GOLDEN = {
    "model.txt": "03fc58c78152b582a84e3d05efa193173976f2888301aa26b2b9dde7f8423bb0",
    "train.log": "a32509f7fcbd9906af1a4d0b430feaf89ea424eb4f735f50d52d242b83a5d9f8",
    "dets.csv": "358916ad97591334c28b0410b1224d97acf77d8add66b9d699b89e7246414666",
    "refined.csv": "4d543c428a5bebc81ae0d007bee7c1eb503fa615533e24c4c771991f15021791",
    "report.csv": "c5afb6251eb6576791790d286488a5111f8f4dbe727650ed95ba3391c8df6e17",
    "report_refined.csv":
        "1a5b2726f844e3833c8c8ebb4bcc5385ae8daab525617d4a92045864106a34ad",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--seed", "11", "--images", "16",
                 "--boxes", "24", "--segments", "5", "--box-jitter", "0.15",
                 "--seg-noise", "0.1", "--feat-noise", "1.0",
                 "--score-noise", "0.3"]) == 0
    config = data / "config.txt"
    config.write_text(config.read_text().replace("neg_cache_cap 10000",
                                                 "neg_cache_cap 40"))
    train = ["--manifest", str(data / "manifest_train.txt"), "--config", str(config)]
    test = ["--manifest", str(data / "manifest_test.txt"), "--config", str(config)]
    for argv in (["train", *train, "--out", str(root / "model.txt"),
                  "--log", str(root / "train.log")],
                 ["detect", *test, "--model", str(root / "model.txt"),
                  "--out", str(root / "dets.csv")],
                 ["regress", "fit", *train, "--out", str(root / "reg.txt")],
                 ["regress", "iterate", *test, "--model", str(root / "model.txt"),
                  "--regressor", str(root / "reg.txt"),
                  "--out", str(root / "refined.csv")],
                 ["eval", *test, "--detections", str(root / "dets.csv"),
                  "--out", str(root / "report.csv")],
                 ["eval", *test, "--detections", str(root / "refined.csv"),
                  "--out", str(root / "report_refined.csv")]):
        assert main(argv) == 0, argv
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_round_trip_output_hash_is_unchanged(outputs, name):
    assert _sha256(outputs / name) == GOLDEN[name]
