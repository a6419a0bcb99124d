"""Golden output hashes of one seeded round trip through the CLI.

synth -> train -> detect -> regress fit -> regress iterate -> eval of both
detection files (the first with PR curves) -> featdump on a small noisy world
whose hard-negative cache cap binds, so mining, latent relabeling, NMS and the
nearest-box provider all shape the outputs.  The sha256 values pin every
written file bit for bit, the synth inputs included, so a speed-up that moves
any of them fails here, and so does a writer that spells a float another way
(`1` for `1.0`) even where the file would parse to the same values.  They
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
    "reg.txt": "176d220af8e19d4c0ff2de29277b51332bba8aea76f9dcca664c4fcea54a2b0a",
    "features.csv": "da1befea53edc72289ba2d7e8a06d409e9190f4d01581b24e21678656329cc21",
    "curves/pr_class1.csv":
        "255645182fdfdd1cdfac5be55b325583fca2202b2171cf8a0213d7e27f07531a",
    "curves/pr_class2.csv":
        "1ff4fda4becad864054f2396a0b0f085ed1d85b1a31ef98e094636404dce5748",
    "curves/pr_class3.csv":
        "5174baad95fb8fa273a9023fa996b7bae3af594127193ccd84b82157a45bb9a8",
    # synth inputs; config.txt as the fixture leaves it
    "data/boxes.csv": "9ba289e788d7f5d49fe9d1efc67a40e4de3f196973a3ca9f95b01f7335a43138",
    "data/masks.txt": "c3733e67ae963caf3fbd6da2fcd92bac719c2ae7c58e92c87f2b76e61d6bc58b",
    "data/gt.csv": "c65e66227a997c21c317dee025511fdebd081e3d596a1d837120305a055b3d8d",
    "data/seg_scores.csv":
        "e014f198c367b5128accfd29e3635992a349c05fe1b947e4a9c064c17390d03b",
    "data/manifest.txt": "d3864775ef3a488d4fde560b80e7d9de21a677ec37a6a2b61f2df36b4c80d799",
    "data/manifest_train.txt":
        "ef09260abe33105492356727ce28747e414558456185e3c9a2bbf641e0fdb3ee",
    "data/manifest_test.txt":
        "3176808ff61d8221bd48edd694839fa2d82db4b2ee99f36684f29eb105ac4ebf",
    "data/app.feat": "63319747fff743a9f48bf30f33c9f95e236ed393bf1c9d5b3273c0662dac603f",
    "data/ctx.feat": "990fff7b3918a3d15453ba402a0db544caab36c59ed238d92659a2d595a34bfd",
    "data/reg.feat": "f01a1cd970deba733435e34c09a7799710e78ecfa10245f55d4b6f1b730db072",
    "data/config.txt": "72a937dfe76d1847031c986d7924aec0bcdf9541179f6ba95ccabdcd69e7cb23",
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _written(root):
    """Every file under root, as paths relative to it with / separators."""
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())


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
                  "--out", str(root / "report.csv"), "--curves", str(root / "curves")],
                 ["eval", *test, "--detections", str(root / "refined.csv"),
                  "--out", str(root / "report_refined.csv")],
                 ["featdump", *test, "--out", str(root / "features.csv")]):
        assert main(argv) == 0, argv
    return root


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_round_trip_output_hash_is_unchanged(outputs, name):
    assert _sha256(outputs / name) == GOLDEN[name]


def test_every_written_file_is_pinned(outputs):
    assert _written(outputs) == sorted(GOLDEN)
