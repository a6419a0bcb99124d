import contextlib
import filecmp
import io
import os
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segdetect.boxes import iou
from segdetect.cli import main
from segdetect.config import _RANGES, Config, load_config
from segdetect.dataset import Dataset, read_manifest
from segdetect.evaluate import average_best_overlap
from segdetect.synth import D_REG, SynthConfig, SynthWorld, generate


def _tree_files(root):
    out = {}
    for dirpath, _, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = path
    return out


def test_same_seed_byte_identical_tree(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    cfg = SynthConfig(seed=7, n_images=6, box_jitter=0.1, seg_noise=0.1,
                      feature_noise=0.5, score_noise=0.2)
    generate(cfg, str(a))
    generate(cfg, str(b))
    files_a = _tree_files(a)
    files_b = _tree_files(b)
    assert set(files_a) == set(files_b)
    for rel in files_a:
        assert filecmp.cmp(files_a[rel], files_b[rel], shallow=False), rel


def test_synth_flag_defaults_are_synth_config_defaults(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["synth", "--out", str(a)]) == 0
    generate(SynthConfig(), str(b))
    files_a = _tree_files(a)
    files_b = _tree_files(b)
    assert set(files_a) == set(files_b)
    for rel in files_a:
        assert filecmp.cmp(files_a[rel], files_b[rel], shallow=False), rel


# fields that take any finite value; every other field has a range in config._RANGES
UNBOUNDED = {"lambda_bias", "eleven_point", "train_fraction"}


def test_every_config_and_synth_field_has_a_bound_decision():
    names = {fld.name for cls in (Config, SynthConfig) for fld in fields(cls)}
    bounded = [name for group in _RANGES.values() for name in group]
    assert len(set(bounded)) == len(bounded)     # each name in one range
    assert names == set(bounded) | UNBOUNDED and not UNBOUNDED & set(bounded)


def test_different_seed_differs(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate(SynthConfig(seed=1, n_images=4), str(a))
    generate(SynthConfig(seed=2, n_images=4), str(b))
    assert not filecmp.cmp(a / "boxes.csv", b / "boxes.csv", shallow=False)


def test_generated_tree_loads_as_dataset(tmp_path):
    generate(SynthConfig(seed=0, n_images=5), str(tmp_path / "d"))
    cfg = load_config(tmp_path / "d" / "config.txt")
    ds = Dataset(read_manifest(tmp_path / "d" / "manifest.txt"),
                 min_segment_pixels=cfg.min_segment_pixels)
    assert len(ds.image_order) == 5
    assert ds.n_classes == 3
    for image_id in ds.image_order:
        rec = ds.record(image_id)
        assert len(rec.boxes) == 8
        assert len(rec.masks) == 4


def test_split_manifests_cover_all_images(tmp_path):
    generate(SynthConfig(seed=0, n_images=10), str(tmp_path / "d"))
    full = read_manifest(tmp_path / "d" / "manifest.txt")
    tr = read_manifest(tmp_path / "d" / "manifest_train.txt")
    te = read_manifest(tmp_path / "d" / "manifest_test.txt")
    assert len(tr.images) == 8 and len(te.images) == 2
    assert [i for i, _, _ in tr.images] + [i for i, _, _ in te.images] == \
        [i for i, _, _ in full.images]


def test_zero_noise_proposals_cover_gt(tmp_path):
    world = generate(SynthConfig(seed=3, n_images=8), str(tmp_path / "d"))
    ds = Dataset(read_manifest(tmp_path / "d" / "manifest.txt"),
                 min_segment_pixels=0)
    gts = {i: list(ds.record(i).gts) for i in ds.image_order}
    candidates = {i: list(ds.record(i).boxes) for i in ds.image_order}
    _, mean_abo = average_best_overlap(candidates, gts, ds.n_classes)
    assert mean_abo == pytest.approx(1.0)


def test_zero_noise_features_are_prototype_exact(tmp_path):
    world = SynthWorld(SynthConfig(seed=5, n_images=3))
    img = world.images[0]
    class_id, gt = img.gts[0]
    app, ctx, reg = world.provider(img.image_id, gt)
    np.testing.assert_array_equal(app, world.app_protos[class_id - 1])
    assert reg.shape == (D_REG,)
    # a box sitting exactly on the gt has zero offsets
    np.testing.assert_allclose(reg[:4], 0.0, atol=1e-12)
    assert reg[4] == 1.0


def test_gt_objects_barely_overlap():
    world = SynthWorld(SynthConfig(seed=11, n_images=30))
    for img in world.images:
        for i in range(len(img.gts)):
            for j in range(i + 1, len(img.gts)):
                assert iou(img.gts[i][1], img.gts[j][1]) < 0.2


def test_segment_scores_rank_true_class(tmp_path):
    generate(SynthConfig(seed=9, n_images=6), str(tmp_path / "d"))
    ds = Dataset(read_manifest(tmp_path / "d" / "manifest.txt"),
                 min_segment_pixels=0)
    world = SynthWorld(SynthConfig(seed=9, n_images=6))
    for img in world.images:
        rec = ds.record(img.image_id)
        assert [m.segment_id for m in rec.masks] == list(range(len(img.segments)))
        for seg_id, (_, source_class, _) in enumerate(img.segments):
            if source_class == 0:
                continue
            assert int(np.argmax(rec.seg_scores[seg_id])) + 1 == source_class


def test_provider_unknown_image_raises_keyerror():
    world = SynthWorld(SynthConfig(seed=0, n_images=2))
    with pytest.raises(KeyError):
        world.provider("nope", world.images[0].gts[0][1])


def test_over_eroded_segment_falls_back_to_its_object(tmp_path):
    # seed 0 erodes at least one segment at seg_noise 1.0 past its own size
    world = generate(SynthConfig(seed=0, n_images=20, seg_noise=1.0), str(tmp_path / "d"))
    assert any(rect == source for img in world.images
               for source, class_id, rect in img.segments if class_id)


def _dict_noise(cfg):
    """The noise as drawn into per-box and per-segment dicts, the reference
    for SynthWorld's two arrays: after the images, an appearance then a
    context draw for each box, then a score draw for each segment, keyed by
    (image id, box or segment id)."""
    world = SynthWorld(cfg)     # its helpers draw from the rng they are given
    rng = np.random.default_rng(cfg.seed)
    world._prototypes(rng, cfg.d_app, cfg.n_classes)
    world._prototypes(rng, cfg.d_ctx, cfg.n_classes)
    images = [world._make_image(rng, i) for i in range(cfg.n_images)]
    noise = {}
    for img in images:
        for box_id in range(len(img.boxes)):
            noise[(img.image_id, box_id)] = (rng.normal(0.0, 1.0, cfg.d_app),
                                             rng.normal(0.0, 1.0, cfg.d_ctx))
    score_noise = {}
    for img in images:
        for seg_id in range(len(img.segments)):
            score_noise[(img.image_id, seg_id)] = rng.normal(0.0, 1.0, cfg.n_classes)
    return images, noise, score_noise


@pytest.mark.parametrize("shape", [
    dict(seed=1, n_images=4, boxes_per_image=0, segments_per_image=7, n_classes=1),
    dict(seed=2, n_images=3, boxes_per_image=12, segments_per_image=0, n_classes=20,
         d_app=5, d_ctx=9),
    dict(seed=3, n_images=5, boxes_per_image=12, segments_per_image=7, n_classes=20,
         d_app=11, d_ctx=2, box_jitter=0.2, seg_noise=0.3),
    dict(seed=4, n_images=2, boxes_per_image=0, segments_per_image=0, n_classes=1,
         d_app=1, d_ctx=3)], ids=["b0-s7-c1", "b12-s0-c20", "b12-s7-c20", "b0-s0-c1"])
def test_noise_arrays_equal_the_per_box_and_per_segment_draws(shape):
    cfg = SynthConfig(**shape)
    world = SynthWorld(cfg)
    images, noise, score_noise = _dict_noise(cfg)
    assert world.images == images
    np.testing.assert_array_equal(world._box_noise, np.array(
        [np.concatenate(pair) for pair in noise.values()]).reshape(-1, cfg.d_app + cfg.d_ctx))
    np.testing.assert_array_equal(world._score_noise, np.array(
        list(score_noise.values())).reshape(-1, cfg.n_classes))


def _synth_then_train(out, *flags):
    """Exit codes of `synth` with flags into out, then of `train` on its world."""
    codes = [main(["synth", "--out", str(out), *flags])]
    if codes[0] == 0:
        codes.append(main(["train", "--manifest", os.path.join(out, "manifest.txt"),
                           "--config", os.path.join(out, "config.txt"),
                           "--out", os.path.join(out, "model.txt")]))
    return codes


@pytest.mark.filterwarnings("ignore::RuntimeWarning")    # inf and NaN at 1e308
@pytest.mark.parametrize("jitter", ["5", "1e308"])
def test_large_box_jitter_orders_corners_instead_of_failing(tmp_path, jitter):
    # at 5, a size draw below -1 widths puts x2 left of x1 (seed 0 draws
    # several); at 1e308, draws overflow to inf and inf - inf to NaN
    assert _synth_then_train(tmp_path / "w", "--images", "4", "--box-jitter", jitter) == [0, 0]
    boxes = [line.split(",") for line in (tmp_path / "w" / "boxes.csv").read_text().split()]
    assert all(float(x1) <= float(x2) and float(y1) <= float(y2)
               for _, _, x1, y1, x2, y2 in boxes)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), images=st.integers(1, 3), boxes=st.integers(0, 10),
       segments=st.integers(0, 6), width=st.integers(6, 40), height=st.integers(6, 40),
       jitter=st.floats(0, 50), noise=st.floats(0, 50))
def test_fuzzed_synth_flags_exit_cleanly_through_train(seed, images, boxes, segments,
                                                       width, height, jitter, noise):
    """Tiny worlds: synth, then train, exit 0, 2 or 3 and never raise."""
    flags = ["--seed", seed, "--images", images, "--boxes", boxes, "--segments", segments,
             "--width", width, "--height", height, "--box-jitter", repr(jitter),
             "--seg-noise", repr(noise)]
    with tempfile.TemporaryDirectory() as tmp:
        log = io.StringIO()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            codes = _synth_then_train(tmp, *map(str, flags))
    assert set(codes) <= {0, 2, 3}, log.getvalue()
