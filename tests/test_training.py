import itertools
import tracemalloc

import numpy as np
import pytest

from conftest import make_bundle, random_boxes, random_masks, segment_contributions
from segdetect import training
from segdetect.boxes import Box, iou
from segdetect.config import Config
from segdetect.dataset import Dataset, read_manifest
from segdetect.masks import SegmentMask, tight_box
from segdetect.model import ModelWeights, score_box
from segdetect.synth import SynthConfig, generate
from segdetect.training import (assign_labels, hinge_objective,
                                init_latent, mine_hard_negatives,
                                relabel_positives, sgd_fit, train)


def seg_feature_vector(bundle, box_index, latent, L):
    """Oracle: the C-block segmentation feature of one box at a fixed latent."""
    n_classes = len(latent)
    out = np.zeros(n_classes * L)
    if bundle.n_segs == 0:
        return out
    index_of = {seg_id: i for i, seg_id in enumerate(bundle.seg_ids)}
    for c, seg_id in enumerate(latent):
        if seg_id is None:
            continue
        s = index_of[seg_id]
        out[c * L:(c + 1) * L - 1] = bundle.seg_base[box_index, s]
        out[(c + 1) * L - 1] = bundle.sigmoid_scores[s, c]
    return out


def instance_row(bundle, box_index, latent, L):
    """Oracle: one cache row, built box by box."""
    return np.concatenate([bundle.appearance[box_index], bundle.context[box_index],
                           seg_feature_vector(bundle, box_index, latent, L), [1.0]])


def _cache(bundle, latents):
    """Cache rows of a bundle's boxes 0..n-1 at the given latents, by the gather."""
    C = len(latents[0])
    weights = ModelWeights.zeros(C, 2, -0.7, bundle.appearance.shape[1],
                                 bundle.context.shape[1])
    return training._cache_matrix([bundle], [(0, b, latent)
                                             for b, latent in enumerate(latents)],
                                  weights)


def test_assign_labels_thresholds():
    gts = [Box(0, 0, 9, 9)]
    boxes = [Box(0, 0, 9, 9),      # IoU 1.0 -> positive
             Box(0, 0, 19, 9),     # IoU 0.5 -> positive (boundary)
             Box(0, 0, 29, 9),     # IoU 1/3 -> excluded
             Box(0, 0, 9, 2),      # IoU 0.3 -> excluded (boundary)
             Box(50, 50, 59, 59)]  # IoU 0.0 -> negative
    labels = assign_labels(boxes, gts, pos_iou=0.5, neg_iou=0.3)
    assert list(labels) == [1, 1, 0, 0, -1]


def test_assign_labels_no_gt_all_negative():
    labels = assign_labels([Box(0, 0, 4, 4), Box(5, 5, 9, 9)], [], 0.5, 0.3)
    assert list(labels) == [-1, -1]


def test_assign_labels_best_gt_wins():
    gts = [Box(0, 0, 9, 9), Box(100, 100, 109, 109)]
    labels = assign_labels([Box(100, 100, 109, 109)], gts, 0.5, 0.3)
    assert list(labels) == [1]


def test_assign_labels_and_init_latent_match_per_pair_iou(rng):
    for _ in range(20):
        boxes = random_boxes(rng, 6, 12, 12)
        gts = random_boxes(rng, int(rng.integers(0, 4)), 12, 12)
        best = [max((iou(b, g) for g in gts), default=0.0) for b in boxes]
        expected = [1 if v >= 0.5 else -1 if v < 0.3 else 0 for v in best]
        assert assign_labels(boxes, gts, 0.5, 0.3).tolist() == expected
        masks = random_masks(rng, 4, 12, 12)[::-1]       # ids not in order
        bundle = make_bundle("img", 12, 12, boxes, masks, np.zeros((4, 2)),
                             rng.normal(0, 1, (6, 3)), rng.normal(0, 1, (6, 2)),
                             2, -0.7)
        for b, box in enumerate(boxes):
            overlaps = {m.segment_id: iou(box, tight_box(m)) for m in masks}
            top = max(overlaps.values())
            expected_id = min(i for i, v in overlaps.items() if v == top)
            assert init_latent(bundle, b, 2) == [expected_id] * 2


def _two_rect_bundle(rng, raw_scores=None, n_classes=2):
    # segment 0 is a 6x6 block under the box, segment 1 is far away
    a = np.zeros((20, 20), dtype=bool)
    a[2:8, 2:8] = True
    b = np.zeros((20, 20), dtype=bool)
    b[14:18, 14:18] = True
    masks = [SegmentMask.from_array(a, "img", 0), SegmentMask.from_array(b, "img", 1)]
    boxes = [Box(2, 2, 7, 7)]
    if raw_scores is None:
        raw_scores = np.zeros((2, n_classes))
    return make_bundle("img", 20, 20, boxes, masks, raw_scores,
                       rng.normal(0, 1, (1, 3)), rng.normal(0, 1, (1, 2)), 2, -0.7)


def test_init_latent_picks_best_overlap(rng):
    bundle = _two_rect_bundle(rng)
    assert init_latent(bundle, 0, 2) == [0, 0]


def test_init_latent_no_segments(rng):
    bundle = make_bundle("img", 10, 10, [Box(0, 0, 4, 4)], [], np.zeros((1, 2)),
                         rng.normal(0, 1, (1, 3)), rng.normal(0, 1, (1, 2)),
                         2, -0.7)
    assert init_latent(bundle, 0, 2) == [None, None]


def test_init_latent_tie_lowest_id(rng):
    # two identical segments: the smaller id must win
    a = np.zeros((10, 10), dtype=bool)
    a[1:5, 1:5] = True
    masks = [SegmentMask.from_array(a, "img", 5), SegmentMask.from_array(a, "img", 2)]
    bundle = make_bundle("img", 10, 10, [Box(1, 1, 4, 4)], masks, np.zeros((2, 2)),
                         rng.normal(0, 1, (1, 3)), rng.normal(0, 1, (1, 2)),
                         2, -0.7)
    assert init_latent(bundle, 0, 2) == [2, 2]


def test_relabel_matches_per_class_enumeration(rng):
    for _ in range(10):
        masks = random_masks(rng, 3, 12, 12)
        boxes = random_boxes(rng, 2, 12, 12)
        bundle = make_bundle("img", 12, 12, boxes, masks,
                             rng.normal(0, 2, (3, 2)), rng.normal(0, 1, (2, 4)),
                             rng.normal(0, 1, (2, 3)), 2, -0.7)
        weights = ModelWeights.zeros(2, 2, -0.7, 4, 3)
        weights.w_seg = rng.normal(0, 0.5, weights.w_seg.shape)
        for b in range(2):
            latent = relabel_positives(bundle, weights, 1, b)
            # brute force each class separately
            contribs = segment_contributions(bundle, weights, 1, b)
            for c in range(2):
                best_val, best_id = 0.0, None
                for i in sorted(range(3), key=lambda i: bundle.seg_ids[i]):
                    if contribs[i, c] > best_val:
                        best_val, best_id = contribs[i, c], bundle.seg_ids[i]
                assert latent[c] == best_id


def test_seg_feature_vector_layout(rng):
    bundle = _two_rect_bundle(rng)
    L = bundle.seg_base.shape[2] + 1
    d = bundle.appearance.shape[1] + bundle.context.shape[1]
    v = _cache(bundle, [[None, 1]])[0, d:-1]
    assert np.all(v[:L] == 0.0)
    expected = np.append(bundle.seg_base[0, 1], bundle.sigmoid_scores[1, 1])
    np.testing.assert_array_equal(v[L:], expected)


def test_seg_feature_vector_all_none(rng):
    bundle = _two_rect_bundle(rng)
    d = bundle.appearance.shape[1] + bundle.context.shape[1]
    row = _cache(bundle, [[None, None]])[0]
    assert not row[d:-1].any() and row[-1] == 1.0


@pytest.mark.parametrize("grid_k", [1, 2, 3])
@pytest.mark.parametrize("n_classes", [1, 2, 3, 4])
def test_cache_matrix_matches_per_box_oracle(n_classes, grid_k):
    """Positives image by image, then negatives from several images in mining order."""
    rng = np.random.default_rng(10 * n_classes + grid_k)
    d_app, d_ctx = 5, 3
    bundles = []
    for i in range(4):
        n_segs = 0 if i == 1 else int(rng.integers(1, 5))
        ids = sorted(rng.choice(50, n_segs, replace=False).tolist())
        masks = [SegmentMask(m.image_id, seg_id, m.height, m.width, m.runs.tolist())
                 for m, seg_id in zip(random_masks(rng, n_segs, 11, 9), ids)]
        n_boxes = int(rng.integers(1, 6))
        bundles.append(make_bundle(
            f"img{i}", 11, 9, random_boxes(rng, n_boxes, 11, 9), masks,
            rng.normal(0, 2, (n_segs, n_classes)), rng.normal(0, 1, (n_boxes, d_app)),
            rng.normal(0, 1, (n_boxes, d_ctx)), grid_k, -0.7))

    def entry(i):
        options = [None, *bundles[i].seg_ids]
        latent = [options[rng.integers(len(options))] for _ in range(n_classes)]
        return i, int(rng.integers(bundles[i].n_boxes)), latent

    positives = [entry(i) for i in range(4) for _ in range(2)]
    positives.append((0, 0, [None] * n_classes))
    negatives = [entry(int(i)) for i in rng.integers(0, 4, 12)]
    entries = positives + negatives
    weights = ModelWeights.zeros(n_classes, grid_k, -0.7, d_app, d_ctx)
    X = training._cache_matrix(bundles, entries, weights)
    L = weights.seg_block_len
    oracle = np.array([instance_row(bundles[i], b, latent, L)
                       for i, b, latent in entries])
    assert X.shape == oracle.shape and X.tobytes() == oracle.tobytes()


def test_mining_keeps_only_violators():
    scored = [(0.5, "a", 0, None), (-0.5, "a", 1, None),
              (-1.0, "a", 2, None), (-2.0, "b", 0, None)]
    mined = mine_hard_negatives(scored, cap=10)
    assert [(s, i, b) for s, i, b, _ in mined] == [(0.5, "a", 0), (-0.5, "a", 1)]


def test_mining_cap_keeps_highest():
    scored = [(float(s) / 10, "a", s, None) for s in range(8)]
    mined = mine_hard_negatives(scored, cap=3)
    assert [b for _, _, b, _ in mined] == [7, 6, 5]
    # soundness: every kept score >= every dropped violator score
    kept = {b for _, _, b, _ in mined}
    dropped = [s / 10 for s in range(8) if s not in kept]
    assert min(s for s, _, _, _ in mined) >= max(dropped)


def test_mining_sees_each_negative_once(tmp_path, monkeypatch):
    """mine_hard_negatives keeps no dedup: train scores each (image, box) once."""
    mine = training.mine_hard_negatives
    calls = []

    def checked(scored_negatives, cap):
        keys = [(image_id, box_id) for _, image_id, box_id, _ in scored_negatives]
        assert len(set(keys)) == len(keys)
        calls.append(len(keys))
        return mine(scored_negatives, cap)

    generate(SynthConfig(seed=1, n_images=6), tmp_path)
    dataset = Dataset(read_manifest(tmp_path / "manifest.txt"), min_segment_pixels=0)
    monkeypatch.setattr(training, "mine_hard_negatives", checked)
    train(dataset, Config(min_segment_pixels=0, grid_k=2, epochs=2, outer_iters=2))
    assert len(calls) == 2 * dataset.n_classes and min(calls) > 0


def _separable_problem(rng, n=60, d=3, margin=2.0):
    X = rng.normal(0, 1, (n, d))
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    X[:, 0] += margin * y
    return np.hstack([X, np.ones((n, 1))]), y


def test_sgd_separates_easy_problem(rng):
    X, y = _separable_problem(rng)
    cfg = Config(c_reg=1.0, eta0=0.05, epochs=60, batch_size=8)
    w, trace = sgd_fit(X, y, np.zeros(X.shape[1]), cfg, 1)
    assert np.all(np.sign(X @ w) == y)
    assert trace[-1] <= trace[0]


def test_sgd_objective_never_worse_than_start(rng):
    X, y = _separable_problem(rng, n=40)
    cfg = Config(c_reg=0.5, eta0=0.02, epochs=5, batch_size=4)
    w0 = rng.normal(0, 1, X.shape[1])
    start = hinge_objective(w0, X, y, cfg.c_reg)
    w, _ = sgd_fit(X, y, w0, cfg, 3)
    assert hinge_objective(w, X, y, cfg.c_reg) <= start + 1e-12


def test_sgd_deterministic(rng):
    X, y = _separable_problem(rng)
    cfg = Config(c_reg=1.0, eta0=0.05, epochs=10, batch_size=8)
    w1, t1 = sgd_fit(X, y, np.zeros(X.shape[1]), cfg, 2)
    w2, t2 = sgd_fit(X, y, np.zeros(X.shape[1]), cfg, 2)
    np.testing.assert_array_equal(w1, w2)
    assert t1 == t2


def test_sgd_small_c_shrinks_weights(rng):
    X, y = _separable_problem(rng)
    big = sgd_fit(X, y, np.zeros(X.shape[1]),
                  Config(c_reg=10.0, eta0=0.05, epochs=40), 0)[0]
    small = sgd_fit(X, y, np.zeros(X.shape[1]),
                    Config(c_reg=1e-4, eta0=0.05, epochs=40), 0)[0]
    assert np.linalg.norm(small[:-1]) < np.linalg.norm(big[:-1])


def test_hinge_objective_values():
    X = np.array([[1.0, 1.0], [-2.0, 1.0]])
    y = np.array([1.0, -1.0])
    w = np.array([1.0, 0.0])
    # margins: 1 - 1*1 = 0 and 1 - (-1)(-2) = -1, both satisfied
    assert hinge_objective(w, X, y, 5.0) == pytest.approx(1.0)
    w = np.array([0.0, 0.0])
    assert hinge_objective(w, X, y, 5.0) == pytest.approx(10.0)


def test_no_seg_training_keeps_seg_weights_at_plus_zero(tmp_path):
    from segdetect.config import load_config
    from segdetect.dataset import Dataset, read_manifest
    from segdetect.synth import SynthConfig, generate
    from segdetect.training import train
    generate(SynthConfig(seed=3, n_images=12, box_jitter=0.1, seg_noise=0.1,
                         feature_noise=1.0), str(tmp_path))
    cfg = load_config(tmp_path / "config.txt")
    dataset = Dataset(read_manifest(tmp_path / "manifest.txt"),
                      min_segment_pixels=cfg.min_segment_pixels)
    result = train(dataset, cfg, use_seg=False)
    assert result.rounds and cfg.outer_iters > 1
    assert np.all(result.weights.w_seg == 0.0)
    assert not np.signbit(result.weights.w_seg).any()
    assert all(r.num_latent_changed == 0 for r in result.rounds)
    assert np.any(result.weights.w_app != 0.0)


def test_train_builds_rows_only_for_kept_negatives(tmp_path, monkeypatch):
    from segdetect.config import load_config
    from segdetect.dataset import Dataset, read_manifest
    from segdetect.synth import SynthConfig, generate
    generate(SynthConfig(seed=4, n_images=8, boxes_per_image=12, feature_noise=1.0),
             str(tmp_path))
    cfg = load_config(tmp_path / "config.txt")
    cfg.neg_cache_cap = 5
    dataset = Dataset(read_manifest(tmp_path / "manifest.txt"),
                      min_segment_pixels=cfg.min_segment_pixels)
    built, fitted = [], []
    fill_rows, sgd = training._fill_rows, training.sgd_fit

    def counted_rows(X, rows, *args):
        built.extend(rows)
        return fill_rows(X, rows, *args)

    def counted_sgd(X, *args):
        fitted.append(len(X))
        return sgd(X, *args)

    monkeypatch.setattr(training, "_fill_rows", counted_rows)
    monkeypatch.setattr(training, "sgd_fit", counted_sgd)
    result = training.train(dataset, cfg)
    assert result.rounds and all(r.num_hard_negs == 5 for r in result.rounds)
    assert len(built) == sum(fitted)


def test_train_class_peak_memory_in_caches(tmp_path, monkeypatch):
    """train_class holds one round's cache at a time, built in place.

    The traced peak above train_class's start, in units of the largest cache
    X, read 4.24 when each round built a list of one-row arrays, copied it
    into X while the previous round's X was still alive, and sgd_fit took
    |X| as a copy.  It reads 1.87 with one matrix per round and no copy.
    """
    from segdetect.config import load_config
    from segdetect.dataset import Dataset, read_manifest
    from segdetect.synth import SynthConfig, generate
    generate(SynthConfig(seed=4, n_images=300, boxes_per_image=12, feature_noise=1.0),
             str(tmp_path))
    cfg = load_config(tmp_path / "config.txt")
    dataset = Dataset(read_manifest(tmp_path / "manifest.txt"),
                      min_segment_pixels=cfg.min_segment_pixels)
    peaks, caches = [], []
    train_class, sgd = training.train_class, training.sgd_fit

    def traced_train_class(*args, **kwargs):
        tracemalloc.start()
        try:
            return train_class(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def measured_sgd(X, *args):
        caches.append(X.nbytes)
        return sgd(X, *args)

    monkeypatch.setattr(training, "train_class", traced_train_class)
    monkeypatch.setattr(training, "sgd_fit", measured_sgd)
    training.train(dataset, cfg)
    assert max(peaks) / max(caches) < 2.5, (max(peaks), max(caches))
