import itertools

import numpy as np
import pytest

from conftest import make_bundle, random_boxes, random_masks
from segdetect.boxes import Box
from segdetect.masks import SegmentMask, tight_box
from segdetect.model import ModelWeights, score_box
from segdetect.training import (SgdConfig, assign_labels, hinge_objective,
                                init_latent, mine_hard_negatives,
                                relabel_positives, seg_feature_vector, sgd_fit)


def test_assign_labels_thresholds():
    gts = [Box(0, 0, 9, 9)]
    boxes = [Box(0, 0, 9, 9),      # IoU 1.0 -> positive
             Box(0, 0, 19, 9),     # IoU 0.5 -> positive (boundary)
             Box(0, 0, 29, 9),     # IoU 1/3 -> excluded
             Box(50, 50, 59, 59)]  # IoU 0.0 -> negative
    labels = assign_labels(boxes, gts, pos_iou=0.5, neg_iou=0.3)
    assert list(labels) == [1, 1, 0, -1]


def test_assign_labels_no_gt_all_negative():
    labels = assign_labels([Box(0, 0, 4, 4), Box(5, 5, 9, 9)], [])
    assert list(labels) == [-1, -1]


def test_assign_labels_best_gt_wins():
    gts = [Box(0, 0, 9, 9), Box(100, 100, 109, 109)]
    labels = assign_labels([Box(100, 100, 109, 109)], gts, 0.5, 0.3)
    assert list(labels) == [1]


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
            from segdetect.model import segment_contributions
            contribs = segment_contributions(bundle, weights, 1, b)
            for c in range(2):
                best_val, best_id = 0.0, None
                for i in sorted(range(3), key=lambda i: bundle.seg_ids[i]):
                    if contribs[i, c] > best_val:
                        best_val, best_id = contribs[i, c], bundle.seg_ids[i]
                assert latent[c] == best_id


def test_seg_feature_vector_layout(rng):
    bundle = _two_rect_bundle(rng)
    L = bundle.seg_base.shape[2]
    v = seg_feature_vector(bundle, 0, [None, 1], L)
    assert np.all(v[:L] == 0.0)
    expected = bundle.seg_base[0, 1].copy()
    expected[-1] = bundle.sigmoid_scores[1, 1]
    np.testing.assert_array_equal(v[L:], expected)


def test_seg_feature_vector_all_none(rng):
    bundle = _two_rect_bundle(rng)
    L = bundle.seg_base.shape[2]
    assert not seg_feature_vector(bundle, 0, [None, None], L).any()


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


def test_mining_dedup_first_occurrence():
    scored = [(0.9, "a", 0, "first"), (0.1, "a", 0, "second")]
    mined = mine_hard_negatives(scored, cap=10)
    assert len(mined) == 1
    assert mined[0][3] == "first"


def _separable_problem(rng, n=60, d=3, margin=2.0):
    X = rng.normal(0, 1, (n, d))
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    X[:, 0] += margin * y
    return np.hstack([X, np.ones((n, 1))]), y


def test_sgd_separates_easy_problem(rng):
    X, y = _separable_problem(rng)
    cfg = SgdConfig(c_reg=1.0, eta0=0.05, epochs=60, batch_size=8, seed=1)
    w, trace = sgd_fit(X, y, np.zeros(X.shape[1]), cfg)
    assert np.all(np.sign(X @ w) == y)
    assert trace[-1] <= trace[0]


def test_sgd_objective_never_worse_than_start(rng):
    X, y = _separable_problem(rng, n=40)
    cfg = SgdConfig(c_reg=0.5, eta0=0.02, epochs=5, batch_size=4, seed=3)
    w0 = rng.normal(0, 1, X.shape[1])
    start = hinge_objective(w0, X, y, cfg.c_reg)
    w, _ = sgd_fit(X, y, w0, cfg)
    assert hinge_objective(w, X, y, cfg.c_reg) <= start + 1e-12


def test_sgd_deterministic(rng):
    X, y = _separable_problem(rng)
    cfg = SgdConfig(c_reg=1.0, eta0=0.05, epochs=10, batch_size=8, seed=2)
    w1, t1 = sgd_fit(X, y, np.zeros(X.shape[1]), cfg)
    w2, t2 = sgd_fit(X, y, np.zeros(X.shape[1]), cfg)
    np.testing.assert_array_equal(w1, w2)
    assert t1 == t2


def test_sgd_small_c_shrinks_weights(rng):
    X, y = _separable_problem(rng)
    big = sgd_fit(X, y, np.zeros(X.shape[1]),
                  SgdConfig(c_reg=10.0, eta0=0.05, epochs=40, seed=0))[0]
    small = sgd_fit(X, y, np.zeros(X.shape[1]),
                    SgdConfig(c_reg=1e-4, eta0=0.05, epochs=40, seed=0))[0]
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
