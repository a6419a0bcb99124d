import itertools

import numpy as np
import pytest

from conftest import make_bundle, random_boxes, random_masks
from segdetect.boxes import Box
from segdetect.errors import InputError
from segdetect.masks import SegmentMask
from segdetect.model import (Detection, ModelWeights, detect_image, load_model,
                             nms, read_detections, save_model, score_box,
                             segment_contributions, select_segment,
                             write_detections)
from segdetect.segfeat import GridSpec, assemble_block, block_length


def brute_force_score(bundle, weights, detector, box_index):
    """Enumerate every joint segment assignment; independent of the greedy path."""
    d = detector - 1
    base = float(bundle.appearance[box_index] @ weights.w_app[d]
                 + bundle.context[box_index] @ weights.w_ctx[d]
                 + weights.bias[d])
    grid = GridSpec(weights.grid_k)
    choices = [None] + list(range(bundle.n_segs))
    best = -np.inf
    for joint in itertools.product(choices, repeat=weights.n_classes):
        total = base
        for c, pick in enumerate(joint):
            if pick is None:
                continue
            block = assemble_block(bundle.boxes[box_index], bundle.segments[pick],
                                   0.0, grid, weights.lam, bundle.largest_area)
            block[-1] = bundle.sigmoid_scores[pick, c]
            total += float(block @ weights.seg_block(detector, c + 1))
        best = max(best, total)
    return best


def random_weights(rng, n_classes, grid_k, d_app, d_ctx, scale=0.5):
    w = ModelWeights.zeros(n_classes, grid_k, -0.7, d_app, d_ctx)
    w.w_app = rng.normal(0, scale, w.w_app.shape)
    w.w_ctx = rng.normal(0, scale, w.w_ctx.shape)
    w.w_seg = rng.normal(0, scale, w.w_seg.shape)
    w.bias = rng.normal(0, scale, w.bias.shape)
    return w


def random_instance(rng, n_classes, n_segs, n_boxes=3, grid_k=2):
    masks = random_masks(rng, n_segs, 12, 12)
    boxes = random_boxes(rng, n_boxes, 12, 12)
    d_app, d_ctx = 4, 3
    bundle = make_bundle("img", 12, 12, boxes, masks,
                         rng.normal(0, 2, (max(n_segs, 1), n_classes)),
                         rng.normal(0, 1, (n_boxes, d_app)),
                         rng.normal(0, 1, (n_boxes, d_ctx)), grid_k, -0.7)
    weights = random_weights(rng, n_classes, grid_k, d_app, d_ctx)
    return bundle, weights


def test_select_segment_zero_weights_prefers_none():
    assert select_segment(np.zeros(4), [3, 1, 2, 0]) == (None, 0.0)


def test_select_segment_positive():
    seg, contrib = select_segment(np.array([0.3]), [7])
    assert seg == 7 and contrib == pytest.approx(0.3)


def test_select_segment_tie_lowest_id():
    seg, _ = select_segment(np.array([0.5, 0.5]), [9, 4])
    assert seg == 4


def test_score_zero_weights(rng):
    bundle, weights = random_instance(rng, 3, 2)
    weights = ModelWeights.zeros(3, 2, -0.7, 4, 3)
    score, chosen = score_box(bundle, weights, 1, 0)
    assert score == 0.0
    assert chosen == [None, None, None]


def test_score_no_seg_weights_is_linear(rng):
    bundle, weights = random_instance(rng, 2, 3)
    weights.w_seg[:] = 0.0
    for detector in (1, 2):
        d = detector - 1
        expected = float(bundle.appearance[1] @ weights.w_app[d]
                         + bundle.context[1] @ weights.w_ctx[d]
                         + weights.bias[d])
        score, chosen = score_box(bundle, weights, detector, 1)
        assert score == pytest.approx(expected)
        assert all(c is None for c in chosen)


def test_score_scales_with_appearance_weights(rng):
    bundle, weights = random_instance(rng, 2, 2)
    weights.w_ctx[:] = 0.0
    weights.w_seg[:] = 0.0
    weights.bias[:] = 0.0
    s1, _ = score_box(bundle, weights, 1, 0)
    weights.w_app *= 2.0
    s2, _ = score_box(bundle, weights, 1, 0)
    assert s2 == pytest.approx(2.0 * s1)


def test_greedy_matches_enumeration(rng):
    for _ in range(25):
        n_classes = int(rng.integers(1, 4))
        n_segs = int(rng.integers(0, 4))
        bundle, weights = random_instance(rng, n_classes, n_segs)
        for b in range(bundle.n_boxes):
            greedy, _ = score_box(bundle, weights, 1, b)
            assert greedy == pytest.approx(
                brute_force_score(bundle, weights, 1, b), abs=1e-10)


def test_score_is_base_plus_clamped_contribution_maxima(rng):
    # the greedy score should equal base + sum_c max(0, max_s contrib[s, c])
    bundle, weights = random_instance(rng, 3, 4)
    for b in range(bundle.n_boxes):
        contribs = segment_contributions(bundle, weights, 1, b)
        base = float(bundle.appearance[b] @ weights.w_app[0]
                     + bundle.context[b] @ weights.w_ctx[0] + weights.bias[0])
        expected = base + sum(max(contribs[:, c].max(), 0.0) for c in range(3))
        score, _ = score_box(bundle, weights, 1, b)
        assert score == pytest.approx(expected, abs=1e-10)


def reference_score(bundle, weights, detector, box_index):
    """Linear part plus select_segment's contributions, added in class order."""
    d = detector - 1
    score = float(bundle.appearance[box_index] @ weights.w_app[d]
                  + bundle.context[box_index] @ weights.w_ctx[d]
                  + weights.bias[d])
    contribs = segment_contributions(bundle, weights, detector, box_index)
    chosen = []
    for c in range(weights.n_classes):
        seg_id, gain = select_segment(contribs[:, c], bundle.seg_ids)
        chosen.append(seg_id)
        score += gain
    return score, chosen


def tie_instance(rng, n_classes=3):
    """Two identical segments with equal class scores, and a third one."""
    masks = random_masks(rng, 2, 12, 12)
    masks = [SegmentMask(m.image_id, s, m.height, m.width, m.runs)
             for s, m in enumerate([masks[0], masks[0], masks[1]])]
    boxes = random_boxes(rng, 3, 12, 12)
    raw = rng.normal(0, 2, (3, n_classes))
    raw[1] = raw[0]
    bundle = make_bundle("img", 12, 12, boxes, masks, raw,
                         rng.normal(0, 1, (3, 4)), rng.normal(0, 1, (3, 3)), 2, -0.7)
    weights = random_weights(rng, n_classes, 2, 4, 3)
    # every seg feature is >= 0 and the overlap slot is > 0, so each class
    # picks a segment
    weights.w_seg = np.abs(weights.w_seg)
    return bundle, weights


def test_score_box_matches_select_segment_reference_exactly(rng):
    cases = [random_instance(rng, int(rng.integers(1, 5)), int(rng.integers(0, 6)))
             for _ in range(40)]
    tie = tie_instance(rng)
    zero_bundle, _ = random_instance(rng, 3, 4)
    cases += [tie, (zero_bundle, ModelWeights.zeros(3, 2, -0.7, 4, 3))]
    for bundle, weights in cases:
        for detector in range(1, weights.n_classes + 1):
            for b in range(bundle.n_boxes):
                assert score_box(bundle, weights, detector, b) == \
                    reference_score(bundle, weights, detector, b)
    bundle, weights = tie
    chosen = [seg for d in range(1, 4) for b in range(3)
              for seg in score_box(bundle, weights, d, b)[1]]
    assert 0 in chosen and 1 not in chosen and None not in chosen
    assert score_box(zero_bundle, cases[-1][1], 2, 1) == (0.0, [None, None, None])


def test_build_bundle_decodes_each_mask_at_most_twice(tmp_path, monkeypatch):
    from segdetect.dataset import Dataset, read_manifest
    from segdetect.model import build_bundle
    from segdetect.synth import SynthConfig, generate
    generate(SynthConfig(seed=2, n_images=3, boxes_per_image=12,
                         segments_per_image=3), str(tmp_path))
    dataset = Dataset(read_manifest(tmp_path / "manifest.txt"), min_segment_pixels=0)
    calls = {}
    to_array = SegmentMask.to_array

    def counted(mask):
        key = (mask.image_id, mask.segment_id)
        calls[key] = calls.get(key, 0) + 1
        return to_array(mask)

    monkeypatch.setattr(SegmentMask, "to_array", counted)
    for image_id in dataset.image_order:
        build_bundle(dataset, image_id, 2, -0.7)
    assert len(calls) == sum(len(dataset.record(i).masks) for i in dataset.image_order)
    assert max(calls.values()) <= 2


def quadratic_nms(boxes, scores, box_ids, thresh):
    from segdetect.boxes import iou
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], box_ids[i]))
    kept = []
    for i in order:
        ok = True
        for j in kept:
            if iou(boxes[i], boxes[j]) > thresh:
                ok = False
        if ok:
            kept.append(i)
    return kept


def test_nms_identical_boxes():
    boxes = [Box(0, 0, 9, 9), Box(0, 0, 9, 9)]
    kept = nms(boxes, [0.9, 0.8], [0, 1], 0.5)
    assert kept == [0]


def test_nms_disjoint_all_survive():
    boxes = [Box(0, 0, 4, 4), Box(10, 10, 14, 14), Box(20, 0, 24, 4)]
    assert sorted(nms(boxes, [0.1, 0.9, 0.5], [0, 1, 2], 0.3)) == [0, 1, 2]


def test_nms_matches_quadratic_reference(rng):
    for _ in range(10):
        boxes = random_boxes(rng, 50, 40, 40)
        scores = list(rng.normal(0, 1, 50))
        ids = list(range(50))
        assert nms(boxes, scores, ids, 0.3) == quadratic_nms(boxes, scores, ids, 0.3)


def test_nms_order_independent(rng):
    boxes = random_boxes(rng, 20, 30, 30)
    scores = list(rng.normal(0, 1, 20))   # distinct with prob 1
    ids = list(range(20))
    ref = {ids[i] for i in nms(boxes, scores, ids, 0.3)}
    perm = rng.permutation(20)
    kept = nms([boxes[i] for i in perm], [scores[i] for i in perm],
               [ids[i] for i in perm], 0.3)
    assert {ids[perm[i]] for i in kept} == ref


def test_detect_image_top_k(rng):
    bundle, weights = random_instance(rng, 2, 1, n_boxes=5)
    dets = detect_image(bundle, weights, nms_iou=0.99, top_k=2)
    per_class = {}
    for d in dets:
        per_class.setdefault(d.class_id, []).append(d)
    for class_dets in per_class.values():
        assert len(class_dets) <= 2
        scores = [d.score for d in class_dets]
        assert scores == sorted(scores, reverse=True)


def test_model_file_roundtrip(tmp_path, rng):
    weights = random_weights(rng, 3, 2, 5, 4)
    path = tmp_path / "model.txt"
    save_model(path, weights)
    loaded = load_model(path)
    assert loaded.n_classes == weights.n_classes
    assert loaded.grid_k == weights.grid_k
    assert loaded.lam == weights.lam
    np.testing.assert_array_equal(loaded.w_app, weights.w_app)
    np.testing.assert_array_equal(loaded.w_ctx, weights.w_ctx)
    np.testing.assert_array_equal(loaded.w_seg, weights.w_seg)
    np.testing.assert_array_equal(loaded.bias, weights.bias)


def test_model_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a model\n")
    with pytest.raises(InputError):
        load_model(path)


def test_detections_roundtrip(tmp_path):
    dets = [Detection("img0", 1, 0, Box(1.5, 2.0, 8.25, 9.0), 0.73, [None, 4]),
            Detection("img1", 2, 3, Box(0, 0, 5, 5), -1.25, [7, None])]
    path = tmp_path / "dets.csv"
    write_detections(path, dets)
    loaded = read_detections(path)
    assert len(loaded) == 2
    for a, b in zip(loaded, dets):
        assert a.image_id == b.image_id
        assert a.class_id == b.class_id
        assert a.score == b.score
        assert a.box == b.box
        assert a.chosen_segments == b.chosen_segments


def test_block_layout_length():
    assert block_length(3) == 22
