import itertools

import numpy as np
import pytest

from conftest import (group_bundle, make_bundle, random_boxes, random_masks,
                      segment_contributions)
from segdetect.boxes import Box
from segdetect.errors import InputError
from segdetect.masks import SegmentMask
from segdetect.model import (SCORE_CHUNK_FLOATS, Detection, ModelWeights, detect_image,
                             load_model, nms, overlap_matrix, read_detections, save_model,
                             score_box, score_boxes, select_segment, write_detections)
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
    masks = [SegmentMask(m.image_id, s, m.height, m.width, m.runs.tolist())
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


def test_score_boxes_equals_per_box_scoring_exactly(rng):
    cases = [random_instance(rng, int(rng.integers(1, 5)), int(rng.integers(0, 7)),
                             n_boxes=int(rng.integers(1, 9)),
                             grid_k=int(rng.integers(1, 4)))
             for _ in range(30)]
    no_boxes = random_instance(rng, 2, 3, n_boxes=0)
    zero_bundle, _ = random_instance(rng, 3, 4, n_boxes=4)
    zero_weights = ModelWeights.zeros(3, 2, -0.7, 4, 3)
    cases += [random_instance(rng, 3, 0, n_boxes=5),     # no segments
              no_boxes, tie_instance(rng), (zero_bundle, zero_weights)]
    for bundle, weights in cases:
        n = bundle.n_boxes
        subsets = [None, list(range(n - 1, -1, -2)),
                   [int(b) for b in rng.permutation(n)[:n // 2 + 1]]]
        for detector in range(1, weights.n_classes + 1):
            per_box = [score_box(bundle, weights, detector, b) for b in range(n)]
            assert per_box == [reference_score(bundle, weights, detector, b)
                               for b in range(n)]
            for subset in subsets:
                expected = per_box if subset is None else [per_box[b] for b in subset]
                scores, chosen = score_boxes(bundle, weights, detector, subset)
                assert list(zip(scores, chosen)) == expected
    assert score_boxes(*no_boxes, 1) == ([], [])
    assert score_boxes(zero_bundle, zero_weights, 3) == ([0.0] * 4, [[None] * 3] * 4)


def test_score_boxes_across_chunks_at_20_classes_matches_reference_exactly(rng):
    """400 boxes x 8 segments x 20 classes is three chunks of at most 182 boxes.

    Segment 1 copies segment 0 and its scores, so the two tie wherever one
    of them is best, and segment 0 must win.  Their high scores make that
    common.
    """
    n_classes, n_boxes = 20, 400
    masks = random_masks(rng, 7, 12, 12)
    masks = [SegmentMask(m.image_id, s, m.height, m.width, m.runs.tolist())
             for s, m in enumerate([masks[0], *masks])]
    raw = rng.normal(0, 2, (8, n_classes))
    raw[:2] = 8.0
    bundle = make_bundle("img", 12, 12, random_boxes(rng, n_boxes, 12, 12), masks, raw,
                         rng.normal(0, 1, (n_boxes, 4)), rng.normal(0, 1, (n_boxes, 3)),
                         2, -0.7)
    weights = random_weights(rng, n_classes, 2, 4, 3)
    assert n_boxes > 2 * (SCORE_CHUNK_FLOATS // (n_classes * (bundle.n_segs + 1)))
    subset = [int(b) for b in rng.permutation(n_boxes)[:300]]
    for detector in (1, 20):
        expected = [reference_score(bundle, weights, detector, b) for b in range(n_boxes)]
        scores, chosen = score_boxes(bundle, weights, detector)
        assert list(zip(scores, chosen)) == expected
        scores, chosen = score_boxes(bundle, weights, detector, np.array(subset))
        assert list(zip(scores, chosen)) == [expected[b] for b in subset]
        picked = {seg for segs in chosen for seg in segs}
        assert {None, 0} <= picked and 1 not in picked

    bundle, weights = tie_instance(rng, n_classes)
    for detector in range(1, n_classes + 1):
        scores, chosen = score_boxes(bundle, weights, detector)
        assert list(zip(scores, chosen)) == \
            [reference_score(bundle, weights, detector, b) for b in range(3)]
        assert 1 not in {seg for segs in chosen for seg in segs}


def test_score_boxes_on_a_group_equals_per_image_scoring_exactly(rng, monkeypatch):
    """A group bundle scores each row as its own image does, bit for bit.

    In every image of the three-segment group, the two lowest-id segments
    are copies with equal scores, so they tie wherever one of them is best,
    and that image's lowest id (index 0) must win.  Class 2's weight block
    is zero, so every segment ties with none there, and none must win.  The
    ids differ per image.  A group without segments picks none everywhere.
    Row subsets run across images, in any order, and across score chunks
    of two (or ten) rows.
    """
    from segdetect import model
    monkeypatch.setattr(model, "SCORE_CHUNK_FLOATS", 32)
    n_classes = 3
    weights = random_weights(rng, n_classes, 2, 4, 3)
    weights.w_seg = np.abs(weights.w_seg)
    L = weights.seg_block_len
    weights.w_seg[:, L:2 * L] = 0.0
    groups = []
    for n_segs in (3, 0):
        bundles = []
        for _ in range(5):
            masks = random_masks(rng, 2, 12, 12)
            ids = sorted(rng.choice(40, n_segs, replace=False).tolist())
            masks = [SegmentMask("img", seg_id, m.height, m.width, m.runs.tolist())
                     for seg_id, m in zip(ids, [masks[0], masks[0], masks[1]])]
            raw = rng.normal(0, 2, (n_segs, n_classes))
            raw[1:2] = raw[:1]
            n_boxes = int(rng.integers(0, 12))
            bundles.append(make_bundle(
                "img", 12, 12, random_boxes(rng, n_boxes, 12, 12), masks, raw,
                rng.normal(0, 1, (n_boxes, 4)), rng.normal(0, 1, (n_boxes, 3)), 2, -0.7))
        groups.append((bundles, group_bundle(bundles)))
    picked = set()
    for bundles, group in groups:
        assert group.n_boxes > 2 * (32 // (n_classes * (group.n_segs + 1)))
        for detector in range(1, n_classes + 1):
            expected = []
            for bundle in bundles:
                for score, chosen in zip(*score_boxes(bundle, weights, detector)):
                    expected.append((score, [None if h is None else bundle.seg_ids.index(h)
                                             for h in chosen]))
            for rows in (None, rng.permutation(group.n_boxes)[:group.n_boxes // 2]):
                scores, chosen = score_boxes(group, weights, detector, rows)
                want = expected if rows is None else [expected[r] for r in rows]
                assert list(zip(scores, chosen)) == want
                picked.update((c, h) for segs in chosen for c, h in enumerate(segs))
    assert {(0, 0), (2, 2), (1, None)} <= picked
    assert not any(h == 1 for _, h in picked) and not any(c == 1 and h is not None
                                                          for c, h in picked)


def test_score_boxes_working_memory_is_bounded_by_the_chunk(rng):
    """500 boxes x 50 segments x 20 classes: at most 1 MB above the output.

    Unchunked, the call peaked about 12 MB above it.
    """
    import tracemalloc
    from segdetect.model import FeatureBundle
    n_boxes, n_segs, n_classes, grid_k = 500, 50, 20, 3
    L = block_length(grid_k)
    bundle = FeatureBundle("img", 500, 375, list(range(n_boxes)), [None] * n_boxes,
                           rng.normal(0, 1, (n_boxes, 16)), rng.normal(0, 1, (n_boxes, 8)),
                           list(range(n_segs)), rng.random((n_boxes, n_segs, L - 1)),
                           rng.random((n_segs, n_classes)))
    weights = random_weights(rng, n_classes, grid_k, 16, 8)
    tracemalloc.start()
    try:
        out = score_boxes(bundle, weights, 1)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out[0]) == n_boxes
    assert peak - current <= 2 ** 20, (peak - current) / 2 ** 20


@pytest.mark.parametrize("n,segs,L,C", [(8, 4, 11, 20), (500, 50, 21, 20), (3, 0, 11, 3)])
def test_stacked_products_round_as_per_box_products(n, segs, L, C):
    """The numpy/BLAS dispatch score_boxes' bit-exactness rests on.

    A stacked (segs, L) @ (L, 1) product is the same gemv as a (segs, L)
    block times a 1-D vector, and a stacked (1, d) @ (d, 1) the same dot as
    two 1-D vectors.  If a numpy or BLAS upgrade changes the golden hashes,
    this test names the cause.
    """
    rng = np.random.default_rng(n + segs)
    # seg_base is contiguous; a strided view of the same values gives the same bits
    blocks = rng.normal(0, 1, (n, segs, L + 1))[..., :-1]
    W = rng.normal(0, 1, (C, L))
    for b in (blocks, np.ascontiguousarray(blocks)):
        stacked = (b[:, None] @ W[:, :, None])[..., 0]
        assert np.array_equal(stacked, np.stack([b @ w for w in W], 1))
    for d in (L, 16, 8):
        rows, v = rng.normal(0, 1, (n, d)), rng.normal(0, 1, d)
        stacked = (rows[:, None] @ v[:, None])[:, 0, 0]
        assert np.array_equal(stacked, np.array([r @ v for r in rows]))


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


def test_segment_blocks_holds_about_two_tables_and_leaves_none_on_the_masks(tmp_path):
    import tracemalloc
    from segdetect.dataset import Dataset, read_manifest
    from segdetect.model import build_bundle, segment_blocks
    from segdetect.synth import SynthConfig, generate
    rng = np.random.default_rng(7)
    masks = []
    for s in range(30):
        arr = np.zeros((300, 300), dtype=bool)
        y, x = rng.integers(0, 250, 2)
        arr[y:y + rng.integers(10, 50), x:x + rng.integers(10, 50)] = True
        masks.append(SegmentMask.from_array(arr, "img", s))
    boxes = random_boxes(rng, 10, 300, 300)
    table_bytes = 301 * 301 * np.dtype(np.int32).itemsize
    tracemalloc.start()
    try:
        segment_blocks(boxes, masks, 3, -0.7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * table_bytes, peak / table_bytes
    assert all(mask._integral is None for mask in masks)

    generate(SynthConfig(seed=2, n_images=3, boxes_per_image=12,
                         segments_per_image=3), str(tmp_path))
    dataset = Dataset(read_manifest(tmp_path / "manifest.txt"), min_segment_pixels=0)
    for image_id in dataset.image_order:
        build_bundle(dataset, image_id, 2, -0.7)
    assert all(mask._integral is None for image_id in dataset.image_order
               for mask in dataset.record(image_id).masks)


def test_segment_blocks_without_boxes_builds_no_table(rng, monkeypatch):
    from segdetect import model
    built = []
    monkeypatch.setattr(model, "summed_area", built.append)
    out = model.segment_blocks([], random_masks(rng, 3, 12, 12), 2, -0.7)
    assert out.shape == (0, 3, block_length(2) - 1) and not built


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


def nms_of(boxes, scores, box_ids, thresh):
    """nms on the overlap matrix of boxes."""
    return nms(overlap_matrix(boxes, thresh), scores, box_ids)


def test_nms_identical_boxes():
    boxes = [Box(0, 0, 9, 9), Box(0, 0, 9, 9)]
    kept = nms_of(boxes, [0.9, 0.8], [0, 1], 0.5)
    assert kept == [0]


def test_nms_disjoint_all_survive():
    boxes = [Box(0, 0, 4, 4), Box(10, 10, 14, 14), Box(20, 0, 24, 4)]
    assert sorted(nms_of(boxes, [0.1, 0.9, 0.5], [0, 1, 2], 0.3)) == [0, 1, 2]


def test_nms_matches_quadratic_reference(rng):
    for _ in range(10):
        boxes = random_boxes(rng, 50, 40, 40)
        scores = list(rng.normal(0, 1, 50))
        ids = list(range(50))
        assert nms_of(boxes, scores, ids, 0.3) == quadratic_nms(boxes, scores, ids, 0.3)


@pytest.mark.parametrize("thresh", [0.0, 0.3, 1.0])
def test_nms_matches_quadratic_reference_on_ties(rng, thresh):
    for _ in range(10):
        boxes = random_boxes(rng, 30, 20, 20)
        boxes += boxes[:6]                                   # identical boxes
        boxes += [Box(b.x1 + 0.5, b.y1, b.x2 + 0.5, b.y2 - 0.5)
                  for b in boxes[6:12] if b.y2 - 0.5 >= b.y1]   # rounding halves
        scores = [float(v) for v in rng.integers(0, 3, len(boxes))]   # equal scores
        ids = [int(i) for i in rng.permutation(len(boxes))]
        assert nms_of(boxes, scores, ids, thresh) == quadratic_nms(boxes, scores, ids, thresh)
    assert nms_of([], [], [], thresh) == []


def test_nms_order_independent(rng):
    boxes = random_boxes(rng, 20, 30, 30)
    scores = list(rng.normal(0, 1, 20))   # distinct with prob 1
    ids = list(range(20))
    ref = {ids[i] for i in nms_of(boxes, scores, ids, 0.3)}
    perm = rng.permutation(20)
    kept = nms_of([boxes[i] for i in perm], [scores[i] for i in perm],
               [ids[i] for i in perm], 0.3)
    assert {ids[perm[i]] for i in kept} == ref


def _boxes_bundle(rng, n_boxes, n_classes, n_segs=3, grid_k=2):
    """A bundle of n_boxes boxes in a 120x90 image, with random cached features."""
    from segdetect.model import FeatureBundle
    boxes = random_boxes(rng, n_boxes, 120, 90)
    boxes[10:20] = boxes[:10]                              # identical boxes
    return FeatureBundle("img", 120, 90, [int(i) for i in rng.permutation(n_boxes)], boxes,
                         rng.normal(0, 1, (n_boxes, 4)), rng.normal(0, 1, (n_boxes, 3)),
                         list(range(n_segs)),
                         rng.random((n_boxes, n_segs, block_length(grid_k) - 1)),
                         rng.random((n_segs, n_classes)))


def test_detect_image_keeps_what_per_detector_nms_keeps(rng):
    """500 boxes, 20 classes: every detector's greedy pass reads the one
    overlap matrix, and keeps what nms and the quadratic reference keep."""
    bundle = _boxes_bundle(rng, 500, 20)
    weights = random_weights(rng, 20, 2, 4, 3)
    expect = []
    for detector in range(1, 21):
        scores, chosen = score_boxes(bundle, weights, detector)
        kept = nms_of(bundle.boxes, scores, bundle.box_ids, 0.3)
        assert len(kept) > 40
        if detector <= 3:      # the reference takes about 0.1 s per detector
            assert kept == quadratic_nms(bundle.boxes, scores, bundle.box_ids, 0.3)
        expect += [(detector, bundle.box_ids[i], scores[i], chosen[i]) for i in kept[:40]]
    assert [(d.class_id, d.box_id, d.score, d.chosen_segments)
            for d in detect_image(bundle, weights, 0.3, 40)] == expect


def test_overlap_matrix_working_memory_is_bounded_by_the_block(rng):
    """500 boxes: at most 1 MB above the n x n bool output."""
    import tracemalloc
    boxes = random_boxes(rng, 500, 500, 375)
    tracemalloc.start()
    try:
        out = overlap_matrix(boxes, 0.3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (500, 500) and out.dtype == bool
    assert peak - out.nbytes <= 2 ** 20, (peak - out.nbytes) / 2 ** 20


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
    assert path.read_text() == ("img0,1,0.73,1.5,2.0,8.25,9.0,NONE;4\n"
                                "img1,2,-1.25,0.0,0.0,5.0,5.0,7;NONE\n")
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
