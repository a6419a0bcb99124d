import numpy as np
import pytest

from conftest import make_bundle, per_box, random_boxes, random_masks
from segdetect import bboxreg
from segdetect.bboxreg import (BoxRegressor, ClassRegressor, apply_targets,
                               box_change, fit_class_regressor, fit_regressor,
                               iterate_boxes, regression_targets)
from segdetect.boxes import Box, iou
from segdetect.errors import InsufficientPairs, NumericalError, ProviderError
from segdetect.model import ModelWeights, score_box


def test_targets_identity_are_zero():
    b = Box(3, 4, 12, 20)
    np.testing.assert_allclose(regression_targets(b, b), np.zeros(4), atol=1e-12)


def test_targets_pure_shift():
    p = Box(0, 0, 9, 9)
    g = Box(5, 0, 14, 9)
    t = regression_targets(p, g)
    np.testing.assert_allclose(t, [0.5, 0.0, 0.0, 0.0], atol=1e-12)


def test_targets_width_doubling():
    p = Box(0, 0, 9, 9)         # w=10 centered at 4.5
    g = Box(-5, 0, 14, 9)       # w=20, same center
    t = regression_targets(p, g)
    np.testing.assert_allclose(t, [0.0, 0.0, np.log(2.0), 0.0], atol=1e-12)


def test_apply_inverts_targets(rng):
    for _ in range(100):
        x1, y1 = rng.uniform(5, 30, 2)
        p = Box(x1, y1, x1 + rng.uniform(3, 20), y1 + rng.uniform(3, 20))
        x1, y1 = rng.uniform(5, 30, 2)
        g = Box(x1, y1, x1 + rng.uniform(3, 20), y1 + rng.uniform(3, 20))
        back = apply_targets(p, regression_targets(p, g), 200, 200)
        assert iou(back, g) > 0.99


def test_apply_zero_targets_identity():
    p = Box(2, 3, 11, 12)
    assert apply_targets(p, np.zeros(4), 50, 50) == p


def test_apply_clips_to_image():
    moved = apply_targets(Box(0, 0, 9, 9), np.array([-1.0, 0.0, 0.0, 0.0]), 50, 50)
    assert moved.x1 == 0.0


def test_box_change_values():
    a = Box(0, 0, 9, 9)
    assert box_change(a, a) == 0.0
    assert box_change(a, Box(50, 50, 59, 59)) == 1.0
    assert box_change(a, Box(0, 0, 19, 9)) == pytest.approx(0.5)


def _linear_pairs(rng, n, d, width=500):
    """Pairs whose targets are an exact linear function of the features."""
    W = rng.normal(0, 0.1, (4, d))
    b = rng.normal(0, 0.05, 4)
    feats, proposals, gts = [], [], []
    for _ in range(n):
        x = rng.normal(0, 1, d)
        t = W @ x + b
        x1, y1 = rng.uniform(50, 200, 2)
        p = Box(x1, y1, x1 + rng.uniform(10, 40), y1 + rng.uniform(10, 40))
        g = apply_targets(p, t, width, width)
        feats.append(x)
        proposals.append(p)
        gts.append(g)
    return feats, proposals, gts, W, b


def test_exact_linear_recovery_small_ridge(rng):
    feats, proposals, gts, W, b = _linear_pairs(rng, 80, 5)
    reg = fit_class_regressor(feats, proposals, gts, ridge=1e-10)
    np.testing.assert_allclose(reg.weights, W, atol=1e-6)
    np.testing.assert_allclose(reg.intercepts, b, atol=1e-6)


def test_huge_ridge_predicts_mean_targets(rng):
    feats, proposals, gts, _, _ = _linear_pairs(rng, 60, 4)
    T = np.stack([regression_targets(p, g) for p, g in zip(proposals, gts)])
    reg = fit_class_regressor(feats, proposals, gts, ridge=1e12)
    # weights vanish; the unpenalized intercept absorbs the target mean
    np.testing.assert_allclose(reg.weights, 0.0, atol=1e-6)
    np.testing.assert_allclose(reg.intercepts, T.mean(axis=0), atol=1e-4)


def test_too_few_pairs_rejected(rng):
    feats, proposals, gts, _, _ = _linear_pairs(rng, 5, 5)
    with pytest.raises(InsufficientPairs):
        fit_class_regressor(feats, proposals, gts, ridge=1.0)


def test_fit_regressor_skips_empty_class(rng, caplog):
    # class 3 has d_reg = 3 pairs, one too few: skipped with a warning
    pairs = list(zip(*_linear_pairs(rng, 20, 3)[:3]))
    reg = fit_regressor({1: pairs, 2: [], 3: pairs[:3]}, 3, 1e-6)
    assert sorted(reg.per_class) == [1]
    messages = [r.getMessage() for r in caplog.records]
    assert messages == ["class 3: need at least 4 pairs, got 3; its boxes are only clipped"]
    with pytest.raises(InsufficientPairs, match="no class has the 4 regression pairs"):
        fit_regressor({2: [], 3: pairs[:3]}, 3, 1e-6)


def test_refine_without_class_returns_clipped_box():
    reg = BoxRegressor(d_reg=3, ridge=1.0)
    assert reg.refine(7, np.zeros(3), Box(0, 0, 200, 9), 100, 50) == Box(0, 0, 99, 9)


@pytest.mark.filterwarnings("error")
def test_refine_raises_numerical_error_on_non_finite_targets_or_box():
    def refine(weight, intercepts):
        reg = BoxRegressor(d_reg=1, ridge=1.0, per_class={2: ClassRegressor(
            np.array([[weight], [0.0], [0.0], [0.0]]), np.asarray(intercepts, float))})
        return reg.refine(2, np.ones(1), Box(3, 3, 9, 9), 20, 20)

    # an infinite width clips to the image: finite targets, finite box
    assert refine(0.0, [0, 0, 1e308, 0]) == Box(0, 3, 19, 9)
    with pytest.raises(NumericalError, match="class 2"):
        refine(1e308, [1e308, 0, 0, 0])     # the x target overflows to inf
    with pytest.raises(NumericalError, match="class 2"):
        refine(0.0, [1e308, 0, 1e308, 0])   # finite targets, inf - inf = NaN corners


def test_iterate_names_the_image_of_a_non_finite_box(rng):
    bundle, weights, reg = _iteration_setup(rng, [1e308] * 4)
    reg.per_class[1].weights[:] = 1e308
    with pytest.raises(NumericalError, match="image 'img': class 1"):
        iterate_boxes(bundle, reg, weights, 1, np.ones((2, 2)), None, 2, 0.2)


def _iteration_setup(rng, intercepts):
    masks = random_masks(rng, 2, 30, 30)
    boxes = [Box(2, 2, 11, 11), Box(15, 15, 24, 24)]
    bundle = make_bundle("img", 30, 30, boxes, masks, rng.normal(0, 1, (2, 1)),
                         rng.normal(0, 1, (2, 4)), rng.normal(0, 1, (2, 3)),
                         2, -0.7)
    weights = ModelWeights.zeros(1, 2, -0.7, 4, 3)
    weights.w_app = rng.normal(0, 1, weights.w_app.shape)
    reg = BoxRegressor(d_reg=2, ridge=1.0, per_class={
        1: ClassRegressor(np.zeros((4, 2)), np.asarray(intercepts, float))})
    return bundle, weights, reg


def test_iterate_identity_regressor_stops_after_one_pass(rng):
    bundle, weights, reg = _iteration_setup(rng, [0.0, 0.0, 0.0, 0.0])
    calls = []

    def provider(image_id, box):
        calls.append(box)
        return np.zeros(4), np.zeros(3), np.zeros(2)

    dets, stats = iterate_boxes(bundle, reg, weights, 1, np.zeros((2, 2)),
                                provider, max_iters=5, change_thresh=0.2)
    assert stats.changed_fraction == [0.0]
    assert stats.provider_calls == 0 and not calls
    assert [d.box for d in dets] == bundle.boxes


def test_iterate_provider_called_only_for_big_moves(rng):
    # a constant shift of 0.5 widths gives change 1 - 1/3 > 0.2 for every box
    bundle, weights, reg = _iteration_setup(rng, [0.5, 0.0, 0.0, 0.0])
    calls = []

    def provider(image_id, box):
        calls.append(box)
        return rng.normal(0, 1, 4), rng.normal(0, 1, 3), np.zeros(2)

    dets, stats = iterate_boxes(bundle, reg, weights, 1, np.zeros((2, 2)),
                                provider, max_iters=2, change_thresh=0.2)
    assert len(stats.changed_fraction) == 2
    assert stats.provider_calls == len(calls)
    expected = sum(int(round(f * bundle.n_boxes)) for f in stats.changed_fraction)
    assert stats.provider_calls == expected
    assert stats.provider_calls >= 2


def test_iterate_small_move_skips_provider(rng):
    # a tiny shift keeps 1 - IoU below the threshold, so no re-extraction
    bundle, weights, reg = _iteration_setup(rng, [0.05, 0.0, 0.0, 0.0])

    def provider(image_id, box):
        raise AssertionError("provider must not be called for small moves")

    dets, stats = iterate_boxes(bundle, reg, weights, 1, np.zeros((2, 2)),
                                provider, max_iters=2, change_thresh=0.2)
    assert stats.provider_calls == 0
    # boxes still moved a little even though features were kept
    assert dets[0].box != bundle.boxes[0]


def test_iterate_provider_failure_raises(rng):
    bundle, weights, reg = _iteration_setup(rng, [0.5, 0.0, 0.0, 0.0])

    def provider(image_id, box):
        raise KeyError(box)

    with pytest.raises(ProviderError):
        iterate_boxes(bundle, reg, weights, 1, np.zeros((2, 2)), provider, 2, 0.2)


def test_iterate_does_not_mutate_input_bundle(rng):
    bundle, weights, reg = _iteration_setup(rng, [0.5, 0.0, 0.0, 0.0])
    before_boxes = list(bundle.boxes)
    before = [a.copy() for a in (bundle.appearance, bundle.context, bundle.seg_base)]

    def provider(image_id, box):
        return np.ones(4), np.ones(3), np.zeros(2)

    dets, _ = iterate_boxes(bundle, reg, weights, 1, np.zeros((2, 2)), provider, 2, 0.2)
    assert [d.box for d in dets] != before_boxes
    assert bundle.boxes == before_boxes
    for array, copy in zip((bundle.appearance, bundle.context, bundle.seg_base), before):
        np.testing.assert_array_equal(array, copy)


def test_iterate_extracts_blocks_once_for_every_final_box(rng, monkeypatch):
    # both passes shift box 0 by 0.2 widths and box 1 by 0.01 widths, which
    # moves box 1 but leaves its rounded corners where they were
    bundle, weights, reg = _iteration_setup(rng, [0.0, 0.0, 0.0, 0.0])
    reg.per_class[1].weights[:2, 0] = 1.0
    reg_rows = np.array([[0.2, 0.0], [0.01, 0.0]])
    segment_blocks = bboxreg.segment_blocks
    calls = []

    def counted(boxes, *args):
        calls.append(list(boxes))
        return segment_blocks(boxes, *args)

    monkeypatch.setattr(bboxreg, "segment_blocks", counted)

    def provider(image_id, box):
        return np.zeros(4), np.zeros(3), reg_rows[0]

    dets, stats = iterate_boxes(bundle, reg, weights, 1, reg_rows, provider,
                                max_iters=2, change_thresh=0.0)
    assert stats.changed_fraction == [0.5, 0.5]
    assert all(d.box != box for d, box in zip(dets, bundle.boxes))
    assert dets[0].box.rounded() != bundle.boxes[0].rounded()
    assert dets[1].box.rounded() == bundle.boxes[1].rounded()
    assert calls == [[d.box for d in dets]]


def _rows_at(box, d_app, d_ctx, d_reg):
    """Provider rows that depend only on the rounded box."""
    rng = np.random.default_rng(box.rounded())
    return rng.normal(0, 1, d_app), rng.normal(0, 1, d_ctx), rng.normal(0, 1, d_reg)


def test_iterate_scores_equal_a_bundle_rebuilt_at_the_final_boxes(rng):
    d_app, d_ctx, d_reg = 4, 3, 2
    for trial in range(20):
        width, height = int(rng.integers(12, 40)), int(rng.integers(12, 40))
        n_classes, grid_k = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        masks = random_masks(rng, int(rng.integers(0, 4)), width, height)
        boxes = random_boxes(rng, int(rng.integers(1, 6)), width, height)
        raw = rng.normal(0, 2, (len(masks), n_classes))
        app, ctx, reg_rows = (np.array(r) for r in
                              zip(*(_rows_at(b, d_app, d_ctx, d_reg) for b in boxes)))
        bundle = make_bundle("img", width, height, boxes, masks, raw, app, ctx,
                             grid_k, -0.7)
        weights = ModelWeights.zeros(n_classes, grid_k, -0.7, d_app, d_ctx)
        for name in ("w_app", "w_ctx", "w_seg", "bias"):
            setattr(weights, name, rng.normal(0, 1, getattr(weights, name).shape))
        reg = BoxRegressor(d_reg=d_reg, ridge=1.0, per_class={
            c: ClassRegressor(rng.normal(0, 0.1, (4, d_reg)), rng.normal(0, 0.1, 4))
            for c in range(1, n_classes + 1)})

        # with change_thresh 0 the provider runs on every change of the rounded
        # box, so each box's final linear rows are _rows_at its final box
        def provider(image_id, box):
            return _rows_at(box, d_app, d_ctx, d_reg)

        for detector in range(1, n_classes + 1):
            dets, _ = iterate_boxes(bundle, reg, weights, detector, reg_rows,
                                    provider, max_iters=int(rng.integers(1, 4)),
                                    change_thresh=0.0)
            final = [d.box for d in dets]
            rows = [_rows_at(b, d_app, d_ctx, d_reg) for b in final]
            rebuilt = make_bundle("img", width, height, final, masks, raw,
                                  [r[0] for r in rows], [r[1] for r in rows],
                                  grid_k, -0.7)
            for b, det in enumerate(dets):
                assert (det.score, det.chosen_segments) == \
                    score_box(rebuilt, weights, detector, b), (trial, detector, b)


def test_unmoved_boxes_score_as_the_input_bundle_with_the_kept_masks(tmp_path, rng):
    """iterate_boxes rebuilds every block from the bundle's segments alone.

    A regressor with no class only clips, so no box moves; the rebuilt blocks
    then score exactly as build_bundle's.  The world is loaded with a keep
    threshold between its smallest and largest mask, so the normaliser must
    come from the kept masks only.
    """
    from segdetect.dataset import Dataset, read_manifest
    from segdetect.model import build_bundle, score_boxes
    from segdetect.synth import SynthConfig, generate
    generate(SynthConfig(seed=3, n_images=6, boxes_per_image=6, segments_per_image=8,
                         seg_noise=0.3), str(tmp_path))
    manifest = read_manifest(tmp_path / "manifest.txt")
    every = Dataset(manifest, min_segment_pixels=0)
    sizes = [[m.pixel_count for m in every.record(i).masks] for i in every.image_order]
    flat = sorted(n for pool in sizes for n in pool)
    keep = flat[len(flat) // 4]
    assert flat[0] < keep < flat[-1]
    dataset = Dataset(manifest, min_segment_pixels=keep)
    weights = ModelWeights.zeros(dataset.n_classes, 2, -0.7, dataset.d_app, dataset.d_ctx)
    for name in ("w_app", "w_ctx", "w_seg", "bias"):
        setattr(weights, name, rng.normal(0, 1, getattr(weights, name).shape))
    reg = BoxRegressor(d_reg=1, ridge=1.0)

    def provider(image_id, box):
        raise AssertionError(f"box {box} moved")

    dropped, picked = 0, 0
    for image_id, pool in zip(dataset.image_order, sizes):
        bundle = build_bundle(dataset, image_id, 2, -0.7)
        kept = [n for n in pool if n >= keep]
        dropped += len(pool) - len(kept)
        assert bundle.n_segs == len(kept)
        assert bundle.largest_area == max(kept, default=0)
        for detector in range(1, dataset.n_classes + 1):
            dets, _ = iterate_boxes(bundle, reg, weights, detector,
                                    np.zeros((bundle.n_boxes, 1)), provider, 2, 0.0)
            assert [d.box for d in dets] == bundle.boxes
            scored = per_box(bundle, score_boxes(bundle, weights, detector))
            assert [(d.score, d.chosen_segments) for d in dets] == scored
            picked += sum(h is not None for _, row in scored for h in row)
    assert dropped and picked
