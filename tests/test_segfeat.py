import math

import numpy as np
import pytest

from conftest import rect_count
from segdetect.boxes import Box, iou
from segdetect.errors import DegenerateNormalizer, EmptySegment
from segdetect.masks import SegmentMask, summed_area, tight_box
from segdetect.segfeat import (GridSpec, assemble_block, back_out, backgrid_in,
                               block_length, box_lattice, grid_cells, overlap_feat,
                               seg_out, segclass_feat, seggrid_in)


def naive_grid_in(box, arr, k):
    """Per-pixel double loop over the same cell partition."""
    total = int(arr.sum())
    vals = []
    for x1, y1, x2, y2 in grid_cells(box, GridSpec(k)):
        count = 0
        for y in range(max(y1, 0), min(y2, arr.shape[0] - 1) + 1):
            for x in range(max(x1, 0), min(x2, arr.shape[1] - 1) + 1):
                count += int(arr[y, x])
        vals.append(count / total)
    return np.array(vals)


def naive_seg_out(box, arr):
    x1, y1, x2, y2 = box.rounded()
    out = 0
    for y in range(arr.shape[0]):
        for x in range(arr.shape[1]):
            if arr[y, x] and not (x1 <= x <= x2 and y1 <= y <= y2):
                out += 1
    return out / int(arr.sum())


def naive_back_in(box, arr, k, m):
    denom = max(m - int(arr.sum()), 1)
    vals = []
    for x1, y1, x2, y2 in grid_cells(box, GridSpec(k)):
        count = 0
        for y in range(max(y1, 0), min(y2, arr.shape[0] - 1) + 1):
            for x in range(max(x1, 0), min(x2, arr.shape[1] - 1) + 1):
                count += int(not arr[y, x])
        vals.append(count / denom)
    return np.array(vals)


def naive_back_out(box, arr, m):
    denom = max(m - int(arr.sum()), 1)
    x1, y1, x2, y2 = box.rounded()
    count = 0
    for y in range(arr.shape[0]):
        for x in range(arr.shape[1]):
            if not arr[y, x] and not (x1 <= x <= x2 and y1 <= y <= y2):
                count += 1
    return count / denom


def test_seggrid_segment_fills_box_k1():
    arr = np.zeros((10, 10), dtype=bool)
    arr[2:6, 2:6] = True
    mask = SegmentMask.from_array(arr)
    np.testing.assert_allclose(seggrid_in(Box(2, 2, 5, 5), mask, GridSpec(1)), [1.0])


def test_seggrid_disjoint_all_zero():
    arr = np.zeros((10, 10), dtype=bool)
    arr[0:2, 0:2] = True
    mask = SegmentMask.from_array(arr)
    for k in (1, 2, 3):
        assert not seggrid_in(Box(5, 5, 9, 9), mask, GridSpec(k)).any()


def test_seggrid_left_half_k2():
    # 4x4 box, segment is its left 2-wide half (8 px)
    arr = np.zeros((8, 8), dtype=bool)
    arr[0:4, 0:2] = True
    mask = SegmentMask.from_array(arr)
    np.testing.assert_allclose(
        seggrid_in(Box(0, 0, 3, 3), mask, GridSpec(2)), [0.5, 0.0, 0.5, 0.0])


def test_seg_out_examples():
    arr = np.zeros((10, 10), dtype=bool)
    arr[2:4, 2:6] = True          # 8 px
    mask = SegmentMask.from_array(arr)
    assert seg_out(Box(0, 0, 9, 9), mask) == 0.0
    assert seg_out(Box(7, 7, 9, 9), mask) == 1.0
    # 6 of 8 inside: rows 2..3, cols 2..4 -> 6 px inside
    assert seg_out(Box(0, 0, 4, 9), mask) == pytest.approx(0.25)


def test_backgrid_disjoint_k1():
    # box of 50 px with no segment pixels, M - |S| = 100
    arr = np.zeros((20, 20), dtype=bool)
    arr[0:2, 0:5] = True          # 10 px segment
    mask = SegmentMask.from_array(arr)
    vals = backgrid_in(Box(10, 10, 19, 14), mask, GridSpec(1), m=110)
    np.testing.assert_allclose(vals, [0.5])


def test_backgrid_box_inside_segment():
    arr = np.ones((6, 6), dtype=bool)
    arr[5, 5] = False
    mask = SegmentMask.from_array(arr)
    vals = backgrid_in(Box(1, 1, 3, 3), mask, GridSpec(2), m=50)
    assert not vals.any()


def test_backgrid_left_half_k2():
    # 4x4 box, left-half segment, M - |S| = 8
    arr = np.zeros((4, 4), dtype=bool)
    arr[:, 0:2] = True
    mask = SegmentMask.from_array(arr)
    vals = backgrid_in(Box(0, 0, 3, 3), mask, GridSpec(2), m=16)
    np.testing.assert_allclose(vals, [0.0, 0.5, 0.0, 0.5])


def test_back_out_whole_image_box():
    arr = np.zeros((10, 10), dtype=bool)
    arr[0:4, 0:5] = True
    mask = SegmentMask.from_array(arr)
    assert back_out(Box(0, 0, 9, 9), mask, m=100) == 0.0


def test_back_out_matches_naive_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        arr = rng.random((12, 12)) < 0.4
        if not arr.any():
            continue
        mask = SegmentMask.from_array(arr)
        m = int(arr.sum()) + int(rng.integers(1, 60))
        x1, y1 = rng.integers(0, 8, 2)
        box = Box(int(x1), int(y1), int(x1 + rng.integers(1, 4)),
                  int(y1 + rng.integers(1, 4)))
        assert back_out(box, mask, m) == pytest.approx(
            naive_back_out(box, arr, m), abs=1e-12)


def test_back_out_disjoint_algebra():
    # S disjoint from p: (A - |B| - |S|) / (M - |S|)
    arr = np.zeros((10, 10), dtype=bool)
    arr[0:3, 0:4] = True          # 12 px
    mask = SegmentMask.from_array(arr)
    box = Box(5, 5, 9, 9)         # 25 px, disjoint
    m = 40
    assert back_out(box, mask, m) == pytest.approx((100 - 25 - 12) / (40 - 12))
    assert back_out(box, mask, m) == pytest.approx(naive_back_out(box, arr, m))


def test_grid_features_match_naive_exhaustive_small():
    rng = np.random.default_rng(23)
    for _ in range(10):
        arr = rng.random((9, 9)) < 0.5
        if not arr.any():
            continue
        mask = SegmentMask.from_array(arr)
        m = int(arr.sum()) + 20
        for _ in range(10):
            x1, y1 = rng.integers(0, 6, 2)
            box = Box(int(x1), int(y1), int(x1 + rng.integers(0, 4)),
                      int(y1 + rng.integers(0, 4)))
            for k in (1, 2, 3):
                np.testing.assert_allclose(
                    seggrid_in(box, mask, GridSpec(k)),
                    naive_grid_in(box, arr, k), atol=1e-12)
                np.testing.assert_allclose(
                    backgrid_in(box, mask, GridSpec(k), m),
                    naive_back_in(box, arr, k, m), atol=1e-12)
            assert seg_out(box, mask) == pytest.approx(naive_seg_out(box, arr))


def test_partition_identity():
    rng = np.random.default_rng(29)
    for _ in range(200):
        arr = rng.random((14, 14)) < 0.5
        if not arr.any():
            continue
        mask = SegmentMask.from_array(arr)
        x1, y1 = rng.integers(0, 10, 2)
        box = Box(int(x1), int(y1), int(x1 + rng.integers(0, 6)),
                  int(y1 + rng.integers(0, 6)))
        for k in (1, 2, 3):
            total = seggrid_in(box, mask, GridSpec(k)).sum() + seg_out(box, mask)
            assert total == pytest.approx(1.0, abs=1e-9)


def test_background_identity():
    rng = np.random.default_rng(31)
    for _ in range(100):
        arr = rng.random((14, 14)) < 0.5
        if not arr.any():
            continue
        mask = SegmentMask.from_array(arr)
        m = int(arr.sum()) + int(rng.integers(1, 50))
        x1, y1 = rng.integers(0, 10, 2)
        box = Box(int(x1), int(y1), int(x1 + rng.integers(0, 6)),
                  int(y1 + rng.integers(0, 6)))
        for k in (1, 2, 3):
            total = backgrid_in(box, mask, GridSpec(k), m).sum() \
                + back_out(box, mask, m)
            expected = (arr.size - int(arr.sum())) / (m - int(arr.sum()))
            assert total == pytest.approx(expected, abs=1e-9)


def test_k1_reduction():
    rng = np.random.default_rng(37)
    arr = rng.random((10, 10)) < 0.5
    mask = SegmentMask.from_array(arr)
    box = Box(2, 2, 7, 7)
    in_fraction = 1.0 - seg_out(box, mask)
    assert seggrid_in(box, mask, GridSpec(1))[0] == pytest.approx(in_fraction)


def test_overlap_feat():
    arr = np.zeros((20, 20), dtype=bool)
    arr[5:10, 5:10] = True
    mask = SegmentMask.from_array(arr)
    assert overlap_feat(Box(5, 5, 9, 9), mask, -0.7) == pytest.approx(1.7)
    assert overlap_feat(Box(15, 15, 19, 19), mask, 0.0) == 0.0
    # offset so IoU is 0.5: box covering tight box plus equal extra area
    assert overlap_feat(Box(5, 5, 9, 19), mask, -0.7) == pytest.approx(
        (25 / 75) - (-0.7))


def test_overlap_lambda_shift():
    arr = np.zeros((10, 10), dtype=bool)
    arr[1:4, 1:4] = True
    mask = SegmentMask.from_array(arr)
    box = Box(0, 0, 5, 5)
    for lam in (-0.7, 0.0, 0.3):
        assert overlap_feat(box, mask, lam) - overlap_feat(box, mask, 0.0) \
            == pytest.approx(-lam)


def test_segclass_values():
    assert segclass_feat(0.0) == 0.5
    assert segclass_feat(math.log(3)) == pytest.approx(0.75)
    v = segclass_feat(-20.0)
    assert v == pytest.approx(2.0611536e-9, rel=1e-5)
    assert v > 0.0


def test_segclass_monotone_bounded():
    xs = np.linspace(-30, 30, 200)
    ys = [segclass_feat(x) for x in xs]
    assert all(0.0 < y < 1.0 for y in ys)
    assert all(a < b for a, b in zip(ys, ys[1:]))


def reference_cells(box, k):
    """The K*K partition cell by cell: remainder pixels to the last row and column."""
    x1, y1, x2, y2 = box.rounded()
    bw, bh = (x2 - x1 + 1) // k, (y2 - y1 + 1) // k
    return [(x1 + c * bw, y1 + r * bh,
             x2 if c == k - 1 else x1 + (c + 1) * bw - 1,
             y2 if r == k - 1 else y1 + (r + 1) * bh - 1)
            for r in range(k) for c in range(k)]


def clipped_area(w, h, x1, y1, x2, y2):
    """Pixels of the inclusive rectangle inside a w x h image."""
    x1, y1, x2, y2 = max(x1, 0), max(y1, 0), min(x2, w - 1), min(y2, h - 1)
    return 0 if x1 > x2 or y1 > y2 else (x2 - x1 + 1) * (y2 - y1 + 1)


def reference_block(box, mask, class_score, k, lam, m):
    """Each feature on its own: rect_count per rectangle, clipped area, int / int."""
    table, n = mask.integral(), mask.pixel_count
    denom = max(m - n, 1)

    def area(*rect):
        return clipped_area(mask.width, mask.height, *rect)

    cells = reference_cells(box, k)
    whole = box.rounded()
    outside = n - rect_count(table, *whole)
    return ([rect_count(table, *cell) / n for cell in cells]
            + [outside / n]
            + [(area(*cell) - rect_count(table, *cell)) / denom for cell in cells]
            + [(mask.height * mask.width - area(*whole) - outside) / denom]
            + [iou(box, tight_box(mask)) - lam, segclass_feat(class_score)])


def _sorted_pair(rng, lo, hi):
    a, b = np.sort(rng.uniform(lo, hi, 2))
    return float(a), float(b)


def test_assemble_block_is_bit_identical_to_per_feature_reference():
    rng = np.random.default_rng(41)
    checked = 0
    for trial in range(60):
        h, w = (int(v) for v in rng.integers(3, 20, 2))
        h, w = (1 if trial % 4 == 1 else h), (1 if trial % 4 == 2 else w)
        arr = rng.random((h, w)) < rng.uniform(0.05, 0.9)
        if not arr.any():
            continue
        mask = SegmentMask.from_array(arr)
        table = summed_area(mask)
        n = int(arr.sum())
        for m in (n, n + int(rng.integers(1, 3 * h * w))):    # m == |S|: denominator 1
            boxes = [Box(0, 0, w - 1, h - 1),                  # the whole image
                     Box(w - 1.5, 0, w - 0.5, h - 0.5),        # rounds onto the border
                     Box(-0.4, -0.4, 0.4, h - 1),              # one column wide
                     Box(0, h - 1, w - 1, h - 1),              # one row high
                     Box(-3.2, -2.6, w + 1.7, h + 4.1),        # covers the image and more
                     Box(w + 0.5, 0, w + 6, h - 1),            # wholly right of the image
                     Box(-8, -6, -1.5, -0.6),                  # wholly above and left
                     Box(-2.4, h - 1.5, 1.2, h + 3)]           # over the bottom-left corner
            for out in (0, 1):                  # inside, then up to a side past each edge
                for _ in range(4):
                    x1, x2 = _sorted_pair(rng, -0.49 - out * w, w - 0.51 + out * w)
                    y1, y2 = _sorted_pair(rng, -0.49 - out * h, h - 0.51 + out * h)
                    boxes.append(Box(x1, y1, x2, y2))
            for _ in range(3):                                 # thinner than K = 4 and 5
                x, y = float(rng.uniform(-2, w + 1)), float(rng.uniform(-2, h + 1))
                boxes.append(Box(x, y, x + float(rng.uniform(0, 3)),
                                 y + float(rng.uniform(0, 3))))
            for box in boxes:
                score = float(rng.normal(0, 3))
                lam = float(rng.uniform(-1, 1))
                for k in (1, 2, 3, 4, 5):
                    assert grid_cells(box, GridSpec(k)) == reference_cells(box, k)
                    block = assemble_block(box, mask, score, GridSpec(k), lam, m)
                    expect = np.array(reference_block(box, mask, score, k, lam, m))
                    assert block.tobytes() == expect.tobytes(), (box, k, m, h, w)
                    passed = assemble_block(box, mask, score, GridSpec(k), lam, m, table)
                    assert passed.tobytes() == block.tobytes(), (box, k, m, h, w)
                    lattice = box_lattice(box, k, w, h)
                    latticed = assemble_block(box, mask, score, GridSpec(k), lam, m,
                                              table, lattice)
                    assert latticed.tobytes() == block.tobytes(), (box, k, m, h, w)
                    flat, areas = lattice
                    cells = reference_cells(box, k)
                    xs = [min(max(x, 0), w) for x in
                          [x1 for x1, *_ in cells[:k]] + [cells[-1][2] + 1]]
                    ys = [min(max(y, 0), h) for y in
                          [c[1] for c in cells[::k]] + [cells[-1][3] + 1]]
                    assert flat.tolist() == [y * (w + 1) + x for y in ys for x in xs]
                    assert areas == [clipped_area(w, h, *rect)
                                     for rect in cells + [box.rounded()]]
                    checked += 1
    assert checked > 8000


def test_segment_blocks_reuses_each_lattice_across_masks_bit_for_bit():
    """One image, several masks: segment_blocks, which builds each box's
    lattice once and each mask's table once, equals assemble_block per pair
    with neither, for K = 1 to 5 and boxes partly or wholly off the image."""
    from segdetect.model import segment_blocks
    rng = np.random.default_rng(7)
    for h, w in ((13, 17), (1, 9), (8, 1), (20, 20)):
        masks = []
        for s in range(5):
            arr = rng.random((h, w)) < rng.uniform(0.05, 0.8)
            arr.flat[int(rng.integers(arr.size))] = True
            masks.append(SegmentMask.from_array(arr, "img", s))
        boxes = [Box(-3.2, -2.6, w + 1.7, h + 4.1),        # covers the image and more
                 Box(w + 0.5, 0, w + 6, h - 1),            # wholly right of the image
                 Box(-8, -6, -1.5, -0.6),                  # wholly above and left
                 Box(-2.4, h - 1.5, 1.2, h + 3)]           # over the bottom-left corner
        for _ in range(8):
            x1, x2 = _sorted_pair(rng, -0.49 - w, 2 * w - 0.51)
            y1, y2 = _sorted_pair(rng, -0.49 - h, 2 * h - 0.51)
            boxes.append(Box(x1, y1, x2, y2))
        m = max(mask.pixel_count for mask in masks)
        for k in (1, 2, 3, 4, 5):
            lam = float(rng.uniform(-1, 1))
            blocks = segment_blocks(boxes, masks, k, lam)
            expect = np.array([[assemble_block(box, mask, 0.0, GridSpec(k), lam, m)[:-1]
                                for mask in masks] for box in boxes])
            assert blocks.tobytes() == expect.tobytes(), (h, w, k)


def test_assemble_matches_components():
    arr = np.zeros((12, 12), dtype=bool)
    arr[2:7, 3:9] = True
    mask = SegmentMask.from_array(arr)
    box = Box(1, 1, 8, 8)
    m = 60
    block = assemble_block(box, mask, 1.3, GridSpec(1), -0.7, m)
    np.testing.assert_allclose(block, np.concatenate([
        seggrid_in(box, mask, GridSpec(1)), [seg_out(box, mask)],
        backgrid_in(box, mask, GridSpec(1), m), [back_out(box, mask, m)],
        [overlap_feat(box, mask, -0.7)], [segclass_feat(1.3)]]))


def test_block_length():
    assert block_length(3) == 22
    assert block_length(1) == 6


def test_empty_segment_raises():
    mask = SegmentMask.from_array(np.zeros((5, 5), dtype=bool))
    box = Box(0, 0, 4, 4)
    for fn in (lambda: seggrid_in(box, mask, GridSpec(2)),
               lambda: seg_out(box, mask),
               lambda: backgrid_in(box, mask, GridSpec(2), 10),
               lambda: back_out(box, mask, 10),
               lambda: overlap_feat(box, mask, 0.0)):
        with pytest.raises(EmptySegment):
            fn()


def test_degenerate_normalizer():
    arr = np.ones((4, 4), dtype=bool)
    mask = SegmentMask.from_array(arr)
    box = Box(0, 0, 3, 3)
    # M < |S| is inconsistent input
    with pytest.raises(DegenerateNormalizer):
        backgrid_in(box, mask, GridSpec(1), m=10)
    # M == |S|: denominator substituted by 1, features stay finite
    vals = backgrid_in(box, mask, GridSpec(1), m=16)
    assert np.isfinite(vals).all()
    assert back_out(box, mask, m=16) == 0.0
