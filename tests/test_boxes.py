import numpy as np
import pytest

from segdetect.boxes import (Box, clip_box, expand_box, iou, iou_row,
                             round_half_away, rounded_corners)


def test_round_half_away():
    assert round_half_away(2.5) == 3
    assert round_half_away(-2.5) == -3
    assert round_half_away(2.4) == 2
    assert round_half_away(-0.5) == -1
    assert round_half_away(0.0) == 0


def test_inverted_box_rejected():
    with pytest.raises(ValueError):
        Box(5, 0, 2, 3)


def test_iou_identical():
    a = Box(0, 0, 9, 9)
    assert iou(a, a) == 1.0


def test_iou_disjoint():
    assert iou(Box(0, 0, 9, 9), Box(20, 20, 29, 29)) == 0.0


def test_iou_half_overlap():
    # 100 shared pixels out of 200 in the union
    assert iou(Box(0, 0, 9, 9), Box(0, 0, 19, 9)) == pytest.approx(0.5)


def test_iou_symmetric_random():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x1, y1 = rng.uniform(0, 50, 2)
        a = Box(x1, y1, x1 + rng.uniform(0, 30), y1 + rng.uniform(0, 30))
        x1, y1 = rng.uniform(0, 50, 2)
        b = Box(x1, y1, x1 + rng.uniform(0, 30), y1 + rng.uniform(0, 30))
        assert iou(a, b) == iou(b, a)
        assert 0.0 <= iou(a, b) <= 1.0


def test_iou_row_equals_iou_bit_for_bit():
    rng = np.random.default_rng(5)
    coords = rng.integers(-8, 60, (80, 4)) / 2     # halves round away from zero
    boxes = [Box(min(a, c), min(b, d), max(a, c), max(b, d)) for a, b, c, d in coords]
    corners = rounded_corners(boxes)
    assert corners.dtype == np.int64 and corners.shape == (80, 4)
    for a in boxes:
        assert iou_row(a.rounded(), corners).tolist() == [iou(a, b) for b in boxes]
    assert rounded_corners([]).shape == (0, 4)


def test_expand_identity_at_zero():
    b = Box(10, 10, 19, 19)
    assert expand_box(b, 0.0, 100, 100) == b


def test_expand_half():
    assert expand_box(Box(10, 10, 19, 19), 0.5, 100, 100) == Box(5, 5, 24, 24)


def test_expand_clipped_at_origin():
    assert expand_box(Box(0, 0, 9, 9), 0.5, 100, 100) == Box(0, 0, 14, 14)


def test_expand_monotone_and_in_bounds():
    rng = np.random.default_rng(11)
    for _ in range(100):
        x1, y1 = rng.uniform(0, 40, 2)
        b = Box(x1, y1, x1 + rng.uniform(1, 30), y1 + rng.uniform(1, 30))
        prev = expand_box(b, 0.0, 80, 80)
        for rho in (0.1, 0.3, 0.7, 1.5):
            cur = expand_box(b, rho, 80, 80)
            assert cur.x1 <= prev.x1 and cur.y1 <= prev.y1
            assert cur.x2 >= prev.x2 and cur.y2 >= prev.y2
            assert 0 <= cur.x1 and cur.x2 <= 79
            assert 0 <= cur.y1 and cur.y2 <= 79
            prev = cur


def test_clip_box():
    assert clip_box(Box(-5, -5, 200, 50), 100, 60) == Box(0, 0, 99, 50)
