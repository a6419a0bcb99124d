import dataclasses
import pickle

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


def test_rounded_rounds_each_coordinate_half_away_from_zero():
    rng = np.random.default_rng(7)
    values = [-3.5, -2.5, -1.5, -0.5, 0.5, 1.5, 2.5, -0.49, 0.49, *rng.uniform(-40, 40, 30)]
    for x, y in zip(values, reversed(values)):
        box = Box(x, y, x + 2.5, y + 0.5)
        assert box.rounded() == tuple(round_half_away(v) for v in (x, y, x + 2.5, y + 0.5))
        assert box.rounded() is box.rounded()    # computed once, then cached


def test_rounding_cache_leaves_eq_hash_repr_replace_and_pickle_alone():
    fresh, used = Box(0.5, -1.5, 3.5, 2.0), Box(0.5, -1.5, 3.5, 2.0)
    text, key = repr(used), hash(used)
    assert used.rounded() == (1, -2, 4, 2)
    assert used == fresh and hash(used) == hash(fresh) == key
    assert repr(used) == repr(fresh) == text == "Box(x1=0.5, y1=-1.5, x2=3.5, y2=2.0)"
    assert [f.name for f in dataclasses.fields(used)] == ["x1", "y1", "x2", "y2"]
    moved = dataclasses.replace(used, x2=10.5)
    assert moved.rounded() == (1, -2, 11, 2)           # not the cached (1, -2, 4, 2)
    for box in (fresh, used):
        back = pickle.loads(pickle.dumps(box))
        assert back == box and back.rounded() == (1, -2, 4, 2)


def test_non_finite_boxes_construct_and_fail_only_when_rounded():
    nan, inf = float("nan"), float("inf")
    for box in (Box(nan, 0, 1, 1), Box(-inf, 0, inf, 1), Box(0, -inf, 1, inf)):
        for _ in range(2):                                 # nothing is cached on failure
            with pytest.raises((ValueError, OverflowError)):
                box.rounded()
