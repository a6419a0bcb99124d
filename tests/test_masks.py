import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rect_count
from segdetect.boxes import Box
from segdetect.errors import BadRle, EmptySegment
from segdetect.masks import (SegmentMask, check_runs, largest_segment_area, summed_area,
                             tight_box)


def test_roundtrip_all_zero():
    mask = SegmentMask.from_array(np.zeros((4, 4), dtype=bool))
    assert mask.runs.tolist() == []
    assert mask.pixel_count == 0
    assert not mask.to_array().any()


def test_roundtrip_all_one():
    mask = SegmentMask.from_array(np.ones((3, 3), dtype=bool))
    assert mask.runs.tolist() == [[0, 9]]
    assert mask.to_array().all()


def test_roundtrip_random():
    rng = np.random.default_rng(42)
    for _ in range(50):
        arr = rng.random((16, 16)) < rng.uniform(0.1, 0.9)
        mask = SegmentMask.from_array(arr)
        assert np.array_equal(mask.to_array(), arr)
        assert mask.pixel_count == int(arr.sum())


@pytest.mark.parametrize("runs", [
    [(0, 5), (3, 4)],      # overlapping
    [(10, 2), (0, 2)],     # unsorted
    [(14, 5)],             # out of range for 4x4
    [(0, 0)],              # zero length
    [(99999999999999999999, 1)],    # past int32: BadRle, not OverflowError
    [(-1, 2)],             # starts before the image
])
def test_bad_rle_rejected(runs):
    with pytest.raises(BadRle):
        SegmentMask("img", 0, 4, 4, runs)


def _random_runs(rng, height, width):
    """Sorted, disjoint (start, length) runs of Python ints, possibly none."""
    n_runs = min(int(rng.integers(0, 8)), (height * width + 1) // 2)
    cuts = np.sort(rng.choice(height * width + 1, size=2 * n_runs, replace=False))
    return [(int(s), int(e - s)) for s, e in zip(cuts[::2], cuts[1::2])]


def test_runs_array_matches_per_run_oracle():
    rng = np.random.default_rng(11)
    for _ in range(60):
        h, w = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        runs = _random_runs(rng, h, w)
        mask = SegmentMask("img", 0, h, w, runs)
        assert mask.runs.dtype == np.int32 and mask.runs.shape == (len(runs), 2)
        assert mask.runs.tolist() == [list(run) for run in runs]
        assert mask.pixel_count == sum(length for _, length in runs)
        flat = np.zeros(h * w, dtype=bool)
        for start, length in runs:
            flat[start:start + length] = True
        arr = flat.reshape(h, w)
        assert np.array_equal(mask.to_array(), arr)
        naive = [[int(arr[:i, :j].sum()) for j in range(w + 1)] for i in range(h + 1)]
        assert summed_area(mask).tolist() == naive
        again = SegmentMask("img", 1, h, w, mask.runs.tolist())
        assert again.runs.tolist() == mask.runs.tolist()


def reference_check_runs(masks):
    """Per-run oracle of check_runs on [(total pixels, runs)]: each mask's
    pixel count, and the (mask, start, length) of the first bad run over all
    masks, or None."""
    pixels, bad = [], None
    for k, (total, runs) in enumerate(masks):
        prev_end = count = 0
        for start, length in runs:
            if bad is None and (length < 1 or start < prev_end or start + length > total):
                bad = (k, start, length)
            prev_end, count = start + length, count + length
        pixels.append(count)
    return pixels, bad


# small values, and values either side of 2**31 and past int64 either way
RUN_VALUE = st.one_of(st.integers(-3, 45), st.integers(2 ** 31 - 3, 2 ** 31 + 3),
                      st.integers(2 ** 63 - 2, 2 ** 64 + 5),
                      st.integers(-2 ** 64, -2 ** 63 + 2))


@st.composite
def _mask_runs(draw):
    """(total, runs): sorted disjoint runs, possibly none, possibly with one
    value replaced or two runs swapped."""
    total = draw(st.sampled_from([1, 7, 40, 2 ** 31 - 1]))
    cuts = sorted(draw(st.sets(st.integers(0, min(total, 45)), max_size=10)))
    runs = [[s, e - s] for s, e in zip(cuts[::2], cuts[1::2])]
    if runs and draw(st.booleans()):
        runs[draw(st.integers(0, len(runs) - 1))][draw(st.integers(0, 1))] = draw(RUN_VALUE)
    if len(runs) > 1 and draw(st.booleans()):
        runs[0], runs[-1] = runs[-1], runs[0]
    return total, runs


@settings(derandomize=True, max_examples=200, deadline=None)
@given(masks=st.lists(_mask_runs(), max_size=6))
def test_check_runs_matches_per_run_oracle(masks):
    values = [v for _, runs in masks for run in runs for v in run]
    ref_pixels, ref_bad = reference_check_runs(masks)
    try:
        runs, pixels = check_runs(values, [len(r) for _, r in masks], [1] * len(masks),
                                  [total for total, _ in masks],
                                  [("img", k) for k in range(len(masks))])
    except BadRle as e:
        assert ref_bad is not None
        k, start, length = ref_bad
        assert str(e) == f"bad run ({start},{length}) in segment {k} of img"
    else:
        assert ref_bad is None
        assert pixels == ref_pixels and runs.tolist() == [r for _, rs in masks for r in rs]


@pytest.mark.parametrize("dims", [(0, 4), (4, -1), (2 ** 16, 2 ** 15), (2 ** 70, 1)])
def test_check_runs_names_bad_dims_before_bad_runs(dims):
    with pytest.raises(BadRle, match=f"^bad mask dims {dims[0]}x{dims[1]}: "):
        check_runs([0, 5, 3, 4], [2, 0], [4, *dims[:1]], [4, *dims[1:]],
                   [("img", 0), ("img", 1)])


def test_tight_box_single_pixel():
    arr = np.zeros((8, 8), dtype=bool)
    arr[3, 7] = True
    assert tight_box(SegmentMask.from_array(arr)) == Box(7, 3, 7, 3)


def test_tight_box_full_image():
    assert tight_box(SegmentMask.from_array(np.ones((4, 4), dtype=bool))) == \
        Box(0, 0, 3, 3)


def test_tight_box_two_pixels():
    arr = np.zeros((4, 4), dtype=bool)
    arr[1, 1] = True
    arr[2, 3] = True
    assert tight_box(SegmentMask.from_array(arr)) == Box(1, 1, 3, 2)


def test_tight_box_empty_raises():
    with pytest.raises(EmptySegment):
        tight_box(SegmentMask.from_array(np.zeros((3, 3), dtype=bool)))


def test_tight_box_is_minimal():
    rng = np.random.default_rng(7)
    for _ in range(30):
        arr = rng.random((10, 10)) < 0.2
        if not arr.any():
            continue
        mask = SegmentMask.from_array(arr)
        tb = tight_box(mask)
        x1, y1, x2, y2 = tb.rounded()
        ys, xs = np.nonzero(arr)
        assert (xs >= x1).all() and (xs <= x2).all()
        assert (ys >= y1).all() and (ys <= y2).all()
        # shrinking any side excludes at least one pixel
        assert (xs == x1).any() and (xs == x2).any()
        assert (ys == y1).any() and (ys == y2).any()


def test_integral_corners():
    empty = SegmentMask.from_array(np.zeros((2, 2), dtype=bool))
    assert not empty.integral().any()
    full = SegmentMask.from_array(np.ones((2, 2), dtype=bool))
    table = summed_area(full)
    assert table[2, 2] == 4 and full._integral is None    # summed_area caches nothing
    assert table.dtype == np.int32 and np.array_equal(full.integral(), table)


def test_rect_count_matches_naive_exhaustive():
    rng = np.random.default_rng(5)
    arr = rng.random((8, 8)) < 0.5
    mask = SegmentMask.from_array(arr)
    table = mask.integral()
    for y1 in range(8):
        for y2 in range(y1, 8):
            for x1 in range(8):
                for x2 in range(x1, 8):
                    assert rect_count(table, x1, y1, x2, y2) == \
                        int(arr[y1:y2 + 1, x1:x2 + 1].sum())


def test_rect_count_clips_outside():
    arr = np.ones((4, 4), dtype=bool)
    table = SegmentMask.from_array(arr).integral()
    assert rect_count(table, -3, -3, 10, 10) == 16
    assert rect_count(table, 5, 5, 9, 9) == 0


def test_largest_segment_area():
    masks = [SegmentMask("i", k, 64, 64, [(0, n)]) for k, n in
             enumerate([1600, 1500, 3000])]
    assert largest_segment_area(masks) == 3000
    assert largest_segment_area(masks[:1]) == 1600
    assert largest_segment_area([]) == 0
