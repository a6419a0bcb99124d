"""Run-length encoded binary segment masks and their summed-area tables.

`summed_area` is the one table builder.  Block extraction builds each
segment's table as a local and drops it after that segment; only the
one-box feature functions, called without a table, read the copy that
`SegmentMask.integral()` caches on the mask.  `largest_segment_area` is the
background normaliser that block extraction derives from an image's pool.
"""

from __future__ import annotations

import itertools

import numpy as np

from .boxes import Box
from .errors import BadRle, EmptySegment

MAX_PIXELS = 2 ** 31    # a mask holds fewer pixels: summed_area() counts in int32


class SegmentMask:
    """Binary mask of one region proposal, stored as row-major (start, length) runs.

    `runs` is one (n, 2) int32 array.  Given as (start, length) pairs, the
    runs go through `check_runs`, so an out-of-range value raises BadRle.
    Given with their pixel count, they are an (n, 2) int array of runs known
    to be good: from a block that passed `check_runs`, or a rectangle inside the image.
    """

    def __init__(self, image_id, segment_id, height, width, runs, pixel_count=None):
        if pixel_count is None:
            runs, (pixel_count,) = check_runs(list(itertools.chain.from_iterable(runs)),
                                              [len(runs)], [height], [width],
                                              [(image_id, segment_id)])
        self.image_id = image_id
        self.segment_id = segment_id
        self.height = height
        self.width = width
        self.runs = runs.astype(np.int32)
        self.pixel_count = pixel_count
        self._integral = None
        self._tight_box = None

    @classmethod
    def from_array(cls, arr, image_id="", segment_id=0):
        arr = np.asarray(arr, dtype=bool)
        steps = np.diff(np.concatenate(([0], arr.ravel(), [0])))    # +1 opens a run, -1 ends it
        runs = [(int(s), int(e - s)) for s, e in zip(np.flatnonzero(steps == 1),
                                                      np.flatnonzero(steps == -1))]
        return cls(image_id, segment_id, arr.shape[0], arr.shape[1], runs)

    def to_array(self) -> np.ndarray:
        flat = np.zeros(self.height * self.width, dtype=bool)
        for start, length in self.runs.tolist():
            flat[start:start + length] = True
        return flat.reshape(self.height, self.width)

    def integral(self) -> np.ndarray:
        """`summed_area(self)`, built on the first call and kept on the mask.

        Only the one-box feature functions read it, when called without a
        table; `model.segment_blocks` passes its own, so no mask keeps one.
        """
        if self._integral is None:
            self._integral = summed_area(self)
        return self._integral


def check_runs(values, counts, heights, widths, names):
    """The (n, 2) int64 runs and the pixel counts of a block of masks, checked at once.

    values holds the flat start, length ints of every mask's runs in turn:
    counts[k] runs of mask k, of dims heights[k] x widths[k], which names[k]
    = (image_id, segment_id) names.  The dims must hold 1 to 2**31 - 1
    pixels, and each run must be non-empty, after the previous run of its
    mask and inside the mask.  BadRle names the first mask with bad dims, or
    else the first bad run.  A value past int64 is clamped, which keeps its
    run bad.
    """
    dims = [h < 1 or w < 1 or h * w >= MAX_PIXELS for h, w in zip(heights, widths)]
    if any(dims):
        k = dims.index(True)
        raise BadRle(f"bad mask dims {heights[k]}x{widths[k]}: need 1 to 2**31 - 1 pixels")
    try:
        runs = np.asarray(values, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        runs = np.array([min(max(v, -2 ** 63), 2 ** 63 - 1) for v in values],
                        dtype=np.int64).reshape(-1, 2)
    starts, lengths = runs.T
    counts = np.asarray(counts, dtype=np.int64)
    ends = np.cumsum(counts)
    firsts = ends - counts
    # a run after a bad one may wrap around; only the first bad run is read
    prev_end = np.concatenate(([0], starts[:-1] + lengths[:-1]))[:len(runs)]
    prev_end[firsts[firsts < len(runs)]] = 0
    totals = np.repeat([h * w for h, w in zip(heights, widths)], counts)
    bad = (lengths < 1) | (starts < prev_end) | (lengths > totals - starts)
    if bad.any():
        k = int(bad.argmax())
        image_id, segment_id = names[np.searchsorted(ends, k, side="right")]
        raise BadRle(f"bad run ({values[2 * k]},{values[2 * k + 1]}) in segment "
                     f"{segment_id} of {image_id}")
    summed = np.concatenate(([0], np.cumsum(lengths)))
    return runs, (summed[ends] - summed[firsts]).tolist()


def summed_area(mask: SegmentMask) -> np.ndarray:
    """(H+1, W+1) int32 table; entry (i, j) counts mask pixels in rows < i, cols < j."""
    table = np.zeros((mask.height + 1, mask.width + 1), dtype=np.int32)
    table[1:, 1:] = mask.to_array()
    np.cumsum(table, axis=0, dtype=np.int32, out=table)
    np.cumsum(table, axis=1, dtype=np.int32, out=table)
    return table


def tight_box(mask: SegmentMask) -> Box:
    """Smallest box containing every mask pixel; found once per mask, then cached."""
    if mask.pixel_count == 0:
        raise EmptySegment(f"segment {mask.segment_id} of {mask.image_id} is empty")
    if mask._tight_box is None:
        arr = mask.to_array()
        rows = np.flatnonzero(arr.any(axis=1))
        cols = np.flatnonzero(arr.any(axis=0))
        mask._tight_box = Box(float(cols[0]), float(rows[0]),
                              float(cols[-1]), float(rows[-1]))
    return mask._tight_box


def largest_segment_area(masks) -> int:
    """Area M of the biggest segment in an image's pool; 0 for an empty pool."""
    return max((m.pixel_count for m in masks), default=0)
