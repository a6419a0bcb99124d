"""Run-length encoded binary segment masks and their summed-area tables.

`summed_area` is the one table builder.  Block extraction builds each
segment's table as a local and drops it after that segment; only the
one-box feature functions, called without a table, read the copy that
`SegmentMask.integral()` caches on the mask.
"""

from __future__ import annotations

import itertools

import numpy as np

from .boxes import Box
from .errors import BadRle, EmptySegment, NoSegments

MAX_PIXELS = 2 ** 31    # a mask holds fewer pixels: summed_area() counts in int32


class SegmentMask:
    """Binary mask of one region proposal, stored as row-major (start, length) runs.

    `runs` is one (n, 2) int32 array.  The runs are checked as Python ints
    before the conversion, so an out-of-range value raises BadRle.
    """

    def __init__(self, image_id, segment_id, height, width, runs):
        count = check_runs(image_id, segment_id, height, width, runs)
        self.image_id = image_id
        self.segment_id = segment_id
        self.height = height
        self.width = width
        self.runs = np.fromiter(itertools.chain.from_iterable(runs), dtype=np.int32,
                                count=2 * len(runs)).reshape(-1, 2)
        self.pixel_count = count
        self._integral = None
        self._tight_box = None

    @classmethod
    def from_array(cls, arr, image_id="", segment_id=0):
        arr = np.asarray(arr, dtype=bool)
        flat = arr.ravel()
        padded = np.concatenate(([False], flat, [False]))
        diff = np.diff(padded.astype(np.int8))
        starts = np.flatnonzero(diff == 1)
        ends = np.flatnonzero(diff == -1)
        runs = [(int(s), int(e - s)) for s, e in zip(starts, ends)]
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


def check_runs(image_id, segment_id, height, width, runs) -> int:
    """Pixel count of a mask's (start, length) runs, or BadRle.

    The dims must hold 1 to 2**31 - 1 pixels, and each run must be
    non-empty, after the previous one and inside the dims.
    """
    total = height * width
    if height < 1 or width < 1 or total >= MAX_PIXELS:
        raise BadRle(f"bad mask dims {height}x{width}: need 1 to 2**31 - 1 pixels")
    prev_end = 0
    count = 0
    for start, length in runs:
        if length < 1 or start < prev_end or start + length > total:
            raise BadRle(
                f"bad run ({start},{length}) in segment {segment_id} of {image_id}")
        prev_end = start + length
        count += length
    return count


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
    """Area M of the biggest segment in an image's pool."""
    masks = list(masks)
    if not masks:
        raise NoSegments("no segments in image")
    return max(m.pixel_count for m in masks)
