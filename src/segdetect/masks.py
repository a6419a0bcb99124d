"""Run-length encoded binary segment masks and their summed-area tables."""

from __future__ import annotations

import numpy as np

from .boxes import Box
from .errors import BadRle, EmptySegment, NoSegments


class SegmentMask:
    """Binary mask of one region proposal, stored as row-major (start, length) runs."""

    def __init__(self, image_id, segment_id, height, width, runs):
        total = height * width
        if height < 1 or width < 1 or total >= 2 ** 31:
            # integral() counts pixels in int32
            raise BadRle(f"bad mask dims {height}x{width}: need 1 to 2**31 - 1 pixels")
        prev_end = 0
        count = 0
        for start, length in runs:
            if length < 1 or start < prev_end or start + length > total:
                raise BadRle(
                    f"bad run ({start},{length}) in segment {segment_id} of {image_id}")
            prev_end = start + length
            count += length
        self.image_id = image_id
        self.segment_id = segment_id
        self.height = height
        self.width = width
        self.runs = tuple((int(s), int(l)) for s, l in runs)
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
        for start, length in self.runs:
            flat[start:start + length] = True
        return flat.reshape(self.height, self.width)

    def integral(self) -> np.ndarray:
        """(H+1, W+1) summed-area table; entry (i, j) counts pixels in rows < i, cols < j."""
        if self._integral is None:
            table = np.zeros((self.height + 1, self.width + 1), dtype=np.int32)
            table[1:, 1:] = self.to_array()
            np.cumsum(table, axis=0, dtype=np.int32, out=table)
            np.cumsum(table, axis=1, dtype=np.int32, out=table)
            self._integral = table
        return self._integral


def rect_count(table: np.ndarray, x1: int, y1: int, x2: int, y2: int) -> int:
    """Mask pixels inside the inclusive rectangle, clipped to the image."""
    h, w = table.shape[0] - 1, table.shape[1] - 1
    x1, y1, x2, y2 = max(x1, 0), max(y1, 0), min(x2, w - 1), min(y2, h - 1)
    if x1 > x2 or y1 > y2:
        return 0
    return int(table[y2 + 1, x2 + 1] - table[y1, x2 + 1]
               - table[y2 + 1, x1] + table[y1, x1])


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
