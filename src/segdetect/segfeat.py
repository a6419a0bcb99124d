"""Segmentation potentials for (candidate box, segment) pairs.

Six features per class: a K*K in-box segment grid, segment-out fraction,
a K*K in-box background grid, background-out fraction, box/segment tight-box
overlap, and a logistic segment class score.  All grid counts go through the
segment's summed-area table: one read of its (K+1)^2 cell-edge lattice gives
the four box-sum features of a (box, segment) pair.  A caller that extracts
many boxes passes the table it built with `masks.summed_area`; without one,
the mask's cached `integral()` is read.  `model.segment_blocks`, the one
`assemble_block` caller in the package, takes the background normaliser m
from `masks.largest_segment_area` and keeps every slot but the class score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import Box, iou
from .errors import DegenerateNormalizer, EmptySegment
from .masks import SegmentMask, tight_box


@dataclass(frozen=True)
class GridSpec:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("grid side must be >= 1")


def block_length(k: int) -> int:
    """Per-class segmentation feature length."""
    return 2 * k * k + 4


def _edges(lo: int, hi: int, k: int) -> list[int]:
    """K+1 cell edges over [lo, hi]: K equal steps, the remainder in the last cell."""
    step = (hi - lo + 1) // k
    return [lo + c * step for c in range(k)] + [hi + 1]


def grid_cells(p: Box, grid: GridSpec):
    """Partition the rounded box into K*K near-equal inclusive rectangles.

    Remainder pixels go to the last row/column of cells.  Cells are yielded
    row-major; a cell can be empty (x1 > x2) when the box is thinner than K.
    """
    x1, y1, x2, y2 = p.rounded()
    xs, ys = _edges(x1, x2, grid.k), _edges(y1, y2, grid.k)
    return [(xs[c], ys[r], xs[c + 1] - 1, ys[r + 1] - 1)
            for r in range(grid.k) for c in range(grid.k)]


def _box_sums(p: Box, s: SegmentMask, grid: GridSpec, m: int,
              table: np.ndarray | None = None) -> list[float]:
    """[grid_in (K*K), seg_out, back_in (K*K), back_out] for one box and segment.

    table: `summed_area(s)`, or None to read the mask's cached `integral()`.
    One read of the summed-area table on the (K+1)^2 lattice of cell edges,
    each clamped to the image; clamped edges never decrease, so a cell off the
    image or thinner than a pixel has count and area 0.  The whole box uses
    the outer corners.  Each feature is an exact integer over |S| (segment)
    or max(M - |S|, 1) (background), divided as Python int / int.
    """
    n = s.pixel_count
    if n == 0:
        raise EmptySegment(f"segment {s.segment_id} of {s.image_id} is empty")
    if m < n:
        raise DegenerateNormalizer(f"largest-segment area {m} < segment size {n}")
    x1, y1, x2, y2 = p.rounded()
    k, w, h = grid.k, s.width, s.height
    xs = [0 if x < 0 else w if x > w else x for x in _edges(x1, x2, k)]
    ys = [0 if y < 0 else h if y > h else y for y in _edges(y1, y2, k)]
    item = (s.integral() if table is None else table).item
    t = [[item(y, x) for x in xs] for y in ys]
    d = max(m - n, 1)
    seg, back = [], []
    for r in range(k):
        top, bottom, gap = t[r], t[r + 1], ys[r + 1] - ys[r]
        for c in range(k):
            count = bottom[c + 1] - top[c + 1] - bottom[c] + top[c]
            seg.append(count / n)
            back.append((gap * (xs[c + 1] - xs[c]) - count) / d)
    inside = t[k][k] - t[0][k] - t[k][0] + t[0][0]
    seg.append((n - inside) / n)                    # segment pixels outside the box
    back.append((h * w - n - (ys[k] - ys[0]) * (xs[k] - xs[0]) + inside) / d)
    return seg + back


def seggrid_in(p: Box, s: SegmentMask, grid: GridSpec) -> np.ndarray:
    """Fraction of the segment's pixels falling in each grid cell."""
    # any m >= |S| will do here: the background features are dropped
    return np.array(_box_sums(p, s, grid, s.pixel_count)[:grid.k * grid.k])


def seg_out(p: Box, s: SegmentMask) -> float:
    """Fraction of the segment's pixels outside the box."""
    return _box_sums(p, s, GridSpec(1), s.pixel_count)[1]


def backgrid_in(p: Box, s: SegmentMask, grid: GridSpec, m: int) -> np.ndarray:
    """Per-cell count of non-segment pixels, normalized by M - |S|."""
    kk = grid.k * grid.k
    return np.array(_box_sums(p, s, grid, m)[kk + 1:2 * kk + 1])


def back_out(p: Box, s: SegmentMask, m: int) -> float:
    """Non-segment pixels outside the box, over the whole image, normalized by M - |S|."""
    return _box_sums(p, s, GridSpec(1), m)[3]


def overlap_feat(p: Box, s: SegmentMask, lam: float) -> float:
    """IoU between the box and the segment's tight box, minus the bias lam."""
    return iou(p, tight_box(s)) - lam


def segclass_feat(score: float) -> float:
    """Logistic squashing of a raw per-segment class score."""
    if not math.isfinite(score):
        raise ValueError(f"non-finite segment class score {score}")
    if score >= 0:
        return 1.0 / (1.0 + math.exp(-score))
    e = math.exp(score)
    return e / (1.0 + e)


def assemble_block(p: Box, s: SegmentMask, class_score: float,
                   grid: GridSpec, lam: float, m: int,
                   table: np.ndarray | None = None) -> np.ndarray:
    """Concatenate the six features for one (box, segment, class) triple.

    Layout: [grid_in (K*K), seg_out, back_in (K*K), back_out, overlap, segclass].
    table: the segment's `summed_area`, passed on to `_box_sums`; None reads
    the mask's cached `integral()`, which then stays on the mask.
    """
    return np.array(_box_sums(p, s, grid, m, table)
                    + [overlap_feat(p, s, lam), segclass_feat(class_score)])
