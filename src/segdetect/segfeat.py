"""Segmentation potentials for (candidate box, segment) pairs.

Six features per class: a K*K in-box segment grid, segment-out fraction,
a K*K in-box background grid, background-out fraction, box/segment tight-box
overlap, and a logistic segment class score.  All grid counts go through the
segment's summed-area table: one pass over the K*K cells and the box gives the
four box-sum features, each rectangle read with four lookups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import Box, iou
from .errors import DegenerateNormalizer, EmptySegment
from .masks import SegmentMask, rect_count, tight_box


@dataclass(frozen=True)
class GridSpec:
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("grid side must be >= 1")


def block_length(k: int) -> int:
    """Per-class segmentation feature length."""
    return 2 * k * k + 4


def grid_cells(p: Box, grid: GridSpec):
    """Partition the rounded box into K*K near-equal inclusive rectangles.

    Remainder pixels go to the last row/column of cells.  Cells are yielded
    row-major; a cell can be empty (x1 > x2) when the box is thinner than K.
    """
    x1, y1, x2, y2 = p.rounded()
    k = grid.k
    w = x2 - x1 + 1
    h = y2 - y1 + 1
    bw = w // k
    bh = h // k
    cells = []
    for r in range(k):
        cy1 = y1 + r * bh
        cy2 = y1 + (r + 1) * bh - 1 if r < k - 1 else y2
        for c in range(k):
            cx1 = x1 + c * bw
            cx2 = x1 + (c + 1) * bw - 1 if c < k - 1 else x2
            cells.append((cx1, cy1, cx2, cy2))
    return cells


def _box_sums(p: Box, s: SegmentMask, grid: GridSpec, m: int) -> np.ndarray:
    """[grid_in (K*K), seg_out, back_in (K*K), back_out] for one box and segment.

    Each of the K*K cells and then the whole box is clipped to the image once;
    its segment count comes from the summed-area table and its area from the
    clipped corners.  Every feature is an exact integer over |S| (segment
    features) or max(M - |S|, 1) (background features), divided once.
    """
    n = s.pixel_count
    if n == 0:
        raise EmptySegment(f"segment {s.segment_id} of {s.image_id} is empty")
    if m < n:
        raise DegenerateNormalizer(f"largest-segment area {m} < segment size {n}")
    table = s.integral()
    cells = grid_cells(p, grid)
    counts, areas = [], []
    # the first cell starts and the last cell ends at the rounded box's corners
    for x1, y1, x2, y2 in cells + [(*cells[0][:2], *cells[-1][2:])]:
        x1, y1 = max(x1, 0), max(y1, 0)
        x2, y2 = min(x2, s.width - 1), min(y2, s.height - 1)
        counts.append(rect_count(table, x1, y1, x2, y2))
        areas.append(max(x2 - x1 + 1, 0) * max(y2 - y1 + 1, 0))
    seg = np.array(counts)
    back = np.array(areas) - seg
    seg[-1] = n - seg[-1]                           # segment pixels outside the box
    back[-1] = s.height * s.width - n - back[-1]    # background pixels outside the box
    return np.concatenate((seg, back)) / np.repeat((n, max(m - n, 1)), len(seg))


def seggrid_in(p: Box, s: SegmentMask, grid: GridSpec) -> np.ndarray:
    """Fraction of the segment's pixels falling in each grid cell."""
    # any m >= |S| will do here: the background features are dropped
    return _box_sums(p, s, grid, s.pixel_count)[:grid.k * grid.k]


def seg_out(p: Box, s: SegmentMask) -> float:
    """Fraction of the segment's pixels outside the box."""
    return float(_box_sums(p, s, GridSpec(1), s.pixel_count)[1])


def backgrid_in(p: Box, s: SegmentMask, grid: GridSpec, m: int) -> np.ndarray:
    """Per-cell count of non-segment pixels, normalized by M - |S|."""
    kk = grid.k * grid.k
    return _box_sums(p, s, grid, m)[kk + 1:2 * kk + 1]


def back_out(p: Box, s: SegmentMask, m: int) -> float:
    """Non-segment pixels outside the box, over the whole image, normalized by M - |S|."""
    return float(_box_sums(p, s, GridSpec(1), m)[3])


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
                   grid: GridSpec, lam: float, m: int) -> np.ndarray:
    """Concatenate the six features for one (box, segment, class) triple.

    Layout: [grid_in (K*K), seg_out, back_in (K*K), back_out, overlap, segclass].
    """
    return np.append(_box_sums(p, s, grid, m),
                     (overlap_feat(p, s, lam), segclass_feat(class_score)))
