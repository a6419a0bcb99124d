"""Segmentation potentials for (candidate box, segment) pairs.

Six features per class: a K*K in-box segment grid, segment-out fraction,
a K*K in-box background grid, background-out fraction, box/segment tight-box
overlap, and a logistic segment class score.  All grid counts come from one
`take` of the segment's summed-area table at a box's `box_lattice`.
`model.segment_blocks`, the one `assemble_block` caller, builds each box's
lattice once for all of the image's segments, which share its W x H, and
each segment's table (`masks.summed_area`) once for all of its boxes.
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


def box_lattice(p: Box, k: int, w: int, h: int):
    """(flat, areas) of box p in a w x h image: the (h+1) x (w+1) table indices
    of its (K+1)^2 cell-edge crossings, then its K*K cell areas and its own
    area, all clamped to the image.  Clamped edges never decrease, so a cell
    off the image or thinner than a pixel has area 0."""
    x1, y1, x2, y2 = p.rounded()
    xs = [0 if x < 0 else w if x > w else x for x in _edges(x1, x2, k)]
    ys = [0 if y < 0 else h if y > h else y for y in _edges(y1, y2, k)]
    areas = [(b - a) * (d - c) for a, b in zip(ys, ys[1:]) for c, d in zip(xs, xs[1:])]
    return (np.array([y * (w + 1) + x for y in ys for x in xs]),
            areas + [(ys[k] - ys[0]) * (xs[k] - xs[0])])


def _box_sums(p: Box, s: SegmentMask, grid: GridSpec, m: int,
              table: np.ndarray | None = None, lattice=None) -> list[float]:
    """[grid_in (K*K), seg_out, back_in (K*K), back_out] for one box and segment.

    table: `summed_area(s)`, or None to read the mask's cached `integral()`;
    lattice: `box_lattice` at the mask's W x H, or None to build it.  Each
    feature is an exact count, from one `take` of the table, over |S|
    (segment) or max(M - |S|, 1) (background), divided as Python int / int.
    """
    n = s.pixel_count
    if n == 0:
        raise EmptySegment(f"segment {s.segment_id} of {s.image_id} is empty")
    if m < n:
        raise DegenerateNormalizer(f"largest-segment area {m} < segment size {n}")
    k, d = grid.k, max(m - n, 1)
    flat, areas = lattice or box_lattice(p, k, s.width, s.height)
    t = (s.integral() if table is None else table).take(flat).tolist()
    seg, back = [], []
    for j, area in enumerate(areas[:-1]):
        i = j + j // k                  # cell j's top-left crossing
        count = t[i + k + 2] - t[i + 1] - t[i + k + 1] + t[i]
        seg.append(count / n)
        back.append((area - count) / d)
    inside = t[-1] - t[k] - t[k * (k + 1)] + t[0]
    seg.append((n - inside) / n)                    # segment pixels outside the box
    back.append((s.height * s.width - n - areas[-1] + inside) / d)
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
                   table: np.ndarray | None = None, lattice=None) -> np.ndarray:
    """Concatenate the six features for one (box, segment, class) triple.

    Layout: [grid_in (K*K), seg_out, back_in (K*K), back_out, overlap, segclass].
    table, lattice: passed on to `_box_sums`; a None table reads the mask's
    cached `integral()`, which then stays on the mask.
    """
    return np.array(_box_sums(p, s, grid, m, table, lattice)
                    + [overlap_feat(p, s, lam), segclass_feat(class_score)])
