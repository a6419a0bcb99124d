"""Box geometry on 0-based inclusive pixel coordinates.

Boxes are real-valued during regression and rounded (half away from zero)
onto the integer pixel grid before any mask or overlap computation.  Areas
use the inclusive +1 convention, matching PASCAL devkit arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def round_half_away(x: float) -> int:
    """Round to nearest integer, halves away from zero."""
    if x >= 0:
        return int(math.floor(x + 0.5))
    return int(math.ceil(x - 0.5))


@dataclass(frozen=True)
class Box:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(f"inverted box {self}")
        object.__setattr__(self, "_rounded", None)  # not a field; preset: compact dict

    def rounded(self) -> tuple[int, int, int, int]:
        """Rounded corners, computed on first use (a box may hold NaN), then cached."""
        if self._rounded is None:
            corners = (self.x1, self.y1, self.x2, self.y2)
            object.__setattr__(self, "_rounded", tuple(map(round_half_away, corners)))
        return self._rounded

    def center_size(self) -> tuple[float, float, float, float]:
        """(cx, cy, w, h) with the +1 width convention."""
        w = self.x2 - self.x1 + 1.0
        h = self.y2 - self.y1 + 1.0
        return (self.x1 + 0.5 * (w - 1.0), self.y1 + 0.5 * (h - 1.0), w, h)


def iou(a: Box, b: Box) -> float:
    """Intersection-over-union on the rounded integer pixel grid."""
    ax1, ay1, ax2, ay2 = a.rounded()
    bx1, by1, bx2, by2 = b.rounded()
    iw = min(ax2, bx2) - max(ax1, bx1) + 1
    ih = min(ay2, by2) - max(ay1, by1) + 1
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    union = ((ax2 - ax1 + 1) * (ay2 - ay1 + 1)
             + (bx2 - bx1 + 1) * (by2 - by1 + 1) - inter)
    return inter / union


def rounded_corners(boxes) -> np.ndarray:
    """(n, 4) int64 array of the boxes' rounded (x1, y1, x2, y2)."""
    return np.array([b.rounded() for b in boxes], dtype=np.int64).reshape(-1, 4)


def iou_row(corner, corners) -> np.ndarray:
    """`iou` of one rounded box against each row of `corners`, bit for bit.

    The integer intersection and union are below 2**53, so float64 division
    rounds their quotient correctly, as Python's int / int does.
    """
    x1, y1, x2, y2 = corner
    iw = np.minimum(corners[:, 2], x2) - np.maximum(corners[:, 0], x1) + 1
    ih = np.minimum(corners[:, 3], y2) - np.maximum(corners[:, 1], y1) + 1
    inter = np.maximum(iw, 0) * np.maximum(ih, 0)
    areas = (corners[:, 2] - corners[:, 0] + 1) * (corners[:, 3] - corners[:, 1] + 1)
    return inter / (areas + (x2 - x1 + 1) * (y2 - y1 + 1) - inter)


def clip_box(b: Box, width: int, height: int) -> Box:
    return Box(min(max(b.x1, 0.0), width - 1.0),
               min(max(b.y1, 0.0), height - 1.0),
               min(max(b.x2, 0.0), width - 1.0),
               min(max(b.y2, 0.0), height - 1.0))


def expand_box(b: Box, rho: float, width: int, height: int) -> Box:
    """Grow each side outward by rho * box size, then clip to the image."""
    if rho < 0:
        raise ValueError("rho must be non-negative")
    w = b.x2 - b.x1 + 1.0
    h = b.y2 - b.y1 + 1.0
    grown = Box(b.x1 - rho * w, b.y1 - rho * h, b.x2 + rho * w, b.y2 + rho * h)
    return clip_box(grown, width, height)
