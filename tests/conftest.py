import numpy as np
import pytest

from segdetect.boxes import Box
from segdetect.masks import SegmentMask, largest_segment_area
from segdetect.model import FeatureBundle
from segdetect.segfeat import GridSpec, assemble_block, segclass_feat


def make_bundle(image_id, width, height, boxes, masks, raw_scores,
                appearance, context, grid_k, lam):
    """Assemble a FeatureBundle directly from in-memory pieces.

    raw_scores: (n_segs, C) raw ranker scores per segment.
    """
    raw_scores = np.atleast_2d(np.asarray(raw_scores, dtype=np.float64))
    n_boxes = len(boxes)
    n_segs = len(masks)
    grid = GridSpec(grid_k)
    m = largest_segment_area(masks)
    L = 2 * grid_k * grid_k + 4
    seg_base = np.zeros((n_boxes, n_segs, L - 1))
    for s, mask in enumerate(masks):
        for b, box in enumerate(boxes):
            seg_base[b, s] = assemble_block(box, mask, 0.0, grid, lam, m)[:-1]
    sig = np.vectorize(segclass_feat)(raw_scores) if n_segs else \
        np.zeros((0, raw_scores.shape[1]))
    return FeatureBundle(
        image_id=image_id, width=width, height=height,
        box_ids=list(range(n_boxes)), boxes=list(boxes),
        appearance=np.asarray(appearance, dtype=np.float64),
        context=np.asarray(context, dtype=np.float64),
        seg_ids=[m_.segment_id for m_ in masks], seg_base=seg_base,
        sigmoid_scores=sig, segments=list(masks))


def segment_contributions(bundle, weights, detector, box_index):
    """(n_segs, C) matrix of per-class contributions for one box.

    The per-box oracle for the segment term: one (n_segs, L - 1) product
    per class on this box's block alone.
    """
    base = bundle.seg_base[box_index]            # (n_segs, L - 1)
    out = np.empty((bundle.n_segs, weights.n_classes))
    for c in range(1, weights.n_classes + 1):
        w = weights.seg_block(detector, c)
        out[:, c - 1] = base @ w[:-1] + w[-1] * bundle.sigmoid_scores[:, c - 1]
    return out


def rect_count(table, x1, y1, x2, y2):
    """Mask pixels inside the inclusive rectangle, clipped to the image.

    The four-corner reference that `segfeat`'s lattice read is checked against.
    """
    h, w = table.shape[0] - 1, table.shape[1] - 1
    x1, y1, x2, y2 = max(x1, 0), max(y1, 0), min(x2, w - 1), min(y2, h - 1)
    if x1 > x2 or y1 > y2:
        return 0
    return int(table[y2 + 1, x2 + 1] - table[y1, x2 + 1]
               - table[y2 + 1, x1] + table[y1, x1])


def random_masks(rng, n_segs, width, height):
    masks = []
    for s in range(n_segs):
        while True:
            arr = rng.random((height, width)) < rng.uniform(0.1, 0.6)
            if arr.any():
                break
        masks.append(SegmentMask.from_array(arr, "img", s))
    return masks


def random_boxes(rng, n, width, height):
    boxes = []
    for _ in range(n):
        x1 = int(rng.integers(0, width - 2))
        y1 = int(rng.integers(0, height - 2))
        boxes.append(Box(x1, y1, int(x1 + rng.integers(1, width - x1)),
                         int(y1 + rng.integers(1, height - y1))))
    return boxes


@pytest.fixture
def rng():
    return np.random.default_rng(0)
