"""Energy model: per-class box scoring with greedy segment selection, plus NMS.

The energy of a box is a linear appearance term, a linear context term, and a
sum over classes of segment-choice contributions.  The segment variables are
independent across classes, so maximizing each class on its own is exact.
`score_boxes` is the one place that chooses segments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .boxes import Box, iou_row, rounded_corners
from .config import check_range
from .dataset import (box_rows, check, class_ids, finite, read_blocks, read_table,
                      write_records)
from .errors import InputError, NumericalError
from .segfeat import GridSpec, assemble_block, block_length, box_lattice, segclass_feat
from .masks import largest_segment_area, summed_area

NONE_SEGMENT = None
# score_boxes scores at most this many (box, class, option) floats at a time
SCORE_CHUNK_FLOATS = 2 ** 15


@dataclass
class ModelWeights:
    """Independent per-class detectors sharing one feature layout."""
    n_classes: int
    grid_k: int
    lam: float
    d_app: int
    d_ctx: int
    w_app: np.ndarray   # (C, d_app)
    w_ctx: np.ndarray   # (C, d_ctx)
    w_seg: np.ndarray   # (C, C * block_length)
    bias: np.ndarray    # (C,)

    @classmethod
    def zeros(cls, n_classes, grid_k, lam, d_app, d_ctx):
        L = block_length(grid_k)
        return cls(n_classes, grid_k, lam, d_app, d_ctx,
                   np.zeros((n_classes, d_app)), np.zeros((n_classes, d_ctx)),
                   np.zeros((n_classes, n_classes * L)), np.zeros(n_classes))

    @property
    def seg_block_len(self):
        return block_length(self.grid_k)

    def seg_block(self, detector, h_class):
        """w_seg slice of detector `detector` for segment-choice class `h_class` (1-based)."""
        L = self.seg_block_len
        return self.w_seg[detector - 1, (h_class - 1) * L:h_class * L]

    def validate(self):
        for arr, shape in ((self.w_app, (self.n_classes, self.d_app)),
                           (self.w_ctx, (self.n_classes, self.d_ctx)),
                           (self.w_seg, (self.n_classes,
                                         self.n_classes * self.seg_block_len)),
                           (self.bias, (self.n_classes,))):
            if arr.shape != shape:
                raise InputError(f"weight block shape {arr.shape} != expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise InputError("non-finite model weights")


def save_model(path, m: ModelWeights):
    m.validate()

    def rows():
        yield from (("segdetect-model", 1), ("n_classes", m.n_classes), ("grid_k", m.grid_k),
                    ("lambda", m.lam), ("d_app", m.d_app), ("d_ctx", m.d_ctx))
        for c in range(m.n_classes):
            yield from (("detector", c + 1), ("bias", m.bias[c]), ("w_app", *m.w_app[c]),
                        ("w_ctx", *m.w_ctx[c]), ("w_seg", *m.w_seg[c]))
    write_records(path, rows(), sep=" ")


def load_model(path) -> ModelWeights:
    header, blocks = read_blocks(path, "segdetect-model 1",
                                 ("n_classes", "grid_k", "lambda", "d_app", "d_ctx"),
                                 "detector", ("bias", "w_app", "w_ctx", "w_seg"))
    try:
        n, grid_k = (check_range(key, int(header[key])) for key in ("n_classes", "grid_k"))
        if len(blocks) != n or max(blocks) != n:    # ids are distinct and >= 1
            raise ValueError(f"need detector blocks 1..{n}, got {sorted(blocks)}")
        bias, w_app, w_ctx, w_seg = (np.array([blocks[c][r] for c in range(1, n + 1)])
                                     for r in range(4))
        m = ModelWeights(n, grid_k, finite(header["lambda"]), int(header["d_app"]),
                         int(header["d_ctx"]), w_app, w_ctx, w_seg, bias.reshape(n))
        m.validate()
    except (ValueError, InputError) as e:
        raise InputError(f"{path}: bad model: {e}") from e
    return m


# ---------------------------------------------------------------------------
# per-image feature bundle

@dataclass
class FeatureBundle:
    """Per-image view joining boxes, cached features, and segment kernels.

    seg_base[b, s] holds the first L - 1 slots of the segmentation block for
    (box b, segment s); the last (segclass) slot varies with class and is
    sigmoid_scores[s, c].  Segments are in ascending id order.  Images with
    equal segment counts S stack into one group bundle: its rows are their
    boxes, seg_ids are the segment indices 0..S-1, sigmoid_scores is
    (n_images, S, C) and box_image[b] indexes box b's image in it.
    """
    image_id: str
    width: int
    height: int
    box_ids: list
    boxes: list
    appearance: np.ndarray       # (n_boxes, d_app)
    context: np.ndarray          # (n_boxes, d_ctx)
    seg_ids: list
    seg_base: np.ndarray         # (n_boxes, n_segs, L - 1)
    sigmoid_scores: np.ndarray   # (n_segs, C)
    segments: list = field(default_factory=list)
    box_image: np.ndarray = None   # (n_boxes,) in a group bundle, else None

    @property
    def n_boxes(self):
        return len(self.box_ids)

    @property
    def n_segs(self):
        return len(self.seg_ids)

    @property
    def largest_area(self):
        """The largest segment's area: the background normaliser of segment_blocks."""
        return largest_segment_area(self.segments)


def segment_blocks(boxes, masks, grid_k, lam) -> np.ndarray:
    """(n_boxes, n_segs, L - 1) blocks: every slot but the class-dependent last one.

    The one block-extraction loop: build_bundle runs it on every box, and
    iterate_boxes on every refined box.  The background normaliser m is the
    largest segment's area.  Each box's `box_lattice` serves every mask, as
    Dataset checks that masks have the image's W x H, and each segment's
    summed-area table is a local, dropped after that segment.
    """
    grid = GridSpec(grid_k)
    m = largest_segment_area(masks)
    out = np.zeros((len(boxes), len(masks), block_length(grid_k) - 1))
    if not boxes or not masks:
        return out
    lattices = [box_lattice(box, grid_k, masks[0].width, masks[0].height) for box in boxes]
    for s, mask in enumerate(masks):
        table = summed_area(mask)
        for b, (box, lattice) in enumerate(zip(boxes, lattices)):
            out[b, s] = assemble_block(box, mask, 0.0, grid, lam, m, table, lattice)[:-1]
    return out


def build_bundle(dataset, image_id, grid_k, lam) -> FeatureBundle:
    bundle = image_bundle(dataset, image_id)
    bundle.seg_base = segment_blocks(bundle.boxes, bundle.segments, grid_k, lam)
    return bundle


def image_bundle(dataset, image_id) -> FeatureBundle:
    """build_bundle without the segment blocks: seg_base is None."""
    rec = dataset.record(image_id)
    return FeatureBundle(
        image_id=image_id, width=rec.width, height=rec.height,
        box_ids=list(rec.box_ids), boxes=list(rec.boxes), seg_base=None,
        appearance=dataset.appearance[rec.rows], context=dataset.context[rec.rows],
        seg_ids=[m.segment_id for m in rec.masks], segments=list(rec.masks),
        sigmoid_scores=np.vectorize(segclass_feat, otypes=[float])(rec.seg_scores))


def select_segment(contribs_for_class, seg_ids):
    """Reference for score_boxes' choice, kept for the tests.

    Argmax over {none} + segments; ties prefer none, then lowest segment id.
    Returns (segment_id or None, contribution). The no-segment choice
    contributes exactly 0.
    """
    best_id = NONE_SEGMENT
    best = 0.0
    order = sorted(range(len(seg_ids)), key=lambda i: seg_ids[i])
    for i in order:
        if contribs_for_class[i] > best:
            best = float(contribs_for_class[i])
            best_id = seg_ids[i]
    return best_id, best


@np.errstate(over="ignore", invalid="ignore")    # a non-finite score raises below
def score_boxes(bundle: FeatureBundle, weights: ModelWeights, detector,
                box_indices=None):
    """Greedy-exact energies of many boxes under detector `detector` (1-based).

    box_indices: a sequence of the boxes to score, in any order (default:
    every box), of one image or of a group (see FeatureBundle), whose rows
    take their class terms from their own image.  Each class takes the
    argmax over {none} + segments.  None is worth exactly 0.0 and comes
    first, and segments are in ascending id order, so ties prefer none, then
    the lowest segment id (in a group, index).  The gains are added to the
    linear score one class at a time, in class order.  All classes are
    scored in one stacked product per chunk of at most SCORE_CHUNK_FLOATS
    options, with the same BLAS calls, and so the same bits, as one product
    per box and class.  Returns (scores, picks): the (n,) float64 scores,
    and the (n, C) intp index into seg_ids chosen per box and segment-choice
    class, -1 for no segment.  A score that is not finite raises NumericalError.
    """
    d = detector - 1
    n_classes = weights.n_classes
    rows = None if box_indices is None else np.asarray(box_indices, dtype=np.intp)
    n = bundle.n_boxes if rows is None else len(rows)
    app, ctx = bundle.appearance, bundle.context
    w_app, w_ctx = weights.w_app[d][:, None], weights.w_ctx[d][:, None]
    w_blocks = weights.w_seg[d].reshape(n_classes, -1)
    w_base = w_blocks[:, :-1, None]                            # (C, L - 1, 1)
    class_terms = np.swapaxes(bundle.sigmoid_scores * w_blocks[:, -1], -1, -2)  # [I,] C, S
    chunk = max(1, SCORE_CHUNK_FLOATS // (n_classes * (bundle.n_segs + 1)))
    scores = np.empty(n)
    picks = np.empty((n, n_classes), dtype=np.intp)
    for lo in range(0, n, chunk):
        sel = slice(lo, lo + chunk) if rows is None else rows[lo:lo + chunk]
        # stacked (1, d) @ (d, 1) products: the same ddot as each box's 1-D dot
        part = ((app[sel, None] @ w_app)[:, 0, 0] + (ctx[sel, None] @ w_ctx)[:, 0, 0]
                + weights.bias[d])
        # one gemv per (box, class), the same as on that box's block alone
        options = np.zeros((len(part), n_classes, bundle.n_segs + 1))  # column 0: none
        np.add((bundle.seg_base[sel, None] @ w_base)[..., 0],
               class_terms if bundle.box_image is None
               else class_terms[bundle.box_image[sel]], out=options[:, :, 1:])
        pick = options.argmax(axis=2)
        gains = options[np.arange(len(part))[:, None], np.arange(n_classes), pick]
        for gain in gains.T:
            part += gain
        scores[lo:lo + len(part)] = part
        picks[lo:lo + len(part)] = pick - 1
    if not np.isfinite(scores).all():
        raise NumericalError(f"image {bundle.image_id!r}: detector {detector} scores a box "
                             f"{scores[~np.isfinite(scores)][0]}")
    return scores, picks


def segment_ids(bundle: FeatureBundle, picks):
    """One box's score_boxes picks as segment ids, None for no segment."""
    return [NONE_SEGMENT if h < 0 else bundle.seg_ids[h] for h in picks.tolist()]


def score_box(bundle: FeatureBundle, weights: ModelWeights, detector, box_index):
    """score_boxes for one box: (score, chosen segment ids)."""
    scores, picks = score_boxes(bundle, weights, detector, [box_index])
    return scores.item(0), segment_ids(bundle, picks[0])


@dataclass
class Detection:
    image_id: str
    class_id: int
    box_id: int
    box: Box
    score: float
    chosen_segments: list


def overlap_matrix(boxes, iou_thresh):
    """(n, n) bool matrix: iou of boxes i and j above iou_thresh.

    Each row block goes through `iou_row`, so the test is the same as on one
    row at a time.  A block holds at most SCORE_CHUNK_FLOATS / 2 entries:
    the IoU arithmetic keeps about six int64 temporaries of a block alive.
    """
    corners = rounded_corners(boxes)
    out = np.empty((len(corners), len(corners)), dtype=bool)
    step = max(1, SCORE_CHUNK_FLOATS // 2 // max(len(corners), 1))
    for lo in range(0, len(corners), step):
        out[lo:lo + step] = iou_row(corners[lo:lo + step].T[:, :, None], corners) > iou_thresh
    return out


def nms(overlap, scores, box_ids):
    """Greedy suppression on `overlap_matrix(boxes, iou_thresh)`; returns kept
    indices, higher score (then lower id) first."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], box_ids[i]))
    suppressed = np.zeros(len(scores), dtype=bool)
    kept = []
    for i in order:
        if not suppressed[i]:
            kept.append(i)
            suppressed |= overlap[i]
    return kept


def detect_image(bundle: FeatureBundle, weights: ModelWeights, nms_iou, top_k):
    """Score every box with every detector, then per-class NMS on one overlap matrix."""
    overlap = overlap_matrix(bundle.boxes, nms_iou)
    detections = []
    for detector in range(1, weights.n_classes + 1):
        scores, picks = score_boxes(bundle, weights, detector)
        scores = scores.tolist()
        for i in nms(overlap, scores, bundle.box_ids)[:top_k]:
            detections.append(Detection(
                bundle.image_id, detector, bundle.box_ids[i], bundle.boxes[i],
                scores[i], segment_ids(bundle, picks[i])))
    return detections


# ---------------------------------------------------------------------------
# detections dump

def write_detections(path, detections):
    write_records(path, (
        (d.image_id, d.class_id, d.score, float(d.box.x1), float(d.box.y1),
         float(d.box.x2), float(d.box.y2),
         ";".join("NONE" if s is None else str(s) for s in d.chosen_segments))
        for d in detections))


def read_detections(path, dataset=None):
    """Detections in file order; box_id is the record number, from 1.

    With a Dataset, class ids must lie in 1..C and image ids must be its own.
    """
    box_ids = itertools.count(1)

    def rows(images, classes, scores, *fields):
        *corners, segments = fields
        if dataset:
            check([image_id not in dataset.images for image_id in images],
                  lambda i: f"detection of image {images[i]}, which the manifest "
                            "does not list")
        class_ids(classes, dataset and dataset.n_classes, "detection")
        box_rows(images, corners, {})
        return [Detection(image_id, class_id, next(box_ids), Box(*xy), score, segs)
                for image_id, class_id, score, segs, *xy in zip(
                    images, classes, scores.tolist(), segments, *(v.tolist() for v in corners))]
    return read_table(path, (str, int, float, float, float, float, float, _segments), rows)


def _segments(text):
    return [None if tok == "NONE" else int(tok)
            for tok in text.split(";")] if text else []
