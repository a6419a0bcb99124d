"""Energy model: per-class box scoring with greedy segment selection, plus NMS.

The energy of a box is a linear appearance term, a linear context term, and a
sum over classes of segment-choice contributions.  The segment variables are
independent across classes, so maximizing each class on its own is exact.
`score_box` is the one place that chooses segments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .boxes import Box, iou
from .dataset import finite, read_blocks, read_records
from .errors import InputError
from .segfeat import GridSpec, assemble_block, block_length, segclass_feat
from .masks import largest_segment_area

NONE_SEGMENT = None


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
    with open(path, "w") as f:
        f.write("segdetect-model 1\n")
        f.write(f"n_classes {m.n_classes}\n")
        f.write(f"grid_k {m.grid_k}\n")
        f.write(f"lambda {m.lam!r}\n")
        f.write(f"d_app {m.d_app}\n")
        f.write(f"d_ctx {m.d_ctx}\n")
        for c in range(m.n_classes):
            f.write(f"detector {c + 1}\n")
            f.write("bias " + repr(float(m.bias[c])) + "\n")
            for name, row in (("w_app", m.w_app[c]), ("w_ctx", m.w_ctx[c]),
                              ("w_seg", m.w_seg[c])):
                f.write(name + " " + " ".join(repr(float(v)) for v in row) + "\n")


def load_model(path) -> ModelWeights:
    header, blocks = read_blocks(path, "segdetect-model 1", "detector",
                                 ("bias", "w_app", "w_ctx", "w_seg"))
    try:
        n, grid_k = int(header["n_classes"]), int(header["grid_k"])
        if n < 1 or grid_k < 1 or sorted(blocks) != list(range(1, n + 1)):
            raise ValueError(f"need n_classes and grid_k >= 1 and detector blocks "
                             f"1..n_classes, got {n}, {grid_k} and {sorted(blocks)}")
        bias, w_app, w_ctx, w_seg = (np.array([blocks[c][r] for c in range(1, n + 1)])
                                     for r in range(4))
        m = ModelWeights(n, grid_k, finite(header["lambda"]), int(header["d_app"]),
                         int(header["d_ctx"]), w_app, w_ctx, w_seg, bias.reshape(n))
        m.validate()
    except (KeyError, ValueError, InputError) as e:
        raise InputError(f"{path}: bad model: {e}") from e
    return m


# ---------------------------------------------------------------------------
# per-image feature bundle

@dataclass
class FeatureBundle:
    """Per-image view joining boxes, cached features, and segment kernels.

    seg_base[b, s] holds the class-independent part of the segmentation block
    for (box b, segment s); only the final (segclass) slot varies with class,
    provided by sigmoid_scores[s, c].  Segments are in ascending id order.
    """
    image_id: str
    width: int
    height: int
    box_ids: list
    boxes: list
    appearance: np.ndarray       # (n_boxes, d_app)
    context: np.ndarray          # (n_boxes, d_ctx)
    seg_ids: list
    seg_base: np.ndarray         # (n_boxes, n_segs, L)
    sigmoid_scores: np.ndarray   # (n_segs, C)
    segments: list = field(default_factory=list)
    largest_area: int = 0

    @property
    def n_boxes(self):
        return len(self.box_ids)

    @property
    def n_segs(self):
        return len(self.seg_ids)


def build_bundle(dataset, image_id, grid_k, lam) -> FeatureBundle:
    rec = dataset.record(image_id)
    L = block_length(grid_k)
    grid = GridSpec(grid_k)
    n_boxes = len(rec.boxes)
    n_segs = len(rec.masks)
    seg_base = np.zeros((n_boxes, n_segs, L))
    sig = np.zeros((n_segs, dataset.n_classes))
    m_area = largest_segment_area(rec.masks) if rec.masks else 0
    for s, mask in enumerate(rec.masks):
        for c in range(dataset.n_classes):
            sig[s, c] = segclass_feat(
                dataset.seg_scores[(image_id, mask.segment_id, c + 1)])
        for b, box in enumerate(rec.boxes):
            seg_base[b, s] = assemble_block(box, mask, 0.0, grid, lam, m_area)
    rows = np.asarray(rec.rows, dtype=int)
    return FeatureBundle(
        image_id=image_id, width=rec.width, height=rec.height,
        box_ids=list(rec.box_ids), boxes=list(rec.boxes),
        appearance=dataset.appearance[rows] if n_boxes else dataset.appearance[:0],
        context=dataset.context[rows] if n_boxes else dataset.context[:0],
        seg_ids=[m.segment_id for m in rec.masks], seg_base=seg_base,
        sigmoid_scores=sig, segments=list(rec.masks), largest_area=m_area)


def segment_contributions(bundle: FeatureBundle, weights: ModelWeights,
                          detector, box_index) -> np.ndarray:
    """(n_segs, C) matrix of per-class contributions for one box."""
    base = bundle.seg_base[box_index]            # (n_segs, L)
    out = np.empty((bundle.n_segs, weights.n_classes))
    for c in range(1, weights.n_classes + 1):
        w = weights.seg_block(detector, c)
        out[:, c - 1] = base[:, :-1] @ w[:-1] + w[-1] * bundle.sigmoid_scores[:, c - 1]
    return out


def select_segment(contribs_for_class, seg_ids):
    """Reference for score_box's choice, kept for the tests.

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


def score_box(bundle: FeatureBundle, weights: ModelWeights, detector, box_index):
    """Greedy-exact energy of one box under detector `detector` (1-based).

    Every class takes the argmax over {none} + segments at once.  None is
    worth exactly 0.0 and comes first, and segments are in ascending id
    order, so ties prefer none, then the lowest segment id.
    Returns (score, chosen_segments) where chosen_segments has one entry per
    segment-choice class (None = no segment).
    """
    d = detector - 1
    score = float(bundle.appearance[box_index] @ weights.w_app[d]
                  + bundle.context[box_index] @ weights.w_ctx[d]
                  + weights.bias[d])
    options = np.vstack([np.zeros(weights.n_classes),
                         segment_contributions(bundle, weights, detector, box_index)])
    best = options.argmax(axis=0)
    for gain in options[best, np.arange(weights.n_classes)].tolist():
        score += gain       # one class at a time, in class order
    ids = [NONE_SEGMENT, *bundle.seg_ids]
    return score, [ids[s] for s in best.tolist()]


@dataclass
class Detection:
    image_id: str
    class_id: int
    box_id: int
    box: Box
    score: float
    chosen_segments: list


def nms(boxes, scores, box_ids, iou_thresh):
    """Greedy suppression; returns kept indices, higher score (then lower id) first."""
    order = sorted(range(len(boxes)), key=lambda i: (-scores[i], box_ids[i]))
    kept = []
    for i in order:
        if all(iou(boxes[i], boxes[j]) <= iou_thresh for j in kept):
            kept.append(i)
    return kept


def detect_image(bundle: FeatureBundle, weights: ModelWeights,
                 nms_iou=0.3, top_k=100):
    """Score every box with every detector, then per-class NMS."""
    detections = []
    for detector in range(1, weights.n_classes + 1):
        scored = [score_box(bundle, weights, detector, b)
                  for b in range(bundle.n_boxes)]
        scores = [s for s, _ in scored]
        kept = nms(bundle.boxes, scores, bundle.box_ids, nms_iou)[:top_k]
        for i in kept:
            detections.append(Detection(
                bundle.image_id, detector, bundle.box_ids[i], bundle.boxes[i],
                scores[i], scored[i][1]))
    return detections


# ---------------------------------------------------------------------------
# detections dump

def write_detections(path, detections):
    with open(path, "w") as f:
        for d in detections:
            segs = ";".join("NONE" if s is None else str(s)
                            for s in d.chosen_segments)
            f.write(f"{d.image_id},{d.class_id},{float(d.score)!r},"
                    f"{float(d.box.x1)!r},{float(d.box.y1)!r},"
                    f"{float(d.box.x2)!r},{float(d.box.y2)!r},{segs}\n")


def read_detections(path):
    """Detections in file order; box_id is the record number, from 1."""
    box_ids = itertools.count(1)
    return read_records(
        path, (str, int, finite, finite, finite, finite, finite, _segments),
        lambda image_id, class_id, score, x1, y1, x2, y2, segs: Detection(
            image_id, class_id, next(box_ids), Box(x1, y1, x2, y2), score, segs))


def _segments(text):
    return [None if tok == "NONE" else int(tok)
            for tok in text.split(";")] if text else []
