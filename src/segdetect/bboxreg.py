"""Linear bounding-box regression and the iterative predict/re-extract/rescore loop.

Targets use the usual center/size parameterization: normalized center shifts
and log size ratios between proposal and ground truth.  Features for moved
boxes are re-extracted only when the box changed by more than the threshold
(1 - IoU), which is the expensive part on real features.  Segment blocks
are rebuilt once, for every final box, after the last pass.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .boxes import Box, clip_box, iou
from .errors import InsufficientPairs, NumericalError, ProviderError
from .model import Detection, score_box, segment_blocks

log = logging.getLogger(__name__)


def regression_targets(proposal: Box, gt: Box):
    px, py, pw, ph = proposal.center_size()
    gx, gy, gw, gh = gt.center_size()
    return np.array([(gx - px) / pw, (gy - py) / ph,
                     np.log(gw / pw), np.log(gh / ph)])


def apply_targets(proposal: Box, t, width, height) -> Box:
    px, py, pw, ph = proposal.center_size()
    cx = px + t[0] * pw
    cy = py + t[1] * ph
    w = max(pw * np.exp(t[2]), 1.0)    # at least one pixel, so never inverted
    h = max(ph * np.exp(t[3]), 1.0)
    return clip_box(Box(cx - 0.5 * (w - 1.0), cy - 0.5 * (h - 1.0),
                        cx + 0.5 * (w - 1.0), cy + 0.5 * (h - 1.0)),
                    width, height)


def box_change(old: Box, new: Box) -> float:
    """Relative change between two boxes: 1 - IoU."""
    return 1.0 - iou(old, new)


@dataclass
class ClassRegressor:
    weights: np.ndarray     # (4, d_reg)
    intercepts: np.ndarray  # (4,)

    def predict(self, features):
        return self.weights @ np.asarray(features, dtype=np.float64) + self.intercepts


@dataclass
class BoxRegressor:
    d_reg: int
    ridge: float
    per_class: dict = field(default_factory=dict)   # class_id -> ClassRegressor

    def refine(self, class_id, features, box: Box, width, height) -> Box:
        reg = self.per_class.get(class_id)
        if reg is None:
            return clip_box(box, width, height)
        with np.errstate(over="ignore", invalid="ignore"):
            t = reg.predict(features)
            new = apply_targets(box, t, width, height)
        if not all(map(math.isfinite, (*t, new.x1, new.y1, new.x2, new.y2))):
            raise NumericalError(f"class {class_id} regressor sends {box} off to inf or NaN")
        return new


def fit_class_regressor(features, proposals, gts, ridge) -> ClassRegressor:
    """Ridge least squares per target dimension; the intercept is not penalized."""
    X = np.asarray(features, dtype=np.float64)
    n, d = X.shape
    if n < d + 1:
        raise InsufficientPairs(f"need at least {d + 1} pairs, got {n}")
    T = np.stack([regression_targets(p, g) for p, g in zip(proposals, gts)])
    Z = np.hstack([X, np.ones((n, 1))])
    penalty = ridge * np.eye(d + 1)
    penalty[d, d] = 0.0
    beta = np.linalg.solve(Z.T @ Z + penalty, Z.T @ T)
    return ClassRegressor(weights=beta[:d].T.copy(), intercepts=beta[d].copy())


def fit_regressor(pairs_by_class, d_reg, ridge) -> BoxRegressor:
    """pairs_by_class: class_id -> list of (feature_row, proposal Box, gt Box).

    A class with too few pairs to fit is skipped, with a warning when it has
    any, so `refine` only clips its boxes.  Raises InsufficientPairs when no
    class can be fit, and NumericalError when a class's system is singular.
    """
    reg = BoxRegressor(d_reg=d_reg, ridge=ridge)
    for class_id, pairs in sorted(pairs_by_class.items()):
        if not pairs:
            continue
        feats, proposals, gts = zip(*pairs)
        try:
            reg.per_class[class_id] = fit_class_regressor(feats, proposals, gts, ridge)
        except InsufficientPairs as e:
            log.warning("class %d: %s; its boxes are only clipped", class_id, e)
        except np.linalg.LinAlgError as e:
            raise NumericalError(f"class {class_id} regressor, ridge {ridge}: {e}") from None
    if not reg.per_class:
        raise InsufficientPairs(f"no class has the {d_reg + 1} regression pairs a fit needs")
    return reg


def collect_training_pairs(dataset, pair_iou):
    """Proposal/GT pairs per class from boxes overlapping same-class GT enough."""
    pairs = {}
    for image_id in dataset.image_order:
        rec = dataset.record(image_id)
        for box, row in zip(rec.boxes, rec.rows):
            for class_id, gt, difficult in rec.gts:
                if difficult:
                    continue
                if iou(box, gt) >= pair_iou:
                    pairs.setdefault(class_id, []).append(
                        (dataset.regression[row], box, gt))
    return pairs


@dataclass
class IterationStats:
    changed_fraction: list = field(default_factory=list)
    provider_calls: int = 0


def iterate_boxes(bundle, regressor: BoxRegressor, weights, detector,
                  reg_features, feature_provider, max_iters, change_thresh):
    """Alternate regression and rescoring for one image and one detector class.

    reg_features: (n_boxes, d_reg) rows aligned with bundle boxes.
    Up to max_iters passes move every box with the regressor.
    feature_provider(image_id, box) -> (app_row, ctx_row, reg_row) is called
    only for boxes whose change exceeds change_thresh.  The passes never read
    segment blocks, so the bundle needs none (see image_bundle): after them
    the blocks of every final box are built in one call.  The input bundle
    is not modified.  Returns (detections, stats).
    """
    boxes = list(bundle.boxes)
    appearance, context = bundle.appearance.copy(), bundle.context.copy()
    reg_rows = np.array(reg_features, dtype=np.float64)
    stats = IterationStats()
    for _ in range(max_iters):
        changed = 0
        for b, box in enumerate(boxes):
            try:
                new_box = regressor.refine(detector, reg_rows[b], box,
                                           bundle.width, bundle.height)
            except NumericalError as e:
                raise NumericalError(f"image {bundle.image_id!r}: {e}") from None
            if box_change(box, new_box) > change_thresh:
                changed += 1
                try:
                    app, ctx, reg = feature_provider(bundle.image_id, new_box)
                except KeyError:
                    raise ProviderError(bundle.image_id, new_box) from None
                stats.provider_calls += 1
                appearance[b], context[b], reg_rows[b] = app, ctx, reg
            boxes[b] = new_box
        stats.changed_fraction.append(changed / len(boxes) if boxes else 0.0)
        if changed == 0:
            break
    seg_base = segment_blocks(boxes, bundle.segments, weights.grid_k, weights.lam)
    refined = replace(bundle, boxes=boxes, appearance=appearance, context=context,
                      seg_base=seg_base)
    detections = []
    for b, box in enumerate(boxes):
        score, chosen = score_box(refined, weights, detector, b)
        detections.append(Detection(bundle.image_id, detector, bundle.box_ids[b],
                                    box, score, chosen))
    return detections, stats
