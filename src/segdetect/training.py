"""Latent-SVM training: latent relabeling of positives, hard-negative mining
under a cache budget, and stochastic subgradient hinge optimization.

Detectors are trained independently per class.  Within one outer round the
latent segment choices are frozen, so the cached problem is a plain linear
SVM; the fitter returns the best weights it saw, which keeps the frozen-cache
objective non-increasing across the round.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .boxes import iou_row, rounded_corners
from .dataset import write_records
from .errors import DivergedError
from .masks import tight_box
from .model import FeatureBundle, ModelWeights, build_bundle, score_box, score_boxes

log = logging.getLogger(__name__)


def assign_labels(boxes, gt_boxes, pos_iou, neg_iou):
    """Per-box labels against one class's ground truth.

    +1 when the best same-class IoU reaches pos_iou, -1 when it stays below
    neg_iou, 0 (excluded) in between.
    """
    corners = rounded_corners(boxes)
    best = np.zeros(len(boxes))
    for g in gt_boxes:
        np.maximum(best, iou_row(g.rounded(), corners), out=best)
    labels = np.zeros(len(boxes), dtype=np.int8)
    labels[best < neg_iou] = -1
    labels[best >= pos_iou] = 1
    return labels


def init_latent(bundle: FeatureBundle, box_index, n_classes):
    """First-round latent choice: the segment whose tight box best overlaps the box.

    The overlap feature differs from raw IoU only by a constant bias, so the
    argmax is the same for every class.  Ties go to the lowest segment id.
    """
    if bundle.n_segs == 0:
        return [None] * n_classes
    overlaps = iou_row(bundle.boxes[box_index].rounded(),
                       rounded_corners(map(tight_box, bundle.segments)))
    best = overlaps.max()
    best_id = min(seg_id for seg_id, ov in zip(bundle.seg_ids, overlaps) if ov == best)
    return [best_id] * n_classes


def relabel_positives(bundle: FeatureBundle, weights: ModelWeights,
                      detector, box_index):
    """Latent step: the segments score_box chooses under the current weights."""
    return score_box(bundle, weights, detector, box_index)[1]


def hinge_objective(w, X, y, c_reg):
    """||w||^2 + C * sum hinge; the trailing (bias) weight is not regularized."""
    margins = 1.0 - y * (X @ w)
    return float(w[:-1] @ w[:-1] + c_reg * np.sum(np.maximum(margins, 0.0)))


def sgd_fit(X, y, w0, cfg, seed):
    """Minibatch subgradient descent on the cached hinge problem.

    Reads c_reg, eta0, decay, epochs and batch_size from the Config cfg.
    Deterministic given the seed.  Steps are diagonally preconditioned by the
    squared per-column scale of the cache, so coordinates with very large
    feature magnitudes (the degenerate background normalizer can reach image
    area) do not force a tiny global learning rate.  Returns (weights,
    objective trace); the returned weights are the epoch-boundary iterate with
    the lowest true objective, min(trace), so the result never scores worse
    than w0 on the cache.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    w = np.array(w0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    initial = hinge_objective(w, X, y, cfg.c_reg)
    trace = [initial]
    best_obj = initial
    best_w = w.copy()
    step = 0
    reg2 = np.full_like(w, 2.0)    # the gradient of ||w||^2, bias left out
    reg2[-1] = 0.0
    # max |x| per column, without an |X| copy of the cache
    precond = np.maximum(np.maximum(X.max(axis=0), -X.min(axis=0)), 1.0) ** 2
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            eta = cfg.eta0 / (1.0 + cfg.decay * step)
            step += 1
            Xb, yb = X[batch], y[batch]
            viol = 1.0 - yb * (Xb @ w) > 0
            grad = w * reg2
            if viol.any():
                scale = cfg.c_reg * n / len(batch)
                grad -= scale * np.add.reduce(yb[viol, None] * Xb[viol], axis=0)
            w -= eta * grad / precond
        obj = hinge_objective(w, X, y, cfg.c_reg)
        trace.append(obj)
        if not np.isfinite(obj) or obj > 10.0 * max(initial, 1e-12):
            raise DivergedError(
                f"objective {obj:.3g} exceeded 10x initial {initial:.3g}; "
                "reduce eta0")
        if obj < best_obj:
            best_obj = obj
            best_w = w.copy()
    return best_w, trace


def mine_hard_negatives(scored_negatives, cap):
    """Keep the top-cap margin-violating negatives (score > -1).

    scored_negatives: list of (score, image_id, box_id, payload), one per
    (image_id, box_id).  The payload rides along untouched and is never
    compared, so callers can pass what they need to build a kept negative's
    feature row afterwards.  Ties in score are broken by (image_id, box_id).
    Mining soundness: everything kept scores at least as high as anything
    scored but dropped.
    """
    kept = [entry for entry in scored_negatives if entry[0] > -1.0]
    kept.sort(key=lambda t: (-t[0], t[1], t[2]))
    return kept[:cap]


@dataclass
class RoundLog:
    round: int
    class_id: int
    objective: float
    objective_before: float
    num_hard_negs: int
    num_latent_changed: int


@dataclass
class TrainResult:
    weights: ModelWeights
    rounds: list = field(default_factory=list)


def write_training_log(path, rounds):
    write_records(path, itertools.chain(
        [("round", "class_id", "objective", "num_hard_negs", "num_latent_changed")],
        ((r.round, r.class_id, r.objective, r.num_hard_negs, r.num_latent_changed)
         for r in rounds)))


def _detector_weight_vector(weights: ModelWeights, detector):
    d = detector - 1
    return np.concatenate([weights.w_app[d], weights.w_ctx[d], weights.w_seg[d],
                           [weights.bias[d]]])


def _store_detector_weights(weights: ModelWeights, detector, w):
    d = detector - 1
    a, b = weights.d_app, weights.d_ctx
    weights.w_app[d] = w[:a]
    weights.w_ctx[d] = w[a:a + b]
    weights.w_seg[d] = w[a + b:-1]
    weights.bias[d] = w[-1]


def _fill_rows(X, rows, bundle, boxes, latents, seg_col, L):
    """Write the cache rows of some boxes of one image into X[rows].

    Each is a plain copy of the box's features: appearance, context, then one
    L-slot block per class from column seg_col.  A class's block stays zero
    for no segment, else it is seg_base[b, s, :-1] with sigmoid_scores[s, c]
    in the last slot.  X's last (bias) column is the caller's.
    """
    rows, boxes = np.asarray(rows), np.asarray(boxes)
    d_app = bundle.appearance.shape[1]
    X[rows, :d_app] = bundle.appearance[boxes]
    X[rows, d_app:seg_col] = bundle.context[boxes]
    index_of = {seg_id: s for s, seg_id in enumerate(bundle.seg_ids)}
    picked = [(k, c, index_of[h]) for k, latent in enumerate(latents)
              for c, h in enumerate(latent) if h is not None]
    if picked:
        k, c, s = np.array(picked).T
        blocks = bundle.seg_base[boxes[k], s]
        blocks[:, -1] = bundle.sigmoid_scores[s, c]
        X[rows[k][:, None], seg_col + c[:, None] * L + np.arange(L)] = blocks


def _cache_matrix(bundles, entries, weights: ModelWeights):
    """The round's SGD cache: one row per (image index, box index, latent) entry.

    X is allocated once, in entry order, and filled image by image.
    """
    seg_col = weights.d_app + weights.d_ctx
    L = weights.seg_block_len
    X = np.zeros((len(entries), seg_col + weights.n_classes * L + 1))
    X[:, -1] = 1.0
    by_image = {}
    for row, (i, b, latent) in enumerate(entries):
        by_image.setdefault(i, []).append((row, b, latent))
    for i, group in by_image.items():
        rows, boxes, latents = zip(*group)
        _fill_rows(X, rows, bundles[i], boxes, latents, seg_col, L)
    return X


def _mine(bundles, negatives, weights, detector, cap):
    """(image index, box index, latent) of the kept hard negatives, in mining order."""
    scored = []
    for i, boxes in negatives:
        bundle = bundles[i]
        scores, chosen = score_boxes(bundle, weights, detector, boxes)
        scored.extend((score, bundle.image_id, bundle.box_ids[b], (i, b, h))
                      for score, b, h in zip(scores, boxes, chosen))
    return [entry for _, _, _, entry in mine_hard_negatives(scored, cap)]


def train_class(bundles, labels_per_image, weights: ModelWeights, detector,
                cfg, use_seg=True):
    """Run the two-step outer loop for one detector class in place.

    bundles: list of FeatureBundle; labels_per_image: matching +1/-1/0 arrays.
    Negatives are scored one image at a time and mined before their feature
    rows are built, so rows exist only for the kept ones.  Each round's cache
    is one matrix: the positives, then the kept negatives in mining order.
    Without use_seg the positives start at no segment.  With w_seg at zero,
    scoring then picks no segment anywhere, every segment column of the
    cache is zero and SGD leaves w_seg at exactly zero.
    Returns the per-round logs, or None when the class has no positives.
    """
    n_classes = weights.n_classes
    positives = [(i, b) for i, labels in enumerate(labels_per_image)
                 for b in np.flatnonzero(labels == 1)]
    negatives = [(i, np.flatnonzero(labels == -1))
                 for i, labels in enumerate(labels_per_image)]
    if not positives:
        return None
    latent = {key: init_latent(bundles[key[0]], key[1], n_classes) if use_seg
              else [None] * n_classes for key in positives}
    rounds = []
    for rnd in range(1, cfg.outer_iters + 1):
        changed = 0
        if rnd > 1:
            for key in positives:
                new = relabel_positives(bundles[key[0]], weights, detector, key[1])
                changed += sum(a != b for a, b in zip(new, latent[key]))
                latent[key] = new
        mined = _mine(bundles, negatives, weights, detector, cfg.neg_cache_cap)
        X = _cache_matrix(bundles, [(i, b, latent[(i, b)]) for i, b in positives]
                          + mined, weights)
        y = np.repeat([1.0, -1.0], [len(positives), len(mined)])
        w, trace = sgd_fit(X, y, _detector_weight_vector(weights, detector), cfg,
                           cfg.seed + detector)
        _store_detector_weights(weights, detector, w)
        rounds.append(RoundLog(rnd, detector, min(trace), trace[0], len(mined), changed))
        del X, y, mined     # before the next round builds its own
    return rounds


def train(dataset, cfg, use_seg=True) -> TrainResult:
    """Train all detector classes; returns fresh weights plus per-round logs."""
    bundles = [build_bundle(dataset, image_id, cfg.grid_k, cfg.lambda_bias)
               for image_id in dataset.image_order]
    weights = ModelWeights.zeros(dataset.n_classes, cfg.grid_k, cfg.lambda_bias,
                                 dataset.d_app, dataset.d_ctx)
    rounds = []
    for detector in range(1, dataset.n_classes + 1):
        labels = []
        for bundle in bundles:
            rec = dataset.record(bundle.image_id)
            gts = [g for cid, g, difficult in rec.gts
                   if cid == detector and not difficult]
            labels.append(assign_labels(bundle.boxes, gts, cfg.pos_iou, cfg.neg_iou))
        res = train_class(bundles, labels, weights, detector, cfg, use_seg=use_seg)
        if res is None:
            log.warning("class %d has no positives; detector left at zero", detector)
            continue
        rounds.extend(res)
    return TrainResult(weights=weights, rounds=rounds)
