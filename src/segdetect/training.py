"""Latent-SVM training: latent relabeling of positives, hard-negative mining
under a cache budget, and stochastic subgradient hinge optimization.

Detectors are trained independently per class.  Within one outer round the
latent segment choices are frozen, so the cached problem is a plain linear
SVM; the fitter returns the best weights it saw, which keeps the frozen-cache
objective non-increasing.  Training holds only the image records and their
features, stacked by segment count; each round scores a group in one call.
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
from .segfeat import block_length

log = logging.getLogger(__name__)

GROUP_FLOATS = 2 ** 14   # feature floats per image group; see _stack


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


def init_latent(boxes, masks):
    """First-round latent choice of each box: the index of the segment whose
    tight box best overlaps it, -1 for every box when there are no segments.

    masks must be in ascending id order, as Dataset keeps them, so that a tie
    goes to the lowest segment id.  The overlap feature differs from raw IoU
    only by a constant bias, so the argmax is the same for every class.
    """
    if not masks:
        return np.full(len(boxes), -1, dtype=np.intp)
    return iou_row(rounded_corners(boxes).T[:, :, None],
                   rounded_corners(map(tight_box, masks))).argmax(axis=1)


def relabel_positives(bundle: FeatureBundle, weights: ModelWeights,
                      detector, box_index):
    """Latent step: the segments score_box chooses under the current weights."""
    return score_box(bundle, weights, detector, box_index)[1]


def hinge_objective(w, X, y, c_reg):
    """||w||^2 + C * sum hinge; the trailing (bias) weight is not regularized."""
    margins = 1.0 - y * (X @ w)
    return float(w[:-1] @ w[:-1] + c_reg * np.sum(np.maximum(margins, 0.0)))


@np.errstate(over="ignore", invalid="ignore")    # a diverging objective raises below
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
    objective_before: float     # acceptance test 04 checks objective against it
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


def _score(groups, group_of, rows, weights: ModelWeights, detector):
    """score_boxes on rows of several groups, one call per group: the scores
    and the (n, C) segment indices chosen, -1 for none, in row order."""
    scores = np.empty(len(rows))
    latent = np.empty((len(rows), weights.n_classes), dtype=np.intp)
    for g in set(group_of.tolist()):
        at = np.flatnonzero(group_of == g)
        scores[at], chosen = score_boxes(groups[g], weights, detector, rows[at])
        latent[at] = np.nan_to_num(np.array(chosen, dtype=float), nan=-1)
    return scores, latent


def _fill_cache(X, first, groups, group_of, rows, latent, weights: ModelWeights):
    """Write SGD cache rows first, first + 1, ... of X, one gather per group and class.

    Cache row first + k copies row rows[k] of group group_of[k]: appearance,
    context, then one L-slot block per class, zero for no segment (latent
    -1), else seg_base[row, s] and the class term of segment s in the row's
    image, and last the bias, 1.
    """
    d_app, d_seg, L = weights.d_app, weights.d_app + weights.d_ctx, weights.seg_block_len
    for g in set(group_of.tolist()):
        k = np.flatnonzero(group_of == g)
        group, at, rows_g = groups[g], first + k, rows[k]
        X[at, :d_app] = group.appearance[rows_g]
        X[at, d_app:d_seg] = group.context[rows_g]
        X[at, -1] = 1.0
        for c, segs in enumerate(latent[k].T):
            on = segs >= 0
            col, at_on, rows_on, segs_on = d_seg + c * L, at[on], rows_g[on], segs[on]
            X[at_on, col:col + L - 1] = group.seg_base[rows_on, segs_on]
            X[at_on, col + L - 1] = group.sigmoid_scores[group.box_image[rows_on], segs_on, c]


def train_class(records, groups, spots, weights: ModelWeights, detector, cfg,
                use_seg=True):
    """Run the two-step outer loop for one detector class in place.

    records: the ImageRecords in image order, labelled here (+1/-1/0 per
    box); groups, spots: as _stack returns them.  Each round scores the
    positives (the latent relabel), then the negatives, with one score_boxes
    call per group, and builds feature rows only for the kept negatives.
    Each round's cache is one matrix: the positives in image order, then the
    kept negatives in mining order.  Latents are segment indices, -1 for none.
    Without use_seg the positives start at no segment.  With w_seg at zero,
    scoring then picks no segment anywhere, every segment column of the
    cache is zero and SGD leaves w_seg at exactly zero.
    Returns the per-round logs, or None when the class has no positives.
    """
    pos, neg = [], []
    for rec, (g, lo) in zip(records, spots):
        labels = assign_labels(rec.boxes, [box for cid, box, difficult in rec.gts
                                           if cid == detector and not difficult],
                               cfg.pos_iou, cfg.neg_iou)
        b = np.flatnonzero(labels == 1).tolist()
        latent = (init_latent([rec.boxes[k] for k in b], rec.masks).tolist()
                  if use_seg and b else [-1] * len(b))
        pos += [[g, lo + k] + [h] * weights.n_classes for k, h in zip(b, latent)]
        neg += [(g, lo + k, rec.image_id, rec.box_ids[k])
                for k in np.flatnonzero(labels == -1).tolist()]
    if not pos:
        return None
    pos = np.array(pos, dtype=np.intp)   # group, group row, latent
    neg_group, neg_rows, image_ids, box_ids = zip(*neg) if neg else [()] * 4
    neg_group, neg_rows = np.array(neg_group, dtype=np.intp), np.array(neg_rows, dtype=np.intp)
    del neg
    rounds = []
    for rnd in range(1, cfg.outer_iters + 1):
        changed = 0
        if rnd > 1:
            _, latent = _score(groups, pos[:, 0], pos[:, 1], weights, detector)
            changed = int(np.count_nonzero(latent != pos[:, 2:]))
            pos[:, 2:] = latent
        scores, latent = _score(groups, neg_group, neg_rows, weights, detector)
        kept = [k for *_, k in mine_hard_negatives(list(zip(
            scores.tolist(), image_ids, box_ids, range(len(neg_rows)))), cfg.neg_cache_cap)]
        # X comes before the kept rows' gathers, whose freed temporaries then
        # lie above it: concatenating first read 0.5 MB more peak RSS
        w0 = _detector_weight_vector(weights, detector)
        X = np.zeros((len(pos) + len(kept), len(w0)))
        _fill_cache(X, 0, groups, pos[:, 0], pos[:, 1], pos[:, 2:], weights)
        _fill_cache(X, len(pos), groups, neg_group[kept], neg_rows[kept], latent[kept],
                    weights)
        del scores, latent      # the negatives' arrays live for one round
        y = np.repeat([1.0, -1.0], [len(pos), len(kept)])
        w, trace = sgd_fit(X, y, w0, cfg, cfg.seed + detector)
        _store_detector_weights(weights, detector, w)
        rounds.append(RoundLog(rnd, detector, min(trace), trace[0], len(kept), changed))
        del X, y, kept     # before the next round builds its own
    return rounds


def _stack(dataset, records, cfg):
    """build_bundle on every image, copied into its group's preallocated stacks.

    A group holds images of one segment count in image order, and a new one
    starts past every GROUP_FLOATS feature floats: small stacks fit the holes
    that freed memory leaves (one stack per segment count raised peak RSS by
    1.5-3 MB on 800 small images).  Returns (groups, spots): spots[i] is
    (group index, first row) of records[i]; no bundle outlives its copy.
    """
    L = block_length(cfg.grid_k)
    members, floats = {}, {}    # (S, number) -> image indices; S -> floats so far
    for i, rec in enumerate(records):
        S = len(rec.masks)
        members.setdefault((S, floats.get(S, 0) // GROUP_FLOATS), []).append(i)
        floats[S] = floats.get(S, 0) + len(rec.boxes) * (dataset.d_app + dataset.d_ctx
                                                         + S * (L - 1))
    groups, spots = [], [None] * len(records)
    for (S, _), images in members.items():
        sizes = [len(records[i].boxes) for i in images]
        n, group = sum(sizes), len(groups)
        groups.append(FeatureBundle(
            "", 0, 0, [box_id for i in images for box_id in records[i].box_ids], [],
            np.empty((n, dataset.d_app)), np.empty((n, dataset.d_ctx)), list(range(S)),
            np.empty((n, S, L - 1)), np.empty((len(images), S, dataset.n_classes)),
            box_image=np.repeat(np.arange(len(images)), sizes)))
        for j, (i, lo) in enumerate(zip(images, itertools.accumulate(sizes, initial=0))):
            bundle = build_bundle(dataset, records[i].image_id, cfg.grid_k, cfg.lambda_bias)
            spots[i], rows = (group, lo), slice(lo, lo + sizes[j])
            for name in ("appearance", "context", "seg_base", "sigmoid_scores"):
                getattr(groups[group], name)[j if name == "sigmoid_scores" else rows] = \
                    getattr(bundle, name)
    return groups, spots


def train(dataset, cfg, use_seg=True) -> TrainResult:
    """Train all detector classes; returns fresh weights plus per-round logs."""
    records = [dataset.record(image_id) for image_id in dataset.image_order]
    groups, spots = _stack(dataset, records, cfg)
    weights = ModelWeights.zeros(dataset.n_classes, cfg.grid_k, cfg.lambda_bias,
                                 dataset.d_app, dataset.d_ctx)
    rounds = []
    for detector in range(1, dataset.n_classes + 1):
        res = train_class(records, groups, spots, weights, detector, cfg, use_seg=use_seg)
        if res is None:
            log.warning("class %d has no positives; detector left at zero", detector)
            continue
        rounds.extend(res)
    return TrainResult(weights=weights, rounds=rounds)
