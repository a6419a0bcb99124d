"""Latent-SVM training: latent relabeling of positives, hard-negative mining
under a cache budget, and stochastic subgradient hinge optimization.

Detectors are trained independently per class.  Within one outer round the
latent segment choices are frozen, so the cached problem is a plain linear
SVM; the fitter returns the best weights it saw, which keeps the frozen-cache
objective non-increasing.  Training holds only the image records and their
features, stacked by segment count; each round scores a group in one call.
The cache holds signed rows z = y x: train_class negates the kept negatives'
rows in place.  As y is +-1 and negation commutes with IEEE rounding, no bit moves.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .boxes import iou_row, rounded_corners
from .dataset import write_records
from .errors import DivergedError, NumericalError
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


def hinge_objective(w, Z, c_reg):
    """||w||^2 + C * sum hinge over signed rows z = y x, negatives negated in place by
    train_class (exact, as y is +-1); the trailing (bias) weight is not regularized."""
    return float(w[:-1] @ w[:-1] + c_reg * np.sum(np.maximum(1.0 - Z @ w, 0.0)))


@np.errstate(over="ignore", invalid="ignore")    # a non-finite objective raises below
def sgd_fit(Z, w0, cfg, seed):
    """Minibatch subgradient descent on the cached hinge problem.

    Z holds signed rows z = y x, the negatives negated in place by train_class.
    A row violates when z @ w < 1 and adds z to the gradient sum.  That is the
    labelled fit bit for bit: y is +-1 and negation commutes with IEEE
    rounding, so z @ w differs from y (x @ w) at most in the sign of an exact
    zero, which 1 - z @ w drops, and the z sums add the y x values in the same
    order.  Reads c_reg, eta0, decay, epochs and batch_size from the Config
    cfg.  Deterministic given the seed.  Steps are diagonally preconditioned by
    the squared per-column scale of the cache, so coordinates with very large
    feature magnitudes (the degenerate background normalizer can reach image
    area) do not force a tiny global learning rate.  Returns (weights,
    objective trace); the returned weights are the epoch-boundary iterate with
    the lowest true objective, min(trace), so the result never scores worse
    than w0 on the cache.  A non-finite start raises NumericalError naming its
    cause, and an objective past 10x the start raises DivergedError.
    """
    Z, w = np.asarray(Z, dtype=np.float64), np.array(w0, dtype=np.float64)
    n, rng = len(Z), np.random.default_rng(seed)
    initial = hinge_objective(w, Z, cfg.c_reg)
    trace, best_w, steps = [initial], w.copy(), itertools.count()
    reg2 = np.append(np.full(len(w) - 1, 2.0), 0.0)    # the gradient of ||w||^2, bias left out
    peak = np.maximum(Z.max(axis=0), -Z.min(axis=0))    # max |z| = max |x| per column, no copy
    precond = np.maximum(peak, 1.0) ** 2
    bad = np.flatnonzero(~np.isfinite(precond))
    if bad.size or not np.isfinite(initial):     # no eta0 can help, so name the cause
        raise NumericalError(f"cache column {bad[0]}: |x| {peak[bad[0]]:.3g} squared is not finite"
                             if bad.size else f"c_reg {cfg.c_reg}: start objective {initial}")
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            eta = cfg.eta0 / (1.0 + cfg.decay * next(steps))
            Zb = Z[order[lo:lo + cfg.batch_size]]
            viol = 1.0 - Zb @ w > 0
            grad = w * reg2
            if viol.any():     # the gather only when some row holds its margin
                Zv = Zb if viol.all() else Zb[viol]
                grad -= cfg.c_reg * n / len(Zb) * np.add.reduce(Zv, axis=0)
            w -= eta * grad / precond
        obj = hinge_objective(w, Z, cfg.c_reg)
        if not np.isfinite(obj) or obj > 10.0 * max(initial, 1e-12):
            raise DivergedError(f"objective {obj:.3g} exceeded 10x initial "
                                f"{initial:.3g}; reduce eta0")
        if obj < min(trace):
            best_w = w.copy()
        trace.append(obj)
    return best_w, trace


def mine_hard_negatives(scores, cap):
    """Keep the top-cap margin-violating negatives (score > -1).

    scores: a 1-D array, one score per negative, in tie order.  Returns the
    violators' indices into scores as an int array, highest score first and
    equal scores in input order, at most cap of them.  Mining soundness:
    everything kept scores at least as high as anything scored but dropped.
    """
    violators = np.flatnonzero(scores > -1.0)
    return violators[np.argsort(-scores[violators], kind="stable")[:cap]]


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
    kept negatives by score, ties in the (image id, box id) order of the
    negatives' index arrays.  Latents are segment indices, -1 for none.
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
        neg += [(rec.image_id, rec.box_ids[k], g, lo + k)
                for k in np.flatnonzero(labels == -1).tolist()]
    if not pos:
        return None
    pos = np.array(pos, dtype=np.intp)   # group, group row, latent
    neg_group, neg_rows = np.array([n[2:] for n in sorted(neg)], dtype=np.intp).reshape(-1, 2).T
    del neg
    rounds = []
    for rnd in range(1, cfg.outer_iters + 1):
        changed = 0
        if rnd > 1:
            _, latent = _score(groups, pos[:, 0], pos[:, 1], weights, detector)
            changed = int(np.count_nonzero(latent != pos[:, 2:]))
            pos[:, 2:] = latent
        scores, latent = _score(groups, neg_group, neg_rows, weights, detector)
        kept = mine_hard_negatives(scores, cfg.neg_cache_cap)
        # X comes before the kept rows' gathers, whose freed temporaries then
        # lie above it: concatenating first read 0.5 MB more peak RSS
        w0 = _detector_weight_vector(weights, detector)
        X = np.zeros((len(pos) + len(kept), len(w0)))
        _fill_cache(X, 0, groups, pos[:, 0], pos[:, 1], pos[:, 2:], weights)
        _fill_cache(X, len(pos), groups, neg_group[kept], neg_rows[kept], latent[kept],
                    weights)
        del scores, latent      # the negatives' arrays live for one round
        np.negative(X[len(pos):], out=X[len(pos):])     # signed rows: y = -1
        w, trace = sgd_fit(X, w0, cfg, cfg.seed + detector)
        _store_detector_weights(weights, detector, w)
        rounds.append(RoundLog(rnd, detector, min(trace), trace[0], len(kept), changed))
        del X, kept     # before the next round builds its own
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
