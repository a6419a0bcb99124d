"""Latent-SVM training: latent relabeling of positives, hard-negative mining
under a cache budget, and stochastic subgradient hinge optimization.

Detectors are trained independently per class.  Within one outer round the
latent segment choices are frozen, so the cached problem is a plain linear
SVM; the fitter returns the best weights it saw, which keeps the frozen-cache
objective non-increasing across the round.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .boxes import iou
from .errors import DivergedError
from .masks import tight_box
from .model import FeatureBundle, ModelWeights, build_bundle, score_box

log = logging.getLogger(__name__)


def assign_labels(boxes, gt_boxes, pos_iou=0.5, neg_iou=0.3):
    """Per-box labels against one class's ground truth.

    +1 when the best same-class IoU reaches pos_iou, -1 when it stays below
    neg_iou, 0 (excluded) in between.
    """
    labels = np.empty(len(boxes), dtype=np.int8)
    for i, box in enumerate(boxes):
        best = max((iou(box, g) for g in gt_boxes), default=0.0)
        if best >= pos_iou:
            labels[i] = 1
        elif best < neg_iou:
            labels[i] = -1
        else:
            labels[i] = 0
    return labels


def init_latent(bundle: FeatureBundle, box_index, n_classes):
    """First-round latent choice: the segment whose tight box best overlaps the box.

    The overlap feature differs from raw IoU only by a constant bias, so the
    argmax is the same for every class.
    """
    if bundle.n_segs == 0:
        return [None] * n_classes
    box = bundle.boxes[box_index]
    best_id = None
    best = -1.0
    for seg_id, mask in sorted(zip(bundle.seg_ids, bundle.segments),
                               key=lambda t: t[0]):
        ov = iou(box, tight_box(mask))
        if ov > best:
            best = ov
            best_id = seg_id
    return [best_id] * n_classes


def relabel_positives(bundle: FeatureBundle, weights: ModelWeights,
                      detector, box_index):
    """Latent step: the segments score_box chooses under the current weights."""
    return score_box(bundle, weights, detector, box_index)[1]


def seg_feature_vector(bundle: FeatureBundle, box_index, latent, L):
    """Full C-block segmentation feature for one box at a fixed latent assignment."""
    n_classes = len(latent)
    out = np.zeros(n_classes * L)
    if bundle.n_segs == 0:
        return out
    index_of = {seg_id: i for i, seg_id in enumerate(bundle.seg_ids)}
    for c, seg_id in enumerate(latent):
        if seg_id is None:
            continue
        s = index_of[seg_id]
        block = bundle.seg_base[box_index, s].copy()
        block[-1] = bundle.sigmoid_scores[s, c]
        out[c * L:(c + 1) * L] = block
    return out


@dataclass
class SgdConfig:
    c_reg: float = 1e-2
    eta0: float = 1e-3
    decay: float = 1e-4
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0


def hinge_objective(w, X, y, c_reg):
    """||w||^2 + C * sum hinge; the trailing (bias) weight is not regularized."""
    margins = 1.0 - y * (X @ w)
    return float(w[:-1] @ w[:-1] + c_reg * np.sum(np.maximum(margins, 0.0)))


def sgd_fit(X, y, w0, cfg: SgdConfig):
    """Minibatch subgradient descent on the cached hinge problem.

    Deterministic given the seed.  Steps are diagonally preconditioned by the
    squared per-column scale of the cache, so coordinates with very large
    feature magnitudes (the degenerate background normalizer can reach image
    area) do not force a tiny global learning rate.  Returns (weights,
    objective trace); the returned weights are the epoch-boundary iterate with
    the lowest true objective, so the result never scores worse than w0 on
    the cache.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    w = np.array(w0, dtype=np.float64)
    rng = np.random.default_rng(cfg.seed)
    initial = hinge_objective(w, X, y, cfg.c_reg)
    trace = [initial]
    best_obj = initial
    best_w = w.copy()
    step = 0
    reg_mask = np.ones_like(w)
    reg_mask[-1] = 0.0
    precond = np.maximum(np.abs(X).max(axis=0), 1.0) ** 2
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            eta = cfg.eta0 / (1.0 + cfg.decay * step)
            step += 1
            margins = 1.0 - y[batch] * (X[batch] @ w)
            viol = margins > 0
            grad = 2.0 * w * reg_mask
            if np.any(viol):
                scale = cfg.c_reg * n / len(batch)
                grad -= scale * (y[batch][viol, None] * X[batch][viol]).sum(axis=0)
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
    """Keep the top-cap margin-violating negatives (score > -1), deduplicated.

    scored_negatives: iterable of (score, image_id, box_id, feature_row).
    Mining soundness: everything kept scores at least as high as anything
    scored but dropped.
    """
    seen = set()
    unique = []
    for score, image_id, box_id, feat in scored_negatives:
        key = (image_id, box_id)
        if key in seen:
            continue
        seen.add(key)
        if score > -1.0:
            unique.append((score, image_id, box_id, feat))
    unique.sort(key=lambda t: (-t[0], t[1], t[2]))
    return unique[:cap]


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
    with open(path, "w") as f:
        f.write("round,class_id,objective,num_hard_negs,num_latent_changed\n")
        for r in rounds:
            f.write(f"{r.round},{r.class_id},{r.objective!r},"
                    f"{r.num_hard_negs},{r.num_latent_changed}\n")


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


def _instance_row(bundle, box_index, latent, L):
    return np.concatenate([bundle.appearance[box_index], bundle.context[box_index],
                           seg_feature_vector(bundle, box_index, latent, L), [1.0]])


def train_class(bundles, labels_per_image, weights: ModelWeights, detector,
                cfg, use_seg=True):
    """Run the two-step outer loop for one detector class in place.

    bundles: list of FeatureBundle; labels_per_image: matching +1/-1/0 arrays.
    Without use_seg the positives start at no segment.  With w_seg at zero,
    score_box then picks no segment anywhere, every segment column of the
    cache is zero and SGD leaves w_seg at exactly zero.
    Returns the per-round logs, or None when the class has no positives.
    """
    L = weights.seg_block_len
    n_classes = weights.n_classes
    positives = [(i, b) for i, labels in enumerate(labels_per_image)
                 for b in np.flatnonzero(labels == 1)]
    negatives = [(i, b) for i, labels in enumerate(labels_per_image)
                 for b in np.flatnonzero(labels == -1)]
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
        pos_rows = [_instance_row(bundles[i], b, latent[(i, b)], L)
                    for i, b in positives]
        scored = []
        for i, b in negatives:
            bundle = bundles[i]
            score, h = score_box(bundle, weights, detector, b)
            scored.append((score, bundle.image_id, bundle.box_ids[b],
                           _instance_row(bundle, b, h, L)))
        mined = mine_hard_negatives(scored, cfg.neg_cache_cap)
        X = np.array(pos_rows + [feat for _, _, _, feat in mined])
        y = np.array([1.0] * len(pos_rows) + [-1.0] * len(mined))
        sgd_cfg = SgdConfig(c_reg=cfg.c_reg, eta0=cfg.eta0, decay=cfg.decay,
                            epochs=cfg.epochs, batch_size=cfg.batch_size,
                            seed=cfg.seed + detector)
        w, trace = sgd_fit(X, y, _detector_weight_vector(weights, detector), sgd_cfg)
        _store_detector_weights(weights, detector, w)
        rounds.append(RoundLog(rnd, detector,
                               hinge_objective(w, X, y, cfg.c_reg),
                               trace[0], len(mined), changed))
    return rounds


def train(dataset, cfg, use_seg=True, threads=1) -> TrainResult:
    """Train all detector classes; returns fresh weights plus per-round logs."""
    bundles = [build_bundle(dataset, image_id, cfg.grid_k, cfg.lambda_bias)
               for image_id in dataset.image_order]
    weights = ModelWeights.zeros(dataset.n_classes, cfg.grid_k, cfg.lambda_bias,
                                 dataset.d_app, dataset.d_ctx)
    per_class_labels = {}
    for detector in range(1, dataset.n_classes + 1):
        labels = []
        for bundle in bundles:
            rec = dataset.record(bundle.image_id)
            gts = [g for cid, g, difficult in rec.gts
                   if cid == detector and not difficult]
            labels.append(assign_labels(bundle.boxes, gts, cfg.pos_iou, cfg.neg_iou))
        per_class_labels[detector] = labels

    def run(detector):
        return train_class(bundles, per_class_labels[detector], weights, detector,
                           cfg, use_seg=use_seg)

    classes = range(1, dataset.n_classes + 1)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, classes))
    else:
        results = [run(d) for d in classes]
    rounds = []
    for detector, res in zip(classes, results):
        if res is None:
            log.warning("class %d has no positives; detector left at zero", detector)
            continue
        rounds.extend(res)
    rounds.sort(key=lambda r: (r.class_id, r.round))
    return TrainResult(weights=weights, rounds=rounds)
