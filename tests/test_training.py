import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (group_bundle, make_bundle, random_boxes, random_masks,
                      segment_contributions)
from segdetect import training
from segdetect.boxes import Box, iou
from segdetect.config import Config
from segdetect.dataset import Dataset, read_manifest
from segdetect.errors import DivergedError, NumericalError
from segdetect.masks import SegmentMask, tight_box
from segdetect.model import FeatureBundle, ModelWeights, score_box
from segdetect.synth import SynthConfig, generate
from segdetect.training import (assign_labels, hinge_objective,
                                init_latent, mine_hard_negatives,
                                relabel_positives, sgd_fit, train)


def seg_feature_vector(bundle, box_index, latent, L):
    """Oracle: the C-block segmentation feature of one box at a fixed latent."""
    n_classes = len(latent)
    out = np.zeros(n_classes * L)
    if bundle.n_segs == 0:
        return out
    index_of = {seg_id: i for i, seg_id in enumerate(bundle.seg_ids)}
    for c, seg_id in enumerate(latent):
        if seg_id is None:
            continue
        s = index_of[seg_id]
        out[c * L:(c + 1) * L - 1] = bundle.seg_base[box_index, s]
        out[(c + 1) * L - 1] = bundle.sigmoid_scores[s, c]
    return out


def instance_row(bundle, box_index, latent, L):
    """Oracle: one cache row, built box by box."""
    return np.concatenate([bundle.appearance[box_index], bundle.context[box_index],
                           seg_feature_vector(bundle, box_index, latent, L), [1.0]])


def cache_by_gather(bundles, entries, weights):
    """training._fill_cache on (image index, box index, latent ids) entries.

    Bundles of equal segment count share one group bundle, as in train, and
    each entry becomes (group, group row, segment indices) of its cache row.
    """
    groups, spot = {}, {}
    for i, bundle in enumerate(bundles):
        members = groups.setdefault(bundle.n_segs, [])
        spot[i] = (list(groups).index(bundle.n_segs),
                   sum(member.n_boxes for member in members))
        members.append(bundle)
    rows = [(spot[i][0], spot[i][1] + b,
             [-1 if h is None else bundles[i].seg_ids.index(h) for h in latent])
            for i, b, latent in entries]
    X = np.zeros((len(rows), weights.d_app + weights.d_ctx
                  + weights.n_classes * weights.seg_block_len + 1))
    training._fill_cache(
        X, 0, [group_bundle(members) for members in groups.values()],
        np.array([g for g, _, _ in rows]), np.array([r for _, r, _ in rows]),
        np.array([latent for _, _, latent in rows]).reshape(len(rows), weights.n_classes),
        weights)
    return X


def _cache(bundle, latents):
    """Cache rows of a bundle's boxes 0..n-1 at the given latents, by the gather."""
    C = len(latents[0])
    weights = ModelWeights.zeros(C, 2, -0.7, bundle.appearance.shape[1],
                                 bundle.context.shape[1])
    return cache_by_gather([bundle], [(0, b, latent) for b, latent in enumerate(latents)],
                           weights)


def test_assign_labels_thresholds():
    gts = [Box(0, 0, 9, 9)]
    boxes = [Box(0, 0, 9, 9),      # IoU 1.0 -> positive
             Box(0, 0, 19, 9),     # IoU 0.5 -> positive (boundary)
             Box(0, 0, 29, 9),     # IoU 1/3 -> excluded
             Box(0, 0, 9, 2),      # IoU 0.3 -> excluded (boundary)
             Box(50, 50, 59, 59)]  # IoU 0.0 -> negative
    labels = assign_labels(boxes, gts, pos_iou=0.5, neg_iou=0.3)
    assert list(labels) == [1, 1, 0, 0, -1]


def test_assign_labels_no_gt_all_negative():
    labels = assign_labels([Box(0, 0, 4, 4), Box(5, 5, 9, 9)], [], 0.5, 0.3)
    assert list(labels) == [-1, -1]


def test_assign_labels_best_gt_wins():
    gts = [Box(0, 0, 9, 9), Box(100, 100, 109, 109)]
    labels = assign_labels([Box(100, 100, 109, 109)], gts, 0.5, 0.3)
    assert list(labels) == [1]


def first_latent(box, masks):
    """Oracle for init_latent on one box: the id of the segment whose tight box
    overlaps the box best, the lowest id on a tie, None without segments."""
    overlaps = {m.segment_id: iou(box, tight_box(m)) for m in masks}
    top = max(overlaps.values(), default=None)
    return min((seg_id for seg_id, v in overlaps.items() if v == top), default=None)


def _latent_ids(boxes, masks):
    """init_latent's segment indices as segment ids, None for -1."""
    return [None if s == -1 else masks[s].segment_id for s in init_latent(boxes, masks)]


def test_assign_labels_and_init_latent_match_per_pair_iou(rng):
    for _ in range(20):
        boxes = random_boxes(rng, 6, 12, 12)
        gts = random_boxes(rng, int(rng.integers(0, 4)), 12, 12)
        best = [max((iou(b, g) for g in gts), default=0.0) for b in boxes]
        expected = [1 if v >= 0.5 else -1 if v < 0.3 else 0 for v in best]
        assert assign_labels(boxes, gts, 0.5, 0.3).tolist() == expected
        ids = sorted(rng.choice(50, 4, replace=False).tolist())
        masks = [SegmentMask(m.image_id, seg_id, m.height, m.width, m.runs.tolist())
                 for m, seg_id in zip(random_masks(rng, 4, 12, 12), ids)]
        assert _latent_ids(boxes, masks) == [first_latent(box, masks) for box in boxes]
        assert init_latent([], masks).shape == (0,)


def _two_rect_bundle(rng, raw_scores=None, n_classes=2):
    # segment 0 is a 6x6 block under the box, segment 1 is far away
    a = np.zeros((20, 20), dtype=bool)
    a[2:8, 2:8] = True
    b = np.zeros((20, 20), dtype=bool)
    b[14:18, 14:18] = True
    masks = [SegmentMask.from_array(a, "img", 0), SegmentMask.from_array(b, "img", 1)]
    boxes = [Box(2, 2, 7, 7)]
    if raw_scores is None:
        raw_scores = np.zeros((2, n_classes))
    return make_bundle("img", 20, 20, boxes, masks, raw_scores,
                       rng.normal(0, 1, (1, 3)), rng.normal(0, 1, (1, 2)), 2, -0.7)


def test_init_latent_picks_best_overlap(rng):
    bundle = _two_rect_bundle(rng)
    assert init_latent(bundle.boxes, bundle.segments).tolist() == [0]
    assert first_latent(bundle.boxes[0], bundle.segments) == 0


def test_init_latent_no_segments():
    boxes = [Box(0, 0, 4, 4), Box(2, 2, 9, 9)]
    assert init_latent(boxes, []).tolist() == [-1, -1]
    assert init_latent([], []).shape == (0,)
    assert first_latent(boxes[0], []) is None


def test_init_latent_tie_lowest_id():
    # two identical segments, sorted by id as Dataset keeps them: id 2 must win
    a = np.zeros((10, 10), dtype=bool)
    a[1:5, 1:5] = True
    masks = [SegmentMask.from_array(a, "img", 2), SegmentMask.from_array(a, "img", 5)]
    boxes = [Box(1, 1, 4, 4), Box(0, 0, 9, 9)]
    assert _latent_ids(boxes, masks) == [2, 2]
    assert [first_latent(box, masks[::-1]) for box in boxes] == [2, 2]


def test_relabel_matches_per_class_enumeration(rng):
    for _ in range(10):
        masks = random_masks(rng, 3, 12, 12)
        boxes = random_boxes(rng, 2, 12, 12)
        bundle = make_bundle("img", 12, 12, boxes, masks,
                             rng.normal(0, 2, (3, 2)), rng.normal(0, 1, (2, 4)),
                             rng.normal(0, 1, (2, 3)), 2, -0.7)
        weights = ModelWeights.zeros(2, 2, -0.7, 4, 3)
        weights.w_seg = rng.normal(0, 0.5, weights.w_seg.shape)
        for b in range(2):
            latent = relabel_positives(bundle, weights, 1, b)
            # brute force each class separately
            contribs = segment_contributions(bundle, weights, 1, b)
            for c in range(2):
                best_val, best_id = 0.0, None
                for i in sorted(range(3), key=lambda i: bundle.seg_ids[i]):
                    if contribs[i, c] > best_val:
                        best_val, best_id = contribs[i, c], bundle.seg_ids[i]
                assert latent[c] == best_id


def test_seg_feature_vector_layout(rng):
    bundle = _two_rect_bundle(rng)
    L = bundle.seg_base.shape[2] + 1
    d = bundle.appearance.shape[1] + bundle.context.shape[1]
    v = _cache(bundle, [[None, 1]])[0, d:-1]
    assert np.all(v[:L] == 0.0)
    expected = np.append(bundle.seg_base[0, 1], bundle.sigmoid_scores[1, 1])
    np.testing.assert_array_equal(v[L:], expected)


def test_seg_feature_vector_all_none(rng):
    bundle = _two_rect_bundle(rng)
    d = bundle.appearance.shape[1] + bundle.context.shape[1]
    row = _cache(bundle, [[None, None]])[0]
    assert not row[d:-1].any() and row[-1] == 1.0


@pytest.mark.parametrize("grid_k", [1, 2, 3])
@pytest.mark.parametrize("n_classes", [1, 2, 3, 4])
def test_cache_matrix_matches_per_box_oracle(n_classes, grid_k):
    """Positives image by image, then negatives from several images in mining order.

    Images 0 and 2 have the same segment count, so one group holds both and
    each row's class slot comes from its own image.
    """
    rng = np.random.default_rng(10 * n_classes + grid_k)
    d_app, d_ctx = 5, 3
    bundles = []
    for i in range(4):
        n_segs = (3, 0, 3, 2)[i]
        ids = sorted(rng.choice(50, n_segs, replace=False).tolist())
        masks = [SegmentMask(m.image_id, seg_id, m.height, m.width, m.runs.tolist())
                 for m, seg_id in zip(random_masks(rng, n_segs, 11, 9), ids)]
        n_boxes = int(rng.integers(1, 6))
        bundles.append(make_bundle(
            f"img{i}", 11, 9, random_boxes(rng, n_boxes, 11, 9), masks,
            rng.normal(0, 2, (n_segs, n_classes)), rng.normal(0, 1, (n_boxes, d_app)),
            rng.normal(0, 1, (n_boxes, d_ctx)), grid_k, -0.7))

    def entry(i):
        options = [None, *bundles[i].seg_ids]
        latent = [options[rng.integers(len(options))] for _ in range(n_classes)]
        return i, int(rng.integers(bundles[i].n_boxes)), latent

    positives = [entry(i) for i in range(4) for _ in range(2)]
    positives.append((0, 0, [None] * n_classes))
    negatives = [entry(int(i)) for i in rng.integers(0, 4, 12)]
    entries = positives + negatives
    weights = ModelWeights.zeros(n_classes, grid_k, -0.7, d_app, d_ctx)
    X = cache_by_gather(bundles, entries, weights)
    L = weights.seg_block_len
    oracle = np.array([instance_row(bundles[i], b, latent, L)
                       for i, b, latent in entries])
    assert X.shape == oracle.shape and X.tobytes() == oracle.tobytes()


def tuple_mine(scored_negatives, cap):
    """Oracle: mining over a list of (score, image_id, box_id, payload).

    The top-cap violators (score > -1), ties in score broken by
    (image_id, box_id); the payload is never compared.
    """
    kept = [entry for entry in scored_negatives if entry[0] > -1.0]
    kept.sort(key=lambda t: (-t[0], t[1], t[2]))
    return kept[:cap]


def test_mining_keeps_only_violators():
    mined = mine_hard_negatives(np.array([0.5, -0.5, -1.0, -2.0]), cap=10)
    assert mined.tolist() == [0, 1]


def test_mining_cap_keeps_highest():
    scores = np.arange(8) / 10
    mined = mine_hard_negatives(scores, cap=3)
    assert mined.tolist() == [7, 6, 5]
    # soundness: every kept score >= every dropped violator score
    assert scores[mined].min() >= np.delete(scores, mined).max()


@pytest.mark.parametrize("cap_of", [lambda n: 1, lambda n: n, lambda n: n + 3],
                         ids=["cap-1", "cap-violators", "cap-above"])
@settings(derandomize=True, max_examples=150, deadline=None)
@example({("a", 0): 0.0, ("a", 1): -0.0, ("b", 0): 0.0, ("a", 2): -1.0,
          ("b", 3): -0.0, ("c", 1): -1.0, ("b", 1): 0.5, ("c", 0): 0.5})
@given(st.dictionaries(st.tuples(st.sampled_from("abc"), st.integers(0, 9)),
                       st.sampled_from([-2.0, -1.0, -0.5, -0.0, 0.0, 0.5])
                       | st.floats(-3.0, 3.0), max_size=30))
def test_mining_keeps_the_tuple_sorts_negatives_in_its_order(cap_of, negatives):
    """Scores in (image id, box id) order mine what the tuple sort mines.

    negatives maps (image id, box id) to a score: many exact ties, -1.0
    (never kept), and -0.0 beside 0.0, which tie.
    """
    keys = sorted(negatives)
    scores = np.array([negatives[k] for k in keys])
    cap = cap_of(int(np.count_nonzero(scores > -1.0)))
    mined = mine_hard_negatives(scores, cap)
    assert mined.dtype.kind == "i"
    expected = tuple_mine([(score, *key, None) for key, score in negatives.items()], cap)
    assert [keys[k] for k in mined.tolist()] == [(i, b) for _, i, b, _ in expected]


def _small_world(tmp_path):
    generate(SynthConfig(seed=1, n_images=6), tmp_path)
    cfg = Config(min_segment_pixels=0, grid_k=2, epochs=2, outer_iters=2)
    return Dataset(read_manifest(tmp_path / "manifest.txt"), min_segment_pixels=0), cfg


def test_mining_sees_each_negative_once(tmp_path, monkeypatch):
    """Each round mines one score per negative of the class, and its log
    counts what mining kept: what a tracer reads from mining's argument and
    result."""
    mine = training.mine_hard_negatives
    calls = []

    def observed(scores, cap):
        result = mine(scores, cap)
        calls.append((len(scores), len(result)))
        return result

    dataset, cfg = _small_world(tmp_path)
    monkeypatch.setattr(training, "mine_hard_negatives", observed)
    rounds = train(dataset, cfg).rounds
    records = [dataset.record(image_id) for image_id in dataset.image_order]
    negatives = [sum(int(np.count_nonzero(assign_labels(
        rec.boxes, [box for cid, box, difficult in rec.gts
                    if cid == r.class_id and not difficult],
        cfg.pos_iou, cfg.neg_iou) == -1)) for rec in records) for r in rounds]
    assert len(rounds) == 2 * dataset.n_classes and min(negatives) > 0
    assert [scored for scored, _ in calls] == negatives
    assert sum(kept for _, kept in calls) == sum(r.num_hard_negs for r in rounds)


def test_train_finds_tight_boxes_once_per_image_and_detector(tmp_path, monkeypatch):
    """The first latents of an image's positives come from one overlap pass.

    So train calls tight_box at most once per mask of each image with
    positives, per detector, however many positives the image has.
    """
    dataset, cfg = _small_world(tmp_path)
    calls = []

    def counted(mask):
        calls.append(mask)
        return tight_box(mask)

    monkeypatch.setattr(training, "tight_box", counted)
    train(dataset, cfg)
    bound = per_positive = 0
    for rec in map(dataset.record, dataset.image_order):
        for detector in range(1, dataset.n_classes + 1):
            labels = assign_labels(rec.boxes, [box for cid, box, difficult in rec.gts
                                               if cid == detector and not difficult],
                                   cfg.pos_iou, cfg.neg_iou)
            n_pos = int(np.count_nonzero(labels == 1))
            bound += len(rec.masks) * (n_pos > 0)
            per_positive += len(rec.masks) * n_pos
    assert 0 < len(calls) <= bound < per_positive


def test_stack_leaves_no_per_image_bundle_alive(tmp_path):
    """The group stacks hold the only copy of each image's features."""
    dataset, cfg = _small_world(tmp_path)
    records = [dataset.record(image_id) for image_id in dataset.image_order]

    def image_bundles():
        gc.collect()
        return [o for o in gc.get_objects() if isinstance(o, FeatureBundle) and o.image_id]

    before = image_bundles()
    groups, spots = training._stack(dataset, records, cfg)
    left = [o for o in image_bundles() if not any(o is b for b in before)]
    assert not left, [b.image_id for b in left]
    assert sum(g.n_boxes for g in groups) == sum(len(rec.boxes) for rec in records)
    assert len(spots) == len(records)


def labelled_hinge_objective(w, X, y, c_reg):
    """Oracle: the hinge objective on rows X with labels y."""
    margins = 1.0 - y * (X @ w)
    return float(w[:-1] @ w[:-1] + c_reg * np.sum(np.maximum(margins, 0.0)))


@np.errstate(over="ignore", invalid="ignore")
def labelled_sgd_fit(X, y, w0, cfg, seed, batches=None):
    """Oracle: sgd_fit on rows X with labels y, multiplying each batch's
    violators by their labels.  batches, when given, collects "all", "some"
    or "none" for each step's violators."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    w = np.array(w0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    initial = labelled_hinge_objective(w, X, y, cfg.c_reg)
    trace = [initial]
    best_obj, best_w = initial, w.copy()
    step = 0
    reg2 = np.full_like(w, 2.0)
    reg2[-1] = 0.0
    peak = np.maximum(X.max(axis=0), -X.min(axis=0))
    precond = np.maximum(peak, 1.0) ** 2
    bad = np.flatnonzero(~np.isfinite(precond))
    if bad.size or not np.isfinite(initial):
        raise NumericalError(f"cache column {bad[0]}: |x| {peak[bad[0]]:.3g} squared is not finite"
                             if bad.size else f"c_reg {cfg.c_reg}: start objective {initial}")
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            eta = cfg.eta0 / (1.0 + cfg.decay * step)
            step += 1
            Xb, yb = X[batch], y[batch]
            viol = 1.0 - yb * (Xb @ w) > 0
            if batches is not None:
                batches.append("all" if viol.all() else "some" if viol.any() else "none")
            grad = w * reg2
            if viol.any():
                scale = cfg.c_reg * n / len(batch)
                grad -= scale * np.add.reduce(yb[viol, None] * Xb[viol], axis=0)
            w -= eta * grad / precond
        obj = labelled_hinge_objective(w, X, y, cfg.c_reg)
        trace.append(obj)
        if not np.isfinite(obj) or obj > 10.0 * max(initial, 1e-12):
            raise DivergedError(f"objective {obj:.3g} exceeded 10x initial "
                                f"{initial:.3g}; reduce eta0")
        if obj < best_obj:
            best_obj = obj
            best_w = w.copy()
    return best_w, trace


def _outcome(fit, *args):
    """(weight bytes, trace) of a fit, or the type and message it raised."""
    try:
        w, trace = fit(*args)
    except (NumericalError, DivergedError) as e:
        return type(e), str(e)
    return w.tobytes(), trace


def _signed(X, y):
    return X * y[:, None]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(2, 500), st.integers(1, 300), st.integers(1, 64), st.integers(1, 3),
       st.sampled_from(["zero", "random", "separating"]),
       st.sampled_from([0.0, 0.3]),
       st.sampled_from(["plain", "diverge", "bad-column", "huge-c"]),
       st.integers(0, 2 ** 32 - 1))
def test_signed_fit_is_the_labelled_fit_bit_for_bit(d, n, batch, epochs, start, zeros,
                                                    regime, seed):
    """sgd_fit on X * y[:, None] returns the labelled oracle's weight bits and
    trace, or raises its error with its message.

    Cache-like rows end in a bias 1.  A zero start makes every row violate,
    a start that separates the rows makes none do, and a random start some;
    exact zeros become -0.0 in the negatives' signed rows.
    """
    rng = np.random.default_rng(seed)
    X = rng.normal(0, 1, (n, d)) * rng.choice([1e-3, 1.0, 30.0], d)
    X[rng.random((n, d)) < zeros] = 0.0
    X[:, -1] = 1.0
    v = rng.normal(0, 1, d)
    y = np.where(X @ v >= 0, 1.0, -1.0)
    w0 = {"zero": np.zeros(d), "random": rng.normal(0, 1, d),
          "separating": v * (2.0 / max(np.abs(X @ v).min(), 1e-3))}[start]
    cfg = Config(c_reg=float(rng.choice([1e-3, 0.1, 1.0])), eta0=0.05, epochs=epochs,
                 batch_size=batch)
    if regime == "diverge":
        cfg.eta0 = 1e300
    elif regime == "bad-column":
        X[rng.integers(n), rng.integers(d - 1)] = 1e200
    elif regime == "huge-c":
        cfg.c_reg = 1e308
    expected = _outcome(labelled_sgd_fit, X, y, w0, cfg, seed)
    assert _outcome(sgd_fit, _signed(X, y), w0, cfg, seed) == expected
    if regime == "plain":
        assert hinge_objective(w0, _signed(X, y), cfg.c_reg) == expected[1][0]


def test_signed_fit_matches_the_labelled_fit_on_all_some_and_none_violating_batches(rng):
    """One fit whose batches include each kind of violator set: all rows,
    some rows and none."""
    X, y = _separable_problem(rng, n=61, d=4)
    X[rng.random(X.shape) < 0.2] = 0.0
    X[:, -1] = 1.0
    cfg = Config(c_reg=1.0, eta0=0.05, epochs=3, batch_size=4)
    batches = []
    w, trace = labelled_sgd_fit(X, y, np.zeros(X.shape[1]), cfg, 5, batches)
    assert set(batches) == {"all", "some", "none"}
    signed_w, signed_trace = sgd_fit(_signed(X, y), np.zeros(X.shape[1]), cfg, 5)
    assert signed_w.tobytes() == w.tobytes() and signed_trace == trace


@pytest.mark.parametrize("d", [2, 17, 500])
def test_signed_products_and_sums_are_the_labelled_ones(d):
    """The numpy/BLAS dispatch the signed cache's bit-exactness rests on.

    For 1 to 64 fancy-indexed rows, Z[rows] @ w is y[rows] * (X[rows] @ w)
    bit for bit, except that an exact zero may differ in sign, which the
    margin 1 - z @ w drops; and Z's column sums are those of the labelled
    rows, whether or not a boolean gather of all of them comes first.  If a
    numpy or BLAS upgrade changes the golden hashes, this test names the cause.
    """
    rng = np.random.default_rng(d)
    X = rng.normal(0, 1, (300, d))
    X[rng.random(X.shape) < 0.2] = 0.0
    X[7] = 0.0
    y = rng.choice([-1.0, 1.0], 300)
    Z = _signed(X, y)
    w = rng.normal(0, 1, d)
    for size in range(1, 65):
        rows = rng.permutation(300)[:size]
        if size % 8 == 0:
            rows[0] = 7
        products, labelled = Z[rows] @ w, y[rows] * (X[rows] @ w)
        assert np.array_equal(products, labelled)
        assert products[labelled != 0].tobytes() == labelled[labelled != 0].tobytes()
        assert (1.0 - products).tobytes() == (1.0 - labelled).tobytes()
        sums = np.add.reduce(Z[rows], axis=0)
        assert sums.tobytes() == np.add.reduce(y[rows, None] * X[rows], axis=0).tobytes()
        assert sums.tobytes() == np.add.reduce(Z[rows][np.ones(size, bool)], axis=0).tobytes()


def _separable_problem(rng, n=60, d=3, margin=2.0):
    X = rng.normal(0, 1, (n, d))
    y = np.where(X[:, 0] > 0, 1.0, -1.0)
    X[:, 0] += margin * y
    return np.hstack([X, np.ones((n, 1))]), y


def test_sgd_separates_easy_problem(rng):
    X, y = _separable_problem(rng)
    cfg = Config(c_reg=1.0, eta0=0.05, epochs=60, batch_size=8)
    w, trace = sgd_fit(_signed(X, y), np.zeros(X.shape[1]), cfg, 1)
    assert np.all(np.sign(X @ w) == y)
    assert trace[-1] <= trace[0]


def test_sgd_objective_never_worse_than_start(rng):
    X, y = _separable_problem(rng, n=40)
    Z = _signed(X, y)
    cfg = Config(c_reg=0.5, eta0=0.02, epochs=5, batch_size=4)
    w0 = rng.normal(0, 1, X.shape[1])
    start = hinge_objective(w0, Z, cfg.c_reg)
    w, _ = sgd_fit(Z, w0, cfg, 3)
    assert hinge_objective(w, Z, cfg.c_reg) <= start + 1e-12


def test_sgd_raises_diverged_error_not_a_numpy_warning(rng):
    """An overflowing step makes the objective inf; that is DivergedError,
    and numpy's overflow warning stays silent."""
    X, y = _separable_problem(rng, n=40)
    with pytest.raises(DivergedError, match="reduce eta0"):
        sgd_fit(_signed(X, y), np.zeros(X.shape[1]), Config(eta0=1e300), 0)


def test_sgd_deterministic(rng):
    X, y = _separable_problem(rng)
    cfg = Config(c_reg=1.0, eta0=0.05, epochs=10, batch_size=8)
    w1, t1 = sgd_fit(_signed(X, y), np.zeros(X.shape[1]), cfg, 2)
    w2, t2 = sgd_fit(_signed(X, y), np.zeros(X.shape[1]), cfg, 2)
    np.testing.assert_array_equal(w1, w2)
    assert t1 == t2


def test_sgd_small_c_shrinks_weights(rng):
    X, y = _separable_problem(rng)
    big = sgd_fit(_signed(X, y), np.zeros(X.shape[1]),
                  Config(c_reg=10.0, eta0=0.05, epochs=40), 0)[0]
    small = sgd_fit(_signed(X, y), np.zeros(X.shape[1]),
                    Config(c_reg=1e-4, eta0=0.05, epochs=40), 0)[0]
    assert np.linalg.norm(small[:-1]) < np.linalg.norm(big[:-1])


def test_hinge_objective_values():
    X = np.array([[1.0, 1.0], [-2.0, 1.0]])
    y = np.array([1.0, -1.0])
    Z = _signed(X, y)
    assert Z.tolist() == [[1.0, 1.0], [2.0, -1.0]]
    w = np.array([1.0, 0.0])
    # margins: 1 - 1*1 = 0 and 1 - (-1)(-2) = -1, both satisfied
    assert hinge_objective(w, Z, 5.0) == pytest.approx(1.0)
    w = np.array([0.0, 0.0])
    assert hinge_objective(w, Z, 5.0) == pytest.approx(10.0)


def test_no_seg_training_keeps_seg_weights_at_plus_zero(tmp_path):
    from segdetect.config import load_config
    from segdetect.dataset import Dataset, read_manifest
    from segdetect.synth import SynthConfig, generate
    from segdetect.training import train
    generate(SynthConfig(seed=3, n_images=12, box_jitter=0.1, seg_noise=0.1,
                         feature_noise=1.0), str(tmp_path))
    cfg = load_config(tmp_path / "config.txt")
    dataset = Dataset(read_manifest(tmp_path / "manifest.txt"),
                      min_segment_pixels=cfg.min_segment_pixels)
    result = train(dataset, cfg, use_seg=False)
    assert result.rounds and cfg.outer_iters > 1
    assert np.all(result.weights.w_seg == 0.0)
    assert not np.signbit(result.weights.w_seg).any()
    assert all(r.num_latent_changed == 0 for r in result.rounds)
    assert np.any(result.weights.w_app != 0.0)


def test_train_builds_rows_only_for_kept_negatives(tmp_path, monkeypatch):
    """Each round fills each cache row once, for the positives and the kept
    negatives only, in the one matrix that SGD fits."""
    from segdetect.config import load_config
    from segdetect.dataset import Dataset, read_manifest
    from segdetect.synth import SynthConfig, generate
    generate(SynthConfig(seed=4, n_images=8, boxes_per_image=12, feature_noise=1.0),
             str(tmp_path))
    cfg = load_config(tmp_path / "config.txt")
    cfg.neg_cache_cap = 5
    dataset = Dataset(read_manifest(tmp_path / "manifest.txt"),
                      min_segment_pixels=cfg.min_segment_pixels)
    built, fitted = [], []
    fill_cache, sgd = training._fill_cache, training.sgd_fit

    def counted_rows(X, first, groups, group_of, rows, latent, weights):
        built.extend(range(first, first + len(rows)))
        return fill_cache(X, first, groups, group_of, rows, latent, weights)

    def counted_sgd(Z, *args):
        assert sorted(built) == list(range(len(Z)))
        assert len(Z) == np.count_nonzero(Z[:, -1] == 1) + 5
        built.clear()
        fitted.append(len(Z))
        return sgd(Z, *args)

    monkeypatch.setattr(training, "_fill_cache", counted_rows)
    monkeypatch.setattr(training, "sgd_fit", counted_sgd)
    result = training.train(dataset, cfg)
    assert result.rounds and all(r.num_hard_negs == 5 for r in result.rounds)
    assert len(fitted) == len(result.rounds)


def test_train_class_peak_memory_in_caches(tmp_path, monkeypatch):
    """train_class holds one round's cache at a time, built in place.

    The traced peak above train_class's start, in units of the largest cache
    X, read 4.24 when each round built a list of one-row arrays, copied it
    into X while the previous round's X was still alive, and sgd_fit took
    |X| as a copy.  It reads 1.87 with one matrix per round and no copy.
    """
    from segdetect.config import load_config
    from segdetect.dataset import Dataset, read_manifest
    from segdetect.synth import SynthConfig, generate
    generate(SynthConfig(seed=4, n_images=300, boxes_per_image=12, feature_noise=1.0),
             str(tmp_path))
    cfg = load_config(tmp_path / "config.txt")
    dataset = Dataset(read_manifest(tmp_path / "manifest.txt"),
                      min_segment_pixels=cfg.min_segment_pixels)
    peaks, caches = [], []
    train_class, sgd = training.train_class, training.sgd_fit

    def traced_train_class(*args, **kwargs):
        tracemalloc.start()
        try:
            return train_class(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    def measured_sgd(X, *args):
        caches.append(X.nbytes)
        return sgd(X, *args)

    monkeypatch.setattr(training, "train_class", traced_train_class)
    monkeypatch.setattr(training, "sgd_fit", measured_sgd)
    training.train(dataset, cfg)
    assert max(peaks) / max(caches) < 2.5, (max(peaks), max(caches))


def per_image_train(dataset, cfg, use_seg=True):
    """Oracle for train: the per-image training loop.

    The first latents come from first_latent, box by box.  Each round
    relabels each positive with the one-box relabel_positives, scores the
    negatives with one score_boxes call per image, mines them with the tuple
    sort of tuple_mine and builds the cache row by row with instance_row.
    """
    from segdetect.model import build_bundle, score_boxes
    bundles = [build_bundle(dataset, image_id, cfg.grid_k, cfg.lambda_bias)
               for image_id in dataset.image_order]
    C = dataset.n_classes
    weights = ModelWeights.zeros(C, cfg.grid_k, cfg.lambda_bias, dataset.d_app,
                                 dataset.d_ctx)
    rounds = []
    for detector in range(1, C + 1):
        labels = [assign_labels(bundle.boxes, [
            g for cid, g, difficult in dataset.record(bundle.image_id).gts
            if cid == detector and not difficult], cfg.pos_iou, cfg.neg_iou)
            for bundle in bundles]
        positives = [(i, b) for i, lab in enumerate(labels) for b in np.flatnonzero(lab == 1)]
        if not positives:
            continue
        latent = {(i, b): [first_latent(bundles[i].boxes[b], bundles[i].segments)
                           if use_seg else None] * C
                  for i, b in positives}
        for rnd in range(1, cfg.outer_iters + 1):
            changed = 0
            if rnd > 1:
                for i, b in positives:
                    new = relabel_positives(bundles[i], weights, detector, b)
                    changed += sum(x != y for x, y in zip(new, latent[(i, b)]))
                    latent[(i, b)] = new
            scored = []
            for i, (bundle, lab) in enumerate(zip(bundles, labels)):
                boxes = np.flatnonzero(lab == -1)
                scores, chosen = score_boxes(bundle, weights, detector, boxes)
                scored.extend((score, bundle.image_id, bundle.box_ids[b], (i, b, h))
                              for score, b, h in zip(scores, boxes, chosen))
            mined = [entry for *_, entry in tuple_mine(scored, cfg.neg_cache_cap)]
            X = np.array([instance_row(bundles[i], b, h, weights.seg_block_len)
                          for i, b, h in [(i, b, latent[(i, b)]) for i, b in positives]
                          + mined])
            y = np.repeat([1.0, -1.0], [len(positives), len(mined)])
            w, trace = sgd_fit(_signed(X, y), training._detector_weight_vector(weights, detector),
                               cfg, cfg.seed + detector)
            training._store_detector_weights(weights, detector, w)
            rounds.append(training.RoundLog(rnd, detector, min(trace), trace[0],
                                            len(mined), changed))
    return training.TrainResult(weights, rounds)


@pytest.mark.parametrize("group_floats", [training.GROUP_FLOATS, 800], ids=["default", "800"])
def test_train_writes_the_per_image_oracles_bytes(tmp_path, monkeypatch, group_floats):
    """Stacked training writes the model and log bytes of per-image training.

    With min_segment_pixels 500, images keep 0, 1 or 2 segments, and class 4
    has no positives: its objects are all marked difficult.  An 800-float
    group bound splits each segment count into groups of two to four images.
    Box ids run backwards within each image, so the (image id, box id) order
    that breaks mining's score ties (every negative scores 0 in round 1) is
    not the row order.
    """
    from segdetect.model import save_model
    from segdetect.training import write_training_log
    generate(SynthConfig(seed=6, n_images=16, n_classes=4, segments_per_image=2,
                         feature_noise=1.0, box_jitter=0.1), tmp_path)
    gt = tmp_path / "gt.csv"
    rows = [line.split(",") for line in gt.read_text().splitlines()]
    gt.write_text("".join(",".join([*row[:-1], "1" if row[1] == "4" else row[-1]]) + "\n"
                          for row in rows))
    boxes = tmp_path / "boxes.csv"
    rows = [line.split(",") for line in boxes.read_text().splitlines()]
    boxes.write_text("".join(",".join([row[0], str(1000 - int(row[1])), *row[2:]]) + "\n"
                             for row in rows))
    cfg = Config(min_segment_pixels=500, grid_k=2, epochs=3, outer_iters=3,
                 neg_cache_cap=40)
    dataset = Dataset(read_manifest(tmp_path / "manifest.txt"),
                      min_segment_pixels=cfg.min_segment_pixels)
    assert {len(dataset.record(i).masks) for i in dataset.image_order} == {0, 1, 2}
    monkeypatch.setattr(training, "GROUP_FLOATS", group_floats)
    for use_seg in (True, False):
        outputs = []
        for result in (train(dataset, cfg, use_seg), per_image_train(dataset, cfg, use_seg)):
            save_model(tmp_path / "model.txt", result.weights)
            write_training_log(tmp_path / "train.log", result.rounds)
            outputs.append((tmp_path / "model.txt").read_bytes()
                           + (tmp_path / "train.log").read_bytes())
        assert outputs[0] == outputs[1]
        assert {r.class_id for r in result.rounds} == {1, 2, 3}
        assert any(r.num_hard_negs == 40 for r in result.rounds)
        assert any(r.num_latent_changed for r in result.rounds) == use_seg


def test_train_peak_memory_is_one_copy_of_the_bundles_plus_caches(tmp_path, monkeypatch):
    """train's traced peak: the bundles' arrays once, plus 2.5 times the largest cache.

    The stacks hold the only copy of each image's appearance, context,
    seg_base and sigmoid_scores; a second copy beside them exceeds the bound.
    """
    from segdetect.config import load_config
    from segdetect.segfeat import block_length
    generate(SynthConfig(seed=4, n_images=300, boxes_per_image=12, feature_noise=1.0),
             str(tmp_path))
    cfg = load_config(tmp_path / "config.txt")
    dataset = Dataset(read_manifest(tmp_path / "manifest.txt"),
                      min_segment_pixels=cfg.min_segment_pixels)
    L = block_length(cfg.grid_k)
    features = 8 * sum(
        len(rec.boxes) * (dataset.d_app + dataset.d_ctx + len(rec.masks) * (L - 1))
        + len(rec.masks) * dataset.n_classes
        for rec in map(dataset.record, dataset.image_order))
    caches = []
    sgd = training.sgd_fit

    def measured_sgd(X, *args):
        caches.append(X.nbytes)
        return sgd(X, *args)

    monkeypatch.setattr(training, "sgd_fit", measured_sgd)
    tracemalloc.start()
    try:
        training.train(dataset, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert features > max(caches)
    assert peak < features + 2.5 * max(caches), (peak, features, max(caches))
