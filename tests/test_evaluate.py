import numpy as np
import pytest

from segdetect.boxes import Box, iou
from segdetect.errors import APUndefined
from segdetect.evaluate import (FP, IGNORED, TP, average_best_overlap,
                                average_precision, evaluate_detections,
                                match_detections, pr_curve)
from segdetect.model import Detection


def det(score, box, image_id="img", class_id=1, box_id=0):
    return Detection(image_id, class_id, box_id, box, score, [])


G = Box(0, 0, 9, 9)
FAR = Box(50, 50, 59, 59)


def test_match_single_tp():
    assert match_detections([det(0.9, G)], {"img": [(G, False)]}) == [TP]


def test_match_second_hit_is_fp():
    dets = [det(0.9, G, box_id=0), det(0.8, G, box_id=1)]
    assert match_detections(dets, {"img": [(G, False)]}) == [TP, FP]


def test_match_below_threshold_is_fp():
    assert match_detections([det(0.9, FAR)], {"img": [(G, False)]}) == [FP]


def test_match_prefers_highest_iou_gt():
    g2 = Box(2, 0, 11, 9)
    flags = match_detections([det(0.9, g2)], {"img": [(G, False), (g2, False)]})
    assert flags == [TP]
    # the second gt (exact match) was claimed, so a later exact hit on g1 is TP too
    flags = match_detections([det(0.9, g2, box_id=0), det(0.8, G, box_id=1)],
                             {"img": [(G, False), (g2, False)]}, iou_thresh=0.5)
    assert flags == [TP, TP]


def test_match_iou_tie_claims_the_first_gt():
    right = Box(10, 0, 19, 9)
    dets = [det(0.9, Box(5, 0, 14, 9), box_id=0), det(0.8, G, box_id=1)]   # IoU 1/3 each
    flags = match_detections(dets, {"img": [(G, False), (right, False)]}, iou_thresh=0.3)
    assert flags == [TP, FP]


def test_match_difficult_ignored():
    assert match_detections([det(0.9, G)], {"img": [(G, True)]}) == [IGNORED]


def test_match_prefers_normal_over_difficult():
    flags = match_detections([det(0.9, G)], {"img": [(G, True), (G, False)]})
    assert flags == [TP]


def test_match_claims_only_ground_truth_of_its_own_image():
    dets = [det(0.9, G, "a"), det(0.8, G, "b"), det(0.7, G, "a"), det(0.6, G, "c")]
    flags = match_detections(dets, {"a": [(G, False)], "b": [(G, False)]})
    assert flags == [TP, TP, FP, FP]


def test_ap_single_tp_full_recall():
    curve = pr_curve([TP], n_gt=1)
    assert average_precision(curve) == pytest.approx(1.0)


def test_ap_tp_fp_one_gt():
    # precision at full recall is 1 before the FP arrives
    curve = pr_curve([TP, FP], n_gt=1)
    assert average_precision(curve) == pytest.approx(1.0)


def test_ap_tp_fp_tp_two_gt():
    curve = pr_curve([TP, FP, TP], n_gt=2)
    # 0.5 recall at precision 1, then 0.5 more at precision 2/3
    assert average_precision(curve) == pytest.approx(0.5 + 0.5 * 2 / 3, abs=1e-9)
    assert average_precision(curve) == pytest.approx(0.833333333, abs=1e-6)


def test_ap_perfect_detections():
    curve = pr_curve([TP] * 7, n_gt=7)
    assert average_precision(curve) == pytest.approx(1.0)


def test_ap_all_fp_zero():
    assert average_precision(pr_curve([FP, FP], n_gt=3)) == 0.0


def test_ap_no_detections_zero():
    assert average_precision(pr_curve([], n_gt=2)) == 0.0


def test_ap_undefined_without_gt():
    with pytest.raises(APUndefined):
        average_precision(pr_curve([FP], n_gt=0))


def test_ignored_flags_do_not_affect_ap():
    a = pr_curve([TP, IGNORED, FP, IGNORED, TP], n_gt=2)
    b = pr_curve([TP, FP, TP], n_gt=2)
    assert average_precision(a) == average_precision(b)


def test_appending_fp_never_raises_ap():
    rng = np.random.default_rng(1)
    for _ in range(50):
        flags = list(rng.choice([TP, FP], size=rng.integers(1, 12)))
        n_gt = max(flags.count(TP), 1)
        base = average_precision(pr_curve(flags, n_gt))
        worse = average_precision(pr_curve(flags + [FP], n_gt))
        assert worse <= base + 1e-12


def test_eleven_point_close_to_all_point():
    flags = [TP, TP, FP, TP, FP, TP]
    curve = pr_curve(flags, n_gt=4)
    all_pt = average_precision(curve)
    eleven = average_precision(curve, eleven_point=True)
    assert abs(all_pt - eleven) < 0.15
    assert eleven != all_pt


def test_evaluate_monotone_score_invariance():
    # AP depends only on the order of the scores, not their values
    gts = {"a": [(1, G, False)], "b": [(1, Box(5, 5, 14, 14), False)]}
    dets1 = [det(0.9, G, "a", box_id=0),
             det(0.5, FAR, "a", box_id=1),
             det(0.3, Box(5, 5, 14, 14), "b", box_id=0)]
    dets2 = [Detection(d.image_id, d.class_id, d.box_id, d.box,
                       100.0 + 10.0 * d.score, []) for d in dets1]
    r1 = evaluate_detections(dets1, gts, n_classes=1)
    r2 = evaluate_detections(dets2, gts, n_classes=1)
    assert r1.ap[1] == r2.ap[1]


def test_evaluate_gt_order_invariance():
    g2 = Box(3, 0, 12, 9)
    dets = [det(0.9, G, box_id=0), det(0.8, g2, box_id=1)]
    r1 = evaluate_detections(dets, {"img": [(1, G, False), (1, g2, False)]}, 1)
    r2 = evaluate_detections(dets, {"img": [(1, g2, False), (1, G, False)]}, 1)
    assert r1.ap[1] == r2.ap[1] == pytest.approx(1.0)


def test_evaluate_classes_without_gt_skipped():
    gts = {"img": [(1, G, False)]}
    r = evaluate_detections([det(0.9, G)], gts, n_classes=3)
    assert set(r.ap) == {1}
    assert r.mean_ap == pytest.approx(1.0)


def test_evaluate_map_is_mean_of_defined_aps():
    gts = {"img": [(1, G, False), (2, FAR, False)]}
    dets = [det(0.9, G, class_id=1),
            det(0.8, Box(0, 0, 9, 9), "img", 2, 1)]   # class-2 det misses FAR
    r = evaluate_detections(dets, gts, n_classes=2)
    assert r.ap[1] == pytest.approx(1.0)
    assert r.ap[2] == pytest.approx(0.0)
    assert r.mean_ap == pytest.approx(0.5)


def test_abo_exact_candidates():
    gts = {"img": [(1, G, False), (1, FAR, False)]}
    per_class, mean = average_best_overlap({"img": [G, FAR]}, gts, 1)
    assert per_class[1] == pytest.approx(1.0)
    assert mean == pytest.approx(1.0)


def test_abo_half_overlap():
    gts = {"img": [(1, G, False)]}
    per_class, _ = average_best_overlap({"img": [Box(0, 0, 19, 9)]}, gts, 1)
    assert per_class[1] == pytest.approx(0.5)


def test_abo_duplicates_do_not_help():
    gts = {"img": [(1, G, False)]}
    once, _ = average_best_overlap({"img": [Box(0, 0, 19, 9)]}, gts, 1)
    twice, _ = average_best_overlap(
        {"img": [Box(0, 0, 19, 9), Box(0, 0, 19, 9)]}, gts, 1)
    assert once == twice


def test_abo_missing_image_counts_zero():
    gts = {"a": [(1, G, False)], "b": [(1, G, False)]}
    per_class, _ = average_best_overlap({"a": [G]}, gts, 1)
    assert per_class[1] == pytest.approx(0.5)


def test_abo_skips_difficult():
    gts = {"img": [(1, G, True), (1, FAR, False)]}
    per_class, _ = average_best_overlap({"img": [FAR]}, gts, 1)
    assert per_class[1] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# oracle: the per-image matching path that the one-pass evaluator replaced

def _match_one_image(dets, gts, iou_thresh):
    """Greedy matching of one (class, image) pair; gts is [(box, difficult)]."""
    taken = [False] * len(gts)
    flags = []
    for d in dets:
        best, best_iou, difficult_hit = -1, 0.0, False
        for g, (gt_box, difficult) in enumerate(gts):
            ov = iou(d.box, gt_box)
            if ov < iou_thresh:
                continue
            if difficult:
                difficult_hit = True
            elif not taken[g] and ov > best_iou:
                best_iou, best = ov, g
        if best >= 0:
            taken[best] = True
            flags.append(TP)
        else:
            flags.append(IGNORED if difficult_hit else FP)
    return flags


def _match_across_images(class_dets, gts_by_image, class_id, iou_thresh):
    """Each image's detections matched apart, flags put back in score order."""
    by_image = {}
    for i, d in enumerate(class_dets):
        by_image.setdefault(d.image_id, []).append(i)
    flags = {}
    for image_id, indices in by_image.items():
        gts = [(g, difficult) for cid, g, difficult in gts_by_image.get(image_id, [])
               if cid == class_id]
        flags.update(zip(indices, _match_one_image(
            [class_dets[i] for i in indices], gts, iou_thresh)))
    return [flags[i] for i in range(len(class_dets))]


def _class_dets(detections, gts_by_image, class_id):
    image_order = {img: i for i, img in enumerate(gts_by_image)}
    return sorted((d for d in detections if d.class_id == class_id),
                  key=lambda d: (-d.score, image_order.get(d.image_id, len(image_order)),
                                 d.box_id))


def _reference_evaluate(detections, gts_by_image, n_classes, iou_thresh, eleven_point):
    """(flags per class, AP per defined class, mAP) by the per-image path."""
    flags, aps = {}, {}
    for class_id in range(1, n_classes + 1):
        flags[class_id] = _match_across_images(
            _class_dets(detections, gts_by_image, class_id), gts_by_image, class_id,
            iou_thresh)
        n_gt = sum(1 for gts in gts_by_image.values() for cid, _, difficult in gts
                   if cid == class_id and not difficult)
        if n_gt:
            aps[class_id] = average_precision(pr_curve(flags[class_id], n_gt), eleven_point)
    return flags, aps, float(np.mean(list(aps.values()))) if aps else 0.0


def _reference_abo(candidates_by_image, gts_by_image, n_classes):
    per_class = {}
    for class_id in range(1, n_classes + 1):
        best = [max((iou(c, gt_box) for c in candidates_by_image.get(image_id, [])),
                    default=0.0)
                for image_id, gts in gts_by_image.items()
                for cid, gt_box, difficult in gts if cid == class_id and not difficult]
        if best:
            per_class[class_id] = float(np.mean(best))
    return per_class, float(np.mean(list(per_class.values()))) if per_class else 0.0


def _random_box(rng, near=None):
    if near is None:
        x1, y1 = rng.integers(0, 40, 2)
        return Box(float(x1), float(y1), float(x1 + rng.integers(2, 20)),
                   float(y1 + rng.integers(2, 20)))
    dx1, dy1, dx2, dy2 = rng.integers(-3, 4, 4)
    return Box(near.x1 + dx1, near.y1 + dy1, max(near.x2 + dx2, near.x1 + dx1),
               max(near.y2 + dy2, near.y1 + dy1))


def _random_world(rng, n_classes):
    """gts over images a..e (classes 1..n_classes - 1, some difficult), and
    detections with tied scores that also fall on images f and g, which hold
    no ground truth; class n_classes has none."""
    gts_by_image = {}
    for image_id in "abcde":
        gts_by_image[image_id] = [
            (int(rng.integers(1, n_classes)), _random_box(rng), bool(rng.random() < 0.2))
            for _ in range(rng.integers(0, 5))]
    detections = []
    for box_id in range(int(rng.integers(0, 60))):
        image_id = str(rng.choice(list("abcdefg")))
        gts = gts_by_image.get(image_id, [])
        if gts and rng.random() < 0.6:
            class_id, gt_box, _ = gts[rng.integers(len(gts))]
            box = _random_box(rng, gt_box)
        else:
            class_id, box = int(rng.integers(1, n_classes + 1)), _random_box(rng)
        detections.append(Detection(image_id, class_id, box_id, box,
                                    float(rng.integers(0, 6)) / 4, []))
    return detections, gts_by_image


@pytest.mark.parametrize("seed", range(40))
def test_one_pass_evaluation_equals_per_image_path(seed):
    rng = np.random.default_rng(seed)
    n_classes = 4
    detections, gts_by_image = _random_world(rng, n_classes)
    iou_thresh = (0.3, 0.5, 0.7)[seed % 3]
    eleven_point = seed % 2 == 1
    ref_flags, ref_aps, ref_map = _reference_evaluate(
        detections, gts_by_image, n_classes, iou_thresh, eleven_point)
    report = evaluate_detections(detections, gts_by_image, n_classes, iou_thresh,
                                 eleven_point)
    assert report.ap == ref_aps and report.mean_ap == ref_map
    for class_id in range(1, n_classes + 1):
        class_gts = {}
        for image_id, gts in gts_by_image.items():
            for cid, gt_box, difficult in gts:
                if cid == class_id:
                    class_gts.setdefault(image_id, []).append((gt_box, difficult))
        flags = match_detections(_class_dets(detections, gts_by_image, class_id),
                                 class_gts, iou_thresh)
        assert flags == ref_flags[class_id]
    candidates = {image_id: [_random_box(rng) for _ in range(rng.integers(0, 6))]
                  for image_id in "abcdf"}
    assert (average_best_overlap(candidates, gts_by_image, n_classes)
            == _reference_abo(candidates, gts_by_image, n_classes))


@pytest.mark.parametrize("eleven_point", [False, True])
def test_one_pass_evaluation_of_no_detections(eleven_point):
    gts = {"a": [(1, G, False), (2, FAR, True)], "b": []}
    report = evaluate_detections([], gts, 3, eleven_point=eleven_point)
    assert report.ap == _reference_evaluate([], gts, 3, 0.5, eleven_point)[1] == {1: 0.0}
    assert report.mean_ap == 0.0
