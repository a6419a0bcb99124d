"""Detection evaluation: greedy matching, PR curves, AP/mAP, and ABO.

AP defaults to the all-point interpolation (area under the monotone-envelope
PR curve); an 11-point variant is available for comparison.  Detections on
'difficult' ground truth are ignored: neither true nor false positives, and
difficult objects do not count toward the recall denominator.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from .boxes import iou, iou_row, rounded_corners
from .dataset import write_records
from .errors import APUndefined

TP, FP, IGNORED = 1, 0, -1


def match_detections(dets, gts_by_image, iou_thresh=0.5):
    """Flag each detection of one class as TP/FP/IGNORED, in input order.

    dets must be in global score order (descending score, ties by image
    order, then box id); gts_by_image maps image_id -> [(box, difficult)] of
    this class.  Each detection greedily claims the highest-IoU unclaimed
    non-difficult ground truth of its own image at or above the threshold.
    """
    taken = {}      # image_id -> claimed flag per ground truth
    flags = []
    for det in dets:
        gts = gts_by_image.get(det.image_id, [])
        claimed = taken.setdefault(det.image_id, [False] * len(gts))
        best, best_iou, difficult_hit = -1, 0.0, False
        for g, (gt_box, difficult) in enumerate(gts):
            ov = iou(det.box, gt_box)
            if ov < iou_thresh:
                continue
            if difficult:
                difficult_hit = True
            elif not claimed[g] and ov > best_iou:
                best_iou = ov
                best = g
        if best >= 0:
            claimed[best] = True
            flags.append(TP)
        elif difficult_hit:
            flags.append(IGNORED)
        else:
            flags.append(FP)
    return flags


@dataclass
class PRCurve:
    recall: np.ndarray
    precision: np.ndarray
    n_gt: int


def pr_curve(flags, n_gt) -> PRCurve:
    """Cumulative precision/recall over detections already sorted by score."""
    kept = [f for f in flags if f != IGNORED]
    tp = np.cumsum([1 if f == TP else 0 for f in kept])
    fp = np.cumsum([1 if f == FP else 0 for f in kept])
    recall = tp / n_gt if n_gt > 0 else np.zeros(len(kept))
    precision = tp / np.maximum(tp + fp, 1)
    return PRCurve(recall, precision, n_gt)


def average_precision(curve: PRCurve, eleven_point=False) -> float:
    if curve.n_gt == 0:
        raise APUndefined("no ground truth for this class")
    recall = np.concatenate([[0.0], curve.recall, [curve.recall[-1] if
                                                   len(curve.recall) else 0.0]])
    precision = np.concatenate([[0.0], curve.precision, [0.0]])
    # monotone envelope: precision at recall >= r
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    if eleven_point:
        points = [precision[np.searchsorted(recall, r)]
                  if r <= recall[-1] else 0.0
                  for r in np.linspace(0.0, 1.0, 11)]
        return float(np.mean(points))
    steps = np.flatnonzero(np.diff(recall) > 0)
    return float(np.sum((recall[steps + 1] - recall[steps]) * precision[steps + 1]))


@dataclass
class EvalReport:
    ap: dict = field(default_factory=dict)        # class_id -> AP (defined classes)
    curves: dict = field(default_factory=dict)    # class_id -> PRCurve
    mean_ap: float = 0.0
    abo: dict = field(default_factory=dict)       # class_id -> ABO
    mean_abo: float = 0.0


def evaluate_detections(detections, gts_by_image, n_classes, iou_thresh=0.5,
                        eleven_point=False) -> EvalReport:
    """Full evaluation.

    detections: iterable of Detection; gts_by_image: image_id -> list of
    (class_id, box, difficult).  Classes without ground truth are skipped in
    the mAP mean.
    """
    report = EvalReport()
    image_order = {img: i for i, img in enumerate(gts_by_image)}
    ranked = sorted(detections, key=lambda d: (
        d.class_id, -d.score, image_order.get(d.image_id, len(image_order)), d.box_id))
    dets_of = {c: list(dets) for c, dets in itertools.groupby(ranked, lambda d: d.class_id)}
    gts_of = {}     # class_id -> image_id -> [(box, difficult)]
    for image_id, gts in gts_by_image.items():
        for class_id, box, difficult in gts:
            gts_of.setdefault(class_id, {}).setdefault(image_id, []).append((box, difficult))
    aps = []
    for class_id in range(1, n_classes + 1):
        gts = gts_of.get(class_id, {})
        n_gt = sum(not difficult for image_gts in gts.values() for _, difficult in image_gts)
        flags = match_detections(dets_of.get(class_id, []), gts, iou_thresh)
        curve = pr_curve(flags, n_gt)
        report.curves[class_id] = curve
        if n_gt == 0:
            continue
        ap = average_precision(curve, eleven_point)
        report.ap[class_id] = ap
        aps.append(ap)
    report.mean_ap = float(np.mean(aps)) if aps else 0.0
    return report


def average_best_overlap(candidates_by_image, gts_by_image, n_classes):
    """Per-class mean, over GT instances, of the best candidate IoU in the image."""
    best = {}       # class_id -> best overlap per non-difficult GT, in image order
    for image_id, gts in gts_by_image.items():
        corners = rounded_corners(candidates_by_image.get(image_id, []))
        for class_id, gt_box, difficult in gts:
            if not difficult and 1 <= class_id <= n_classes:
                best.setdefault(class_id, []).append(
                    float(iou_row(gt_box.rounded(), corners).max(initial=0.0)))
    per_class = {c: float(np.mean(best[c])) for c in sorted(best)}
    mean = float(np.mean(list(per_class.values()))) if per_class else 0.0
    return per_class, mean


def write_report(path, report: EvalReport, class_names):
    write_records(path, itertools.chain(
        [("class", "ap", "abo")],
        ((name, report.ap.get(c, ""), report.abo.get(c, ""))
         for c, name in enumerate(class_names, 1)),
        [("mAP", report.mean_ap, ""), ("mABO", report.mean_abo, "")]))


def write_pr_curves(directory, report: EvalReport, class_names):
    os.makedirs(directory, exist_ok=True)
    for class_id, curve in report.curves.items():
        write_records(os.path.join(directory, f"pr_{class_names[class_id - 1]}.csv"),
                      itertools.chain([("recall", "precision")],
                                      zip(curve.recall, curve.precision)))
