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

from .boxes import iou
from .dataset import write_records
from .errors import APUndefined

TP, FP, IGNORED = 1, 0, -1


def match_detections(dets, gts, iou_thresh=0.5):
    """Flag each detection of one (class, image) pair as TP/FP/IGNORED.

    dets must be sorted by descending score (ties by box id); gts is a list of
    (box, difficult).  Each detection greedily claims the highest-IoU unmatched
    non-difficult ground truth at or above the threshold.
    """
    taken = [False] * len(gts)
    flags = []
    for det in dets:
        best = -1
        best_iou = 0.0
        difficult_hit = False
        for g, (gt_box, difficult) in enumerate(gts):
            ov = iou(det.box, gt_box)
            if ov < iou_thresh:
                continue
            if difficult:
                difficult_hit = True
            elif not taken[g] and ov > best_iou:
                best_iou = ov
                best = g
        if best >= 0:
            taken[best] = True
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
    for i in range(len(precision) - 2, -1, -1):
        precision[i] = max(precision[i], precision[i + 1])
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
    aps = []
    for class_id in range(1, n_classes + 1):
        class_dets = sorted(
            (d for d in detections if d.class_id == class_id),
            key=lambda d: (-d.score, image_order.get(d.image_id, len(image_order)),
                           d.box_id))
        n_gt = sum(1 for gts in gts_by_image.values()
                   for cid, _, difficult in gts
                   if cid == class_id and not difficult)
        flags = _match_across_images(class_dets, gts_by_image, class_id, iou_thresh)
        curve = pr_curve(flags, n_gt)
        report.curves[class_id] = curve
        if n_gt == 0:
            continue
        ap = average_precision(curve, eleven_point)
        report.ap[class_id] = ap
        aps.append(ap)
    report.mean_ap = float(np.mean(aps)) if aps else 0.0
    return report


def _match_across_images(class_dets, gts_by_image, class_id, iou_thresh):
    """Greedy matching per image, flags aligned with the global score order.

    A detection only claims ground truth of its own image, so matching each
    image's detections apart, in score order, gives the same flags.
    """
    by_image = {}
    for i, det in enumerate(class_dets):
        by_image.setdefault(det.image_id, []).append(i)
    flags = {}
    for image_id, indices in by_image.items():
        gts = [(g, difficult) for cid, g, difficult in gts_by_image.get(image_id, [])
               if cid == class_id]
        flags.update(zip(indices, match_detections(
            [class_dets[i] for i in indices], gts, iou_thresh)))
    return [flags[i] for i in range(len(class_dets))]


def average_best_overlap(candidates_by_image, gts_by_image, n_classes):
    """Per-class mean, over GT instances, of the best candidate IoU in the image."""
    per_class = {}
    for class_id in range(1, n_classes + 1):
        best = []
        for image_id, gts in gts_by_image.items():
            candidates = candidates_by_image.get(image_id, [])
            for cid, gt_box, difficult in gts:
                if cid != class_id or difficult:
                    continue
                best.append(max((iou(c, gt_box) for c in candidates), default=0.0))
        if best:
            per_class[class_id] = float(np.mean(best))
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
