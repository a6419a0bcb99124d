"""Command-line surface.

Exit codes: 0 success, 2 input error, unwritable output or failed allocation,
3 numerical error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bboxreg import (BoxRegressor, ClassRegressor, collect_training_pairs,
                      fit_regressor, iterate_boxes)
from .boxes import iou_row, rounded_corners
from .config import Config, load_config
from .dataset import Dataset, finite, read_blocks, read_manifest, write_records
from .errors import InputError, NumericalError, SegDetectError
from .evaluate import (average_best_overlap, evaluate_detections, write_pr_curves,
                       write_report)
from .model import (build_bundle, detect_image, image_bundle, load_model,
                    read_detections, save_model, write_detections)
from .synth import SynthConfig, generate
from .training import train, write_training_log


def _load(args):
    """(config, dataset) from the shared --config and --manifest flags."""
    cfg = load_config(args.config) if args.config else Config()
    return cfg, Dataset(read_manifest(args.manifest),
                        min_segment_pixels=cfg.min_segment_pixels)


# synth flag -> the SynthConfig field it sets, whose default it shows
_SYNTH_FLAGS = {"--seed": "seed", "--images": "n_images", "--classes": "n_classes",
                "--boxes": "boxes_per_image", "--segments": "segments_per_image",
                "--width": "width", "--height": "height", "--box-jitter": "box_jitter",
                "--seg-noise": "seg_noise", "--feat-noise": "feature_noise",
                "--score-noise": "score_noise", "--dapp": "d_app", "--dctx": "d_ctx"}


def cmd_synth(args):
    generate(SynthConfig(**{name: getattr(args, name) for name in _SYNTH_FLAGS.values()}),
             args.out)
    print(f"synthetic dataset written to {args.out}")
    return 0


def cmd_featdump(args):
    cfg, dataset = _load(args)

    def rows():
        yield "image_id", "box_id", "segment_id", "class_id", "features"
        for image_id in dataset.image_order:
            bundle = build_bundle(dataset, image_id, cfg.grid_k, cfg.lambda_bias)
            for b, box_id in enumerate(bundle.box_ids):
                for s, seg_id in enumerate(bundle.seg_ids):
                    base = ";".join(repr(v) for v in bundle.seg_base[b, s].tolist())
                    for c, score in enumerate(bundle.sigmoid_scores[s].tolist(), 1):
                        yield image_id, box_id, seg_id, c, f"{base};{score!r}"
    write_records(args.out, rows())
    print(f"feature dump written to {args.out}")
    return 0


def _require_output_dir(path):
    """Fail before any work unless `path` names a file in an existing directory;
    create or truncate nothing."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise InputError(f"cannot write {path}: no directory {parent}")
    if os.path.isdir(path):
        raise InputError(f"cannot write {path}: it is a directory")


def cmd_train(args):
    for path in (args.out, args.log):
        if path:
            _require_output_dir(path)
    cfg, dataset = _load(args)
    result = train(dataset, cfg, use_seg=not args.no_seg)
    save_model(args.out, result.weights)
    if args.log:
        write_training_log(args.log, result.rounds)
    print(f"model written to {args.out}")
    return 0


def cmd_detect(args):
    cfg, dataset = _load(args)
    weights = _load_model_for(args.model, dataset)
    detections = []
    for image_id in dataset.image_order:
        bundle = build_bundle(dataset, image_id, weights.grid_k, weights.lam)
        detections.extend(detect_image(bundle, weights, cfg.nms_iou, cfg.top_k))
    write_detections(args.out, detections)
    print(f"{len(detections)} detections written to {args.out}")
    return 0


def cmd_regress(args):
    cfg, dataset = _load(args)
    if dataset.regression is None:
        raise InputError(f"{args.manifest}: missing regression entry")
    if args.mode == "fit":
        pairs = collect_training_pairs(dataset, cfg.reg_pair_iou)
        d_reg = dataset.regression.shape[1]
        regressor = fit_regressor(pairs, d_reg, cfg.ridge)
        _save_regressor(args.out, regressor)
        print(f"regressor written to {args.out}")
        return 0
    # iterate: refine boxes and rescore
    if args.model is None or args.regressor is None:
        raise InputError("regress iterate needs --model and --regressor")
    weights = _load_model_for(args.model, dataset)
    regressor = _load_regressor(args.regressor)
    if regressor.d_reg != dataset.regression.shape[1]:
        raise InputError(f"{args.regressor}: d_reg {regressor.d_reg} does not match "
                         f"the dataset's {dataset.regression.shape[1]}")
    lookup = _nearest_box_provider(dataset)
    detections = []
    for image_id in dataset.image_order:
        bundle = image_bundle(dataset, image_id)
        rec = dataset.record(image_id)
        reg_rows = dataset.regression[np.asarray(rec.rows, dtype=int)]
        for detector in range(1, weights.n_classes + 1):
            dets, _ = iterate_boxes(bundle, regressor, weights, detector,
                                    reg_rows, lookup, cfg.bbox_max_iters,
                                    cfg.change_thresh)
            detections.extend(dets)
    write_detections(args.out, detections)
    print(f"{len(detections)} refined detections written to {args.out}")
    return 0


def _load_model_for(path, dataset):
    """Load a model and check it fits the dataset's classes and feature sizes."""
    weights = load_model(path)
    if ((weights.n_classes, weights.d_app, weights.d_ctx)
            != (dataset.n_classes, dataset.d_app, dataset.d_ctx)):
        raise InputError(f"{path}: model classes or feature sizes differ from the dataset's")
    return weights


def _nearest_box_provider(dataset):
    """Precomputed-feature lookup with nearest-box fallback.

    The features are those of the image's box with the highest IoU; the
    first such box wins a tie.
    """
    corners = {}    # image id -> its boxes' rounded corners, computed once

    def provider(image_id, box):
        rec = dataset.record(image_id)
        if not rec.boxes:
            raise KeyError(image_id)
        if image_id not in corners:
            corners[image_id] = rounded_corners(rec.boxes)
        best = int(iou_row(box.rounded(), corners[image_id]).argmax())
        row = rec.rows[best]
        return (dataset.appearance[row], dataset.context[row],
                dataset.regression[row])

    return provider


def _save_regressor(path, regressor):
    def rows():
        yield from (("segdetect-regressor", 1), ("d_reg", regressor.d_reg),
                    ("ridge", regressor.ridge))
        for class_id, reg in sorted(regressor.per_class.items()):
            yield from (("class", class_id), ("intercepts", *reg.intercepts),
                        *(("w", *row) for row in reg.weights))
    write_records(path, rows(), sep=" ")


def _load_regressor(path):
    header, blocks = read_blocks(path, "segdetect-regressor 1", ("d_reg", "ridge"), "class",
                                 ("intercepts", "w", "w", "w", "w"))
    try:
        regressor = BoxRegressor(d_reg=int(header["d_reg"]), ridge=finite(header["ridge"]))
        for class_id, (intercepts, *weights) in blocks.items():
            if intercepts.size != 4 or any(w.size != regressor.d_reg for w in weights):
                raise ValueError(f"class {class_id} needs 4 intercepts and 4 rows "
                                 f"of d_reg {regressor.d_reg} weights")
            regressor.per_class[class_id] = ClassRegressor(np.array(weights), intercepts)
    except ValueError as e:
        raise InputError(f"{path}: bad regressor: {e}") from e
    return regressor


def cmd_eval(args):
    cfg, dataset = _load(args)
    detections = read_detections(args.detections, dataset)
    gts = {image_id: list(dataset.record(image_id).gts)
           for image_id in dataset.image_order}
    report = evaluate_detections(detections, gts, dataset.n_classes,
                                 cfg.eval_iou, cfg.eleven_point)
    candidates = {image_id: list(dataset.record(image_id).boxes)
                  for image_id in dataset.image_order}
    report.abo, report.mean_abo = average_best_overlap(candidates, gts,
                                                       dataset.n_classes)
    write_report(args.out, report, dataset.class_names)
    if args.curves:
        write_pr_curves(args.curves, report, dataset.class_names)
    print(f"mAP {report.mean_ap:.4f}  mABO {report.mean_abo:.4f} -> {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(prog="segdetect")
    sub = parser.add_subparsers(dest="command", required=True)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--manifest", required=True)
    shared.add_argument("--config")
    shared.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--out", required=True)
    for flag, name in _SYNTH_FLAGS.items():
        default = getattr(SynthConfig, name)
        p.add_argument(flag, dest=name, type=type(default), default=default)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("featdump", parents=[shared],
                       help="dump segmentation feature blocks")
    p.set_defaults(func=cmd_featdump)

    p = sub.add_parser("train", parents=[shared], help="train detectors")
    p.add_argument("--log")
    p.add_argument("--no-seg", action="store_true",
                   help="ablation: zero segmentation weights")
    p.add_argument("--threads", type=int, help="ignored: every run is single-threaded")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", parents=[shared], help="score all boxes and run NMS")
    p.add_argument("--model", required=True)
    p.add_argument("--threads", type=int, help="ignored: every run is single-threaded")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("regress", parents=[shared], help="fit or apply the box regressor")
    p.add_argument("mode", choices=["fit", "iterate"])
    p.add_argument("--model")
    p.add_argument("--regressor")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("eval", parents=[shared], help="evaluate a detections dump")
    p.add_argument("--detections", required=True)
    p.add_argument("--curves", help="directory for per-class PR curve CSVs")
    p.set_defaults(func=cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except (SegDetectError, OSError) as e:     # OSError: an output path cannot be written
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: not enough memory: {e}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
