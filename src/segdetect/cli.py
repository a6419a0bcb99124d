"""Command-line surface.

Exit codes: 0 success, 2 input error (bad file/flag), 3 numerical error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .bboxreg import (BoxRegressor, ClassRegressor, collect_training_pairs,
                      fit_regressor, iterate_boxes)
from .config import Config, load_config
from .dataset import Dataset, finite, read_blocks, read_manifest
from .errors import InputError, NumericalError, SegDetectError
from .evaluate import (average_best_overlap, evaluate_detections, write_pr_curves,
                       write_report)
from .model import (build_bundle, detect_image, load_model, read_detections,
                    save_model, write_detections)
from .synth import SynthConfig, generate
from .training import train, write_training_log


def _effective_threads(flag):
    if flag and flag > 0:
        return flag
    return os.cpu_count() or 1


def _load_dataset(manifest_path, cfg: Config) -> Dataset:
    return Dataset(read_manifest(manifest_path),
                   min_segment_pixels=cfg.min_segment_pixels)


def _load_config(path) -> Config:
    return load_config(path) if path else Config()


def _gts_by_image(dataset):
    return {image_id: list(dataset.record(image_id).gts)
            for image_id in dataset.image_order}


def cmd_synth(args):
    cfg = SynthConfig(seed=args.seed, n_images=args.images, n_classes=args.classes,
                      boxes_per_image=args.boxes, segments_per_image=args.segments,
                      width=args.width, height=args.height,
                      box_jitter=args.box_jitter, seg_noise=args.seg_noise,
                      feature_noise=args.feat_noise, score_noise=args.score_noise,
                      d_app=args.dapp, d_ctx=args.dctx)
    generate(cfg, args.out)
    print(f"synthetic dataset written to {args.out}")
    return 0


def cmd_featdump(args):
    cfg = _load_config(args.config)
    dataset = _load_dataset(args.manifest, cfg)
    with open(args.out, "w") as f:
        header = ["image_id", "box_id", "segment_id", "class_id"]
        f.write(",".join(header) + ",features\n")
        for image_id in dataset.image_order:
            bundle = build_bundle(dataset, image_id, cfg.grid_k, cfg.lambda_bias)
            for b, box_id in enumerate(bundle.box_ids):
                for s, seg_id in enumerate(bundle.seg_ids):
                    base = bundle.seg_base[b, s]
                    for c in range(dataset.n_classes):
                        block = base.copy()
                        block[-1] = bundle.sigmoid_scores[s, c]
                        vals = ";".join(repr(v) for v in block)
                        f.write(f"{image_id},{box_id},{seg_id},{c + 1},{vals}\n")
    print(f"feature dump written to {args.out}")
    return 0


def cmd_train(args):
    cfg = _load_config(args.config)
    dataset = _load_dataset(args.manifest, cfg)
    result = train(dataset, cfg, use_seg=not args.no_seg,
                   threads=_effective_threads(args.threads or cfg.threads))
    save_model(args.out, result.weights)
    if args.log:
        write_training_log(args.log, result.rounds)
    print(f"model written to {args.out}")
    return 0


def cmd_detect(args):
    cfg = _load_config(args.config)
    dataset = _load_dataset(args.manifest, cfg)
    weights = _load_model_for(args.model, dataset)
    threads = _effective_threads(args.threads or cfg.threads)

    def run(image_id):
        bundle = build_bundle(dataset, image_id, weights.grid_k, weights.lam)
        return detect_image(bundle, weights, cfg.nms_iou, cfg.top_k)

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_image = list(pool.map(run, dataset.image_order))
    else:
        per_image = [run(i) for i in dataset.image_order]
    detections = [d for dets in per_image for d in dets]
    write_detections(args.out, detections)
    print(f"{len(detections)} detections written to {args.out}")
    return 0


def cmd_regress(args):
    cfg = _load_config(args.config)
    dataset = _load_dataset(args.manifest, cfg)
    if args.mode == "fit":
        pairs = collect_training_pairs(dataset, cfg.reg_pair_iou)
        if not pairs:
            raise InputError("no regression training pairs above the IoU threshold")
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
    if dataset.regression is None:
        raise InputError("manifest declares no regression feature file")
    if regressor.d_reg != dataset.regression.shape[1]:
        raise InputError(f"{args.regressor}: d_reg {regressor.d_reg} does not match "
                         f"the dataset's {dataset.regression.shape[1]}")
    lookup = _nearest_box_provider(dataset)
    detections = []
    for image_id in dataset.image_order:
        bundle = build_bundle(dataset, image_id, weights.grid_k, weights.lam)
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
    """Precomputed-feature lookup with nearest-box fallback."""
    from .boxes import iou as box_iou

    def provider(image_id, box):
        rec = dataset.record(image_id)
        if not rec.boxes:
            raise KeyError(image_id)
        best = max(range(len(rec.boxes)),
                   key=lambda i: box_iou(box, rec.boxes[i]))
        row = rec.rows[best]
        return (dataset.appearance[row], dataset.context[row],
                dataset.regression[row])

    return provider


def _save_regressor(path, regressor):
    with open(path, "w") as f:
        f.write("segdetect-regressor 1\n")
        f.write(f"d_reg {regressor.d_reg}\n")
        f.write(f"ridge {regressor.ridge!r}\n")
        for class_id in sorted(regressor.per_class):
            reg = regressor.per_class[class_id]
            f.write(f"class {class_id}\n")
            f.write("intercepts " + " ".join(repr(float(v))
                                             for v in reg.intercepts) + "\n")
            for row in reg.weights:
                f.write("w " + " ".join(repr(float(v)) for v in row) + "\n")


def _load_regressor(path):
    header, blocks = read_blocks(path, "segdetect-regressor 1", "class",
                                 ("intercepts", "w", "w", "w", "w"))
    try:
        regressor = BoxRegressor(d_reg=int(header["d_reg"]), ridge=finite(header["ridge"]))
        for class_id, (intercepts, *weights) in blocks.items():
            if intercepts.size != 4 or any(w.size != regressor.d_reg for w in weights):
                raise ValueError(f"class {class_id} needs 4 intercepts and 4 rows "
                                 f"of d_reg {regressor.d_reg} weights")
            regressor.per_class[class_id] = ClassRegressor(np.array(weights), intercepts)
    except (KeyError, ValueError) as e:
        raise InputError(f"{path}: bad regressor: {e}") from e
    return regressor


def cmd_eval(args):
    cfg = _load_config(args.config)
    dataset = _load_dataset(args.manifest, cfg)
    detections = read_detections(args.detections)
    gts = _gts_by_image(dataset)
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

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--images", type=int, default=50)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--boxes", type=int, default=8)
    p.add_argument("--segments", type=int, default=4)
    p.add_argument("--width", type=int, default=64)
    p.add_argument("--height", type=int, default=64)
    p.add_argument("--box-jitter", type=float, default=0.0)
    p.add_argument("--seg-noise", type=float, default=0.0)
    p.add_argument("--feat-noise", type=float, default=0.0)
    p.add_argument("--score-noise", type=float, default=0.0)
    p.add_argument("--dapp", type=int, default=16)
    p.add_argument("--dctx", type=int, default=8)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("featdump", help="dump segmentation feature blocks")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_featdump)

    p = sub.add_parser("train", help="train detectors")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.add_argument("--no-seg", action="store_true",
                   help="ablation: zero segmentation weights")
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="score all boxes and run NMS")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("regress", help="fit or apply the box regressor")
    p.add_argument("mode", choices=["fit", "iterate"])
    p.add_argument("--manifest", required=True)
    p.add_argument("--config")
    p.add_argument("--model")
    p.add_argument("--regressor")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("eval", help="evaluate a detections dump")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config")
    p.add_argument("--detections", required=True)
    p.add_argument("--out", required=True)
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
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except SegDetectError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
