"""Seeded synthetic dataset generator for desk-scale verification.

The world is deliberately simple: ground-truth objects are axis-aligned
rectangles, "segments" are eroded/dilated copies of those rectangles, segment
class scores mimic an IoU-predicting ranker, and appearance/context vectors
are noisy class prototypes.  Everything is a pure function of the seed, so a
regenerated tree is byte-identical.

The generator also serves as the feature provider for iterative box
regression: regression rows linearly encode the offset to the nearest
ground-truth object, so a ridge regressor can recover the exact corrective
mapping when noise is zero.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .boxes import Box, clip_box, expand_box, iou, round_half_away
from .config import Config, check_range, save_config
from .dataset import (Manifest, write_boxes_file, write_feature_matrix,
                      write_gt_file, write_manifest, write_masks_file,
                      write_seg_scores_file)
from .errors import InputError
from .masks import MAX_PIXELS, SegmentMask

D_REG = 5   # [dx, dy, dlogw, dlogh, 1]
OBJECTS_PER_IMAGE = 2    # one with no free place after 50 tries is left out
PROTO_SCALE = 2.0        # peak of each class prototype


@dataclass
class SynthConfig:
    seed: int = 0
    n_images: int = 50
    n_classes: int = 3
    boxes_per_image: int = 8     # random boxes top up two jittered ones per object to this
    segments_per_image: int = 4  # random segments top up one per object to this
    width: int = 64
    height: int = 64
    box_jitter: float = 0.0     # fraction of object size
    seg_noise: float = 0.0      # fractional erosion of segment rects
    feature_noise: float = 0.0  # stddev on appearance/context vectors
    score_noise: float = 0.0    # stddev on raw segment class scores
    d_app: int = 16
    d_ctx: int = 8
    train_fraction: float = 0.8

    def __post_init__(self):
        """Reject values the generator cannot use, before anything is written."""
        for name, value in vars(self).items():
            check_range(name, value)
        if self.width * self.height >= MAX_PIXELS:
            raise InputError(f"width * height must be below 2**31, got "
                             f"{self.width}x{self.height}")
        # the generator holds every box and segment, so a world too big for
        # memory is refused here instead of allocated until memory runs out
        per_image = max(self.boxes_per_image, self.segments_per_image, 1)
        if self.n_images * per_image >= 2 ** 31:
            raise InputError(f"n_images * max(boxes_per_image, segments_per_image, 1) "
                             f"must be below 2**31, got {self.n_images} x {per_image}")


def _logit(x):
    x = min(max(x, 0.02), 0.98)
    return math.log(x / (1.0 - x))


@dataclass
class SynthImage:
    image_id: str
    gts: list            # (class_id, Box)
    boxes: list          # Box; a box's id is its position
    segments: list       # (Box source rect, class_id or 0, mask Box); id as for boxes


class SynthWorld:
    """In-memory world; `write` dumps it to disk, `provider` is the
    noise-free feature function used as the re-extraction provider."""

    def __init__(self, cfg: SynthConfig):
        self.cfg = cfg
        rng = np.random.default_rng(cfg.seed)
        self.app_protos = self._prototypes(rng, cfg.d_app, cfg.n_classes)
        self.ctx_protos = self._prototypes(rng, cfg.d_ctx, cfg.n_classes)
        self.images = [self._make_image(rng, i) for i in range(cfg.n_images)]
        self._by_id = {img.image_id: img for img in self.images}
        # noise drawn once, after the images, so files are reproducible: a
        # row per box (appearance then context) and one per segment, in file order
        self._box_noise = rng.normal(0.0, 1.0, (sum(len(img.boxes) for img in self.images),
                                                cfg.d_app + cfg.d_ctx))
        self._score_noise = rng.normal(0.0, 1.0, (sum(len(img.segments) for img in self.images),
                                                  cfg.n_classes))

    @staticmethod
    def _prototypes(rng, dim, n_classes):
        # one prototype per class plus a background prototype, well separated
        protos = np.zeros((n_classes + 1, dim))
        for c in range(n_classes + 1):
            protos[c, c % dim] = PROTO_SCALE
            protos[c] += 0.1 * rng.normal(0.0, 1.0, dim)
        return protos

    def _random_rect(self, rng, lo, hi):
        """Box with sides drawn from [size // lo, size // hi), placed inside the image."""
        cfg = self.cfg
        w = int(rng.integers(cfg.width // lo, cfg.width // hi))
        h = int(rng.integers(cfg.height // lo, cfg.height // hi))
        x1 = int(rng.integers(0, cfg.width - w))
        y1 = int(rng.integers(0, cfg.height - h))
        return Box(float(x1), float(y1), float(x1 + w - 1), float(y1 + h - 1))

    def _make_image(self, rng, index):
        cfg = self.cfg
        gts = []
        for _ in range(OBJECTS_PER_IMAGE):
            class_id = int(rng.integers(1, cfg.n_classes + 1))
            # objects must not overlap much, or NMS legitimately merges them
            for _attempt in range(50):
                candidate = self._random_rect(rng, 4, 2)
                if all(iou(candidate, g) < 0.2 for _, g in gts):
                    gts.append((class_id, candidate))
                    break
        boxes = [self._jitter(rng, gt, cfg.box_jitter) for _, gt in gts for _ in range(2)]
        boxes += [self._random_rect(rng, 4, 2) for _ in range(cfg.boxes_per_image - len(boxes))]
        segments = [(gt, class_id, self._erode(rng, gt, cfg.seg_noise)) for class_id, gt in gts]
        rects = [self._random_rect(rng, 5, 3) for _ in range(cfg.segments_per_image - len(gts))]
        segments += [(rect, 0, rect) for rect in rects]
        return SynthImage(f"img{index:04d}", gts, boxes, segments)

    def _jitter(self, rng, gt: Box, amount):
        if amount == 0.0:
            return gt
        w = gt.x2 - gt.x1 + 1
        h = gt.y2 - gt.y1 + 1
        dx, dy, dw, dh = rng.normal(0.0, amount, 4)
        # a large size draw can invert the box, so order each axis's corners
        # first; min and max return the first corner if an inf - inf made the
        # second one NaN
        x1, x2 = gt.x1 + dx * w, gt.x2 + dx * w + dw * w
        y1, y2 = gt.y1 + dy * h, gt.y2 + dy * h + dh * h
        return clip_box(Box(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2)),
                        self.cfg.width, self.cfg.height)

    def _erode(self, rng, gt: Box, amount):
        if amount == 0.0:
            return gt
        w = gt.x2 - gt.x1 + 1
        h = gt.y2 - gt.y1 + 1
        dx1, dy1, dx2, dy2 = rng.uniform(0.0, amount, 4)
        x1, y1 = gt.x1 + dx1 * w * 0.5, gt.y1 + dy1 * h * 0.5
        x2, y2 = gt.x2 - dx2 * w * 0.5, gt.y2 - dy2 * h * 0.5
        if x1 > x2 or y1 > y2:     # over-eroded: fall back to the object itself
            return gt
        return Box(x1, y1, x2, y2)

    # -- feature functions -------------------------------------------------

    def _proto_row(self, img: SynthImage, box: Box):
        """Prototype row index: matched class row, or the background row."""
        best_class = 0
        best = 0.0
        for class_id, gt in img.gts:
            ov = iou(box, gt)
            if ov > best:
                best = ov
                best_class = class_id
        return best_class - 1 if best >= 0.5 else self.cfg.n_classes

    def provider(self, image_id, box: Box):
        """Noise-free (appearance, context, regression) rows for any box.

        Context looks at the box grown by half its size in each direction,
        mimicking an expanded-receptive-field descriptor.
        """
        img = self._by_id[image_id]
        row = self._proto_row(img, box)
        grown = expand_box(box, 0.5, self.cfg.width, self.cfg.height)
        ctx_row = self._proto_row(img, grown)
        return (self.app_protos[row].copy(), self.ctx_protos[ctx_row].copy(),
                self._reg_row(img, box))

    def _reg_row(self, img: SynthImage, box: Box):
        nearest = max(img.gts, key=lambda cg: iou(box, cg[1]))[1]
        px, py, pw, ph = box.center_size()
        gx, gy, gw, gh = nearest.center_size()
        return np.array([(gx - px) / pw, (gy - py) / ph,
                         math.log(gw / pw), math.log(gh / ph), 1.0])

    # -- serialization -----------------------------------------------------

    def _rect_mask(self, image_id, seg_id, rect: Box) -> SegmentMask:
        # rect lies inside the image: _random_rect places it there, and _erode
        # stays inside its object or returns it.  Rounding keeps a value that
        # lies between two integers between them, so the rounded rect needs no
        # clip and its runs no check.
        x1, y1, x2, y2 = rect.rounded()
        rows = np.arange(y1, y2 + 1)
        runs = np.stack([rows * self.cfg.width + x1, np.full(len(rows), x2 - x1 + 1)], axis=1)
        return SegmentMask(image_id, seg_id, self.cfg.height, self.cfg.width, runs,
                           len(rows) * (x2 - x1 + 1))

    @np.errstate(over="ignore")     # a value that overflows is refused before writing
    def write(self, out_dir):
        """Dump the world plus train/test split manifests and a matching config."""
        cfg = self.cfg
        boxes = [(img.image_id, box_id, box) for img in self.images
                 for box_id, box in enumerate(img.boxes)]
        segments = [(img.image_id, seg_id, *segment) for img in self.images
                    for seg_id, segment in enumerate(img.segments)]
        app, ctx, reg = map(np.array, zip(*(self.provider(image_id, box)
                                             for image_id, _, box in boxes)))
        noise = cfg.feature_noise * self._box_noise
        features = {"appearance": (app + noise[:, :cfg.d_app]).astype(np.float32),
                    "context": (ctx + noise[:, cfg.d_app:]).astype(np.float32),
                    "regression": reg.astype(np.float32)}
        raw = np.full((len(segments), cfg.n_classes), _logit(0.05))
        for row, (_, _, source, source_class, rect) in zip(raw, segments):
            if source_class:
                row[source_class - 1] = _logit(iou(rect, source))
        scores = raw + cfg.score_noise * self._score_noise
        if not all(np.isfinite(matrix).all() for matrix in features.values()):
            raise InputError(f"feature_noise must be small enough for finite float32 "
                             f"features, got {cfg.feature_noise}")
        if not np.isfinite(scores).all():
            raise InputError(f"score_noise must be small enough for finite segment "
                             f"scores, got {cfg.score_noise}")
        files = {"boxes": "boxes.csv", "masks": "masks.txt", "seg_scores": "seg_scores.csv",
                 "ground_truth": "gt.csv", "appearance": "app.feat", "context": "ctx.feat",
                 "regression": "reg.feat"}
        os.makedirs(out_dir, exist_ok=True)
        out = {key: os.path.join(out_dir, name) for key, name in files.items()}
        write_boxes_file(out["boxes"], boxes)
        write_masks_file(out["masks"], (self._rect_mask(image_id, seg_id, rect)
                                        for image_id, seg_id, *_, rect in segments))
        write_seg_scores_file(out["seg_scores"], (
            (image_id, seg_id, c, score) for (image_id, seg_id, *_), row
            in zip(segments, scores.tolist()) for c, score in enumerate(row, 1)))
        write_gt_file(out["ground_truth"], ((img.image_id, class_id, gt, False)
                                            for img in self.images for class_id, gt in img.gts))
        for key, matrix in features.items():
            write_feature_matrix(out[key], matrix)

        class_names = [f"class{c}" for c in range(1, cfg.n_classes + 1)]
        all_images = [(img.image_id, cfg.width, cfg.height) for img in self.images]
        n_train = max(1, round_half_away(cfg.train_fraction * len(all_images)))
        n_train = min(n_train, len(all_images))
        splits = {"manifest.txt": all_images,
                  "manifest_train.txt": all_images[:n_train],
                  "manifest_test.txt": all_images[n_train:] or all_images[-1:]}
        for name, images in splits.items():
            write_manifest(os.path.join(out_dir, name), Manifest(class_names, images, files))
        run_cfg = Config(min_segment_pixels=0, grid_k=2)
        save_config(os.path.join(out_dir, "config.txt"), run_cfg)
        return out_dir


def generate(cfg: SynthConfig, out_dir):
    world = SynthWorld(cfg)
    world.write(out_dir)
    return world
