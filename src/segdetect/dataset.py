"""File formats and the in-memory dataset index.

Text formats are line-oriented for diffability; feature matrices are binary.
Text is read by read_records, which raises InputError with the file and line,
and written by write_records, whose repr(float) floats read back bit for bit.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .boxes import Box
from .errors import InputError
from .masks import SegmentMask, check_runs

FEATURE_MAGIC = b"SDMF"
FEATURE_VERSION = 1


# ---------------------------------------------------------------------------
# feature matrices: binary container for appearance/context/regression rows

def write_feature_matrix(path, matrix):
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise InputError(f"feature matrix must be 2-D, got shape {matrix.shape}")
    with open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(struct.pack("<I", FEATURE_VERSION))
        f.write(struct.pack("<QQ", matrix.shape[0], matrix.shape[1]))
        f.write(matrix.tobytes())


def read_feature_matrix(path):
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as e:
        raise InputError(f"cannot read feature file {path}: {e}") from e
    if len(blob) < 24 or blob[:4] != FEATURE_MAGIC:
        raise InputError(f"{path}:0: not a feature matrix file (bad magic)")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != FEATURE_VERSION:
        raise InputError(f"{path}:0: unsupported feature format version {version}")
    rows, cols = struct.unpack_from("<QQ", blob, 8)
    payload = blob[24:]
    if len(payload) != rows * cols * 4:
        raise InputError(f"{path}:0: payload length {len(payload)} does not match "
                         f"{rows}x{cols} float32 header")
    matrix = np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(np.float64)
    if not np.all(np.isfinite(matrix)):
        raise InputError(f"{path}:0: feature matrix contains NaN/Inf")
    return matrix


# ---------------------------------------------------------------------------
# line-oriented text files

def read_records(path, types, build, sep=","):
    """[build(*fields)] for each non-blank line of a text file.

    types holds one converter per field and fixes the field count; with None
    the raw fields go to build unchecked.  A ValueError or InputError from a
    converter or build is reported as path:lineno.
    """
    records, lineno = [], 0
    try:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                fields = line.split(sep)
                if types is not None:
                    if len(fields) != len(types):
                        raise ValueError(f"expected {len(types)} fields, got {len(fields)}")
                    fields = [convert(tok) for convert, tok in zip(types, fields)]
                records.append(build(*fields))
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {getattr(e, 'strerror', None) or e}") from e
    except (ValueError, InputError) as e:
        raise InputError(f"{path}:{lineno}: {e}") from e
    return records


def write_records(path, rows, sep=","):
    """Write one line per row of fields, streaming rows; inverse of read_records.

    A float (np.float64 too) is written as repr(float(v)), which reads back
    with the same bits; any other field goes through str.
    """
    with open(path, "w") as f:
        f.writelines(sep.join([repr(float(v)) if isinstance(v, float) else str(v)
                               for v in row]) + "\n" for row in rows)


def finite(tok):
    """float() that rejects NaN and infinities."""
    value = float(tok)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {tok}")
    return value


def read_blocks(path, magic, header_keys, block_key, row_keys):
    """Read a magic line, `key value` header lines, then numbered blocks.

    The header holds each of header_keys once, and no other key.  Each block
    opens with `block_key <id>`, an id >= 1 used once, and holds one
    `key v1 v2 ...` row of finite numbers per row_keys entry, in order.
    Returns (header, blocks): key -> value string, id -> list of float rows.
    """
    magic = tuple(magic.split())    # kept as the first header entry
    header, blocks = {}, {}
    rows = None         # rows of the open block; None while in the header

    def parse(key, *values):
        nonlocal rows
        if not header and (key, *values) != magic:
            raise ValueError(f"not a {magic[0]} file")
        if rows is not None and len(rows) < len(row_keys):
            if key != row_keys[len(rows)]:
                raise ValueError(f"expected {row_keys[len(rows)]} row, got {key!r}")
            rows.append(np.array([finite(v) for v in values]))
        elif key == block_key:
            block_id = int(values[0]) if len(values) == 1 else 0
            if block_id < 1 or block_id in blocks:
                raise ValueError(f"{block_key} line needs one new id >= 1, "
                                 f"got {' '.join(values)!r}")
            rows = blocks[block_id] = []
        elif rows is None:
            if header and key not in header_keys or len(values) != 1 or key in header:
                raise ValueError(f"header line {key!r} needs a known key and one value, once")
            header[key] = values[0]
        else:
            raise ValueError(f"expected {block_key} line, got {key!r}")

    read_records(path, None, parse, sep=None)
    if not header or rows is not None and len(rows) < len(row_keys):
        raise InputError(f"{path}: empty, or its last {block_key} block is cut short")
    for key in header_keys:
        if key not in header:
            raise InputError(f"{path}: no {key} header line")
    return header, blocks


def _inside(sizes, image_id, box):
    """Reject a box that leaves its image; sizes maps image_id -> (w, h)."""
    size = sizes.get(image_id)
    if size and not (0 <= box.x1 and 0 <= box.y1
                     and box.x2 <= size[0] - 1 and box.y2 <= size[1] - 1):
        raise ValueError(f"{box} lies outside the {size[0]}x{size[1]} image {image_id}")
    return box


def _once(seen, key, what):
    """Reject a key already in seen; what names the record in the error."""
    if key in seen:
        raise ValueError(f"duplicate {what}")
    seen.add(key)


def valid_class_id(n_classes, class_id, what):
    """Reject a class id outside 1..n_classes when n_classes is known."""
    if n_classes and not 1 <= class_id <= n_classes:
        raise ValueError(f"{what} with invalid class id {class_id}")
    return class_id


def write_boxes_file(path, rows):
    """rows: iterable of (image_id, box_id, Box)."""
    write_records(path, ((image_id, box_id, float(b.x1), float(b.y1), float(b.x2),
                          float(b.y2)) for image_id, box_id, b in rows))


def read_boxes_file(path, sizes):
    """[(image_id, box_id, Box)]; boxes of images in sizes must lie inside them.

    Box ids are unique within an image.
    """
    seen = set()

    def row(image_id, box_id, *xy):
        _once(seen, (image_id, box_id), f"box id {box_id} in image {image_id}")
        return image_id, box_id, _inside(sizes, image_id, Box(*xy))
    return read_records(path, (str, int, finite, finite, finite, finite), row)


def write_masks_file(path, masks):
    write_records(path, ((m.image_id, m.segment_id, m.height, m.width,
                          ",".join(f"{s}:{l}" for s, l in m.runs.tolist()) or "-")
                         for m in masks), sep=" ")


def _runs(text):
    pairs = [tok.split(":") for tok in text.split(",")] if text != "-" else []
    return [(int(start), int(length)) for start, length in pairs]


def read_masks_file(path, sizes, min_pixels):
    """[SegmentMask] of the images in sizes that hold at least min_pixels pixels.

    Every line is checked, but only masks of images in sizes are built.
    Their dims must match sizes and, with min_pixels 0, they need at least
    one pixel: an empty mask has no features.  Segment ids are unique within
    an image.
    """
    seen = set()

    def mask(image_id, segment_id, height, width, runs):
        _once(seen, (image_id, segment_id), f"segment id {segment_id} in image {image_id}")
        size = sizes.get(image_id)
        if size is None:
            check_runs(image_id, segment_id, height, width, runs)
            return None
        if size != (width, height):
            raise ValueError(f"mask dims {height}x{width} differ from image "
                             f"{image_id} dims {size[1]}x{size[0]}")
        if min_pixels <= 0 and not runs:
            raise ValueError(f"segment {segment_id} of {image_id} is empty")
        built = SegmentMask(image_id, segment_id, height, width, runs)
        return built if built.pixel_count >= min_pixels else None
    masks = read_records(path, (str, int, int, int, _runs), mask, sep=None)
    return [m for m in masks if m is not None]


def write_gt_file(path, gts):
    """gts: iterable of (image_id, class_id, Box, difficult)."""
    write_records(path, ((image_id, class_id, float(b.x1), float(b.y1), float(b.x2),
                          float(b.y2), 1 if difficult else 0)
                         for image_id, class_id, b, difficult in gts))


def _difficult(tok):
    if tok not in ("0", "1"):
        raise ValueError(f"difficult flag must be 0 or 1, got {tok}")
    return tok == "1"


def read_gt_file(path, sizes, n_classes):
    """[(image_id, class_id, Box, difficult)]; as read_boxes_file for sizes.

    Class ids must lie in 1..n_classes.
    """
    return read_records(
        path, (str, int, finite, finite, finite, finite, _difficult),
        lambda image_id, class_id, x1, y1, x2, y2, difficult: (
            image_id, valid_class_id(n_classes, class_id, "ground truth"),
            _inside(sizes, image_id, Box(x1, y1, x2, y2)), difficult))


def write_seg_scores_file(path, rows):
    """rows: iterable of (image_id, segment_id, class_id, score)."""
    write_records(path, rows)


def read_seg_scores_file(path, n_classes):
    """[(image_id, segment_id, class_id, score)], one row per key at most.

    Class ids must lie in 1..n_classes.
    """
    seen = set()

    def row(image_id, seg_id, class_id, score):
        valid_class_id(n_classes, class_id, "segment score")
        _once(seen, (image_id, seg_id, class_id),
              f"score for segment {seg_id} of {image_id}, class {class_id}")
        return image_id, seg_id, class_id, score
    return read_records(path, (str, int, int, finite), row)


# ---------------------------------------------------------------------------
# manifest

_MANIFEST_FILES = ("boxes", "masks", "seg_scores", "ground_truth", "appearance",
                   "context", "regression")


@dataclass
class Manifest:
    class_names: list
    images: list          # (image_id, width, height) in file order
    boxes_file: str
    masks_file: str
    seg_scores_file: str
    ground_truth_file: str
    appearance_file: str
    context_file: str
    regression_file: str = ""
    base_dir: str = "."

    def resolve(self, path):
        return path if os.path.isabs(path) else os.path.join(self.base_dir, path)


def write_manifest(path, manifest: Manifest):
    files = ((key, getattr(manifest, f"{key}_file")) for key in _MANIFEST_FILES)
    write_records(path, itertools.chain(
        [("version", 1)], (("class", name) for name in manifest.class_names),
        (("image", *image) for image in manifest.images),
        ((key, name) for key, name in files if name)), sep=" ")


def read_manifest(path):
    classes, images, files = [], [], {}

    def entry(key, *values):
        if key not in ("version", "class", "image", *_MANIFEST_FILES):
            raise ValueError(f"unknown manifest key {key!r}")
        if len(values) != (3 if key == "image" else 1):
            raise ValueError(f"{key} line needs "
                             f"{'id, width, height' if key == 'image' else 'one value'}")
        if key == "version":
            if values[0] != "1":
                raise ValueError(f"unsupported manifest version {values[0]}")
        elif key == "class":
            # a class name also names its PR-curve file
            if values[0] in classes or {"/", os.sep, os.altsep} & set(values[0]):
                raise ValueError(f"class name {values[0]!r} is repeated or holds "
                                 "a path separator")
            classes.append(values[0])
        elif key == "image":
            width, height = int(values[1]), int(values[2])
            if width < 1 or height < 1:
                raise ValueError(f"image {values[0]} needs width and height >= 1")
            images.append((values[0], width, height))
        elif f"{key}_file" in files:
            raise ValueError(f"repeated {key} line")
        else:
            files[f"{key}_file"] = values[0]

    read_records(path, None, entry, sep=None)
    for key in _MANIFEST_FILES[:-1]:    # all but regression are required
        if f"{key}_file" not in files:
            raise InputError(f"{path}: missing {key} entry")
    if not classes:
        raise InputError(f"{path}: no classes declared")
    if not images:
        raise InputError(f"{path}: no images declared")
    return Manifest(class_names=classes, images=images, **files,
                    base_dir=os.path.dirname(os.path.abspath(path)))


# ---------------------------------------------------------------------------
# dataset

@dataclass
class ImageRecord:
    image_id: str
    width: int
    height: int
    box_ids: list = field(default_factory=list)
    boxes: list = field(default_factory=list)
    rows: list = field(default_factory=list)      # global feature row indices
    masks: list = field(default_factory=list)
    gts: list = field(default_factory=list)       # (class_id, Box, difficult)


class Dataset:
    """Everything a detector run needs, loaded and cross-validated in memory.

    Feature matrix rows follow the boxes file's line order over all images,
    so train/test manifests over disjoint image subsets can share files.
    """

    def __init__(self, manifest: Manifest, min_segment_pixels):
        self.class_names = list(manifest.class_names)
        self.n_classes = len(self.class_names)
        self.image_order = [image_id for image_id, _, _ in manifest.images]
        self.images = {image_id: ImageRecord(image_id, w, h)
                       for image_id, w, h in manifest.images}
        if len(self.images) != len(self.image_order):
            raise InputError("duplicate image id in manifest")
        sizes = {image_id: (w, h) for image_id, w, h in manifest.images}
        box_rows = read_boxes_file(manifest.resolve(manifest.boxes_file), sizes)
        for row_idx, (image_id, box_id, box) in enumerate(box_rows):
            rec = self.images.get(image_id)
            if rec is None:
                continue
            rec.box_ids.append(box_id)
            rec.boxes.append(box)
            rec.rows.append(row_idx)
        n_feature_rows = len(box_rows)

        for mask in read_masks_file(manifest.resolve(manifest.masks_file), sizes,
                                    min_segment_pixels):
            self.images[mask.image_id].masks.append(mask)
        for rec in self.images.values():
            rec.masks.sort(key=lambda m: m.segment_id)

        # every line is checked; only this manifest's images are kept
        scores_path = manifest.resolve(manifest.seg_scores_file)
        self.seg_scores = {(image_id, seg_id, class_id): score
                           for image_id, seg_id, class_id, score
                           in read_seg_scores_file(scores_path, self.n_classes)
                           if image_id in self.images}

        for image_id, class_id, box, difficult in read_gt_file(
                manifest.resolve(manifest.ground_truth_file), sizes, self.n_classes):
            if image_id in self.images:
                self.images[image_id].gts.append((class_id, box, difficult))

        self.appearance = read_feature_matrix(manifest.resolve(manifest.appearance_file))
        self.context = read_feature_matrix(manifest.resolve(manifest.context_file))
        self.regression = None
        if manifest.regression_file:
            self.regression = read_feature_matrix(
                manifest.resolve(manifest.regression_file))
        for name, mat in (("appearance", self.appearance), ("context", self.context),
                          ("regression", self.regression)):
            if mat is not None and mat.shape[0] != n_feature_rows:
                raise InputError(
                    f"{name} matrix has {mat.shape[0]} rows, boxes file has "
                    f"{n_feature_rows}")

        for rec in self.images.values():
            for mask in rec.masks:
                for c in range(1, self.n_classes + 1):
                    if (rec.image_id, mask.segment_id, c) not in self.seg_scores:
                        raise InputError(
                            f"{scores_path}: missing score for segment "
                            f"{mask.segment_id} of {rec.image_id}, class {c}")

    @property
    def d_app(self):
        return self.appearance.shape[1]

    @property
    def d_ctx(self):
        return self.context.shape[1]

    def record(self, image_id) -> ImageRecord:
        rec = self.images.get(image_id)
        if rec is None:
            raise InputError(f"unknown image id {image_id}")
        return rec
