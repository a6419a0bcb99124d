"""File formats and the in-memory dataset index.

Text formats are line-oriented for diffability; feature matrices are binary.
Text is read a line at a time by read_records, or a column at a time by
read_table; both raise InputError with the file and line.  It is written by
write_records, whose repr(float) floats read back bit for bit.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .boxes import Box
from .errors import InputError
from .masks import MAX_PIXELS, SegmentMask, check_runs

FEATURE_MAGIC = b"SDMF"
FEATURE_VERSION = 1


# ---------------------------------------------------------------------------
# feature matrices: binary container for appearance/context/regression rows

def write_feature_matrix(path, matrix):
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    if matrix.ndim != 2:
        raise InputError(f"feature matrix must be 2-D, got shape {matrix.shape}")
    if not np.isfinite(matrix).all():      # read_feature_matrix would reject it
        raise InputError(f"{path}: feature matrix holds a value not finite in float32")
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
    if max(rows, cols) >= 2 ** 60:    # numpy refuses it even at 0 bytes: 8 x dim overflows
        raise InputError(f"{path}:0: {rows}x{cols} header: a dimension reaches 2**60")
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

# characters in a block of lines (or one longer line): bounds a table reader's memory
BLOCK_CHARS = 2 ** 16


def _line_blocks(path):
    """(line numbers, lines) of a text file, about BLOCK_CHARS characters at a
    time: the one line source of every text reader.  Lines are split at "\\n"
    with universal newlines, stripped, and blank ones skipped.  Bytes that do
    not decode raise after the lines before them, as iterating the file does.
    """
    lineno = 0
    try:
        with open(path) as f:
            while chunk := f.readlines(BLOCK_CHARS):
                yield _numbered(lineno, chunk)
                lineno += len(chunk)
    except UnicodeDecodeError as e:    # readlines dropped its block's lines before the bytes
        rest = []
        with contextlib.suppress(UnicodeDecodeError), open(path) as f:
            rest.extend(itertools.islice(f, lineno, None))
        yield _numbered(lineno, rest)
        raise InputError(f"cannot read {path}: {e}") from e
    except OSError as e:
        raise InputError(f"cannot read {path}: {e.strerror or e}") from e


def _numbered(lineno, chunk):
    stripped = list(map(str.strip, chunk))
    return (list(itertools.compress(range(lineno + 1, lineno + 1 + len(chunk)), stripped)),
            list(filter(None, stripped)))


def read_records(path, build, sep=None):
    """[build(*fields)] for each line; a ValueError or InputError from build
    is reported as path:lineno."""
    records = []
    for numbers, lines in _line_blocks(path):
        for lineno, line in zip(numbers, lines):
            try:
                records.append(build(*line.split(sep)))
            except (ValueError, InputError) as e:
                raise InputError(f"{path}:{lineno}: {e}") from e
    return records


def read_table(path, types, rows, sep=","):
    """rows(*columns) of each block of a text file's lines, concatenated.

    A line holds one field per entry of types; a block's fields go through
    their types a column at a time, and a float column becomes an array of
    finite values.  rows raises ValueError or InputError for a bad block,
    which is then read again a line at a time, so the error raised, as
    path:lineno, is the first bad line's.  So rows checks a line as a
    per-line reader would, in its order, and changes its state only on a
    block that passes.
    """
    out = []
    for numbers, lines in _line_blocks(path):
        try:
            out += rows(*_columns(lines, types, sep)) if lines else []
        except (ValueError, InputError):
            for lineno, line in zip(numbers, lines):
                try:
                    out += rows(*_columns([line], types, sep))
                except (ValueError, InputError) as e:
                    raise InputError(f"{path}:{lineno}: {e}") from e
    return out


def _columns(lines, types, sep):
    k = len(types)
    counts = (set(map(len, map(str.split, lines))) if sep is None
              else {n + 1 for n in set(map(str.count, lines, itertools.repeat(sep)))})
    if counts != {k}:
        raise ValueError(f"expected {k} fields, got {max(counts - {k})}")
    flat = (sep or " ").join(lines).split(sep)
    columns = []
    for j, convert in enumerate(types):
        col = flat[j::k]
        columns.append(col if convert is str else list(map(convert, col)))
        if convert is float:
            columns[-1] = np.array(columns[-1])
            check(~np.isfinite(columns[-1]), lambda i: f"non-finite value {col[i]}")
    return columns


def check(bad, message):
    """Raise ValueError(message(i)) for the first row i where bad holds."""
    if np.any(bad):
        raise ValueError(message(int(np.argmax(bad))))


def _unique(seen, keys, message):
    """`check` that no key is in seen or repeats; seen is not changed."""
    if len(set(keys)) < len(keys) or not seen.isdisjoint(keys):
        seen = set(seen)
        check([key in seen or seen.add(key) or False for key in keys], message)


def class_ids(classes, n_classes, what):
    """`check` that class ids lie in 1..n_classes, when n_classes is known."""
    if n_classes and not 1 <= min(classes) <= max(classes) <= n_classes:
        check([not 1 <= c <= n_classes for c in classes],
              lambda i: f"{what} with invalid class id {classes[i]}")


def box_rows(images, corners, sizes):
    """Whether each row's image is in sizes, after a `check` that corners
    (x1, y1, x2, y2) make a Box, then that the box lies inside its image."""
    x1, y1, x2, y2 = corners

    def box(i):
        return Box(*(float(v[i]) for v in corners))
    check((x1 > x2) | (y1 > y2), box)
    w, h = np.array([sizes.get(image_id, (0, 0)) for image_id in images],
                    dtype=np.int64).reshape(-1, 2).T
    check((w > 0) & ((x1 < 0) | (y1 < 0) | (x2 > w - 1) | (y2 > h - 1)),
          lambda i: f"{box(i)} lies outside the {w[i]}x{h[i]} image {images[i]}")
    return w > 0


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

    read_records(path, parse)
    if not header or rows is not None and len(rows) < len(row_keys):
        raise InputError(f"{path}: empty, or its last {block_key} block is cut short")
    for key in header_keys:
        if key not in header:
            raise InputError(f"{path}: no {key} header line")
    return header, blocks


def write_boxes_file(path, rows):
    """rows: iterable of (image_id, box_id, Box)."""
    write_records(path, ((image_id, box_id, float(b.x1), float(b.y1), float(b.x2),
                          float(b.y2)) for image_id, box_id, b in rows))


def read_boxes_file(path, sizes):
    """[(image_id, box_id, Box)] per line, None on a line of an image not in sizes.

    Every line is checked: box ids are unique within an image, and the boxes
    of images in sizes lie inside them.
    """
    seen = set()

    def rows(images, ids, *corners):
        keys = list(zip(images, ids))
        _unique(seen, keys, lambda i: f"duplicate box id {ids[i]} in image {images[i]}")
        known = box_rows(images, corners, sizes)
        seen.update(keys)
        return [(image_id, box_id, Box(*xy)) if k else None for image_id, box_id, k, *xy
                in zip(images, ids, known.tolist(), *(v.tolist() for v in corners))]
    return read_table(path, (str, int, float, float, float, float), rows)


def write_masks_file(path, masks):
    write_records(path, ((m.image_id, m.segment_id, m.height, m.width,
                          ",".join(f"{s}:{l}" for s, l in m.runs.tolist()) or "-")
                         for m in masks), sep=" ")


def _runs(text):
    pairs = [tok.split(":") for tok in text.split(",")] if text != "-" else []
    return [(int(start), int(length)) for start, length in pairs]


def _run_values(texts):
    """The flat start, length ints of texts' runs, and each text's run count;
    raises _runs' error for a text it rejects."""
    joined = ",".join([text for text in texts if text != "-"])
    seps = np.frombuffer(joined.encode(), np.uint8)
    seps = seps[(seps == ord(",")) | (seps == ord(":"))]
    # _runs takes a text whose separators alternate ":", ",", ... ":"
    if joined and (len(seps) % 2 == 0 or (seps[::2] != ord(":")).any()
                   or (seps[1::2] != ord(",")).any()):
        list(map(_runs, texts))
    return (list(map(int, joined.replace(":", ",").split(","))) if joined else [],
            [0 if text == "-" else text.count(",") + 1 for text in texts])


def read_masks_file(path, sizes, min_pixels):
    """[SegmentMask] of the images in sizes that hold at least min_pixels pixels.

    Every line is checked, but only masks of images in sizes are built.
    Their dims must match sizes and, with min_pixels 0, they need at least
    one pixel: an empty mask has no features.  Segment ids are unique within
    an image.
    """
    seen = set()

    def rows(images, segs, heights, widths, texts):
        values, counts = _run_values(texts)
        keys = list(zip(images, segs))
        _unique(seen, keys, lambda i: f"duplicate segment id {segs[i]} in image {images[i]}")
        shapes = [sizes.get(image_id) for image_id in images]
        check([size not in (None, (w, h)) for size, h, w in zip(shapes, heights, widths)],
              lambda i: f"mask dims {heights[i]}x{widths[i]} differ from image "
                        f"{images[i]} dims {shapes[i][1]}x{shapes[i][0]}")
        if min_pixels <= 0:
            check([size is not None and not count for size, count in zip(shapes, counts)],
                  lambda i: f"segment {segs[i]} of {images[i]} is empty")
        runs, pixels = check_runs(values, counts, heights, widths, keys)
        offsets = [0, *itertools.accumulate(counts)]
        seen.update(keys)
        return [SegmentMask(image_id, seg, h, w, runs[lo:hi], count)
                for image_id, seg, h, w, size, lo, hi, count
                in zip(images, segs, heights, widths, shapes, offsets, offsets[1:], pixels)
                if size and count >= min_pixels]
    return read_table(path, (str, int, int, int, str), rows, sep=None)


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
    """[(image_id, class_id, Box, difficult)] of the images in sizes.

    Every line is checked: class ids lie in 1..n_classes, and boxes are
    checked as read_boxes_file checks them.
    """
    def rows(images, classes, *fields):
        *corners, difficult = fields
        class_ids(classes, n_classes, "ground truth")
        known = box_rows(images, corners, sizes)
        return [(image_id, class_id, Box(*xy), flag) for image_id, class_id, flag, k, *xy
                in zip(images, classes, difficult, known.tolist(),
                       *(v.tolist() for v in corners)) if k]
    return read_table(path, (str, int, float, float, float, float, _difficult), rows)


def read_seg_scores_file(path, sizes, n_classes):
    """{(image_id, segment_id, class_id): score} of the images in sizes.

    Every line is checked: class ids lie in 1..n_classes, and each key is on
    one line at most.  Dataset copies each kept mask's scores to its record.
    """
    seen = set()

    def rows(images, segs, classes, values):
        class_ids(classes, n_classes, "segment score")
        keys = list(zip(images, segs, classes))
        _unique(seen, keys, lambda i: f"duplicate score for segment {segs[i]} of "
                                      f"{images[i]}, class {classes[i]}")
        seen.update(keys)
        return [(key, score) for key, score in zip(keys, values.tolist()) if key[0] in sizes]
    return dict(read_table(path, (str, int, int, float), rows))


# ---------------------------------------------------------------------------
# manifest

_MANIFEST_FILES = ("boxes", "masks", "seg_scores", "ground_truth", "appearance",
                   "context", "regression")


@dataclass
class Manifest:
    class_names: list
    images: list          # (image_id, width, height) in file order
    files: dict           # _MANIFEST_FILES key -> path; all but regression required
    base_dir: str = "."

    def path(self, key):
        """The file of a key; os.path.join keeps an absolute path as it is."""
        return os.path.join(self.base_dir, self.files[key])


def write_manifest(path, manifest: Manifest):
    write_records(path, itertools.chain(
        [("version", 1)], (("class", name) for name in manifest.class_names),
        (("image", *image) for image in manifest.images),
        ((key, manifest.files[key]) for key in _MANIFEST_FILES if key in manifest.files)),
        sep=" ")


def read_manifest(path):
    classes, images, files, image_ids = [], [], {}, set()

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
            if values[0] in image_ids:
                raise ValueError(f"duplicate image id {values[0]}")
            image_ids.add(values[0])
            width, height = int(values[1]), int(values[2])
            if width < 1 or height < 1 or width * height >= MAX_PIXELS:
                raise ValueError(f"image {values[0]} needs width and height >= 1, "
                                 "and width * height below 2**31")
            images.append((values[0], width, height))
        elif key in files:
            raise ValueError(f"repeated {key} line")
        else:
            files[key] = values[0]

    read_records(path, entry)
    for key in _MANIFEST_FILES[:-1]:    # all but regression are required
        if key not in files:
            raise InputError(f"{path}: missing {key} entry")
    if not classes:
        raise InputError(f"{path}: no classes declared")
    if not images:
        raise InputError(f"{path}: no images declared")
    return Manifest(class_names=classes, images=images, files=files,
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
    seg_scores: np.ndarray = None   # (len(masks), C) raw scores; column c - 1 is class c


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
        sizes = {image_id: (w, h) for image_id, w, h in manifest.images}
        box_rows = read_boxes_file(manifest.path("boxes"), sizes)
        for row_idx, row in enumerate(box_rows):
            if row:
                rec = self.images[row[0]]
                rec.box_ids.append(row[1])
                rec.boxes.append(row[2])
                rec.rows.append(row_idx)
        n_feature_rows = len(box_rows)

        for mask in read_masks_file(manifest.path("masks"), sizes, min_segment_pixels):
            self.images[mask.image_id].masks.append(mask)    # sorted by id below

        # every line is checked; only this manifest's images are kept
        scores_path = manifest.path("seg_scores")
        scores = read_seg_scores_file(scores_path, sizes, self.n_classes)

        for image_id, class_id, box, difficult in read_gt_file(
                manifest.path("ground_truth"), sizes, self.n_classes):
            self.images[image_id].gts.append((class_id, box, difficult))

        # self.appearance, self.context and self.regression (None when undeclared)
        for name in ("appearance", "context", "regression"):
            mat = read_feature_matrix(manifest.path(name)) if name in manifest.files else None
            if mat is not None and mat.shape[0] != n_feature_rows:
                raise InputError(f"{manifest.path(name)}: {name} matrix has {mat.shape[0]} "
                                 f"rows, boxes file {manifest.path('boxes')} has "
                                 f"{n_feature_rows}")
            setattr(self, name, mat)

        try:    # in image, mask id, class order: a gap names the first missing key
            for rec in self.images.values():
                rec.masks.sort(key=lambda m: m.segment_id)
                rec.seg_scores = np.reshape(
                    [scores[rec.image_id, m.segment_id, c] for m in rec.masks
                     for c in range(1, self.n_classes + 1)], (-1, self.n_classes))
        except KeyError as e:
            image_id, segment_id, c = e.args[0]
            raise InputError(f"{scores_path}: missing score for segment {segment_id} "
                             f"of {image_id}, class {c}") from None

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
