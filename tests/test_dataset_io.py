import ast
import hashlib
import shutil
import struct
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import segdetect
from segdetect import dataset
from segdetect.boxes import Box
from segdetect.config import Config, load_config, save_config
from segdetect.dataset import (Dataset, Manifest, finite, read_boxes_file,
                               read_feature_matrix, read_gt_file,
                               read_manifest, read_masks_file, read_records,
                               read_seg_scores_file, write_boxes_file,
                               write_feature_matrix, write_gt_file,
                               write_manifest, write_masks_file,
                               write_records)
from segdetect.errors import InputError
from segdetect.masks import SegmentMask


def test_feature_matrix_roundtrip(tmp_path, rng):
    mat = rng.normal(0, 1, (7, 5)).astype(np.float32)
    path = tmp_path / "m.feat"
    write_feature_matrix(path, mat)
    back = read_feature_matrix(path)
    np.testing.assert_array_equal(back, mat.astype(np.float64))


def test_feature_matrix_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.feat"
    path.write_bytes(b"XXXX" + b"\x00" * 40)
    with pytest.raises(InputError, match="magic"):
        read_feature_matrix(path)


def test_feature_matrix_rejects_truncated(tmp_path, rng):
    path = tmp_path / "trunc.feat"
    write_feature_matrix(path, rng.normal(0, 1, (4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(InputError, match="payload"):
        read_feature_matrix(path)


def test_feature_matrix_rejects_nan(tmp_path):
    """The writer refuses what the reader rejects; the reader checks a file written by hand."""
    path = tmp_path / "nan.feat"
    for bad in (np.nan, np.inf):
        mat = np.zeros((2, 2), dtype=np.float32)
        mat[0, 1] = bad
        with pytest.raises(InputError, match="not finite in float32"):
            write_feature_matrix(path, mat)
        assert not path.exists()
    write_feature_matrix(path, np.zeros((2, 2)))
    blob = bytearray(path.read_bytes())
    blob[24:28] = np.float32(np.nan).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(InputError, match="NaN"):
        read_feature_matrix(path)


def test_boxes_roundtrip(tmp_path):
    rows = [("img0", 0, Box(0.0, 1.5, 9.25, 9.0)), ("img1", 3, Box(2, 2, 4, 4))]
    path = tmp_path / "boxes.csv"
    write_boxes_file(path, rows)
    assert read_boxes_file(path, {"img0": (11, 10), "img1": (5, 5)}) == rows
    # an int Box is written with float coordinates
    assert path.read_text() == "img0,0,0.0,1.5,9.25,9.0\nimg1,3,2.0,2.0,4.0,4.0\n"


@pytest.mark.parametrize("line,err", [
    ("img,0,1,2,3", "expected 6"),
    ("img,0,1,2,3,4,5", "expected 6"),
    ("img,x,1,2,3,4", "invalid literal"),
    ("img,0,9,9,1,1", "x2"),
])
def test_boxes_bad_line_positioned(tmp_path, line, err):
    path = tmp_path / "boxes.csv"
    path.write_text("ok,0,0.0,0.0,5.0,5.0\n" + line + "\n")
    with pytest.raises(InputError, match=r":2:"):
        read_boxes_file(path, {"ok": (6, 6)})


def test_masks_roundtrip(tmp_path, rng):
    masks = []
    for s in range(4):
        arr = rng.random((10, 12)) < 0.4
        masks.append(SegmentMask.from_array(arr, f"img{s % 2}", s))
    masks.append(SegmentMask("img9", 8, 6, 6, []))   # empty mask -> "-"
    path = tmp_path / "masks.txt"
    write_masks_file(path, masks)
    assert path.read_text().endswith("\nimg9 8 6 6 -\n")
    back = read_masks_file(path, {"img0": (12, 10), "img1": (12, 10), "img9": (6, 6)}, 1)
    assert len(back) == len(masks) - 1      # the empty mask holds under 1 pixel
    for a, b in zip(back, masks):
        assert (a.image_id, a.segment_id, a.height, a.width, a.runs.tolist()) == \
            (b.image_id, b.segment_id, b.height, b.width, b.runs.tolist())


def test_masks_bad_rle_positioned(tmp_path):
    path = tmp_path / "masks.txt"
    path.write_text("img 0 4 4 0:4\nimg 1 4 4 3:5,0:2\n")
    with pytest.raises(InputError, match=r":2:"):
        read_masks_file(path, {"img": (4, 4)}, 0)


def test_masks_too_large_for_int32_counts_positioned(tmp_path):
    path = tmp_path / "masks.txt"
    path.write_text("img 0 4 4 0:4\nimg 1 65536 32768 -\n")     # 2**31 pixels
    with pytest.raises(InputError, match=r"masks\.txt:2: .*65536x32768"):
        read_masks_file(path, {}, 0)


@pytest.mark.parametrize("lines,min_pixels,expect", [
    (["a 0 4 4 0:4", "a 1 4 4 -"], 0, ":2: segment 1 of a is empty"),
    (["a 0 4 4 0:4", "a 1 4 4 -"], 1, [0]),
    (["a 0 4 4 0:4", "b 0 4 4 -", "b 1 4 4 3:5,0:2"], 1, ":3: bad run"),
    (["a 0 4 4 0:4", "a 1 4 4 0:3", "a 2 4 4 2:5", "b 0 4 4 -"], 4, [0, 2]),
], ids=["empty-fails-at-min-0", "empty-dropped-at-min-1", "bad-run-outside-sizes",
        "under-min-dropped"])
def test_masks_keep_rule(tmp_path, lines, min_pixels, expect):
    """Every line is checked; only image a's masks of min_pixels or more come back.

    With min_pixels 0 an empty mask of image a is an error; image b is not in
    sizes, so its empty mask is fine but its bad run is not.
    """
    path = tmp_path / "masks.txt"
    path.write_text("\n".join(lines) + "\n")
    if isinstance(expect, str):
        with pytest.raises(InputError, match=r"masks\.txt" + expect):
            read_masks_file(path, {"a": (4, 4)}, min_pixels)
    else:
        kept = read_masks_file(path, {"a": (4, 4)}, min_pixels)
        assert [m.segment_id for m in kept] == expect


def test_gt_roundtrip(tmp_path):
    gts = [("a", 1, Box(0, 0, 9, 9), False), ("b", 2, Box(1, 1, 5, 5), True)]
    path = tmp_path / "gt.csv"
    write_gt_file(path, gts)
    assert read_gt_file(path, {"a": (10, 10), "b": (6, 6)}, 2) == gts
    assert path.read_text() == "a,1,0.0,0.0,9.0,9.0,0\nb,2,1.0,1.0,5.0,5.0,1\n"


def test_gt_rejects_bad_difficult_flag(tmp_path):
    path = tmp_path / "gt.csv"
    path.write_text("a,1,0.0,0.0,9.0,9.0,2\n")
    with pytest.raises(InputError, match="difficult"):
        read_gt_file(path, {"a": (10, 10)}, 1)


def test_seg_scores_roundtrip(tmp_path):
    rows = [("a", 0, 1, -2.5), ("a", 0, 2, 0.125), ("b", 3, 1, 100.0)]
    path = tmp_path / "scores.csv"
    write_records(path, rows)
    sizes = {"a": (4, 4), "b": (4, 4)}
    assert read_seg_scores_file(path, sizes, 2) == {row[:3]: row[3] for row in rows}
    # every line is checked, but only the scores of images in sizes are kept
    assert read_seg_scores_file(path, {"b": (4, 4)}, 2) == {("b", 3, 1): 100.0}


def test_seg_scores_reject_inf(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("a,0,1,inf\n")
    with pytest.raises(InputError, match="non-finite"):
        read_seg_scores_file(path, {}, 1)


def test_manifest_roundtrip(tmp_path):
    m = Manifest(class_names=["cat", "dog"], images=[("a", 64, 48), ("b", 32, 32)],
                 files={"boxes": "boxes.csv", "masks": "masks.txt",
                        "seg_scores": "scores.csv", "ground_truth": "gt.csv",
                        "appearance": "app.feat", "context": "ctx.feat",
                        "regression": "reg.feat"})
    path = tmp_path / "manifest.txt"
    write_manifest(path, m)
    back = read_manifest(path)
    assert back.class_names == m.class_names
    assert back.images == m.images
    assert back.files == m.files
    assert back.base_dir == str(tmp_path)


def test_manifest_unknown_key(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("version 1\nclass cat\nimage a 4 4\nbogus x\n")
    with pytest.raises(InputError, match=r":4:.*bogus"):
        read_manifest(path)


def test_manifest_missing_required_entry(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("version 1\nclass cat\nimage a 4 4\nboxes b.csv\n")
    with pytest.raises(InputError, match="missing masks"):
        read_manifest(path)


def _write_tiny_dataset(tmp_path, n_boxes=2, drop_score=False):
    arr = np.zeros((8, 8), dtype=bool)
    arr[1:5, 1:5] = True
    mask = SegmentMask.from_array(arr, "a", 0)
    write_boxes_file(tmp_path / "boxes.csv",
                     [("a", i, Box(0, 0, 5, 5)) for i in range(n_boxes)])
    write_masks_file(tmp_path / "masks.txt", [mask])
    scores = [("a", 0, 1, 0.5)]
    if not drop_score:
        scores.append(("a", 0, 2, -0.5))
    write_records(tmp_path / "scores.csv", scores)
    write_gt_file(tmp_path / "gt.csv", [("a", 1, Box(0, 0, 5, 5), False)])
    write_feature_matrix(tmp_path / "app.feat", np.ones((n_boxes, 3)))
    write_feature_matrix(tmp_path / "ctx.feat", np.ones((n_boxes, 2)))
    m = Manifest(class_names=["cat", "dog"], images=[("a", 8, 8)],
                 files={"boxes": "boxes.csv", "masks": "masks.txt",
                        "seg_scores": "scores.csv", "ground_truth": "gt.csv",
                        "appearance": "app.feat", "context": "ctx.feat"},
                 base_dir=str(tmp_path))
    write_manifest(tmp_path / "manifest.txt", m)
    return read_manifest(tmp_path / "manifest.txt")


def test_dataset_loads_and_indexes(tmp_path):
    ds = Dataset(_write_tiny_dataset(tmp_path), min_segment_pixels=0)
    rec = ds.record("a")
    assert rec.box_ids == [0, 1]
    assert rec.rows == [0, 1]
    assert len(rec.masks) == 1
    assert ds.d_app == 3 and ds.d_ctx == 2


def test_manifest_entries_may_be_absolute_paths(tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "elsewhere").mkdir()
    relative = _write_tiny_dataset(tmp_path / "data")
    write_manifest(tmp_path / "elsewhere" / "manifest.txt", Manifest(
        relative.class_names, relative.images,
        {key: str(tmp_path / "data" / name) for key, name in relative.files.items()}))
    absolute = read_manifest(tmp_path / "elsewhere" / "manifest.txt")
    assert absolute.path("boxes") == str(tmp_path / "data" / "boxes.csv")
    assert (_dataset_digest(Dataset(absolute, min_segment_pixels=0))
            == _dataset_digest(Dataset(relative, min_segment_pixels=0)))


def test_dataset_filters_small_segments(tmp_path):
    ds = Dataset(_write_tiny_dataset(tmp_path), min_segment_pixels=100)
    assert ds.record("a").masks == []


def test_dataset_feature_row_count_mismatch(tmp_path):
    manifest = _write_tiny_dataset(tmp_path)
    write_feature_matrix(tmp_path / "app.feat", np.ones((5, 3)))
    with pytest.raises(InputError, match="appearance"):
        Dataset(manifest, min_segment_pixels=0)


def test_dataset_missing_class_score(tmp_path):
    manifest = _write_tiny_dataset(tmp_path, drop_score=True)
    with pytest.raises(InputError, match="missing score"):
        Dataset(manifest, min_segment_pixels=0)


def test_records_hold_the_scores_of_their_kept_masks_in_id_order(tmp_path):
    from segdetect.synth import SynthConfig, generate
    generate(SynthConfig(seed=4, n_images=6), str(tmp_path))
    manifest = read_manifest(tmp_path / "manifest.txt")
    sizes = {image_id: (w, h) for image_id, w, h in manifest.images}
    pixels = sorted(m.pixel_count for m in read_masks_file(tmp_path / "masks.txt", sizes, 0))
    threshold = pixels[len(pixels) // 2]
    assert pixels[0] < threshold < pixels[-1]
    scores = read_seg_scores_file(tmp_path / "seg_scores.csv", sizes, 3)
    ds = Dataset(manifest, min_segment_pixels=threshold)
    kept = 0
    for image_id in ds.image_order:
        rec = ds.record(image_id)
        ids = [m.segment_id for m in rec.masks]
        assert ids == sorted(ids) and all(m.pixel_count >= threshold for m in rec.masks)
        assert rec.seg_scores.dtype == np.float64 and rec.seg_scores.shape == (len(ids), 3)
        assert rec.seg_scores.tolist() == [[scores[image_id, s, c] for c in (1, 2, 3)]
                                           for s in ids]
        kept += len(ids)
    assert 0 < kept < len(pixels)


def test_an_image_with_no_kept_masks_has_an_empty_score_array(tmp_path):
    from segdetect.model import image_bundle
    ds = Dataset(_write_tiny_dataset(tmp_path), min_segment_pixels=100)
    assert ds.record("a").seg_scores.shape == (0, 2)
    assert image_bundle(ds, "a").sigmoid_scores.shape == (0, 2)


def test_missing_scores_name_the_first_key_in_image_mask_class_order(tmp_path):
    """Two images each lose a score line, and the file is reversed; the error
    names the earlier image's key, as a scan in image, mask id, class order does."""
    from segdetect.synth import SynthConfig, generate
    generate(SynthConfig(seed=2, n_images=4), str(tmp_path))
    path = tmp_path / "seg_scores.csv"
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith(("img0003,0,1,", "img0001,2,3,"))]
    path.write_text("\n".join(reversed(lines)) + "\n")
    with pytest.raises(InputError) as raised:
        Dataset(read_manifest(tmp_path / "manifest.txt"), min_segment_pixels=0)
    assert str(raised.value) == f"{path}: missing score for segment 2 of img0001, class 3"


def test_dataset_unknown_image(tmp_path):
    ds = Dataset(_write_tiny_dataset(tmp_path), min_segment_pixels=0)
    with pytest.raises(InputError, match="unknown image"):
        ds.record("zzz")


@pytest.fixture(scope="module")
def small_many(tmp_path_factory):
    """The 1000-image world of `segdetect synth --images 1000`, seed 0."""
    from segdetect.synth import SynthConfig, generate
    root = tmp_path_factory.mktemp("small_many")
    generate(SynthConfig(seed=0, n_images=1000), str(root))
    return root


def _dataset_digest(dataset):
    h = hashlib.sha256()
    scores = []     # ((image, segment, class), score) as the file keys them
    for image_id in dataset.image_order:
        rec = dataset.record(image_id)
        h.update(repr((image_id, rec.box_ids, rec.rows, rec.boxes, rec.gts,
                       [(m.segment_id, m.height, m.width, m.pixel_count, m.runs.dtype.str,
                         m.runs.tolist()) for m in rec.masks])).encode())
        scores += [((image_id, m.segment_id, c), score.hex())
                   for m, row in zip(rec.masks, rec.seg_scores.tolist())
                   for c, score in enumerate(row, 1)]
    h.update(repr(sorted(scores)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("manifest,digest", [
    ("manifest_train.txt", "39e7c5b230796b1b6001714b9c5b8884276a331686e1b35a745415a6a93210fb"),
    ("manifest_test.txt", "af367d832c37159c380b6a22129a4d1cb59eb0af2115d5daf242bacf17d17f6d")],
    ids=["train", "test"])
def test_dataset_fields_equal_the_per_line_readers(small_many, manifest, digest):
    """Boxes, feature rows, masks, segment scores and ground truth, as the
    per-line readers that the column readers replaced loaded them."""
    dataset = Dataset(read_manifest(small_many / manifest), min_segment_pixels=0)
    assert _dataset_digest(dataset) == digest


@pytest.fixture(scope="module")
def tiny_world(tmp_path_factory):
    """A noisy 4-image synth world whose text files each fit in one block."""
    from segdetect.synth import SynthConfig, generate
    root = tmp_path_factory.mktemp("tiny_world")
    generate(SynthConfig(seed=3, n_images=4, boxes_per_image=3, segments_per_image=3,
                         box_jitter=0.1, seg_noise=0.2, score_noise=0.5), str(root))
    assert all(path.stat().st_size < dataset.BLOCK_CHARS for path in root.glob("*.*"))
    return root


def _digest_or_error(manifest):
    try:
        return _dataset_digest(Dataset(read_manifest(manifest), min_segment_pixels=0))
    except InputError as e:
        return str(e)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(name=st.sampled_from(["boxes.csv", "masks.txt", "seg_scores.csv", "gt.csv"]),
       manifest=st.sampled_from(["manifest.txt", "manifest_test.txt"]),
       line=st.integers(0, 999), column=st.integers(0, 9),
       edit=st.sampled_from(["replace", "drop", "add", "duplicate"]),
       token=st.sampled_from(["", "nan", "1e400", "+5", "1_0", "\u0663", "-1", "0",
                              "inf", "1.5", "x", "img0001", "2:3"]))
def test_block_reader_loads_what_the_per_line_reader_loads(tiny_world, name, manifest,
                                                           line, column, edit, token):
    """One corrupted line gives the same Dataset fields, or the same file:line
    error, whether read_table takes the file as one block or, with
    BLOCK_CHARS 1, a line per block as the per-line reader did."""
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(tiny_world, tmp, dirs_exist_ok=True)
        path = Path(tmp) / name
        lines = path.read_text().splitlines()
        sep = " " if name == "masks.txt" else ","
        i = line % len(lines)
        fields = lines[i].split(sep)
        j = column % len(fields)
        if edit == "replace":
            fields[j] = token
        elif edit == "drop":
            del fields[j]
        elif edit == "add":
            fields.insert(j, token)
        lines[i:i + 1] = [sep.join(fields)] * (2 if edit == "duplicate" else 1)
        path.write_text("\n".join(lines) + "\n")
        one_block = _digest_or_error(Path(tmp) / manifest)
        with mock.patch.object(dataset, "BLOCK_CHARS", 1):
            per_line = _digest_or_error(Path(tmp) / manifest)
    assert one_block == per_line


def test_dataset_load_peak_memory_is_bounded(small_many):
    """At most 1 MB above the 10.0 MB that the per-line readers peaked at
    while loading the train manifest (Python 3.11, numpy 2.4)."""
    import tracemalloc
    Dataset(read_manifest(small_many / "manifest_test.txt"), min_segment_pixels=0)
    tracemalloc.start()
    try:
        Dataset(read_manifest(small_many / "manifest_train.txt"), min_segment_pixels=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10.0e6 + 2 ** 20, peak / 1e6


def test_config_roundtrip(tmp_path):
    cfg = Config(grid_k=2, eta0=0.05, epochs=7, eleven_point=True)
    path = tmp_path / "config.txt"
    save_config(path, cfg)
    assert load_config(path) == cfg


def test_config_unknown_key(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("grid_k 3\nwat 1\n")
    with pytest.raises(InputError, match="wat"):
        load_config(path)


# -0.0, the smallest subnormal and the largest finite double
EDGE_FLOATS = [-0.0, 5e-324, 1.7976931348623157e308]


def _bits(value):
    return struct.pack("<d", value)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6),
       sep=st.sampled_from([",", " "]))
def test_write_records_round_trips_float_bits(tmp_path_factory, values, sep):
    """Python and numpy floats both read back through finite with the same bits."""
    values = values + EDGE_FLOATS
    path = tmp_path_factory.mktemp("records") / "floats.txt"
    write_records(path, ((v, np.float64(v)) for v in values), sep=sep)
    assert "np.float64(" not in path.read_text()
    back = read_records(path, lambda a, b: (_bits(finite(a)), _bits(finite(b))), sep=sep)
    assert back == [(_bits(v), _bits(v)) for v in values]


def test_write_records_writes_other_fields_with_str(tmp_path):
    path = tmp_path / "rows.txt"
    write_records(path, iter([("img 0", 3, np.int64(4), True, 2.0), ("-",)]), sep=";")
    assert path.read_text() == "img 0;3;4;True;2.0\n-\n"


def _writing_opens(path):
    """(enclosing function, mode) of each call in a module that opens a file to write."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                name = getattr(child.func, "id", getattr(child.func, "attr", None))
                if name in ("write_text", "write_bytes"):
                    found.append((func, "w" if name == "write_text" else "wb"))
                elif name in ("open", "fdopen"):
                    mode = child.args[1] if len(child.args) > 1 else next(
                        (kw.value for kw in child.keywords if kw.arg == "mode"), None)
                    mode = "r" if mode is None else getattr(mode, "value", "?")
                    if not isinstance(mode, str) or set(mode) & set("wax+?"):
                        found.append((func, mode))
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_every_text_file_is_written_by_write_records():
    """One text writer: no module opens a file to write except these two."""
    src = Path(segdetect.__file__).parent
    writes = sorted((path.stem, func, mode) for path in src.glob("*.py")
                    for func, mode in _writing_opens(path))
    assert writes == [("dataset", "write_feature_matrix", "wb"),
                      ("dataset", "write_records", "w")]


def _unused_imports(path):
    """Names a module imports but never reads; `__future__` and `__all__` are exempt."""
    imported, read, exported = set(), set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - read - exported)


def test_no_module_imports_a_name_it_never_uses():
    src = Path(segdetect.__file__).parent
    unused = {path.name: names for path in sorted(src.glob("*.py"))
              if (names := _unused_imports(path))}
    assert unused == {}


def test_unused_import_guard_sees_what_a_module_leaves_unread(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\nimport os.path\n"
                    "import numpy as np\nfrom .a import b, c as d, e\n"
                    "__all__ = ['e']\n\ndef f():\n    import json\n"
                    "    return np.zeros(d)\n")
    assert _unused_imports(path) == ["b", "json", "os"]


# the lines src/segdetect/*.py may hold; a change that must grow src/ raises
# this number and says why in CHANGES.md
SRC_LINE_CAP = 2616


def test_src_stays_within_its_line_cap():
    src = Path(segdetect.__file__).parent
    lines = {path.name: path.read_text().count("\n") for path in src.glob("*.py")}
    assert sum(lines.values()) <= SRC_LINE_CAP, sorted(lines.items())


# definitions no src/ code reads, each kept for a reason outside src/
UNREAD_BY_SRC = {
    "SegmentMask.from_array": "acceptance tests 01-03 build masks from pixel arrays",
    "ModelWeights.seg_block": "acceptance tests 01-03 read one class's segment weights",
    "FeatureBundle.largest_area": "acceptance test 03 passes it to assemble_block",
    "grid_cells": "acceptance tests 01-03 check the grid layout against it",
    "seggrid_in": "acceptance tests 01-03 use it as the per-pixel feature oracle",
    "seg_out": "acceptance tests 01-03 use it as the per-pixel feature oracle",
    "backgrid_in": "acceptance tests 01-03 use it as the per-pixel feature oracle",
    "back_out": "acceptance tests 01-03 use it as the per-pixel feature oracle",
    "select_segment": "benchmark/layertrace.py COUNTED wraps it; the tests use it "
                      "as the one-class segment-choice oracle",
    "relabel_positives": "benchmark/layertrace.py SPANNED wraps it; the tests use it "
                         "as the one-box latent relabel that train_class batches",
}


def _unread_definitions(paths):
    """Qualified names of the functions, methods and classes defined in `paths`
    whose name no code in `paths` reads, as a name or an attribute; dunders
    are exempt."""
    defined, read = [], set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((child.name, prefix + child.name))
                visit(child, f"{prefix}{child.name}.")
                continue
            if isinstance(child, ast.Name):
                read.add(child.id)
            elif isinstance(child, ast.Attribute):
                read.add(child.attr)
            visit(child, prefix)

    for path in paths:
        visit(ast.parse(path.read_text()), "")
    return sorted(qualname for name, qualname in defined
                  if name not in read and not (name.startswith("__") and name.endswith("__")))


def test_every_definition_is_read_by_src_or_allowed():
    src = Path(segdetect.__file__).parent
    unread = set(_unread_definitions(sorted(src.glob("*.py"))))
    assert unread - UNREAD_BY_SRC.keys() == set(), "no src/ code reads these"
    assert UNREAD_BY_SRC.keys() - unread == set(), "src/ reads these now: unlist them"


def test_unread_definition_guard_sees_what_a_module_leaves_unread(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n    def __init__(self):\n        self.x = 1\n"
        "    def used(self):\n        return self.x\n    def unused(self):\n        pass\n"
        "def helper():\n    def inner():\n        pass\n    return A().used()\n"
        "def dead():\n    return helper()\n")
    (tmp_path / "b.py").write_text("from .a import helper\n\nclass B:\n    pass\n")
    assert _unread_definitions(sorted(tmp_path.glob("*.py"))) == [
        "A.unused", "B", "dead", "helper.inner"]
