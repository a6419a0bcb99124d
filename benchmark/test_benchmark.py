"""Self-tests of the benchmark's own code.

    python3 -m pytest benchmark
"""

import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import layertrace  # noqa: E402
import run  # noqa: E402
from layertrace import Tracer, self_times, traced  # noqa: E402


def test_self_time_nested_and_overlapping_spans():
    spans = [
        ("root", 0.0, 10.0, -1, 1),
        ("a", 2.0, 5.0, 0, 1),     # children a and b overlap on [4, 5]
        ("b", 4.0, 8.0, 0, 1),
        ("c", 3.0, 4.0, 1, 1),     # nested inside a
        ("d", 9.0, 12.0, 0, 1),    # runs past its parent's end
    ]
    own = self_times(spans)
    assert own["root"] == 10.0 - 6.0 - 1.0
    assert own["a"] == 2.0
    assert own["b"] == 4.0
    assert own["c"] == 1.0
    assert own["d"] == 3.0


def test_spans_link_to_parents_on_their_own_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work():
        outer = tracer.begin("outer")
        barrier.wait(timeout=10)
        inner = tracer.begin("inner")
        barrier.wait(timeout=10)
        tracer.end(inner)
        tracer.end(outer)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    inners = [s for s in tracer.spans if s[0] == "inner"]
    assert len(inners) == 2
    for name, _start, _end, parent, tid in inners:
        assert tracer.spans[parent][0] == "outer"
        assert tracer.spans[parent][4] == tid
    # overlapping spans of the other thread do not reduce a thread's self time
    outer_self = self_times(tracer.spans)["outer"]
    outer_total = sum(s[2] - s[1] for s in tracer.spans if s[0] == "outer")
    inner_total = sum(s[2] - s[1] for s in inners)
    assert abs(outer_self - (outer_total - inner_total)) < 1e-9


def _segdetect_bindings():
    out = {}
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("segdetect"):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(module_name, attr)] = value
    from segdetect.dataset import Dataset
    out[("Dataset", "__init__")] = Dataset.__dict__["__init__"]
    return out


def test_wrappers_patch_every_namespace_and_restore_originals():
    import segdetect.cli  # noqa: F401  loads every layer module
    from segdetect import bboxreg, cli, masks, model, segfeat, training
    before = _segdetect_bindings()
    originals = {id(getattr(sys.modules[m], n)) for table in
                 (layertrace.SPANNED, layertrace.COUNTED)
                 for m, names in table.items() for n in names}
    with traced(Tracer()):
        # functions imported by name elsewhere are patched there too
        assert training.build_bundle is not before[("segdetect.model", "build_bundle")]
        assert training.score_box is not before[("segdetect.model", "score_box")]
        assert training.tight_box is not before[("segdetect.masks", "tight_box")]
        assert bboxreg.score_box is not before[("segdetect.model", "score_box")]
        assert cli.build_bundle is not before[("segdetect.model", "build_bundle")]
        assert segfeat.tight_box is not before[("segdetect.masks", "tight_box")]
        assert model.assemble_block is not before[("segdetect.segfeat", "assemble_block")]
        unpatched = [key for key, value in _segdetect_bindings().items()
                     if id(value) in originals]
        assert unpatched == []
    assert _segdetect_bindings() == before
    assert masks.tight_box is before[("segdetect.masks", "tight_box")]


def test_pairs_count_boxes_times_segments_on_tiny_world(tmp_path):
    from segdetect.cli import main
    from segdetect.config import load_config
    from segdetect.dataset import Dataset, read_manifest
    from segdetect.synth import SynthConfig, generate
    generate(SynthConfig(seed=5, n_images=6, boxes_per_image=5, segments_per_image=3),
             str(tmp_path))
    manifest = str(tmp_path / "manifest.txt")
    config = str(tmp_path / "config.txt")
    data = Dataset(read_manifest(manifest),
                   min_segment_pixels=load_config(config).min_segment_pixels)
    expected = sum(len(data.record(i).boxes) * len(data.record(i).masks)
                   for i in data.image_order)
    tracer = Tracer()
    with traced(tracer):
        assert main(["train", "--manifest", manifest, "--config", config,
                     "--out", str(tmp_path / "model.txt"), "--threads", "1"]) == 0
    assert tracer.counted("segfeat.assemble_block", "model.build_bundle") == expected
    assert len(tracer.durations()["model.build_bundle"]) == len(data.image_order)
    assert len(tracer.durations()["cli.cmd_train"]) == 1


def test_benchmark_json_lists_the_reported_metrics(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = run.end_to_end([1.0], [{"train": 1.0, "detect": 2.0}])
    layers = run.per_layer(Tracer(), [[1.0], [1.0]], {}, tmp_path)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: unit for k, (_, unit) in e2e.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: unit for k, (_, unit) in layers.items()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"] == run.WORKLOADS[w["name"]].why
