"""segdetect benchmark: seeded synthetic workloads driven through the CLI.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark generates the workload's inputs
from the seed, then calls the public entry point ``segdetect.cli.main`` in
this process, with ``--threads 1``, on the generated files only, and times
each command from outside.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` commands, and the metrics.

With ``--trace 0`` it repeats set-up and whole pipeline passes on the same
inputs for about ``--seconds`` seconds and reports the end-to-end metrics as
medians.  With ``--trace 1`` it runs one untraced pass and one pass with the
layer wrappers of ``layertrace.py`` installed, and reports the per-layer metrics.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
LEDGER = WORK / "hashes.json"


def _import_program():
    if not (SRC / "segdetect" / "cli.py").is_file():
        sys.exit(f"error: segdetect sources not found under {SRC}; "
                 "run from a full checkout of the repository")
    # numpy's BLAS pool would add threads that `--threads 1` does not govern
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, then the commands of one pipeline pass

class Workload:
    name = ""
    why = ""
    pass_seconds = 1.0   # nominal length of one pass on the reference machine
    repeats = {}         # stage -> runs of its command in a --trace 0 pass; the median counts

    def generate(self, seed, d: Path):
        raise NotImplementedError

    def commands(self, d: Path, out: Path):
        """[(stage, argv)] for one pass; stage names the timed command group."""
        raise NotImplementedError

    def detect_inputs(self, d: Path):
        """(manifest, config) that detect and eval read."""
        return d / "manifest_test.txt", d / "config.txt"


def _synth(d, **kwargs):
    from segdetect.synth import SynthConfig, generate
    generate(SynthConfig(**kwargs), str(d))


class MediumPipeline(Workload):
    name = "medium-pipeline"
    pass_seconds = 29.0
    repeats = {"detect": 3}   # one pass per run; a single 1.5 s detect spread 11%
    why = ("README round trip at 128x128: the only workload running latent "
           "relabel, mining, SGD and the box-regression loop")

    def generate(self, seed, d):
        _synth(d, seed=seed, n_images=50, n_classes=5, boxes_per_image=64,
               segments_per_image=16, width=128, height=128, box_jitter=0.15,
               seg_noise=0.1, feature_noise=1.5, score_noise=0.3)

    def commands(self, d, out):
        train = ["--manifest", str(d / "manifest_train.txt"), "--config", str(d / "config.txt")]
        test = ["--manifest", str(d / "manifest_test.txt"), "--config", str(d / "config.txt")]
        return [
            ("train", ["train", *train, "--out", str(out / "model.txt"),
                       "--log", str(out / "train.log"), "--threads", "1"]),
            ("detect", ["detect", *test, "--model", str(out / "model.txt"),
                        "--out", str(out / "dets.csv"), "--threads", "1"]),
            ("regress", ["regress", "fit", *train, "--out", str(out / "regressor.txt")]),
            ("regress", ["regress", "iterate", *test, "--model", str(out / "model.txt"),
                         "--regressor", str(out / "regressor.txt"),
                         "--out", str(out / "refined.csv")]),
            ("eval", ["eval", *test, "--detections", str(out / "dets.csv"),
                      "--out", str(out / "report.csv")]),
            ("eval", ["eval", *test, "--detections", str(out / "refined.csv"),
                      "--out", str(out / "report_refined.csv")]),
        ]


class PaperDetect(Workload):
    name = "paper-detect"
    pass_seconds = 14.5
    why = ("one 500x375 image, 500 boxes x 50 segments x 20 classes: bulk segment "
           "features and CxC scoring dominate detect")

    def generate(self, seed, d):
        from segdetect.config import Config, save_config
        _synth(d / "train_world", seed=seed, n_images=30, n_classes=20,
               boxes_per_image=8, segments_per_image=4, train_fraction=1.0)
        _synth(d / "paper", seed=seed, n_images=1, n_classes=20, boxes_per_image=500,
               segments_per_image=50, width=500, height=375)
        save_config(str(d / "config.txt"), Config(min_segment_pixels=0, grid_k=3))

    def detect_inputs(self, d):
        return d / "paper" / "manifest.txt", d / "config.txt"

    def commands(self, d, out):
        cfg = ["--config", str(d / "config.txt")]
        paper = ["--manifest", str(d / "paper" / "manifest.txt"), *cfg]
        return [
            ("train", ["train", "--manifest", str(d / "train_world" / "manifest.txt"),
                       *cfg, "--out", str(out / "model.txt"), "--threads", "1"]),
            ("detect", ["detect", *paper, "--model", str(out / "model.txt"),
                        "--out", str(out / "dets.csv"), "--threads", "1"]),
            ("eval", ["eval", *paper, "--detections", str(out / "dets.csv"),
                      "--out", str(out / "report.csv")]),
        ]


class SmallMany(Workload):
    name = "small-many"
    pass_seconds = 9.0
    why = ("1000 images of 8 boxes x 4 segments: per-call overhead dominates, SGD "
           "sees the most rows and memory grows with the image count")

    def generate(self, seed, d):
        _synth(d, seed=seed, n_images=1000)

    def commands(self, d, out):
        train = ["--manifest", str(d / "manifest_train.txt"), "--config", str(d / "config.txt")]
        test = ["--manifest", str(d / "manifest_test.txt"), "--config", str(d / "config.txt")]
        return [
            ("train", ["train", *train, "--out", str(out / "model.txt"), "--threads", "1"]),
            ("detect", ["detect", *test, "--model", str(out / "model.txt"),
                        "--out", str(out / "dets.csv"), "--threads", "1"]),
            ("eval", ["eval", *test, "--detections", str(out / "dets.csv"),
                      "--out", str(out / "report.csv")]),
        ]


WORKLOADS = {w.name: w for w in (MediumPipeline(), PaperDetect(), SmallMany())}


# ---------------------------------------------------------------------------
# one pass: run the commands, check and hash their outputs

def _sha256(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_hashes(d: Path):
    return {str(p.relative_to(d)): _sha256(p) for p in sorted(d.rglob("*")) if p.is_file()}


def run_command(argv):
    """Run one CLI command in this process.

    Returns (wall seconds, CPU seconds, ok, detail).  The commands run on one
    thread, so their CPU time is their wall time minus the time the machine
    did not run this process.
    """
    from segdetect.cli import main
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        cpu = time.process_time()
        try:
            rc = main(argv)
        except Exception:   # a traceback is a failed command, not a crash
            rc = traceback.format_exc()
        cpu = time.process_time() - cpu
        wall = time.perf_counter() - start
    return wall, cpu, rc == 0, f"exit {rc}: {err.getvalue().strip()}"


def run_pass(workload, d, out, tracer=None, before_command=None, repeats=None):
    """Run one pipeline pass, traced if a tracer is given, then check its
    outputs outside the trace.  before_command, if given, runs untimed before
    each command; repeats maps a stage to how often its command runs.

    Returns (CPU seconds per stage, wall seconds per command, failed commands,
    problems).
    """
    from layertrace import traced
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    stages = {}
    walls = []
    problems = []
    with traced(tracer) if tracer else contextlib.nullcontext():
        for stage, argv in workload.commands(d, out):
            cpus = []
            for _ in range((repeats or {}).get(stage, 1)):
                if before_command:
                    before_command()
                span = tracer.begin("command") if tracer else None
                wall, cpu, ok, detail = run_command(argv)
                if tracer:
                    tracer.end(span)
                cpus.append(cpu)
                walls.append(wall)
                if not ok:
                    problems.append(f"{' '.join(argv[:2])}: {detail}")
            stages[stage] = stages.get(stage, 0.0) + statistics.median(cpus)
    failed = len(problems)
    if not failed:
        problems.extend(check_outputs(*workload.detect_inputs(d), out))
    return stages, walls, failed, problems


def check_outputs(manifest, config, out):
    """Structural checks of one pass's outputs; returns the problems found."""
    from segdetect.boxes import iou
    from segdetect.config import load_config
    from segdetect.dataset import Dataset, read_manifest
    from segdetect.model import load_model, read_detections

    problems = []
    cfg = load_config(str(config))
    test = Dataset(read_manifest(str(manifest)), min_segment_pixels=cfg.min_segment_pixels)
    model = load_model(str(out / "model.txt"))
    if model.n_classes != test.n_classes:
        problems.append(f"model has {model.n_classes} classes, data {test.n_classes}")
    dets = read_detections(str(out / "dets.csv"))
    if not dets:
        problems.append("detect wrote no detections")
    groups = {}
    for det in dets:
        groups.setdefault((det.image_id, det.class_id), []).append(det)
    for (image_id, class_id), group in groups.items():
        if image_id not in test.images or not 1 <= class_id <= test.n_classes:
            problems.append(f"detection for unknown image/class {image_id}/{class_id}")
            continue
        if len(group) > cfg.top_k:
            problems.append(f"{image_id} class {class_id}: {len(group)} > top_k")
        for i, a in enumerate(group):
            if i and group[i - 1].score < a.score:
                problems.append(f"{image_id} class {class_id}: scores not sorted")
                break
            if any(iou(a.box, b.box) > cfg.nms_iou for b in group[:i]):
                problems.append(f"{image_id} class {class_id}: NMS overlap kept")
                break
    if (out / "refined.csv").exists():
        # regress iterate rescoring is not NMS-suppressed: one row per box and class
        refined = read_detections(str(out / "refined.csv"))
        expected = sum(len(test.record(i).boxes) for i in test.image_order) * model.n_classes
        if len(refined) != expected:
            problems.append(f"regress iterate wrote {len(refined)} rows, expected {expected}")
    for report in sorted(out.glob("report*.csv")):
        value = report_map(report)
        if not (math.isfinite(value) and 0.0 <= value <= 1.0):
            problems.append(f"{report.name}: mAP {value} outside [0, 1]")
    return problems


def report_map(path: Path):
    for line in path.read_text().splitlines():
        if line.startswith("mAP,"):
            return float(line.split(",")[1])
    return float("nan")


# ---------------------------------------------------------------------------
# determinism: passes and runs on one seed must write identical outputs

def source_digest():
    h = hashlib.sha256()
    for p in sorted((SRC / "segdetect").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def ledger_check(key, hashes):
    """Compare with an earlier run of the same code and seed; record if new."""
    WORK.mkdir(exist_ok=True)
    try:
        ledger = json.loads(LEDGER.read_text())
    except (OSError, ValueError):
        ledger = {}
    if key in ledger:
        return ledger[key] == hashes
    ledger[key] = hashes
    tmp = LEDGER.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, LEDGER)
    return True


# ---------------------------------------------------------------------------
# metrics

def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(setup_times, passes):
    """Medians over the set-ups and passes of one run, in CPU seconds."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "pipeline_s": (statistics.median(sum(p.values()) for p in passes), "s"),
        "train_s": (statistics.median(p["train"] for p in passes), "s"),
        "detect_s": (statistics.median(p["detect"] for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def coverage(tracer):
    """Lowest share, over the traced commands, of a command's wall time spent
    in named layer spans (the cli layer's own included)."""
    from layertrace import span_self_times
    own = span_self_times(tracer.spans)
    shares = [1.0 - own[i] / (span[2] - span[1])
              for i, span in enumerate(tracer.spans) if span[0] == "command"]
    return min(shares, default=0.0)


def per_layer(tracer, command_walls, plain_stages, out):
    """Per-layer metrics of the traced pass (the second of command_walls),
    plus the untraced pass's regress CPU time."""
    from layertrace import IO_SPANS
    dur = tracer.durations()
    own = tracer.self_times()
    vals = tracer.values

    def total(name):
        return sum(dur.get(name, ()))

    def ratio(a, b):
        return a / b if b else 0.0

    pairs = tracer.counted("segfeat.assemble_block", "model.build_bundle")
    scores = len(dur.get("model.score_box", ()))
    scored = sum(vals["negatives_scored"])
    kept = sum(vals["hard_negs_kept"])
    fractions = vals["changed_fraction"]
    detect_ms = [s * 1e3 for s in dur.get("model.detect_image", ())] or [0.0]
    maps = {name: report_map(out / f"{name}.csv") if (out / f"{name}.csv").exists() else 0.0
            for name in ("report", "report_refined")}
    return {
        "segfeat.pairs": (pairs, "count"),
        "segfeat.us_per_pair": (ratio(total("model.build_bundle") * 1e6, pairs), "us"),
        "model.build_bundle_s": (total("model.build_bundle"), "s"),
        "masks.tight_box_calls": (tracer.counted("masks.tight_box"), "count"),
        "segfeat.reextract_pairs": (
            tracer.counted("segfeat.assemble_block", "bboxreg.iterate_boxes"), "count"),
        "bboxreg.iterate_self_s": (own.get("bboxreg.iterate_boxes", 0.0), "s"),
        "bboxreg.provider_s": (total("bboxreg.provider"), "s"),
        "bboxreg.provider_calls": (len(dur.get("bboxreg.provider", ())), "count"),
        "bboxreg.changed_frac_iter1": (
            ratio(sum(f[0] for f in fractions if f), len(fractions)), "frac"),
        "bboxreg.changed_frac_iter2": (
            ratio(sum(f[1] for f in fractions if len(f) > 1), len(fractions)), "frac"),
        "bboxreg.fit_s": (total("bboxreg.collect_training_pairs")
                          + total("bboxreg.fit_regressor"), "s"),
        "model.score_box_s": (total("model.score_box"), "s"),
        "model.score_box_calls": (scores, "count"),
        "model.us_per_score": (ratio(total("model.score_box") * 1e6, scores), "us"),
        "model.select_segment_calls": (tracer.counted("model.select_segment"), "count"),
        "model.detect_image_ms_p50": (percentile(detect_ms, 0.5), "ms"),
        "model.detect_image_ms_p90": (percentile(detect_ms, 0.9), "ms"),
        "model.detect_image_samples": (len(dur.get("model.detect_image", ())), "count"),
        "model.nms_s": (total("model.nms"), "s"),
        "model.nms_calls": (len(dur.get("model.nms", ())), "count"),
        "training.init_latent_s": (total("training.init_latent"), "s"),
        "training.relabel_s": (total("training.relabel_positives"), "s"),
        "training.latent_changed": (sum(vals["latent_changed"]), "count"),
        "training.mine_s": (total("training.mine_hard_negatives"), "s"),
        "training.negatives_scored": (scored, "count"),
        "training.hard_negs_kept": (kept, "count"),
        "training.mine_keep_frac": (ratio(kept, scored), "frac"),
        "training.sgd_s": (total("training.sgd_fit"), "s"),
        "training.sgd_rows": (sum(vals["sgd_rows"]), "count"),
        "training.train_class_self_s": (own.get("training.train_class", 0.0), "s"),
        "dataset.load_s": (total("dataset.load") + total("dataset.read_manifest"), "s"),
        "dataset.loads": (len(dur.get("dataset.load", ())), "count"),
        "evaluate.eval_s": (total("evaluate.evaluate_detections")
                            + total("evaluate.average_best_overlap"), "s"),
        "evaluate.map": (maps["report"], "AP"),
        "evaluate.map_refined": (maps["report_refined"], "AP"),
        "io.s": (sum(total(n) for n in IO_SPANS), "s"),
        "cli.regress_s": (plain_stages.get("regress", 0.0), "s"),
        "trace.coverage": (coverage(tracer), "frac"),
        "trace.overhead_s": (sum(command_walls[1]) - sum(command_walls[0]), "s"),
    }


# ---------------------------------------------------------------------------

def run(workload, seed, seconds, trace, work):
    failed = 0
    problems = []
    setup_times = []
    d = work / "inputs"

    def set_up(target):
        start = time.process_time()
        workload.generate(seed, target)
        setup_times.append(time.process_time() - start)
        return tree_hashes(target)

    input_hashes = set_up(d)

    def setup_sample():
        # Set-up is timed again before every command, so that its median
        # spans the run like the command times do; each copy must match.
        nonlocal failed
        copy = work / "setup"
        if set_up(copy) != input_hashes:
            failed += 1
            problems.append("input generation is not deterministic")
        shutil.rmtree(copy)

    passes = []        # per pass: CPU seconds per stage
    command_walls = []  # per pass: wall seconds per command
    output_hashes = []

    def one_pass(label, tracer=None):
        nonlocal failed
        if trace:
            stages, walls, bad, found = run_pass(workload, d, work / "out", tracer)
        else:
            stages, walls, bad, found = run_pass(workload, d, work / "out", None,
                                                 setup_sample, workload.repeats)
        passes.append(stages)
        command_walls.append(walls)
        failed += bad
        problems.extend(found)
        output_hashes.append(tree_hashes(work / "out"))
        print(f"{label}: wall={sum(walls):.4f}s cpu " +
              " ".join(f"{k}={v:.4f}s" for k, v in stages.items()))

    if trace:
        from layertrace import Tracer
        one_pass("pass untraced")
        tracer = Tracer()
        one_pass("pass traced", tracer)
    else:
        # The nominal pass count keeps the number of passes from flipping with
        # the machine's speed; past it, passes continue while one more fits.
        min_passes = max(1, round(seconds / workload.pass_seconds))
        start = time.perf_counter()
        while True:
            one_pass(f"pass {len(passes) + 1}")
            elapsed = time.perf_counter() - start
            if (len(passes) >= min_passes
                    and elapsed + max(map(sum, command_walls)) > seconds):
                break
    attempted = sum(map(len, command_walls))
    for h in output_hashes[1:]:
        if h != output_hashes[0]:
            failed += 1
            problems.append("two passes on one seed wrote different outputs")
    key = f"{workload.name}:{seed}:{source_digest()}"
    if not problems and not ledger_check(key, output_hashes[0]):
        failed += 1
        problems.append("outputs differ from an earlier run on the same seed")
    print("hashes " + json.dumps(output_hashes[0], sort_keys=True))

    if trace:
        provider_calls = sum(tracer.values["provider_calls"])
        if provider_calls != len(tracer.durations().get("bboxreg.provider", ())):
            failed += 1
            problems.append("traced provider calls disagree with IterationStats")
        metrics = per_layer(tracer, command_walls, passes[0], work / "out")
    else:
        metrics = end_to_end(setup_times, passes)
    print(f"setup_s samples: {setup_times}")
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    # a terminated run still removes its scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    work = WORK / f"run-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
