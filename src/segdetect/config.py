"""Run configuration (one key/value file) and the bounds of config, synth and model numbers."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .dataset import finite, read_records, write_records
from .errors import InputError


@dataclass
class Config:
    # segmentation features
    grid_k: int = 3
    lambda_bias: float = -0.7
    min_segment_pixels: int = 1500
    # inference
    nms_iou: float = 0.3
    top_k: int = 100
    # training
    pos_iou: float = 0.5
    neg_iou: float = 0.3
    c_reg: float = 1e-2
    eta0: float = 1e-3
    decay: float = 1e-4
    epochs: int = 10
    batch_size: int = 32
    seed: int = 0
    neg_cache_cap: int = 10000
    outer_iters: int = 3
    # box regression
    ridge: float = 1.0
    reg_pair_iou: float = 0.6
    bbox_max_iters: int = 2
    change_thresh: float = 0.2
    # evaluation
    eval_iou: float = 0.5
    eleven_point: bool = False

    def __post_init__(self):
        for name, value in vars(self).items():
            check_range(name, value)
        if self.neg_iou > self.pos_iou:
            raise InputError("need neg_iou <= pos_iou")


# (low, high, low end open) -> the Config and SynthConfig fields it bounds; floats
# must also be finite, and lambda_bias, eleven_point and train_fraction have no other bound
_RANGES = {
    (1, 16, False): ("grid_k",),    # a block holds 2 K^2 + 4 floats per (box, segment)
    (1, math.inf, False): ("top_k", "epochs", "batch_size", "neg_cache_cap",
                           "outer_iters", "n_images", "n_classes", "d_app", "d_ctx"),
    (0, math.inf, False): ("min_segment_pixels", "decay", "seed", "ridge",
                           "bbox_max_iters", "boxes_per_image", "segments_per_image",
                           "box_jitter", "seg_noise", "feature_noise", "score_noise"),
    # synth draws segment sides from [size // 5, size // 3), empty below 6 pixels
    (6, math.inf, False): ("width", "height"),
    (0, math.inf, True): ("c_reg", "eta0"),
    (0, 1, False): ("nms_iou", "change_thresh"),
    (0, 1, True): ("pos_iou", "neg_iou", "reg_pair_iou", "eval_iou"),
}
_RANGE_OF = {name: bounds for bounds, names in _RANGES.items() for name in names}


def check_range(name, value):
    """Return value; raise InputError unless it lies in the range of the field name."""
    low, high, low_open = _RANGE_OF.get(name, (-math.inf, math.inf, False))
    if (isinstance(value, float) and not math.isfinite(value)
            or not (low < value if low_open else low <= value) or value > high):
        raise InputError(f"{name} must be in {'(' if low_open else '['}{low}, "
                         f"{high}], got {value}")
    return value


_BOOL = {"true": True, "false": False, "1": True, "0": False}
_PARSERS = {int: int, float: finite, bool: lambda tok: _BOOL[tok.lower()]}


def load_config(path) -> Config:
    parsers = {f.name: _PARSERS[type(getattr(Config, f.name))] for f in fields(Config)}
    overrides = {}

    def setting(key, *value):
        if key.startswith("#"):
            return
        if key not in parsers or key in overrides:
            raise ValueError(f"unknown or repeated config key {key!r}")
        try:
            (overrides[key],) = map(parsers[key], value)
        except (ValueError, KeyError):
            raise ValueError(f"bad value for {key}: {' '.join(value)!r}") from None
        check_range(key, overrides[key])

    read_records(path, setting)
    try:
        return Config(**overrides)
    except InputError as e:
        raise InputError(f"{path}: {e}") from e


def save_config(path, cfg: Config):
    values = ((fld.name, getattr(cfg, fld.name)) for fld in fields(Config))
    write_records(path, ((name, str(v).lower() if isinstance(v, bool) else v)
                         for name, v in values), sep=" ")
