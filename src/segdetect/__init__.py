"""Segmentation- and context-aware object detection engine.

Scores candidate boxes with linear appearance/context terms plus per-class
segment-choice potentials computed from region proposals, trains the weights
with a latent SVM, refines boxes with iterative linear regression, and
evaluates with PASCAL-style AP/mAP and ABO.
"""

from .boxes import Box, expand_box, iou
from .config import Config, load_config, save_config
from .masks import SegmentMask, largest_segment_area, tight_box
from .model import Detection, ModelWeights, build_bundle, detect_image

__all__ = [
    "Box", "Config", "Detection", "ModelWeights", "SegmentMask",
    "build_bundle", "detect_image", "expand_box", "iou",
    "largest_segment_area", "load_config", "save_config", "tight_box",
]
