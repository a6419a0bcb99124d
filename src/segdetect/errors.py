"""Exception hierarchy shared across the package.

InputError subclasses map to CLI exit code 2, NumericalError to exit code 3.
"""


class SegDetectError(Exception):
    pass


class InputError(SegDetectError):
    """Malformed file, missing path, or invalid argument."""


class NumericalError(SegDetectError):
    """Numerical failure during fitting or feature computation."""


class EmptySegment(SegDetectError):
    """Segment mask with zero pixels where at least one is required."""


class BadRle(InputError):
    """Run-length encoding with overlapping, unsorted, or out-of-range runs."""


class DegenerateNormalizer(NumericalError):
    """Background normalizer M - |S| is negative (inconsistent inputs)."""


class InsufficientPairs(InputError):
    """Too few training pairs to fit the box regressor."""


class ProviderError(SegDetectError):
    """Feature provider could not serve a requested box."""

    def __init__(self, image_id, box):
        super().__init__(f"feature provider miss for image {image_id!r}, box {box}")
        self.image_id = image_id
        self.box = box


class DivergedError(NumericalError):
    """SGD objective exploded; retry with a smaller initial learning rate."""


class APUndefined(SegDetectError):
    """Average precision requested for a class with no ground truth."""
