"""Nearest-neighbor-value (NNV) upscaling.

Each empty output location is filled with the value of one of the four
source pixels around it, never with a synthesized value. The pick is the
cell's mode when it has one; otherwise the neighbor whose value sits
closest to the bilinear estimate for that location.
"""

from __future__ import annotations

import numpy as np

from .image import Image
from .resample import _banded, _int_dtype, _twice_bilinear


def _nnv(band: np.ndarray, ratio: int, max_value: int):
    """Band kernel of NNV over the source padded by one row and column
    after it."""
    dtype = _int_dtype(2 * ratio * ratio * max_value + 1)
    unreachable = np.iinfo(dtype).max
    a, k, p, g = band[:-1, :-1], band[:-1, 1:], band[1:, :-1], band[1:, 1:]
    # value * 4 + position in A/K/P/G order: equal values sort by position;
    # the product's type is named, as NumPy 1.x would keep uint8 * 4 in
    # uint8 and wrap the keys
    keys = [np.multiply(v, 4, dtype=np.uint16) + n for n, v in enumerate((a, k, p, g))]
    # five compare-exchanges sort four keys: s0 <= s1 <= s2 <= s3
    for lo, hi in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
        keys[lo], keys[hi] = np.minimum(keys[lo], keys[hi]), np.maximum(keys[lo], keys[hi])
    values = [(key >> 2).astype(np.uint8) for key in keys]
    e1, e2, e3 = (lo == hi for lo, hi in zip(values, values[1:]))
    # only patterns 1+1+1+1 and 2+2 lack a unique mode
    has_mode = e2 | (e1 != e3)
    base = np.where(has_mode, np.where(e1 | e2, values[1], values[2]), values[0])
    steps = [hi - lo for lo, hi in zip(values, values[1:])]
    # a midpoint tie goes up when the upper value's first position is the
    # lower one: s_n+1 holds the upper value's, and s_n the lower value's,
    # except that s0 holds it in the middle of a 2+2 cell
    position = [key & 3 for key in keys]
    lower_first = (position[0], np.where(e1, position[0], position[1]), position[2])
    # a mode cell passes no threshold, so it keeps its mode
    thresholds = [
        np.where(
            has_mode,
            unreachable,
            ratio * ratio * (lo.astype(dtype) + hi) - (position[n + 1] < lower_first[n]),
        )
        for n, (lo, hi) in enumerate(zip(values, values[1:]))
    ]
    planes = np.empty((ratio,) + a.shape, np.uint8)
    passed = np.empty(planes.shape, bool)
    step_up = np.empty(planes.shape, np.uint8)
    for i, twice_n in enumerate(_twice_bilinear(band, ratio, dtype)):
        planes[...] = base
        for t, step in zip(thresholds, steps):
            np.greater(twice_n, t, out=passed)
            np.multiply(passed, step, out=step_up)
            planes += step_up
        if i == 0:
            planes[0] = a
        yield planes


def resample_nnv(img: Image, ratio: int) -> Image:
    """Upscale with NNV: copy source pixels at exact sample sites, fill
    every other location with its cell's unique mode, else with the
    neighbor closest to the bilinear value, in exact integer arithmetic.

    Each 2x2 cell is sorted once, at source resolution, one band of rows
    at a time. Its four keys are value * 4 + the position in A/K/P/G order
    (top-left, top-right, bottom-left, bottom-right), so equal values sit
    next to each other in sorted order, first position first, and the mode
    census reads off equal neighbors. A mode cell takes its mode and
    never leaves it. At offset (i/ratio, j/ratio) the bilinear value is
    N / ratio**2, and 2N, the numerator resample_bilinear rounds, picks
    the sorted value past as many of the three midpoints
    ratio**2 * (v_n + v_n+1) / 2 as it exceeds. A midpoint tie goes to the
    value whose first position is lower. The thresholds never decrease,
    so the passed ones always form a prefix. Each column phase of the
    output then costs one add and three comparisons.
    """
    return _banded(img, ratio, 0, 1, _nnv)
