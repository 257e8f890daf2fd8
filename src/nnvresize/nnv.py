"""Nearest-neighbor-value (NNV) upscaling.

Each empty output location is filled with the value of one of the four
source pixels around it, never with a synthesized value. The pick is the
cell's mode when it has one; otherwise the neighbor whose value sits
closest to the bilinear estimate for that location.
"""

from __future__ import annotations

import numpy as np

from .image import Image
from .resample import _banded, _bilinear_weights, _half_up_dtype


def _bilinear_half_up(band: np.ndarray, ratio: int, max_value: int):
    """(2N + ratio**2 at column phase 0, its step per column phase) for
    the bilinear numerator N over ``ratio**2`` of the band's 2x2 cells:
    mid = 2V + ratio for the weights (ratio - j, j) is 2 * ratio * top +
    ratio + 2j * (bottom - top) at row phase j, and phase (j, i) is
    ratio * mid[j, :, x] + i * (mid[j, :, x + 1] - mid[j, :, x])."""
    dtype = _half_up_dtype(_bilinear_weights(ratio), max_value)
    # widened before the subtraction, which would wrap in uint8
    top = band[:-1].astype(dtype)
    mid = np.arange(0, 2 * ratio, 2, dtype=dtype)[:, None, None] * (band[1:] - top)
    mid += 2 * ratio * top + ratio
    return ratio * mid[..., :-1], mid[..., 1:] - mid[..., :-1]


def _nnv(band: np.ndarray, ratio: int, max_value: int, out: np.ndarray) -> None:
    """Band kernel of NNV over the source padded by one row and column
    after it: the cells and thresholds are at source resolution, so it
    writes one column phase of the output at a time."""
    half_up, step = _bilinear_half_up(band, ratio, max_value)
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
    # only patterns 1+1+1+1 and 2+2 lack a unique mode; a mode cell starts
    # at its mode, s1, or s2 when s2 = s3 is its only pair, and has no gaps
    has_mode = e2 | (e1 != e3)
    base = np.where(has_mode, np.where(e1 | e2, values[1], values[2]), values[0])
    gaps = [(hi - lo) * ~has_mode for lo, hi in zip(values, values[1:])]
    # a midpoint tie goes up when the upper value's first position is the
    # lower one: s_n+1 holds the upper value's, and s_n the lower value's,
    # except that s0 holds it in the middle of a 2+2 cell
    position = [key & 3 for key in keys]
    lower_first = (position[0], np.where(e1, position[0], position[1]), position[2])
    thresholds = [
        ratio * ratio * (lo.astype(half_up.dtype) + hi + 1) - (position[n + 1] < lower_first[n])
        for n, (lo, hi) in enumerate(zip(values, values[1:]))
    ]
    planes = np.empty((ratio,) + a.shape, np.uint8)
    passed = np.empty(planes.shape, np.uint8)
    for i in range(ratio):
        planes[...] = base
        for t, gap in zip(thresholds, gaps):
            np.greater(half_up, t, out=passed)
            passed *= gap
            planes += passed
        # one copy per column phase keeps the copy's inner loop running
        # along x, not over the phases
        out[:, :, i::ratio] = planes.transpose(1, 0, 2)
        half_up += step
    # the sample sites copy their source pixels
    out[:, 0, ::ratio] = a


def resample_nnv(img: Image, ratio: int) -> Image:
    """Upscale with NNV: copy source pixels at exact sample sites, fill
    every other location with its cell's unique mode, else with the
    neighbor closest to the bilinear value, in exact integer arithmetic.

    Each 2x2 cell is sorted once, at source resolution, one band of rows
    at a time. Its four keys are value * 4 + the position in A/K/P/G order
    (top-left, top-right, bottom-left, bottom-right), so equal values sit
    next to each other in sorted order, first position first, and the mode
    census reads off equal neighbors. A mode cell's base is its mode and
    its steps are zero; any other's base is its lowest value. At offset
    (i/ratio, j/ratio) the bilinear value is N / ratio**2; 2N + ratio**2,
    the sum resample_bilinear floor-divides by 2 * ratio**2, takes one
    step per doubled midpoint plus offset, ratio**2 * (v_n + v_n+1 + 1),
    that it exceeds, a tie going to the value whose first position is
    lower. The thresholds never decrease, so the steps taken land on a
    sorted value; a column phase costs one add and three comparisons.
    """
    return _banded(img, ratio, 0, 1, _nnv)
