"""Nearest-neighbor-value (NNV) upscaling.

Each empty output location is filled with the value of one of the four
source pixels around it, never with a synthesized value. The pick is the
cell's mode when it has one; otherwise the neighbor whose value sits
closest to the bilinear estimate for that location.
"""

from __future__ import annotations

import numpy as np

from .image import Image, _check_ratio
from .resample import _bilinear_weights, _int_dtype, _interleave, _pad_edges


def resample_nnv(img: Image, ratio: int) -> Image:
    """Upscale with NNV: copy source pixels at exact sample sites, fill
    every other location with its cell's unique mode, else with the
    neighbor closest to the bilinear value, in exact integer arithmetic.

    The mode census depends only on the 2x2 cell, so it runs once per
    source cell. The bilinear fallback runs only on cells without a
    unique mode: at offset (i/ratio, j/ratio) the bilinear value is
    N / ratio**2 with integer N, so the gaps |ratio**2 * v - N| compare
    exactly and the first minimum in A/K/P/G order (top-left, top-right,
    bottom-left, bottom-right) wins.
    """
    _check_ratio(ratio)
    h, w = img.height, img.width
    src = _pad_edges(img.pixels, 0, 1)
    a, k, p, g = src[:-1, :-1], src[:-1, 1:], src[1:, :-1], src[1:, 1:]

    # per-cell frequency of each neighbor's value (counting itself)
    count_a = 1 + (a == k) + (a == p) + (a == g)
    count_k = 1 + (k == a) + (k == p) + (k == g)
    count_p = 1 + (p == a) + (p == k) + (p == g)
    count_g = 1 + (g == a) + (g == k) + (g == p)
    top = np.maximum(np.maximum(count_a, count_k), np.maximum(count_p, count_g))
    # frequency 2 is a mode only for the (2,1,1) pattern: exactly one
    # doubled value, i.e. exactly two positions at count 2
    doubled = (count_a == 2).astype(np.int8) + (count_k == 2) + (count_p == 2) + (count_g == 2)
    has_mode = (top >= 3) | ((top == 2) & (doubled == 2))
    mode_value = np.where(
        count_a == top, a, np.where(count_k == top, k, np.where(count_p == top, p, g))
    ).reshape(h * w)

    # The cells without a unique mode, compacted to (1, m) rows. Each
    # neighbor's key is gap * 1024 + position * 256 + value, so the
    # smallest key is the first neighbor at the smallest gap and its low
    # byte is that neighbor's value.
    rest = np.flatnonzero(~has_mode)
    dtype = _int_dtype(1024 * (ratio * ratio * img.max_value + 1))
    cells = [v.reshape(1, -1)[:, rest].astype(dtype) for v in (a, k, p, g)]
    weights = 1024 * _bilinear_weights(ratio).astype(dtype)[:, :, None]
    # 1024 * horizontal bilinear numerators of the top and bottom rows,
    # (ratio, m): one row per column phase
    upper = weights[:, 0] * cells[0] + weights[:, 1] * cells[1]
    lower = weights[:, 0] * cells[2] + weights[:, 1] * cells[3]
    scaled = [1024 * ratio * ratio * v for v in cells]
    tags = [256 * position + v for position, v in enumerate(cells)]

    def row_phase(j: int) -> np.ndarray:
        planes = np.empty((ratio, h * w), dtype=np.uint8)
        planes[:] = mode_value
        num = (ratio - j) * upper
        num += j * lower
        key = None
        for s, tag in zip(scaled, tags):
            gap = s - num
            np.abs(gap, out=gap)
            gap += tag
            key = gap if key is None else np.minimum(key, gap, out=key)
        key &= 255
        planes[:, rest] = key
        planes = planes.reshape(ratio, h, w)
        if j == 0:
            planes[0] = img.pixels
        return planes

    return _interleave(img, ratio, row_phase)
