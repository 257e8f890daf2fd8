"""Nearest-neighbor-value (NNV) upscaling.

Each empty output location is filled with the value of one of the four
source pixels around it, never with a synthesized value. The pick is the
cell's mode when it has one; otherwise the neighbor whose value sits
closest to the bilinear estimate for that location.
"""

from __future__ import annotations

import numpy as np

from .image import Image, _check_ratio
from .resample import _int_dtype, _interleave, _pad_edges


def resample_nnv(img: Image, ratio: int) -> Image:
    """Upscale with NNV: copy source pixels at exact sample sites, fill
    every other location with its cell's unique mode, else with the
    neighbor closest to the bilinear value, in exact integer arithmetic.

    Each 2x2 cell is sorted once, at source resolution. Its four keys are
    value * 4 + the first position in A/K/P/G order (top-left, top-right,
    bottom-left, bottom-right) holding that value, so equal values share a
    key and the mode census reads off equal neighbors in sorted order. A
    mode cell takes the mode as all four sorted values. At offset
    (i/ratio, j/ratio) the bilinear value is N / ratio**2 with integer N,
    and the nearest sorted value is the one past as many of the three
    midpoints ratio**2 * (v_n + v_n+1) / 2 as 2N exceeds. A midpoint tie
    goes to the value whose first position is lower. The thresholds never
    decrease, so the passed ones always form a prefix. Each column phase
    of the output then costs one multiply-add and three comparisons.
    """
    ratio = _check_ratio(ratio)
    src = _pad_edges(img.pixels, 0, 1)
    a, k, p, g = src[:-1, :-1], src[:-1, 1:], src[1:, :-1], src[1:, 1:]

    cells = [v.astype(np.uint16) for v in (a, k, p, g)]
    keys = []
    for n, v in enumerate(cells):
        key = 4 * v + n
        for m in range(n):
            key = np.where(cells[m] == v, keys[m], key)
        keys.append(key)
    # five compare-exchanges sort four keys: s0 <= s1 <= s2 <= s3
    for lo, hi in ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2)):
        keys[lo], keys[hi] = np.minimum(keys[lo], keys[hi]), np.maximum(keys[lo], keys[hi])
    s0, s1, s2, s3 = keys
    e1, e2, e3 = s0 == s1, s1 == s2, s2 == s3
    # a unique mode: pattern 2+1+1 (one equal pair), 3+1 or 4
    has_mode = (e1.astype(np.int8) + e2 + e3 == 1) | (e2 & (e1 | e3))
    mode = np.where(e1 | e2, s1, s2)
    keys = [np.where(has_mode, mode, key) for key in keys]

    dtype = _int_dtype(2 * ratio * ratio * img.max_value + 1)
    values = [(key >> 2).astype(np.uint8) for key in keys]
    steps = [hi - lo for lo, hi in zip(values, values[1:])]
    thresholds = [
        ratio * ratio * (lo.astype(dtype) + hi) - ((keys[n + 1] & 3) < (keys[n] & 3))
        for n, (lo, hi) in enumerate(zip(values, values[1:]))
    ]
    # 2N at phase (j, i) is (ratio - i) * left[j] + i * right[j]
    j = np.arange(ratio, dtype=dtype)[:, None, None]
    left = 2 * ((ratio - j) * a.astype(dtype) + j * p)
    right = 2 * ((ratio - j) * k.astype(dtype) + j * g)

    def col_phase(i: int) -> np.ndarray:
        twice_n = (ratio - i) * left
        twice_n += i * right
        planes = values[0] + (twice_n > thresholds[0]) * steps[0]
        for t, step in zip(thresholds[1:], steps[1:]):
            planes += (twice_n > t) * step
        if i == 0:
            planes[0] = img.pixels
        return planes

    return _interleave(img, ratio, col_phase)
