"""Classic integer-ratio upscalers: nearest neighbor, bilinear, separable bicubic.

All three share one geometry: output position ``dst`` maps to source
position ``dst / ratio`` (top-left anchored, so source pixels land exactly
on every ratio-th output pixel), and out-of-range taps clamp to the edge.
Quantization is round half up, then clamp to [0, max_value].

At an integer ratio r every sub-pixel offset is i/r, so output pixel
(y*r + j, x*r + i) is a fixed kernel applied at phase (j, i) to the
edge-padded source around (y, x). The resamplers compute the r phase
planes of one column phase i at a time from shifted views of that
source, weigh taps with integers over a power of r so that every value
is exact at every ratio, and write plane (j, i) into out[j::r, i::r].
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .image import Image, _check_ratio


def _pad_edges(pixels: np.ndarray, before: int, after: int) -> np.ndarray:
    """Source with its edge rows and columns replicated: the clamped taps."""
    return np.pad(pixels, ((before, after), (before, after)), mode="edge")


def _interleave(img: Image, ratio: int, col_phase: Callable[[int], np.ndarray]) -> Image:
    """Assemble the output from its ratio**2 phase planes.

    ``col_phase(i)`` returns a (ratio, h, w) array whose [j, y, x] entry
    is output pixel (y*ratio + j, x*ratio + i).
    """
    h, w = img.height, img.width
    out = np.empty((h, ratio, w, ratio), dtype=np.uint8)
    for i in range(ratio):
        # one copy per column phase keeps the Python-level loop O(ratio)
        # and the copy's inner loop running along x, not over the phases
        out[:, :, :, i] = col_phase(i).transpose(1, 0, 2)
    return Image(out.reshape(h * ratio, w * ratio), img.max_value)


def _int_dtype(bound: int):
    """Narrowest signed integer type holding every integer of magnitude
    <= bound; Python integers (object arrays) past int64."""
    for dtype in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return object


def _weighted_sum(weights, views) -> np.ndarray:
    """sum(c * view) over the nonzero weights c, as a new array."""
    total = None
    for c, view in zip(weights, views):
        if not c:
            continue
        if total is None:
            total = c * view
        else:
            total += c * view
    return total


def _bilinear_weights(ratio: int) -> np.ndarray:
    """(ratio, 2) integer tap weights over ``ratio`` at offsets i/ratio."""
    i = np.arange(ratio, dtype=np.int64)
    return np.stack([ratio - i, i], axis=1)


def _cubic_weights(ratio: int) -> np.ndarray:
    """(ratio, 4) integer weights of taps -1..2 over ``2 * ratio**3``.

    Cubic convolution with a = -1/2 (Keys 1981) at offset t = i/ratio has
    weights (-t^3 + 2t^2 - t, 3t^3 - 5t^2 + 2, -3t^3 + 4t^2 + t, t^3 - t^2) / 2.
    """
    r = ratio
    i = np.arange(ratio, dtype=np.int64)
    return np.stack(
        [
            -(i**3) + 2 * i * i * r - i * r * r,
            3 * i**3 - 5 * i * i * r + 2 * r**3,
            -3 * i**3 + 4 * i * i * r + i * r * r,
            i**3 - i * i * r,
        ],
        axis=1,
    )


def _separable(img: Image, ratio: int, weights: np.ndarray, before: int) -> Image:
    """Upscale with a separable kernel given as integer tap weights.

    At offset i/ratio, ``weights[i, t]`` weighs the source pixel
    ``base + t - before``; every row sums to the same per-axis
    denominator d. A vertical pass, then a horizontal one, gives the
    numerator N over d*d, quantized exactly as floor(N/(d*d) + 1/2) and
    clamped to [0, max_value].
    """
    h, w = img.height, img.width
    taps = weights.shape[1]
    denom = int(weights[0].sum()) ** 2
    reach = int(np.abs(weights).sum(axis=1).max())
    dtype = _int_dtype(2 * reach * reach * img.max_value + denom)
    weights = weights.astype(dtype)
    src = _pad_edges(img.pixels, before, taps - 1 - before).astype(dtype)
    # mid[j]: vertical numerators at row phase j, on the padded columns
    mid = np.stack([_weighted_sum(row, [src[t : t + h] for t in range(taps)]) for row in weights])

    def col_phase(i: int) -> np.ndarray:
        num = _weighted_sum(weights[i], [mid[:, :, t : t + w] for t in range(taps)])
        num *= 2
        num += denom
        num //= 2 * denom
        return np.clip(num, 0, img.max_value, out=num)

    return _interleave(img, ratio, col_phase)


def resample_nn(img: Image, ratio: int) -> Image:
    """Upscale by copying the nearest source pixel (ties go to the lower index)."""
    ratio = _check_ratio(ratio)
    h, w = img.height, img.width
    src = _pad_edges(img.pixels, 0, 1)
    # offset j/ratio moves to the next source pixel only past one half
    rows = np.stack([src[int(2 * j > ratio) :][:h] for j in range(ratio)])
    return _interleave(img, ratio, lambda i: rows[:, :, int(2 * i > ratio) :][:, :, :w])


def resample_bilinear(img: Image, ratio: int) -> Image:
    """Upscale with bilinear interpolation over clamped 2x2 cells."""
    ratio = _check_ratio(ratio)
    return _separable(img, ratio, _bilinear_weights(ratio), 0)


def resample_bicubic(img: Image, ratio: int) -> Image:
    """Upscale with separable 4x4 cubic convolution, edge taps clamped."""
    ratio = _check_ratio(ratio)
    return _separable(img, ratio, _cubic_weights(ratio), 1)
