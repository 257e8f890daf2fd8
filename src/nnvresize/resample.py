"""Classic integer-ratio upscalers: nearest neighbor, bilinear, separable bicubic.

All three share one geometry: output position ``dst`` maps to source
position ``dst / ratio`` (top-left anchored, so source pixels land exactly
on every ratio-th output pixel), and out-of-range taps clamp to the edge.
Quantization is round half up, then clamp to [0, max_value].

At an integer ratio r every sub-pixel offset is i/r, so output pixel
(y*r + j, x*r + i) is a fixed kernel applied at phase (j, i) to the
edge-padded source around (y, x). Every resampler, NNV included, runs
through one band loop, _banded: it pads the source once, as uint8, and
walks it in bands of source rows [y0, y1) that hold about _BAND_BYTES of
output each. Per band, a method's band kernel, a generator, gets the
padded rows its taps reach and yields, one column phase i at a time, the
r row phases of output rows [y0*r, y1*r) for out[y0*r:y1*r, i::r]. Taps
are weighed with integers over a power of r, rounding offset folded in
(bilinear floor-divides the very sum NNV compares): every value is exact
at every ratio, and each method's temporaries are the size of a band.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .image import Image, _check_ratio

# output bytes per band: small enough that a band's temporaries stay in
# cache, large enough that small outputs run as one band
_BAND_BYTES = 512 * 1024
# the largest output, in pixels, a resampler will allocate
_MAX_OUTPUT_PIXELS = 2**31

# kernel(band, ratio, max_value) yields the column phases i = 0..ratio-1
# in order; band holds the padded source rows [y0, y1 + before + after)
# and phase i is a (ratio, y1 - y0, width) array whose [j, y, x] entry is
# output pixel ((y0 + y)*ratio + j, x*ratio + i). A kernel may reuse one
# buffer for its phases, so each is read before the next is asked for.
Kernel = Callable[[np.ndarray, int, int], Iterator[np.ndarray]]


def _banded(img: Image, ratio, before: int, after: int, kernel: Kernel) -> Image:
    """Upscale ``img`` band by band with ``kernel`` over the source
    edge-padded by ``before`` rows and columns before it and ``after``
    after it.

    The ratio and the output size are checked before anything is
    allocated.
    """
    ratio = _check_ratio(ratio)
    h, w = img.height, img.width
    if w * h * ratio * ratio > _MAX_OUTPUT_PIXELS:
        raise ValueError(
            f"output {w * ratio}x{h * ratio} ({w}x{h} at ratio {ratio}) exceeds "
            f"the limit of {_MAX_OUTPUT_PIXELS} pixels"
        )
    src = np.pad(img.pixels, ((before, after), (before, after)), mode="edge")
    out = np.empty((h, ratio, w, ratio), dtype=np.uint8)
    rows = max(1, _BAND_BYTES // (w * ratio * ratio))
    for y0 in range(0, h, rows):
        y1 = min(y0 + rows, h)
        # no name holds a phase past its copy, so one band's buffers are
        # freed before the next band allocates its own
        phases = kernel(src[y0 : y1 + before + after], ratio, img.max_value)
        for i in range(ratio):
            # one copy per column phase keeps the copy's inner loop
            # running along x, not over the phases
            out[y0:y1, :, :, i] = next(phases).transpose(1, 0, 2)
    return Image(out.reshape(h * ratio, w * ratio), img.max_value)


def _int_dtype(bound: int):
    """Narrowest signed integer type holding every integer of magnitude
    <= bound; Python integers (object arrays) past int64."""
    for dtype in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return object


def _weighted_sum(terms, views, out: np.ndarray, product: np.ndarray) -> None:
    """out = sum(c * views[t]) over the (c, t) in ``terms``; c may be a
    scalar or an array that broadcasts against the view, and ``product``
    is a buffer shaped like ``out`` that takes each product."""
    (c, t), *rest = terms
    np.multiply(views[t], c, out=out)
    for c, t in rest:
        out += np.multiply(views[t], c, out=product)


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


def _bicubic(band: np.ndarray, ratio: int, max_value: int):
    """Band kernel of separable cubic convolution over the source padded
    by one row and column before it and two after it.

    At offset i/ratio, ``_cubic_weights(ratio)[i, t]`` weighs the source
    pixel ``base + t - 1`` over d = 2 * ratio**3 per axis. A vertical
    pass, then a horizontal one, gives the numerator N over d*d, quantized
    exactly as floor(N/(d*d) + 1/2) and clamped to [0, max_value]. The
    vertical pass computes 2*V + d for each vertical numerator V, so that,
    as the weights sum to d, the horizontal pass yields 2*N + d*d directly.
    """
    weights = _cubic_weights(ratio)
    taps = weights.shape[1]
    d = int(weights[0].sum())
    reach = int(np.abs(weights).sum(axis=1).max())
    dtype = _int_dtype(reach * (2 * reach * max_value + d))
    weights = weights.astype(dtype)
    # (weight, tap) of the nonzero weights at each column phase i; for the
    # vertical pass, tap t's weights at every row phase j, doubled, as a
    # (ratio, 1, 1) column
    horizontal = [[(c, t) for t, c in enumerate(row) if c] for row in weights]
    vertical = [(2 * column[:, None, None], t) for t, column in enumerate(weights.T) if column.any()]
    n, w = band.shape[0] - taps + 1, band.shape[1] - taps + 1
    src = band.astype(dtype)
    # mid[j]: twice the vertical numerators at row phase j, plus d, on the
    # padded columns
    mid = np.empty((ratio, n, band.shape[1]), dtype)
    product = np.empty_like(mid)
    _weighted_sum(vertical, [src[t : t + n] for t in range(taps)], mid, product)
    mid += d
    cols = [mid[:, :, t : t + w] for t in range(taps)]
    num = np.empty((ratio, n, w), dtype)
    for terms in horizontal:
        _weighted_sum(terms, cols, num, product[:, :, :w])
        num //= 2 * d * d
        np.clip(num, 0, max_value, out=num)
        yield num


def _bilinear_dtype(ratio: int, max_value: int):
    """Integer type of every 2N + ratio**2 <= ratio**2 * (2 * max_value + 1)."""
    return _int_dtype(ratio * ratio * (2 * max_value + 1))


def _twice_bilinear_half_up(band: np.ndarray, ratio: int, dtype):
    """2N + ratio**2 for the bilinear numerator N over ``ratio**2`` of the
    band's 2x2 cells in ``dtype``: (ratio - i) * left[j] + i * right[j] at
    phase (j, i), left and right being twice the vertical numerators plus
    ratio, in one buffer that grows by right - left per column phase."""
    a, k, p, g = band[:-1, :-1], band[:-1, 1:], band[1:, :-1], band[1:, 1:]
    j = np.arange(ratio, dtype=dtype)[:, None, None]
    left = 2 * ((ratio - j) * a.astype(dtype) + j * p) + ratio
    right = 2 * ((ratio - j) * k.astype(dtype) + j * g) + ratio
    num = ratio * left
    right -= left
    for _ in range(ratio):
        yield num
        num += right


def _bilinear(band: np.ndarray, ratio: int, max_value: int):
    """Band kernel of bilinear interpolation over the source padded by one
    row and column after it; N / ratio**2, a weighted mean, needs no clamp."""
    dtype = _bilinear_dtype(ratio, max_value)
    num = np.empty((ratio, band.shape[0] - 1, band.shape[1] - 1), dtype)
    for half_up in _twice_bilinear_half_up(band, ratio, dtype):
        yield np.floor_divide(half_up, 2 * ratio * ratio, out=num)


def _nn(band: np.ndarray, ratio: int, max_value: int):
    """Band kernel of nearest neighbor over the source padded by one row
    and column after it."""
    n, w = band.shape[0] - 1, band.shape[1] - 1
    # offset j/ratio moves to the next source pixel only past one half
    rows = np.stack([band[int(2 * j > ratio) :][:n] for j in range(ratio)])
    for i in range(ratio):
        yield rows[:, :, int(2 * i > ratio) :][:, :, :w]


def resample_nn(img: Image, ratio: int) -> Image:
    """Upscale by copying the nearest source pixel (ties go to the lower index)."""
    return _banded(img, ratio, 0, 1, _nn)


def resample_bilinear(img: Image, ratio: int) -> Image:
    """Upscale with bilinear interpolation over clamped 2x2 cells."""
    return _banded(img, ratio, 0, 1, _bilinear)


def resample_bicubic(img: Image, ratio: int) -> Image:
    """Upscale with separable 4x4 cubic convolution, edge taps clamped."""
    return _banded(img, ratio, 1, 2, _bicubic)
