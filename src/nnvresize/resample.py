"""Classic integer-ratio upscalers: nearest neighbor, bilinear, separable bicubic.

All three share one geometry: output position ``dst`` maps to source
position ``dst / ratio`` (top-left anchored, so source pixels land exactly
on every ratio-th output pixel), and out-of-range taps clamp to the edge.
Quantization is round half up, then clamp to [0, max_value].

At an integer ratio r every sub-pixel offset is i/r, so output pixel
(y*r + j, x*r + i) is a fixed kernel applied at phase (j, i) to the
edge-padded source around (y, x). Every resampler, NNV included, runs
through one band loop, _banded: it pads the source once, as uint8, and
walks it in bands of source rows [y0, y1) that hold about
image._BAND_BYTES of output each. Per band, a method's band kernel, a
generator, gets the padded rows its taps reach and yields, one column
phase i at a time, the r row phases of output rows [y0*r, y1*r) for
out[y0*r:y1*r, i::r]. Taps are weighed with integers over a power of r,
rounding offset folded in, in one vertical pass, _vertical_half_up, per
band: bilinear and NNV step its result across column phases (bilinear
floor-divides the very sum NNV compares), bicubic weighs four of its
columns. Every value is exact at every ratio, and each method's
temporaries are the size of a band.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .image import Image, _bands, _check_ratio, _int_dtype

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
    for y0, y1 in _bands(h, w * ratio * ratio):
        # no name holds a phase past its copy, so one band's buffers are
        # freed before the next band allocates its own
        phases = kernel(src[y0 : y1 + before + after], ratio, img.max_value)
        for i in range(ratio):
            # one copy per column phase keeps the copy's inner loop
            # running along x, not over the phases
            out[y0:y1, :, :, i] = next(phases).transpose(1, 0, 2)
    # read-only, so Image keeps this array rather than copying it
    out.setflags(write=False)
    return Image(out.reshape(h * ratio, w * ratio), img.max_value)


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


def _vertical_half_up(band: np.ndarray, weights: np.ndarray, max_value: int) -> np.ndarray:
    """2V + d at every row phase j over every padded column, V weighing
    the band's rows with ``weights[j]``; each row of the (ratio, taps)
    integer weights sums to d. Weighed again by them, 2V + d yields
    2N + d*d, so the integer type holds reach * (2 * reach * max_value +
    d), reach being the largest sum of a row's |weights|."""
    ratio, taps = weights.shape
    d = int(weights[0].sum())
    reach = int(np.abs(weights).sum(axis=1).max())
    dtype = _int_dtype(reach * (2 * reach * max_value + d))
    # tap t's weights at every row phase, doubled, as a (ratio, 1, 1) column
    terms = [(2 * column[:, None, None], t) for t, column in enumerate(weights.astype(dtype).T) if column.any()]
    n = band.shape[0] - taps + 1
    src = band.astype(dtype)
    mid = np.empty((ratio, n, band.shape[1]), dtype)
    _weighted_sum(terms, [src[t : t + n] for t in range(taps)], mid, np.empty_like(mid))
    mid += d
    return mid


def _bicubic(band: np.ndarray, ratio: int, max_value: int):
    """Band kernel of separable cubic convolution over the source padded
    by one row and column before it and two after it.

    At offset i/ratio, ``_cubic_weights(ratio)[i, t]`` weighs the source
    pixel ``base + t - 1`` over d = 2 * ratio**3 per axis. Column phase i
    weighs four column views of the vertical pass's 2V + d into 2N + d*d,
    N being the numerator over d*d, quantized exactly as
    floor(N/(d*d) + 1/2) and clamped to [0, max_value].
    """
    weights = _cubic_weights(ratio)
    d = 2 * ratio**3
    mid = _vertical_half_up(band, weights, max_value)
    w = mid.shape[2] - 3
    cols = [mid[:, :, t : t + w] for t in range(4)]
    num = np.empty(mid.shape[:2] + (w,), mid.dtype)
    product = np.empty_like(num)
    for row in weights.astype(mid.dtype):
        _weighted_sum([(c, t) for t, c in enumerate(row) if c], cols, num, product)
        num //= 2 * d * d
        np.clip(num, 0, max_value, out=num)
        yield num


def _bilinear_half_up(band: np.ndarray, ratio: int, max_value: int):
    """(2N + ratio**2 at column phase 0, its step per column phase) for
    the bilinear numerator N over ``ratio**2`` of the band's 2x2 cells:
    with mid = 2V + ratio for the weights (ratio - j, j), phase (j, i) is
    ratio * mid[j, :, x] + i * (mid[j, :, x + 1] - mid[j, :, x])."""
    j = np.arange(ratio)
    mid = _vertical_half_up(band, np.stack([ratio - j, j], axis=1), max_value)
    return ratio * mid[..., :-1], mid[..., 1:] - mid[..., :-1]


def _bilinear(band: np.ndarray, ratio: int, max_value: int):
    """Band kernel of bilinear interpolation over the source padded by one
    row and column after it; N / ratio**2, a weighted mean, needs no clamp."""
    half_up, step = _bilinear_half_up(band, ratio, max_value)
    num = np.empty_like(half_up)
    for _ in range(ratio):
        yield np.floor_divide(half_up, 2 * ratio * ratio, out=num)
        half_up += step


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
