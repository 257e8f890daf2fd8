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
image._BAND_BYTES of output each. Per band, a method's band kernel gets
the padded rows its taps reach and the (y1 - y0, r, width, r) view of
output rows [y0*r, y1*r), and writes each byte of that view once.
Taps are weighed with integers over a power of r, rounding offset folded
in. The three kernels here run their horizontal pass first, at source
height, into rows whose column phases are interleaved as in the output,
the one strided write; their vertical pass then writes each row phase as
finished uint8 output rows. One type rule, _half_up_dtype, sizes every
first pass, NNV's own bilinear guide included, which steps down the rows
first, as its cells live at source resolution. Every value is exact at
every ratio, and each method's temporaries are the size of a band.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .image import Image, _bands, _check_ratio, _int_dtype

# the largest output, in pixels, a resampler will allocate
_MAX_OUTPUT_PIXELS = 2**31

# kernel(band, ratio, max_value, out) writes one band's output: band holds
# the padded source rows [y0, y1 + before + after), and out is the
# (y1 - y0, ratio, width, ratio) view of the output whose [y, j, x, i]
# entry is output pixel ((y0 + y)*ratio + j, x*ratio + i)
Kernel = Callable[[np.ndarray, int, int, np.ndarray], None]


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
        # a kernel's temporaries are freed when it returns, before the
        # next band allocates its own
        kernel(src[y0 : y1 + before + after], ratio, img.max_value, out[y0:y1])
    # read-only, so Image keeps this array rather than copying it
    out.setflags(write=False)
    return Image(out.reshape(h * ratio, w * ratio), img.max_value)


def _weighted_sum(terms, views, out: np.ndarray, product: np.ndarray) -> None:
    """out = sum(c * views[t]) over the (c, t) in ``terms``, each c a
    scalar; ``product`` is a buffer shaped like ``out`` that takes each
    product."""
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


def _bilinear_weights(ratio: int) -> np.ndarray:
    """(ratio, 2) integer weights (ratio - i, i) of taps 0..1 over ``ratio``."""
    i = np.arange(ratio)
    return np.stack([ratio - i, i], axis=1)


def _half_up_dtype(weights: np.ndarray, max_value: int):
    """Integer type of both passes over pixels in [0, max_value] with the
    (ratio, taps) integer weights, each row of which sums to d: the first
    pass keeps 2P + d, P weighing pixels with one row, and the second
    weighs that with one row into 2N + d*d. It holds reach * (2 * reach *
    max_value + d), reach being the largest sum of a row's |weights|."""
    d = int(weights[0].sum())
    reach = int(np.abs(weights).sum(axis=1).max())
    return _int_dtype(reach * (2 * reach * max_value + d))


def _horizontal_half_up(band: np.ndarray, weights: np.ndarray, max_value: int) -> np.ndarray:
    """(rows, width * ratio) 2H + d at every column phase i over every
    padded row, H weighing the band's columns with ``weights[i]``, the
    phases interleaved: column x * ratio + i holds phase i at source
    column x, so a row of it is a row of output columns."""
    ratio, taps = weights.shape
    d = int(weights[0].sum())
    dtype = _half_up_dtype(weights, max_value)
    rows, w = band.shape[0], band.shape[1] - taps + 1
    src = band.astype(dtype)
    cols = [src[:, t : t + w] for t in range(taps)]
    mid = np.empty((rows, w, ratio), dtype)
    total = np.empty((rows, w), dtype)
    product = np.empty_like(total)
    for i, row in enumerate(2 * weights.astype(dtype)):
        _weighted_sum([(c, t) for t, c in enumerate(row) if c], cols, total, product)
        # the kernel's one strided write, 1/ratio the size of its output
        np.add(total, d, out=mid[:, :, i])
    return mid.reshape(rows, w * ratio)


def _bicubic(band: np.ndarray, ratio: int, max_value: int, out: np.ndarray) -> None:
    """Band kernel of separable cubic convolution over the source padded
    by one row and column before it and two after it.

    At offset i/ratio, ``_cubic_weights(ratio)[i, t]`` weighs the source
    pixel ``base + t - 1`` over d = 2 * ratio**3 per axis. Row phase j
    weighs four row views of the horizontal pass's 2H + d into 2N + d*d,
    N being the numerator over d*d, quantized exactly as
    floor(N/(d*d) + 1/2) and clamped to [0, max_value].
    """
    weights = _cubic_weights(ratio)
    d = 2 * ratio**3
    mid = _horizontal_half_up(band, weights, max_value)
    n = out.shape[0]
    rows = [mid[t : t + n] for t in range(4)]
    num = np.empty((n, mid.shape[1]), mid.dtype)
    product = np.empty_like(num)
    finished = out.reshape(n, ratio, mid.shape[1])
    for j, row in enumerate(weights.astype(mid.dtype)):
        _weighted_sum([(c, t) for t, c in enumerate(row) if c], rows, num, product)
        num //= 2 * d * d
        np.clip(num, 0, max_value, out=finished[:, j], casting="unsafe")


def _bilinear(band: np.ndarray, ratio: int, max_value: int, out: np.ndarray) -> None:
    """Band kernel of bilinear interpolation over the source padded by one
    row and column after it: with mid = 2H + ratio for the weights
    (ratio - i, i), 2N + ratio**2 at row phase j is ratio * mid[y] +
    j * (mid[y + 1] - mid[y]); N / ratio**2, a weighted mean, needs no
    clamp."""
    mid = _horizontal_half_up(band, _bilinear_weights(ratio), max_value)
    half_up, step = ratio * mid[:-1], mid[1:] - mid[:-1]
    finished = out.reshape(out.shape[0], ratio, mid.shape[1])
    for j in range(ratio):
        np.floor_divide(half_up, 2 * ratio * ratio, out=finished[:, j], casting="unsafe")
        half_up += step


def _nn(band: np.ndarray, ratio: int, max_value: int, out: np.ndarray) -> None:
    """Band kernel of nearest neighbor over the source padded by one row
    and column after it."""
    n, w = out.shape[0], out.shape[2]
    # offset k/ratio moves to the next source pixel only past one half
    mid = np.empty((band.shape[0], w, ratio), np.uint8)
    for i in range(ratio):
        mid[:, :, i] = band[:, int(2 * i > ratio) :][:, :w]
    mid = mid.reshape(band.shape[0], w * ratio)
    finished = out.reshape(n, ratio, w * ratio)
    for j in range(ratio):
        finished[:, j] = mid[int(2 * j > ratio) :][:n]


def resample_nn(img: Image, ratio: int) -> Image:
    """Upscale by copying the nearest source pixel (ties go to the lower index)."""
    return _banded(img, ratio, 0, 1, _nn)


def resample_bilinear(img: Image, ratio: int) -> Image:
    """Upscale with bilinear interpolation over clamped 2x2 cells."""
    return _banded(img, ratio, 0, 1, _bilinear)


def resample_bicubic(img: Image, ratio: int) -> Image:
    """Upscale with separable 4x4 cubic convolution, edge taps clamped."""
    return _banded(img, ratio, 1, 2, _bicubic)
