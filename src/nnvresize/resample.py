"""Classic integer-ratio upscalers: nearest neighbor, bilinear, separable bicubic.

All three share one geometry: output position ``dst`` maps to source
position ``dst / ratio`` (top-left anchored, so source pixels land exactly
on every ratio-th output pixel), and out-of-range taps clamp to the edge.
Quantization is round half up, then clamp to [0, max_value].

At an integer ratio r every sub-pixel offset is i/r, so output pixel
(y*r + j, x*r + i) is a fixed kernel applied at phase (j, i) to the
edge-padded source around (y, x). Every resampler, NNV included, runs
through one tile loop, _banded: it pads the source once, as uint8, and
walks it with image._tiles, the package's one 2-D walker, in bands of
source rows [y0, y1) that hold about image._BAND_BYTES of output each,
a band cut into tiles of source columns [x0, x1) whose first pass, r
values a source pixel, holds about as much. Per tile, a method's kernel
gets the padded rows and columns its taps reach and the
(y1 - y0, r, (x1 - x0)*r) view of output rows [y0*r, y1*r) and columns
[x0*r, x1*r), and writes each byte of that view once.
Taps are weighed with integers over a power of r, rounding offset folded
in. The three kernels here run their horizontal pass first, at source
height, into rows whose column phases are interleaved as in the output,
the one strided write; their vertical pass then writes each row phase as
finished uint8 output rows. One type rule, _half_up_dtype, sizes every
first pass, NNV's own bilinear guide included, which steps down the rows
first, as its cells live at source resolution. Where that rule's bound
passes int64, from ratio 378 at 8 bits, bicubic splits its second pass
to stay in int64; it refuses ratios above 1107. Every value is exact.
Each method's temporaries are the size of a tile, so beyond the padded
source they grow with neither the height nor, past one tile, the width:
bicubic holds 14 MiB over a 32 MiB output on a 1x524288 source at ratio
8, 12.3 MiB at a width of 65536. A row is split only once its first
pass (w*r values) passes _BAND_BYTES, so a tiny source at a huge ratio
stays whole, and its kernels step through their r phases once a band.
"""

from __future__ import annotations

import numpy as np

from .image import Image, _check_count, _int_dtype, _tiles

# the largest output, in pixels, a resampler will allocate
_MAX_OUTPUT_PIXELS = 2**31

# the largest bicubic ratio: reach * d, a bound of _bicubic's split, fits int64
_MAX_BICUBIC_RATIO = 1107

def _banded(img: Image, ratio, before: int, after: int, kernel) -> Image:
    """Upscale ``img`` tile by tile with ``kernel`` over the source
    edge-padded by ``before`` rows and columns before it and ``after``
    after it: image._tiles sizes bands by their output, r*r bytes a
    source pixel, and tiles by the r values a source pixel that each
    kernel's first pass holds.

    kernel(band, ratio, max_value, out) writes one tile's output: band
    holds the padded source rows [y0, y1 + before + after) and columns
    [x0, x1 + before + after), and out is the (y1 - y0, ratio,
    (x1 - x0)*ratio) view of the output whose [y, j, k] pixel is output
    pixel ((y0 + y)*ratio + j, x0*ratio + k).

    The ratio and the output size are checked before anything is
    allocated.
    """
    ratio = _check_count(ratio, "ratio")
    h, w = img.height, img.width
    if w * h * ratio * ratio > _MAX_OUTPUT_PIXELS:
        raise ValueError(
            f"output {w * ratio}x{h * ratio} ({w}x{h} at ratio {ratio}) exceeds "
            f"the limit of {_MAX_OUTPUT_PIXELS} pixels"
        )
    src = np.pad(img.pixels, ((before, after), (before, after)), mode="edge")
    out = np.empty((h * ratio, w * ratio), dtype=np.uint8)
    rows = out.reshape(h, ratio, w * ratio)
    for y0, y1, x0, x1 in _tiles(h, w, ratio * ratio, ratio):
        # a kernel's temporaries are freed when it returns, before the
        # next tile allocates its own
        band = src[y0 : y1 + before + after, x0 : x1 + before + after]
        kernel(band, ratio, img.max_value, rows[y0:y1, :, x0 * ratio : x1 * ratio])
    return Image._adopt(out, img.max_value)


def _phase_sums(weights: np.ndarray, views):
    """Yield sum(c * views[t]) over the nonzero weights c = row[t] of each
    row of ``weights``, in order. Every phase's sum is yielded in the same
    buffer shaped like a view, which the next phase overwrites."""
    total, product = np.empty_like(views[0]), np.empty_like(views[0])
    for row in weights:
        (c, t), *rest = [(c, t) for t, c in enumerate(row) if c]
        np.multiply(views[t], c, out=total)
        for c, t in rest:
            total += np.multiply(views[t], c, out=product)
        yield total


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
    max_value + d), reach being the largest sum of a row's |weights|;
    None past int64, where only bicubic goes."""
    d = int(weights[0].sum())
    reach = int(np.abs(weights).sum(axis=1).max())
    bound = reach * (2 * reach * max_value + d)
    return _int_dtype(bound) if bound <= np.iinfo(np.int64).max else None


def _horizontal_half_up(band: np.ndarray, weights: np.ndarray, dtype) -> np.ndarray:
    """(rows, width * ratio) 2H + d as ``dtype`` at every column phase i
    over every padded row, H weighing the band's columns with weights[i],
    the phases interleaved: column x * ratio + i holds phase i at source
    column x, so a row of it is a row of output columns."""
    ratio, taps = weights.shape
    d = int(weights[0].sum())
    rows, w = band.shape[0], band.shape[1] - taps + 1
    src = band.astype(dtype)
    cols = [src[:, t : t + w] for t in range(taps)]
    mid = np.empty((rows, w * ratio), dtype)
    for i, total in enumerate(_phase_sums(2 * weights.astype(dtype), cols)):
        # the kernel's one strided write, 1/ratio the size of its output
        np.add(total, d, out=mid[:, i::ratio])
    return mid


def _bicubic(band: np.ndarray, ratio: int, max_value: int, out: np.ndarray) -> None:
    """Band kernel of separable cubic convolution over the source padded
    by one row and column before it and two after it.

    At offset i/ratio, ``_cubic_weights(ratio)[i, t]`` weighs the source
    pixel ``base + t - 1`` over d = 2 * ratio**3 per axis. Row phase j
    weighs four row views of the horizontal pass's mid = 2H + d into
    2N + d*d, N being the numerator over d*d, quantized exactly as
    floor(N/(d*d) + 1/2) and clamped to [0, max_value]. Where 2N + d*d
    may pass int64, it is d*A + B, A and B weighing q and m of mid =
    d*q + m, 0 <= m < d: |B| < reach * d, and the quotient is
    (A + B // d) // (2*d), as floor(x/n) = floor(floor(x)/n).
    """
    weights = _cubic_weights(ratio)
    d = 2 * ratio**3
    dtype = _half_up_dtype(weights, max_value)
    mid = _horizontal_half_up(band, weights, dtype or np.int64)
    n = out.shape[0]
    weights = weights.astype(mid.dtype)

    def sums(first):
        return _phase_sums(weights, [first[t : t + n] for t in range(4)])

    if dtype is not None:
        nums, scale = sums(mid), 2 * d * d
    else:
        q, m = np.divmod(mid, d)
        nums, scale = (a + b // d for a, b in zip(sums(q), sums(m))), 2 * d
    for j, num in enumerate(nums):
        num //= scale
        np.clip(num, 0, max_value, out=out[:, j], casting="unsafe")


def _bilinear(band: np.ndarray, ratio: int, max_value: int, out: np.ndarray) -> None:
    """Band kernel of bilinear interpolation over the source padded by one
    row and column after it: with mid = 2H + ratio for the weights
    (ratio - i, i), 2N + ratio**2 at row phase j is ratio * mid[y] +
    j * (mid[y + 1] - mid[y]); N / ratio**2, a weighted mean, needs no
    clamp."""
    weights = _bilinear_weights(ratio)
    mid = _horizontal_half_up(band, weights, _half_up_dtype(weights, max_value))
    half_up, step = ratio * mid[:-1], mid[1:] - mid[:-1]
    for j in range(ratio):
        np.floor_divide(half_up, 2 * ratio * ratio, out=out[:, j], casting="unsafe")
        half_up += step


def _nn(band: np.ndarray, ratio: int, max_value: int, out: np.ndarray) -> None:
    """Band kernel of nearest neighbor over the source padded by one row
    and column after it."""
    n, w = out.shape[0], band.shape[1] - 1
    # offset k/ratio moves to the next source pixel only past one half
    mid = np.empty((band.shape[0], w * ratio), np.uint8)
    for i in range(ratio):
        mid[:, i::ratio] = band[:, int(2 * i > ratio) :][:, :w]
    for j in range(ratio):
        out[:, j] = mid[int(2 * j > ratio) :][:n]


def resample_nn(img: Image, ratio: int) -> Image:
    """Upscale by copying the nearest source pixel (ties go to the lower index)."""
    return _banded(img, ratio, 0, 1, _nn)


def resample_bilinear(img: Image, ratio: int) -> Image:
    """Upscale with bilinear interpolation over clamped 2x2 cells."""
    return _banded(img, ratio, 0, 1, _bilinear)


def resample_bicubic(img: Image, ratio: int) -> Image:
    """Upscale with separable 4x4 cubic convolution, edge taps clamped."""
    ratio = _check_count(ratio, "ratio")
    if ratio > _MAX_BICUBIC_RATIO:
        raise ValueError(f"bicubic ratio must be at most {_MAX_BICUBIC_RATIO}, got {ratio}")
    return _banded(img, ratio, 1, 2, _bicubic)
