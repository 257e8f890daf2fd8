"""Exact per-pixel reference resamplers and independent oracles.

The reference resamplers evaluate the README's definitions with
fractions.Fraction, one output pixel at a time, and share no code with
the package: output index X maps to source position X / ratio exactly,
companions and taps clamp to the edge, quantization is floor(v + 1/2)
clamped to [0, max_value]. They pin the vectorized resamplers pixel for
pixel at every integer ratio. The oracles at the bottom share no code
with the library's selection logic either.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np

from nnvresize import Image

HALF = Fraction(1, 2)
CUBIC_A = Fraction(-1, 2)


def _locate(index: int, ratio: int, size: int):
    """(base, clamped companion, exact offset) of an output index."""
    base, rem = divmod(index, ratio)
    return base, min(base + 1, size - 1), Fraction(rem, ratio)


def _round_half_up(value: Fraction, max_value: int) -> int:
    return min(max(math.floor(value + HALF), 0), max_value)


def _bilinear(a, k, p, g, dx: Fraction, dy: Fraction) -> Fraction:
    """Tensor-product blend of the cell (a k / p g) at offset (dx, dy)."""
    top = a + dx * (k - a)
    return top + dy * (p + dx * (g - p) - top)


def _cubic_kernel(s: Fraction) -> Fraction:
    """Keys cubic-convolution kernel with a = -1/2."""
    u = abs(s)
    if u <= 1:
        return (CUBIC_A + 2) * u**3 - (CUBIC_A + 3) * u**2 + 1
    if u < 2:
        return CUBIC_A * (u**3 - 5 * u**2 + 8 * u - 4)
    return Fraction(0)


@lru_cache(maxsize=None)
def _cubic_taps(t: Fraction):
    """Weights of taps -1..2 at offset t, as integer numerators over one
    denominator so that a pixel sums in exact integer arithmetic."""
    weights = [_cubic_kernel(d - t) for d in (-1, 0, 1, 2)]
    denom = math.lcm(*(v.denominator for v in weights))
    return [int(v * denom) for v in weights], denom


def exact_pixel(method: str, rows, max_value: int, ratio: int, x: int, y: int) -> int:
    """The README's value of output pixel (x, y); ``rows`` is the source
    as a list of lists of ints."""
    h, w = len(rows), len(rows[0])
    x0, x1, dx = _locate(x, ratio, w)
    y0, y1, dy = _locate(y, ratio, h)
    if method == "nn":
        return rows[y0 if dy <= HALF else y1][x0 if dx <= HALF else x1]
    cell = (rows[y0][x0], rows[y0][x1], rows[y1][x0], rows[y1][x1])
    if method == "bilinear":
        return _round_half_up(_bilinear(*cell, dx, dy), max_value)
    if method == "bicubic":
        (wx, x_den), (wy, y_den) = _cubic_taps(dx), _cubic_taps(dy)
        cols = [min(max(x0 + o, 0), w - 1) for o in (-1, 0, 1, 2)]
        total = 0
        for weight, o in zip(wy, (-1, 0, 1, 2)):
            row = rows[min(max(y0 + o, 0), h - 1)]
            total += weight * sum(c * row[col] for c, col in zip(wx, cols))
        return _round_half_up(Fraction(total, x_den * y_den), max_value)
    if method == "nnv":
        if dx == 0 and dy == 0:
            return cell[0]
        mode = oracle_unique_mode(cell)
        if mode is not None:
            return mode
        b = _bilinear(*cell, dx, dy)
        gaps = [abs(v - b) for v in cell]
        return cell[oracle_first_argmin(gaps)]
    raise ValueError(f"unknown method {method!r}")


def exact_resample(method: str, img: Image, ratio: int) -> Image:
    """Whole-image reference: exact_pixel at every output position."""
    rows = img.pixels.tolist()
    out = [
        [exact_pixel(method, rows, img.max_value, ratio, x, y) for x in range(img.width * ratio)]
        for y in range(img.height * ratio)
    ]
    return Image(np.array(out, dtype=np.uint8), img.max_value)


# --- independent oracles -------------------------------------------------


def cell_values(img: Image, ratio: int):
    """(a, k, p, g): the 2x2 cell values under every output pixel, edges
    clamped, derived with integer division only."""
    ys = np.arange(img.height * ratio) // ratio
    xs = np.arange(img.width * ratio) // ratio
    y_next = np.minimum(ys + 1, img.height - 1)
    x_next = np.minimum(xs + 1, img.width - 1)
    pix = img.pixels
    return (
        pix[ys[:, None], xs[None, :]],
        pix[ys[:, None], x_next[None, :]],
        pix[y_next[:, None], xs[None, :]],
        pix[y_next[:, None], x_next[None, :]],
    )


def oracle_unique_mode(values):
    """The single strictly-most-frequent value, or None."""
    counts = Counter(values)
    best = max(counts.values())
    winners = [v for v, c in counts.items() if c == best]
    if best >= 2 and len(winners) == 1:
        return winners[0]
    return None


def oracle_first_argmin(values) -> int:
    """0-based index of the first occurrence of the minimum."""
    values = list(values)
    return values.index(min(values))


def oracle_nnv_centered(a: int, k: int, p: int, g: int) -> int:
    """Fill value for a centered empty location (offsets 0.5, 0.5):
    unique mode if any, else the neighbor nearest the plain four-way mean."""
    mode = oracle_unique_mode((a, k, p, g))
    if mode is not None:
        return mode
    mean = (a + k + p + g) / 4.0
    gaps = [abs(a - mean), abs(k - mean), abs(p - mean), abs(g - mean)]
    return (a, k, p, g)[oracle_first_argmin(gaps)]
