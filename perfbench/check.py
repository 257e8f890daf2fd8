"""Output checks: fast invariants on whole images and an exact rational
reference evaluated on a seeded sample of output pixels.

The reference follows the README's definitions with fractions.Fraction
and shares no code with the package: output index X maps to source
position X / r exactly, companions clamp to the edge, quantization is
floor(v + 1/2) clamped to [0, max_value].
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

import numpy as np

SAMPLE_PIXELS = 4000
HALF = Fraction(1, 2)
CUBIC_A = Fraction(-1, 2)


def read_p5(data: bytes) -> tuple[np.ndarray, int]:
    """(pixels, max_value) of a binary PGM with a comment-free header."""
    header = re.match(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s", data)
    if header is None:
        raise ValueError("output is not a binary PGM")
    w, h, maxval = map(int, header.groups())
    raster = data[header.end() :]
    if len(raster) != w * h:
        raise ValueError(f"raster holds {len(raster)} bytes, expected {w * h}")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w), maxval


# --- invariants ------------------------------------------------------------


def invariant_errors(method: str, src: np.ndarray, src_max: int, out: np.ndarray, out_max: int, r: int) -> list[str]:
    """Every invariant the output breaks; empty when it holds them all."""
    h, w = src.shape
    if out.shape != (h * r, w * r):
        return [f"shape {out.shape} != {(h * r, w * r)}"]
    errors = []
    if out_max != src_max:
        errors.append(f"max_value {out_max} != {src_max}")
    if not np.array_equal(out[::r, ::r], src):
        errors.append("source sites not copied through")
    if int(out.max()) > src_max:
        errors.append(f"value {int(out.max())} above max_value {src_max}")
    if method == "nnv":
        ys = np.arange(h * r) // r
        xs = np.arange(w * r) // r
        y1 = np.minimum(ys + 1, h - 1)
        x1 = np.minimum(xs + 1, w - 1)
        member = out == src[ys[:, None], xs[None, :]]
        member |= out == src[ys[:, None], x1[None, :]]
        member |= out == src[y1[:, None], xs[None, :]]
        member |= out == src[y1[:, None], x1[None, :]]
        bad = int(member.size - np.count_nonzero(member))
        if bad:
            errors.append(f"{bad} nnv pixels not drawn from their cell")
    return errors


def downsample_errors(src: np.ndarray, src_max: int, out: np.ndarray, out_max: int, r: int) -> list[str]:
    """Invariants of a block-mean reduction: shape, max_value and range."""
    h, w = src.shape
    if out.shape != (h // r, w // r):
        return [f"shape {out.shape} != {(h // r, w // r)}"]
    errors = []
    if out_max != src_max:
        errors.append(f"max_value {out_max} != {src_max}")
    if int(out.max()) > src_max:
        errors.append(f"value {int(out.max())} above max_value {src_max}")
    return errors


def mse_psnr(reference: np.ndarray, test: np.ndarray, max_value: int) -> tuple[float, float]:
    """MSE from an exact integer sum, and PSNR in dB (inf for equal images)."""
    diff = reference.astype(np.int64) - test.astype(np.int64)
    err = int((diff * diff).sum()) / diff.size
    return err, (10.0 * math.log10(max_value * max_value / err) if err else math.inf)


# --- exact reference -------------------------------------------------------


def _locate(index: int, r: int, size: int) -> tuple[int, int, Fraction]:
    base, rem = divmod(index, r)
    return base, min(base + 1, size - 1), Fraction(rem, r)


def _quantize(value: Fraction, max_value: int) -> int:
    return min(max(math.floor(value + HALF), 0), max_value)


def _bilinear(a: int, k: int, p: int, g: int, dx: Fraction, dy: Fraction) -> Fraction:
    return (1 - dy) * ((1 - dx) * a + dx * k) + dy * ((1 - dx) * p + dx * g)


def _cubic(t: Fraction) -> Fraction:
    u = abs(t)
    if u <= 1:
        return (CUBIC_A + 2) * u**3 - (CUBIC_A + 3) * u**2 + 1
    if u < 2:
        return CUBIC_A * (u**3 - 5 * u**2 + 8 * u - 4)
    return Fraction(0)


@lru_cache(maxsize=None)
def _cubic_weights(t: Fraction) -> tuple[tuple[int, ...], int]:
    """Tap weights at offset t as integer numerators over one denominator,
    so a pixel sums in exact integer arithmetic."""
    weights = (_cubic(1 + t), _cubic(t), _cubic(1 - t), _cubic(2 - t))
    denom = math.lcm(*(w.denominator for w in weights))
    return tuple(int(w * denom) for w in weights), denom


def _unique_mode(values: tuple[int, ...]) -> int | None:
    counts = {v: values.count(v) for v in values}
    best = max(counts.values())
    winners = [v for v, c in counts.items() if c == best]
    return winners[0] if best >= 2 and len(winners) == 1 else None


def exact_pixel(method: str, src: list[list[int]], max_value: int, r: int, x: int, y: int) -> int:
    """The README's value of output pixel (x, y), in exact arithmetic."""
    h, w = len(src), len(src[0])
    x0, x1, dx = _locate(x, r, w)
    y0, y1, dy = _locate(y, r, h)
    if method == "nn":
        return src[y0 if dy <= HALF else y1][x0 if dx <= HALF else x1]
    cell = (src[y0][x0], src[y0][x1], src[y1][x0], src[y1][x1])
    if method == "bilinear":
        return _quantize(_bilinear(*cell, dx, dy), max_value)
    if method == "bicubic":
        rows = [min(max(y0 + j, 0), h - 1) for j in (-1, 0, 1, 2)]
        cols = [min(max(x0 + i, 0), w - 1) for i in (-1, 0, 1, 2)]
        (wx, dx_den), (wy, dy_den) = _cubic_weights(dx), _cubic_weights(dy)
        total = sum(wy[j] * sum(wx[i] * src[rows[j]][cols[i]] for i in range(4)) for j in range(4))
        return _quantize(Fraction(total, dx_den * dy_den), max_value)
    if method == "nnv":
        if dx == 0 and dy == 0:
            return cell[0]
        mode = _unique_mode(cell)
        if mode is not None:
            return mode
        b = _bilinear(*cell, dx, dy)
        gaps = [abs(v - b) for v in cell]
        return cell[gaps.index(min(gaps))]
    raise ValueError(f"unknown method {method!r}")


def _sample(shape: tuple[int, int], seed, count: int) -> tuple[list[int], list[int]]:
    """Seeded distinct (ys, xs) positions in an array of this shape."""
    size = shape[0] * shape[1]
    flat = np.random.default_rng(seed).choice(size, size=min(count, size), replace=False)
    ys, xs = np.divmod(flat, shape[1])
    return ys.tolist(), xs.tolist()


def exact_mismatches(method: str, src: np.ndarray, max_value: int, out: np.ndarray, r: int, seed, count: int = SAMPLE_PIXELS) -> int:
    """Sampled output pixels that differ from the exact reference."""
    ys, xs = _sample(out.shape, seed, count)
    rows = src.tolist()
    return sum(
        int(out[y, x]) != exact_pixel(method, rows, max_value, r, x, y)
        for y, x in zip(ys, xs)
    )


def block_mean_mismatches(src: np.ndarray, out: np.ndarray, r: int, seed, count: int = SAMPLE_PIXELS) -> int:
    """Sampled reduced pixels that differ from floor(block mean + 1/2)."""
    mismatches = 0
    for y, x in zip(*_sample(out.shape, seed, count)):
        block = src[y * r : (y + 1) * r, x * r : (x + 1) * r]
        mismatches += int(out[y, x]) != math.floor(Fraction(int(block.sum()), r * r) + HALF)
    return mismatches
