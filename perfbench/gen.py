"""Seeded synthetic inputs for the benchmark, and the input census.

Everything here is plain numpy written for the benchmark: the program
under test only ever sees the PGM files these functions produce.
"""

from __future__ import annotations

import numpy as np

MAX_VALUE = 255


def _smooth_field(rng: np.random.Generator, size: int, blobs: int) -> np.ndarray:
    """Sum of random Gaussian blobs and two low-frequency waves, float64."""
    axis = np.arange(size, dtype=np.float64)
    field = np.zeros((size, size))
    for _ in range(blobs):
        cx, cy = rng.uniform(0, size, 2)
        sx, sy = rng.uniform(0.06, 0.25, 2) * size
        gx = np.exp(-0.5 * ((axis - cx) / sx) ** 2)
        gy = np.exp(-0.5 * ((axis - cy) / sy) ** 2)
        field += rng.uniform(-1.0, 1.0) * np.outer(gy, gx)
    for _ in range(2):
        fx, fy = rng.uniform(0.5, 2.5, 2) * 2 * np.pi / size
        phase = rng.uniform(0, 2 * np.pi)
        field += 0.3 * np.cos(fy * axis[:, None] + fx * axis[None, :] + phase)
    return field


def _rescale(field: np.ndarray, lo: float, hi: float) -> np.ndarray:
    span = field.max() - field.min()
    return lo + (field - field.min()) * ((hi - lo) / span)


def photo_like(rng: np.random.Generator, size: int) -> np.ndarray:
    """Smooth shading plus an oriented texture plus sensor-like noise.

    Most 2x2 cells hold three or four distinct values, so NNV falls back
    to its nearest-to-bilinear rule almost everywhere (the mode-cell
    share is about 0.13).
    """
    base = _rescale(_smooth_field(rng, size, blobs=10), 30.0, 220.0)
    axis = np.arange(size, dtype=np.float64)
    angle = rng.uniform(0, np.pi)
    period = rng.uniform(7.0, 13.0)
    phase = (np.cos(angle) * axis[None, :] + np.sin(angle) * axis[:, None]) * (2 * np.pi / period)
    texture = 12.0 * np.sin(phase) * _rescale(_smooth_field(rng, size, blobs=4), 0.2, 1.0)
    noise = rng.normal(0.0, 12.0, (size, size))
    return np.clip(np.rint(base + texture + noise), 0, MAX_VALUE).astype(np.uint8)


def posterized(rng: np.random.Generator, size: int) -> np.ndarray:
    """Smooth blobs quantized to five random grey values by quantile bands."""
    field = _smooth_field(rng, size, blobs=14)
    cuts = np.quantile(field, [0.2, 0.4, 0.6, 0.8])
    greys = np.sort(rng.choice(np.arange(10, 246), size=5, replace=False))
    return greys[np.searchsorted(cuts, field)].astype(np.uint8)


def encode_p5(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return f"P5\n{w} {h}\n{MAX_VALUE}\n".encode("ascii") + pixels.tobytes()


def encode_p2(pixels: np.ndarray) -> bytes:
    """ASCII PGM with a header comment and 16 samples a line (under the
    format's 70-character line limit)."""
    h, w = pixels.shape
    flat = pixels.ravel().tolist()
    lines = [f"P2\n# synthetic photo-like source\n{w} {h}\n{MAX_VALUE}"]
    for i in range(0, len(flat), 16):
        lines.append(" ".join(map(str, flat[i : i + 16])))
    return ("\n".join(lines) + "\n").encode("ascii")


def block_mean(pixels: np.ndarray, ratio: int) -> np.ndarray:
    """Exact block mean rounded half up: floor(sum / r^2 + 1/2)."""
    h, w = pixels.shape
    sums = pixels.astype(np.int64).reshape(h // ratio, ratio, w // ratio, ratio).sum(axis=(1, 3))
    denom = ratio * ratio
    return ((2 * sums + denom) // (2 * denom)).astype(np.uint8)


def mode_cells(pixels: np.ndarray) -> tuple[int, int]:
    """(cells with a unique mode, cells) over every 2x2 window, edges clamped.

    A unique mode exists for the frequency patterns 4, 3+1 and 2+1+1;
    2+2 and 1+1+1+1 have none.
    """
    src = np.pad(pixels, ((0, 1), (0, 1)), mode="edge")
    a, k = src[:-1, :-1], src[:-1, 1:]
    p, g = src[1:, :-1], src[1:, 1:]
    counts = [
        1 + (a == k) + (a == p) + (a == g),
        1 + (k == a) + (k == p) + (k == g),
        1 + (p == a) + (p == k) + (p == g),
        1 + (g == a) + (g == k) + (g == p),
    ]
    top = np.maximum(np.maximum(counts[0], counts[1]), np.maximum(counts[2], counts[3]))
    doubled = sum((c == 2).astype(np.int8) for c in counts)
    unique = (top >= 3) | ((top == 2) & (doubled == 2))
    return int(unique.sum()), int(unique.size)
