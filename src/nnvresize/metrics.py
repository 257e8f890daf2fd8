"""Mean squared error and peak signal-to-noise ratio between images."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import _REDUCE_PIXEL_BYTES, Image, _bands


@dataclass(frozen=True)
class MetricsReport:
    """MSE plus PSNR in dB; psnr_db is None exactly when MSE is zero."""

    mse: float
    psnr_db: float | None


def _sum_of_squares(a: np.ndarray, b: np.ndarray) -> int:
    """Exact sum of (a - b)**2 over two 2-D uint8 arrays: |a - b| as
    uint8, max - min, its square as uint16, each row's sum in uint32 (in
    uint64 once a row of 255**2 could reach 2**32), the rows' in uint64."""
    diff = np.maximum(a, b)
    diff -= np.minimum(a, b)
    square = diff.astype(np.uint16)
    square *= square
    row_dtype = np.uint32 if a.shape[1] * 255**2 < 2**32 else np.uint64
    return int(square.sum(axis=1, dtype=row_dtype).sum(dtype=np.uint64))


def psnr(reference: Image, test: Image) -> MetricsReport:
    """MSE, and PSNR in dB relative to the images' shared max_value.

    Squared differences are summed exactly, a band of rows at a time,
    before the one division, so the MSE does not depend on summation
    order or band size. Identical images have zero MSE and an undefined
    PSNR, reported as psnr_db=None.
    """
    if reference.max_value != test.max_value:
        raise ValueError(
            f"max_value mismatch: {reference.max_value} vs {test.max_value}"
        )
    if (reference.width, reference.height) != (test.width, test.height):
        raise ValueError(
            f"dimension mismatch: {reference.width}x{reference.height}"
            f" vs {test.width}x{test.height}"
        )
    width, height = reference.width, reference.height
    total = sum(
        _sum_of_squares(reference.pixels[y0:y1], test.pixels[y0:y1])
        for y0, y1 in _bands(height, _REDUCE_PIXEL_BYTES * width)
    )
    err = total / (width * height)
    if err == 0.0:
        return MetricsReport(mse=0.0, psnr_db=None)
    peak = reference.max_value
    return MetricsReport(mse=err, psnr_db=10.0 * math.log10(peak * peak / err))
