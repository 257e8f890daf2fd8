"""Mean squared error and peak signal-to-noise ratio between images."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .image import Image

# pixels per psnr run: 66 051 squares of 255 still fit a uint32
_RUN = (2**32 - 1) // 255**2


@dataclass(frozen=True)
class MetricsReport:
    """MSE plus PSNR in dB; psnr_db is None exactly when MSE is zero."""

    mse: float
    psnr_db: float | None


def _sum_of_squares(a: np.ndarray, b: np.ndarray) -> int:
    """Exact sum of (a - b)**2 over two uint8 arrays of at most _RUN
    values: |a - b| as uint8, max - min, its square as uint16, summed in
    one step in uint32."""
    diff = np.maximum(a, b)
    diff -= np.minimum(a, b)
    square = diff.astype(np.uint16)
    square *= square
    return int(square.sum(dtype=np.uint32))


def psnr(reference: Image, test: Image) -> MetricsReport:
    """MSE, and PSNR in dB relative to the images' shared max_value.

    Squared differences are summed exactly, over runs of _RUN pixels of
    the flattened rasters, before the one division, so the MSE does not
    depend on summation order or run length. Identical images have zero
    MSE and an undefined PSNR, reported as psnr_db=None.
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
    # views: every Image's pixels are C-contiguous
    a, b = reference.pixels.reshape(-1), test.pixels.reshape(-1)
    total = sum(_sum_of_squares(a[i : i + _RUN], b[i : i + _RUN]) for i in range(0, a.size, _RUN))
    err = total / a.size
    if err == 0.0:
        return MetricsReport(mse=0.0, psnr_db=None)
    peak = reference.max_value
    return MetricsReport(mse=err, psnr_db=10.0 * math.log10(peak * peak / err))
