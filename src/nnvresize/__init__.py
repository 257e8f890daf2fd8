"""Grayscale image upscaling built around nearest-neighbor-value (NNV)
interpolation, with nearest/bilinear/bicubic baselines, PGM I/O, PSNR/MSE
metrics, and a benchmark harness."""

from .bench import (
    RESAMPLERS,
    get_resampler,
    report_markdown,
    rows_to_csv,
    run_benchmark,
)
from .image import (
    Image,
    PgmError,
    block_downsample,
    load_pgm,
    read_pgm,
    save_pgm,
    write_pgm,
)
from .metrics import MetricsReport, psnr
from .nnv import resample_nnv
from .resample import resample_bicubic, resample_bilinear, resample_nn

__version__ = "0.1.0"

__all__ = [
    "Image",
    "MetricsReport",
    "PgmError",
    "RESAMPLERS",
    "block_downsample",
    "get_resampler",
    "load_pgm",
    "psnr",
    "read_pgm",
    "report_markdown",
    "resample_bicubic",
    "resample_bilinear",
    "resample_nn",
    "resample_nnv",
    "rows_to_csv",
    "run_benchmark",
    "save_pgm",
    "write_pgm",
]
