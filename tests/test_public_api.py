"""The package's top-level public surface."""

import nnvresize

PUBLIC_NAMES = [
    "Image",
    "METHOD_ORDER",
    "MetricsReport",
    "PgmError",
    "RESAMPLERS",
    "block_downsample",
    "get_resampler",
    "load_pgm",
    "mse",
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
    "time_resample",
    "write_pgm",
]


def test_all_is_exactly_the_public_surface():
    assert sorted(nnvresize.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(nnvresize, name) is not None, name
