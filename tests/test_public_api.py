"""The package's top-level public surface."""

import re
from pathlib import Path

import nnvresize

PUBLIC_NAMES = [
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


def test_all_is_exactly_the_public_surface():
    assert sorted(nnvresize.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(nnvresize, name) is not None, name


def test_version_is_the_one_in_pyproject():
    # a regex, not tomllib, which Python 3.10 lacks
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text()
    assert nnvresize.__version__ == re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
