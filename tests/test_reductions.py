"""psnr and block_downsample against whole-image int64 oracles, the tile
walker that block_downsample shares with the resamplers, and two tables:
CASES, the reductions' hand values, and FLAT, the bytes by which every
tiled layer's peak memory may grow with the image beyond its output.

The package walks images in narrow integers, block_downsample in the
tiles of image._tiles (row bands, split into column tiles where one block
row passes the band budget) and psnr in flat runs of pixels; the oracles
in refimpl widen the whole image to int64 at once. Block sums of 8-bit
values move from int16 to int32 between ratios 11 and 12.
"""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnvresize import (
    Image,
    block_downsample,
    image,
    psnr,
    resample_bicubic,
    resample_bilinear,
    resample_nn,
    resample_nnv,
)

from conftest import band_bytes, random_image, traced_peak
from refimpl import oracle_block_downsample, oracle_mse, oracle_psnr

MAX_VALUES = (1, 15, 255)
RATIOS = range(1, 17)
# the default budget, and one-pixel runs (psnr) or one block
# (block_downsample) per tile
BUDGETS = (None, 1)


def budget(value):
    return nullcontext() if value is None else band_bytes(value)


def images(rng, width, height, max_value):
    """A seeded random image, and the flat images at 0 and at max_value,
    where sums and squares take their extremes."""
    return [
        random_image(rng, width, height, max_value),
        Image(np.zeros((height, width), dtype=np.uint8), max_value),
        Image(np.full((height, width), max_value, dtype=np.uint8), max_value),
    ]


# (rows, cols, band_cost, tile_cost) at the default budget: a grid that is
# one tile, bands of several rows with a shorter last one, one-row bands
# cut into two tiles with a shorter last one (a 70000-wide resampler row
# at ratio 8), and one-row bands that are one tile each (a 4-wide
# resampler row at ratio 600); one-pixel tiles inside band_bytes(1)
GRIDS = ((5, 7, 1, 1), (700, 300, 4, 2), (3, 70_000, 64, 8), (2, 4, 600 * 600, 600))


@pytest.mark.parametrize("band", BUDGETS, ids=("default", "one-pixel"))
@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: "x".join(map(str, g)))
def test_tiles_cover_the_grid_once_in_row_major_order(grid, band):
    rows, cols, band_cost, tile_cost = grid
    with budget(band):
        tiles, fits = list(image._tiles(*grid)), cols * tile_cost <= image._BAND_BYTES
    covered = np.zeros((rows, cols), dtype=np.int64)
    for y0, y1, x0, x1 in tiles:
        # every band is one row at least, and every tile one column
        assert 0 <= y0 < y1 <= rows and 0 <= x0 < x1 <= cols, (y0, y1, x0, x1)
        # a row whose cols * tile_cost fits the budget is one tile
        assert not fits or (x0, x1) == (0, cols), (y0, y1, x0, x1)
        covered[y0:y1, x0:x1] += 1
    assert np.all(covered == 1)
    assert tiles == sorted(tiles)


def assert_downsample_exact(img, ratio):
    got, want = block_downsample(img, ratio), oracle_block_downsample(img, ratio)
    assert got == want, f"{int(np.count_nonzero(got.pixels != want.pixels))} pixels differ at ratio {ratio}"


def assert_metrics_exact(a, b):
    assert psnr(a, b) == oracle_psnr(a, b)


@pytest.mark.parametrize("band", BUDGETS, ids=("default", "one-row"))
@pytest.mark.parametrize("max_value", MAX_VALUES)
@pytest.mark.parametrize("ratio", RATIOS)
def test_block_downsample_matches_oracle(ratio, max_value, band):
    rng = np.random.default_rng(100 * ratio + max_value)
    with budget(band):
        for img in images(rng, 5 * ratio, 3 * ratio, max_value):
            assert_downsample_exact(img, ratio)
        # a ratio equal to the width: one output column
        assert_downsample_exact(random_image(rng, ratio, 2 * ratio, max_value), ratio)


@pytest.mark.parametrize("band", BUDGETS, ids=("default", "one-row"))
def test_block_downsample_ratio_equal_to_a_wide_width(band):
    rng = np.random.default_rng(96)
    with budget(band):
        for img in images(rng, 96, 192, 255):
            assert_downsample_exact(img, 96)


@pytest.mark.parametrize("ratio", (2, 3, 12))
def test_block_downsample_matches_oracle_across_default_bands(ratio):
    # at the default budget a 1536-wide source runs as several bands, the
    # last one shorter
    img = random_image(np.random.default_rng(ratio), 1536, 100 * ratio)
    assert_downsample_exact(img, ratio)


@pytest.mark.parametrize("band", BUDGETS, ids=("default", "one-row"))
@pytest.mark.parametrize("max_value", MAX_VALUES)
def test_metrics_match_oracle(max_value, band):
    rng = np.random.default_rng(7 + max_value)
    with budget(band):
        for width, height in ((1, 1), (7, 5), (1, 33), (64, 48)):
            a, zero, full = images(rng, width, height, max_value)
            b = random_image(rng, width, height, max_value)
            for x, y in ((a, b), (zero, full), (full, zero), (a, a), (a, zero)):
                assert_metrics_exact(x, y)


def test_metrics_match_oracle_across_default_bands():
    # at the default run of 66 051 pixels a 512x300 pair is summed in two
    # full runs and a shorter last one, each ending mid-row
    rng = np.random.default_rng(300)
    a, b = random_image(rng, 512, 300), random_image(rng, 512, 300)
    assert_metrics_exact(a, b)
    zero = Image(np.zeros((300, 512), dtype=np.uint8))
    full = Image(np.full((300, 512), 255, dtype=np.uint8))
    assert psnr(zero, full).mse == oracle_mse(zero, full) == 255.0 * 255.0


@settings(max_examples=60)
@given(
    ratio=st.integers(1, 16),
    blocks=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    max_value=st.sampled_from(MAX_VALUES),
    seed=st.integers(0, 2**32 - 1),
    band=st.sampled_from(BUDGETS),
)
def test_reductions_match_oracles_property(ratio, blocks, max_value, seed, band):
    rng = np.random.default_rng(seed)
    width, height = blocks[0] * ratio, blocks[1] * ratio
    a, b = random_image(rng, width, height, max_value), random_image(rng, width, height, max_value)
    with budget(band):
        assert_downsample_exact(a, ratio)
        assert_metrics_exact(a, b)


# Hand values, one row per case: name, function, its arguments, the field
# of the result pinned and its value. Each is checked against the package
# and against refimpl's oracle; psnr is symmetric, so each pair is checked
# in both orders.
CASES = [
    ("downsample-mean-of-block", block_downsample, (Image([[10, 20], [30, 40]]), 2), "pixels", [[25]]),
    # means 0.25 and 0.5 round half up, to 0 and 1
    ("downsample-round-half-up-on-quarter", block_downsample, (Image([[0, 1], [0, 0]]), 2), "pixels", [[0]]),
    ("downsample-round-half-up-on-half", block_downsample, (Image([[1, 1], [0, 0]]), 2), "pixels", [[1]]),
    ("mse-single-unit-difference", psnr, (Image([[255]]), Image([[254]])), "mse", 1.0),
    ("mse-three-four-five", psnr, (Image([[0, 0]]), Image([[3, 4]])), "mse", 12.5),  # (9 + 16) / 2
    # 70 000 * 255**2 passes 2**32, so a uint32 row sum would wrap
    ("mse-full-scale-difference-on-a-wide-row", psnr, (Image([[0] * 70_000]), Image([[255] * 70_000])), "mse", 65025.0),
    # 10 * log10(100**2 / 1)
    ("psnr-respects-max-value", psnr, (Image([[100]], 100), Image([[99]], 100)), "psnr_db", 40.0),
]
ORACLES = {block_downsample: oracle_block_downsample, psnr: oracle_psnr}


@pytest.mark.parametrize("fn, args, field, want", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_hand_value(fn, args, field, want):
    orders = (args, args[::-1]) if fn is psnr else (args,)
    for f in (fn, ORACLES[fn]):
        for order in orders:
            got = getattr(f(*order), field)
            assert (got.tolist() if field == "pixels" else got) == want, (f.__name__, order)


KIB = 1024

# The peak of one call at the large (width, height) may pass the peak at
# the small one by the output's growth and the allowed bytes, no more:
# name, function, ratio (None for psnr, which compares two images of the
# size and has no output), small size, large size, allowed bytes.
FLAT = [
    # a resampler 8x taller: the extra rows of the padded uint8 source, at
    # most 3 columns of padding (bicubic); every other temporary is a band's
    ("resample_nn-height", resample_nn, 4, (256, 256), (256, 2048), (2048 - 256) * (256 + 3) + 16 * KIB),
    ("resample_bilinear-height", resample_bilinear, 4, (256, 256), (256, 2048), (2048 - 256) * (256 + 3) + 16 * KIB),
    ("resample_bicubic-height", resample_bicubic, 4, (256, 256), (256, 2048), (2048 - 256) * (256 + 3) + 16 * KIB),
    ("resample_nnv-height", resample_nnv, 4, (256, 256), (256, 2048), (2048 - 256) * (256 + 3) + 16 * KIB),
    # one row 8x wider: the extra columns of the padded uint8 source, which
    # has 1 + before + after rows; a row whose first pass passes the budget
    # is cut into column tiles
    ("resample_nn-width", resample_nn, 8, (65_536, 1), (524_288, 1), (524_288 - 65_536) * 2 + 64 * KIB),
    ("resample_bilinear-width", resample_bilinear, 8, (65_536, 1), (524_288, 1), (524_288 - 65_536) * 2 + 64 * KIB),
    ("resample_bicubic-width", resample_bicubic, 8, (65_536, 1), (524_288, 1), (524_288 - 65_536) * 4 + 64 * KIB),
    ("resample_nnv-width", resample_nnv, 8, (65_536, 1), (524_288, 1), (524_288 - 65_536) * 2 + 64 * KIB),
    # one run of psnr, or one band or column tile of block_downsample: runs
    # end mid-row, and a block row past the band budget is split into
    # column tiles, so nothing but the output grows
    ("psnr-height", psnr, None, (256, 256), (256, 2048), 16 * KIB),
    ("psnr-width", psnr, None, (65_536, 1), (1_048_576, 1), 16 * KIB),
    ("block_downsample-height", block_downsample, 2, (256, 256), (256, 2048), 16 * KIB),
    ("block_downsample-width-2", block_downsample, 2, (65_536, 2), (1_048_576, 2), 16 * KIB),
    ("block_downsample-width-8", block_downsample, 8, (65_536, 8), (1_048_576, 8), 16 * KIB),
]


def peak_beyond_output(fn, ratio, rng, width, height):
    """tracemalloc peak of one call at width x height, less its output's bytes."""
    img = random_image(rng, width, height)
    if ratio is None:
        return traced_peak(fn, img, random_image(rng, width, height))[0]
    peak, out = traced_peak(fn, img, ratio)
    return peak - out.pixels.nbytes


@pytest.mark.parametrize("fn, ratio, small, large, allowed", [row[1:] for row in FLAT], ids=[row[0] for row in FLAT])
def test_peak_memory_flat(fn, ratio, small, large, allowed):
    rng = np.random.default_rng(2048)
    growth = peak_beyond_output(fn, ratio, rng, *large) - peak_beyond_output(fn, ratio, rng, *small)
    assert growth <= allowed, f"{growth} bytes beyond the output's growth, {allowed} allowed"
