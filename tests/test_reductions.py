"""psnr and block_downsample against whole-image int64 oracles, and the
tile walker that block_downsample shares with the resamplers.

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

from nnvresize import Image, block_downsample, image, psnr

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


def test_metrics_peak_memory_flat_in_height():
    # a run's uint8 difference and uint16 square are the same size for a
    # 256-row and a 2048-row image
    rng = np.random.default_rng(2048)
    short, tall = (
        traced_peak(psnr, random_image(rng, 256, height), random_image(rng, 256, height))[0]
        for height in (256, 2048)
    )
    assert tall - short <= 16 * 1024, f"{tall - short} bytes more for an 8x taller image"


def test_metrics_peak_memory_flat_in_width():
    # runs end mid-row, so a one-row pair 16x wider holds the same run
    rng = np.random.default_rng(65536)
    narrow, wide = (
        traced_peak(psnr, random_image(rng, width, 1), random_image(rng, width, 1))[0]
        for width in (65_536, 1_048_576)
    )
    assert wide - narrow <= 16 * 1024, f"{wide - narrow} bytes more for a 16x wider row"


def test_block_downsample_peak_memory_flat_in_height():
    # an image 8x taller costs only its extra output rows: the band's row
    # and block sums are the same size
    rng = np.random.default_rng(2048)
    (short, short_out), (tall, tall_out) = (
        traced_peak(block_downsample, random_image(rng, 256, height), 2) for height in (256, 2048)
    )
    growth = tall - short
    extra_output = tall_out.pixels.nbytes - short_out.pixels.nbytes
    assert growth <= extra_output + 16 * 1024, f"{growth - extra_output} bytes beyond the extra output"


@pytest.mark.parametrize("ratio", (2, 8))
def test_block_downsample_peak_memory_flat_in_width(ratio):
    # one block row 16x wider costs only its extra output: a row past the
    # band budget is split into column tiles whose sums are the same size
    rng = np.random.default_rng(ratio)
    (narrow, narrow_out), (wide, wide_out) = (
        traced_peak(block_downsample, random_image(rng, width, ratio), ratio) for width in (65_536, 1_048_576)
    )
    growth = wide - narrow
    extra_output = wide_out.pixels.nbytes - narrow_out.pixels.nbytes
    assert growth <= extra_output + 16 * 1024, f"{growth - extra_output} bytes beyond the extra output"
