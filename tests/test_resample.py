"""Coordinate mapping and the nearest/bilinear/bicubic upscalers."""

import sys
from unittest import mock

import numpy as np
import pytest

from nnvresize import RESAMPLERS, Image, nnv, resample, resample_bicubic, resample_bilinear, resample_nn, resample_nnv
from nnvresize.nnv import _bilinear_half_up
from nnvresize.image import _int_dtype
from nnvresize.resample import _bilinear_weights, _cubic_weights, _half_up_dtype

from conftest import random_image, traced_peak
from refimpl import pixel

ALL_METHODS = tuple(RESAMPLERS.values())

# bilinear on a ramp of slope 12 reads back the source position x / ratio
RAMP = Image([[0, 12, 24, 36]])
CELL = Image([[10, 20], [30, 40]])


class TestMapCoord:
    """Output index x maps to source position x / ratio, companions clamp
    to the edge, and a ratio other than an integer >= 1 is refused; seen
    through the resamplers' values."""

    def test_origin(self):
        assert pixel(resample_bilinear(RAMP, 4), 0, 0) == 0

    def test_exact_sample_site(self):
        assert pixel(resample_bilinear(RAMP, 4), 4, 0) == 12

    def test_halfway(self):
        assert pixel(resample_bilinear(RAMP, 2), 3, 0) == 18

    def test_thirds(self):
        # 4 / 3 of the way along the ramp, exactly
        assert pixel(resample_bilinear(RAMP, 3), 4, 0) == 16

    def test_locus_clamps_companion(self):
        out = resample_bilinear(CELL, 2)
        assert pixel(out, 3, 0) == 20  # right edge: companion clamps
        assert pixel(out, 3, 1) == 30  # interior row: no clamp

    def test_locus_clamps_single_row(self):
        out = resample_bilinear(Image([[10, 20]]), 2)
        assert out.pixels.tolist() == [[10, 15, 20, 20]] * 2


class TestNearest:
    def test_tie_resolves_to_lower_index(self):
        out = resample_nn(Image([[10, 20]]), 2)
        # dst 1 maps to 0.5: tie, keep the lower source index
        assert out.pixels[0].tolist() == [10, 10, 20, 20]

    def test_only_source_values_appear(self, rng):
        img = random_image(rng, 6, 6)
        out = resample_nn(img, 3)
        assert set(np.unique(out.pixels)) <= set(np.unique(img.pixels))


class TestBilinearAt:
    OUT = resample_bilinear(CELL, 4)

    def test_center_is_plain_average(self):
        assert pixel(self.OUT, 2, 2) == 25

    def test_grid_point_is_exact(self):
        assert pixel(self.OUT, 0, 0) == 10

    def test_quarter_offset(self):
        assert pixel(self.OUT, 1, 0) == 13  # 12.5 rounds half up


class TestCubicKernel:
    """Keys cubic convolution (a = -1/2) as the integer tap weights the
    bicubic resampler uses: row i weighs taps -1..2 at offset i/r over 2r^3."""

    RATIOS = range(1, 13)

    def test_center(self):
        for r in self.RATIOS:
            assert _cubic_weights(r)[0, 1] == 2 * r**3

    def test_zero_at_integer_taps(self):
        for r in self.RATIOS:
            assert _cubic_weights(r)[0, [0, 2, 3]].tolist() == [0, 0, 0]

    def test_half_tap(self):
        # 9/16 = 0.5625 on the near taps, -1/16 on the far ones
        assert _cubic_weights(2)[1].tolist() == [-1, 9, 9, -1]

    def test_even_symmetry(self):
        for r in self.RATIOS:
            weights = _cubic_weights(r)
            for i in range(1, r):
                assert weights[i, ::-1].tolist() == weights[r - i].tolist()

    def test_outside_support(self):
        # a pixel three taps past a cell's base never reaches that cell
        flat = resample_bicubic(Image([[100] * 6]), 3).pixels
        bumped = resample_bicubic(Image([[100] * 5 + [200]]), 3).pixels
        assert np.array_equal(flat[:, :9], bumped[:, :9])
        assert not np.array_equal(flat[:, 9:12], bumped[:, 9:12])


class FirstPass(Exception):
    """Raised with the type a resampler asks its horizontal pass for."""


def first_pass_dtype(method, ratio):
    """The type of ``method``'s horizontal pass at ``ratio`` on an 8-bit
    1x1 source, stopped as soon as it is asked for."""

    def stop(band, weights, dtype):
        raise FirstPass(np.dtype(dtype))

    with mock.patch.object(resample, "_horizontal_half_up", stop), pytest.raises(FirstPass) as caught:
        method(Image([[255]]), ratio)
    return caught.value.args[0]


def test_vertical_pass_picks_the_narrowest_type():
    # one bound, reach * (2 * reach * max_value + d), for bilinear's
    # weights (r - j, j) and the cubic ones alike, at 8 bits, whether the
    # first pass weighs columns or, in NNV's bilinear guide, rows
    band = np.full((4, 4), 255, np.uint8)
    assert [first_pass_dtype(resample_bilinear, r) for r in (8, 9)] == [np.int16, np.int32]
    guide = [{a.dtype for a in _bilinear_half_up(band, r, 255)} for r in (8, 9)]
    assert guide == [{np.dtype(np.int16)}, {np.dtype(np.int32)}]
    cubic = {r: first_pass_dtype(resample_bicubic, r) for r in range(1, 1108)}
    assert all(cubic[r] == _half_up_dtype(_cubic_weights(r), 255) for r in range(1, 378))
    assert cubic[1] == np.int16
    assert {cubic[r] for r in range(2, 10)} == {np.dtype(np.int32)}
    # from ratio 378 the bound passes int64: bicubic's first pass stays
    # in int64 and its second pass splits
    assert {cubic[r] for r in range(10, 1108)} == {np.dtype(np.int64)}
    assert _half_up_dtype(_cubic_weights(378), 255) is None
    assert _int_dtype(2**63 - 1) == np.int64
    with pytest.raises(OverflowError, match=f"no integer type holds {2**63}"):
        _int_dtype(2**63)


def test_bicubic_splits_only_where_the_bound_passes_int64():
    # the bound reaches int64 at ratio 378 for 8 bits, later for fewer
    with mock.patch.object(np, "divmod", wraps=np.divmod) as divmod:
        resample_bicubic(Image([[255]]), 377)
        resample_bicubic(Image([[1]], 1), 378)
        assert divmod.call_count == 0
        resample_bicubic(Image([[255]]), 378)
        assert divmod.call_count == 1


def test_bicubic_ceiling_is_where_the_split_leaves_int64():
    # the split's remainder sums B reach up to reach * d in magnitude
    def reach_d(r):
        return int(np.abs(_cubic_weights(r)).sum(axis=1).max()) * 2 * r**3

    top = resample._MAX_BICUBIC_RATIO
    assert top == 1107
    assert reach_d(top) <= np.iinfo(np.int64).max < reach_d(top + 1)


class TestBicubicCeiling:
    """A bicubic ratio above 1107 is refused after the ratio's own check
    and before anything is allocated."""

    @pytest.mark.parametrize("size", [1, 41])
    def test_refused_before_allocating(self, size):
        # 41x41 is the largest source the output limit admits at 1108
        assert (size * 1108) ** 2 <= resample._MAX_OUTPUT_PIXELS
        img = Image(np.full((size, size), 255, np.uint8))
        peak, info = traced_peak(pytest.raises, ValueError, resample_bicubic, img, 1108)
        info.match(r"^bicubic ratio must be at most 1107, got 1108$")
        assert peak < 64 * 1024

    def test_the_ceiling_itself_runs(self):
        out = resample_bicubic(Image([[7]]), 1107)
        assert out.pixels.shape == (1107, 1107) and np.all(out.pixels == 7)

    def test_bilinear_type_fits_every_admitted_ratio(self):
        # the output limit admits at most ratio 46340, on a 1x1 source, so
        # the type rule of bilinear and NNV's guide never passes int64
        assert 46340**2 <= resample._MAX_OUTPUT_PIXELS < 46341**2
        assert _half_up_dtype(_bilinear_weights(46340), 255) == np.int64


class TestBicubicResample:
    def test_overshoot_at_plateau_edge(self):
        out = resample_bicubic(Image([[0, 100, 100, 0]]), 2)
        # phase-0.5 weights (-1/16, 9/16, 9/16, -1/16) on [0,100,100,0] -> 112.5
        assert out.pixels[0, 3] == 113

    def test_negative_lobe_clamps_to_zero(self):
        out = resample_bicubic(Image([[100, 0, 0, 100]]), 2)
        assert out.pixels[0, 3] == 0  # raw value -12.5 floors below range


class TestSharedProperties:
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda f: f.__name__)
    def test_identity_at_ratio_one(self, rng, method):
        img = random_image(rng, 9, 4)
        assert method(img, 1) == img

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda f: f.__name__)
    def test_constant_preserved(self, method):
        for size, value in ((1, 7), (2, 7), (3, 77), (3, 9), (4, 42)):
            img = Image(np.full((size, size), value, dtype=np.uint8))
            for n in (1, 2, 3, 4, 10):
                assert np.array_equal(method(img, n).pixels, np.full((size * n, size * n), value)), (size, value, n)

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_source_sites_preserved(self, rng, method, n):
        img = random_image(rng, 6, 7)
        out = method(img, n)
        assert np.array_equal(out.pixels[::n, ::n], img.pixels)

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda f: f.__name__)
    def test_output_dimensions_and_range(self, rng, method):
        img = random_image(rng, 5, 3)
        out = method(img, 4)
        assert (out.width, out.height) == (20, 12)
        assert out.pixels.min() >= 0 and out.pixels.max() <= 255

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda f: f.__name__)
    def test_bad_ratio_rejected(self, method):
        # 1108.0 is refused as a ratio before bicubic's ceiling is checked
        for bad in (0, True, 1108.0):
            with pytest.raises(ValueError, match="ratio must be an integer >= 1"):
                method(Image([[1]]), bad)
        # a numpy integer is a valid ratio
        img = Image([[10, 20], [30, 40]])
        assert method(img, np.int64(2)) == method(img, 2)


# tracemalloc peak of one call on a seeded 256x256 image, in output
# bytes, by ratio. Ratio 4 (two bands): the measured peak (1.19, 1.83,
# 2.61 and 2.95) plus a margin small enough that a second band-sized
# pass, as bilinear and NNV once made (2.08 and 3.34), would fail it.
# Ratios 2 (one band) and 3 (two), where NNV's source-resolution
# temporaries weigh most: the measured peak (1.76, 4.33, 7.43, 13.31 and
# 1.41, 2.92, 4.74, 6.46) plus at most 0.3 and 0.21, below one more
# (ratio, rows, width) int16 temporary (1.0 and 0.59 of the output).
# NNV's margins stay below one more (ratio, rows, width) uint8 buffer
# (0.5, 0.3 and 0.125 of the output at ratios 2, 3 and 4), such as a
# phase loop that weighs its 0/1 mask by the gap into a buffer of its own.
PEAK_BOUNDS = {
    resample_nn: {2: 2.0, 3: 1.6, 4: 1.5},
    resample_bilinear: {2: 4.6, 3: 3.1, 4: 1.95},
    resample_bicubic: {2: 7.7, 3: 4.95, 4: 2.7},
    resample_nnv: {2: 13.55, 3: 6.6, 4: 3.01},
}


@pytest.mark.parametrize("method", PEAK_BOUNDS, ids=lambda f: f.__name__)
def test_peak_memory_bounded(method):
    for ratio, bound in PEAK_BOUNDS[method].items():
        img = random_image(np.random.default_rng(256), 256, 256)
        peak, out = traced_peak(method, img, ratio)
        assert peak <= bound * out.pixels.nbytes, f"ratio {ratio}: {peak / out.pixels.nbytes:.2f}x the output"


@pytest.mark.parametrize("method", PEAK_BOUNDS, ids=lambda f: f.__name__)
def test_peak_memory_flat_in_height(method):
    # an image 8x taller costs, beyond its output, only the extra rows of
    # the padded uint8 source (at most 3 columns of padding, for bicubic):
    # every other temporary is the size of a band
    rng = np.random.default_rng(2048)
    (short, short_out), (tall, tall_out) = (
        traced_peak(method, random_image(rng, 256, height), 4) for height in (256, 2048)
    )
    padded_growth = (2048 - 256) * (256 + 3)
    growth = (tall - short) - (tall_out.pixels.nbytes - short_out.pixels.nbytes)
    assert growth <= padded_growth + 16 * 1024, f"{growth} bytes beyond the output"


@pytest.mark.parametrize("method", PEAK_BOUNDS, ids=lambda f: f.__name__)
def test_peak_memory_flat_in_width(method):
    # one row 8x wider costs, beyond its output, only the extra columns of
    # the padded uint8 source, which has 1 + before + after rows: a row
    # whose first pass passes the budget is cut into column tiles
    rng = np.random.default_rng(8)
    (narrow, narrow_out), (wide, wide_out) = (
        traced_peak(method, random_image(rng, width, 1), 8) for width in (65_536, 524_288)
    )
    padded_growth = (524_288 - 65_536) * (4 if method is resample_bicubic else 2)
    growth = (wide - narrow) - (wide_out.pixels.nbytes - narrow_out.pixels.nbytes)
    assert growth <= padded_growth + 64 * 1024, f"{growth} bytes beyond the output"


class TestOutputLimit:
    """An output above the pixel limit is refused before anything is
    allocated; the limit is patched down, never reached for real."""

    @pytest.mark.parametrize("method", PEAK_BOUNDS, ids=lambda f: f.__name__)
    def test_refused_with_size_ratio_and_limit(self, method):
        img = Image([[1, 2, 3], [4, 5, 6]])
        with mock.patch.object(resample, "_MAX_OUTPUT_PIXELS", 53):
            with pytest.raises(ValueError, match=r"output 9x6 \(3x2 at ratio 3\) exceeds the limit of 53 pixels"):
                method(img, 3)
        with mock.patch.object(resample, "_MAX_OUTPUT_PIXELS", 54):
            assert method(img, 3).pixels.size == 54

    @pytest.mark.parametrize("method", PEAK_BOUNDS, ids=lambda f: f.__name__)
    def test_refused_before_allocating(self, method):
        img = random_image(np.random.default_rng(64), 64, 64)
        with mock.patch.object(resample, "_MAX_OUTPUT_PIXELS", 1000):
            peak, info = traced_peak(pytest.raises, ValueError, method, img, 64)
        info.match("exceeds the limit")
        assert peak < 64 * 1024  # the output would be 16 MiB


def loop_steps(method, img, ratio):
    """Python lines the resampler modules run in one call of ``method``.
    Each step of a kernel's phase loop runs a fixed few of them, and so
    does each band, so this is what the loops cost."""
    files = {resample.__file__, nnv.__file__}
    steps = 0

    def local(frame, event, arg):
        nonlocal steps
        steps += event == "line"
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        method(img, ratio)
    finally:
        sys.settrace(previous)
    return steps


@pytest.mark.parametrize("method", PEAK_BOUNDS, ids=lambda f: f.__name__)
def test_tall_narrow_images_copy_no_more_phases(method):
    # one column and one row at ratio 64 write the same 4 MiB as a square
    # source; many bands of few pixels must not turn into more Python loop
    # steps than the square takes for the same bytes
    rng = np.random.default_rng(64)
    square = loop_steps(method, random_image(rng, 32, 32), 64)
    for width, height in ((1, 1024), (1024, 1)):
        steps = loop_steps(method, random_image(rng, width, height), 64)
        assert steps <= square, f"{width}x{height}: {steps} loop steps against {square} for the square"


def test_huge_ratio_on_tiny_image_copies_each_phase_once_per_row():
    # 2x2 at ratio 1000 is 4 MB in two bands of one source row each: a
    # kernel writes each of a band's 1000 row or column phases once, a
    # few lines a step (under 32 for both directions), not once for each
    # of a band's million (row phase, column phase) pairs
    for method in (resample_nn, resample_bilinear, resample_nnv):
        steps = loop_steps(method, random_image(np.random.default_rng(1000), 2, 2), 1000)
        assert 2 * 1000 <= steps <= 2 * 32 * 1000, f"{method.__name__}: {steps} loop steps"
