"""Every resampler against the exact rational reference, ratios 1..12.

The reference (refimpl.exact_pixel) evaluates the README's definitions
with fractions.Fraction and shares no code with the package. Of ratios
1..12, only 1, 2, 4 and 8 make every offset i/ratio dyadic; the others are
where float arithmetic breaks round-half-up and first-minimum ties.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnvresize import Image, get_resampler, resample

from conftest import random_image
from refimpl import cell_values, exact_pixel, exact_resample

METHODS = ("nn", "bilinear", "bicubic", "nnv")
RATIOS = range(1, 13)

# (width, height, max_value): a general block, a single column, a single
# row, and few grey levels, where ties between gaps are common
SHAPES = ((4, 3, 255), (1, 5, 255), (5, 1, 7), (6, 6, 7))

# 2x2 cells whose bilinear value lands exactly halfway between two of
# their values at some offset i/ratio; between them every ratio 2..12
# has such a tie (found by exhaustive search over 8 grey levels)
TIE_CELLS = (Image([[6, 1], [7, 2]], 7), Image([[1, 7], [2, 3]], 7))

# the extremes of an 8-bit image: a 0/255 checkerboard, whose bicubic
# values overshoot [0, 255] on both sides from ratio 2 up, and a flat 255,
# where every numerator takes its largest value
EXTREMES = (Image([[0, 255, 0], [255, 0, 255], [0, 255, 0]]), Image([[255] * 3] * 2))


@contextmanager
def band_bytes(budget):
    """Run the resamplers with a band budget of ``budget`` output bytes;
    1 makes every source row its own band."""
    with mock.patch.object(resample, "_BAND_BYTES", budget):
        yield


def seeded_images(ratio):
    rng = np.random.default_rng(1000 + ratio)
    return [random_image(rng, w, h, max_value) for w, h, max_value in SHAPES] + list(TIE_CELLS) + list(EXTREMES)


def assert_matches_reference(method, img, ratio):
    got, want = get_resampler(method)(img, ratio), exact_resample(method, img, ratio)
    wrong = int(np.count_nonzero(got.pixels != want.pixels))
    assert wrong == 0, f"{wrong} of {want.pixels.size} pixels differ on {img.pixels.tolist()}"


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("method", METHODS)
def test_matches_exact_reference(method, ratio):
    for img in seeded_images(ratio):
        assert_matches_reference(method, img, ratio)


@pytest.mark.parametrize("ratio", range(1, 9))
@pytest.mark.parametrize("method", METHODS)
def test_band_seams_match_exact_reference(method, ratio):
    # one source row per band, then two rows per band with a shorter
    # last band on the odd heights: every tap window crosses a seam
    for img in seeded_images(ratio):
        for budget in (1, 2 * img.width * ratio * ratio):
            with band_bytes(budget):
                assert_matches_reference(method, img, ratio)


def test_half_way_bilinear_rounds_up_at_ratio_6():
    # cell (a, k, p, g) = (0, 1, 3, 2), offset (4/6, 3/6): the bilinear
    # value is exactly 3/2, so round half up gives 2
    img = Image([[0, 1], [3, 2]])
    assert exact_pixel("bilinear", img.pixels.tolist(), 255, 6, 4, 3) == 2
    assert get_resampler("bilinear")(img, 6).get(4, 3) == 2


def check_bicubic_at_ratio_400(img):
    out = get_resampler("bicubic")(img, 400).pixels
    rng = np.random.default_rng(400)
    rows = img.pixels.tolist()
    for y, x in zip(rng.integers(0, 400 * img.height, 200), rng.integers(0, 400 * img.width, 200)):
        assert out[y, x] == exact_pixel("bicubic", rows, 255, 400, int(x), int(y)), (x, y)


def test_bicubic_exact_past_int64_range():
    # at ratio 400 the bicubic numerators over 4 * 400**6 overflow int64
    check_bicubic_at_ratio_400(Image([[0, 255, 255, 0]]))


def test_bicubic_past_int64_range_across_band_seams():
    # Python-int numerators, one source row per band: every band reads
    # the halo rows above and below it
    with band_bytes(1):
        check_bicubic_at_ratio_400(Image([[0, 255], [255, 0], [0, 255]]))


def check_random_image(data, method, ratio, max_value):
    width, height = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    flat = data.draw(st.lists(st.integers(0, max_value), min_size=width * height, max_size=width * height))
    img = Image.from_flat(width, height, flat, max_value)
    out = get_resampler(method)(img, ratio)
    assert out == exact_resample(method, img, ratio)
    if method == "nnv":
        a, k, p, g = cell_values(img, ratio)
        assert np.all((out.pixels == a) | (out.pixels == k) | (out.pixels == p) | (out.pixels == g))


# small images with every method, ratio 1..12 and grey level 1..255
random_cases = given(
    data=st.data(),
    method=st.sampled_from(METHODS),
    ratio=st.integers(1, 12),
    max_value=st.integers(1, 255),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@random_cases
def test_random_images_match_exact_reference(data, method, ratio, max_value):
    check_random_image(data, method, ratio, max_value)


@settings(derandomize=True, max_examples=60, deadline=None)
@random_cases
def test_random_images_match_exact_reference_one_row_bands(data, method, ratio, max_value):
    with band_bytes(1):
        check_random_image(data, method, ratio, max_value)
