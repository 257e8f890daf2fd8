"""Every resampler against the exact rational reference, ratios 1..12.

The reference (refimpl.exact_pixel) evaluates the README's definitions
with fractions.Fraction and shares no code with the package. Of ratios
1..12, only 1, 2, 4 and 8 make every offset i/ratio dyadic; the others are
where float arithmetic breaks round-half-up and first-minimum ties.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnvresize import RESAMPLERS, Image, get_resampler

from conftest import band_bytes, random_image
from refimpl import cell_values, exact_pixel, exact_resample, pixel

METHODS = tuple(RESAMPLERS)
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


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("method", METHODS)
def test_band_seams_match_exact_reference(method, ratio):
    # one source pixel per tile, then two columns per tile with a shorter
    # last tile on the odd widths, then two rows per band with a shorter
    # last band on the odd heights: every tap window crosses a seam
    for img in seeded_images(ratio):
        for budget in (1, 2 * ratio, 2 * img.width * ratio * ratio):
            with band_bytes(budget):
                assert_matches_reference(method, img, ratio)


def test_half_way_bilinear_rounds_up_at_ratio_6():
    # cell (a, k, p, g) = (0, 1, 3, 2), offset (4/6, 3/6): the bilinear
    # value is exactly 3/2, so round half up gives 2
    img = Image([[0, 1], [3, 2]])
    assert exact_pixel("bilinear", img.pixels.tolist(), 255, 6, 4, 3) == 2
    assert pixel(get_resampler("bilinear")(img, 6), 4, 3) == 2


def check_bicubic_past_int64(img):
    # from ratio 378 the bicubic numerators over 4 * ratio**6 overflow
    # int64, and the second pass splits them; 1107 is the largest ratio
    # bicubic runs at
    rows = img.pixels.tolist()
    for ratio in (378, 400, 1000, 1107):
        out = get_resampler("bicubic")(img, ratio).pixels
        rng = np.random.default_rng(ratio)
        for y, x in zip(rng.integers(0, ratio * img.height, 200), rng.integers(0, ratio * img.width, 200)):
            assert out[y, x] == exact_pixel("bicubic", rows, 255, ratio, int(x), int(y)), (ratio, x, y)


def test_bicubic_exact_past_int64_range():
    check_bicubic_past_int64(Image([[0, 255, 255, 0]]))


def test_bicubic_past_int64_range_across_band_seams():
    # the split second pass, one source row per band: every band reads
    # the halo rows above and below it
    with band_bytes(1):
        check_bicubic_past_int64(Image([[0, 255], [255, 0], [0, 255]]))


def check_random_image(data, method, ratio, max_value):
    width, height = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    flat = data.draw(st.lists(st.integers(0, max_value), min_size=width * height, max_size=width * height))
    img = Image(np.reshape(flat, (height, width)), max_value)
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


@settings(max_examples=60)
@random_cases
def test_random_images_match_exact_reference(data, method, ratio, max_value):
    check_random_image(data, method, ratio, max_value)


@settings(max_examples=60)
@random_cases
def test_random_images_match_exact_reference_one_row_bands(data, method, ratio, max_value):
    with band_bytes(1):
        check_random_image(data, method, ratio, max_value)
