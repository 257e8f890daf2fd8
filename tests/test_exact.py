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

from nnvresize import Image, get_resampler

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


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("method", METHODS)
def test_matches_exact_reference(method, ratio):
    rng = np.random.default_rng(1000 + ratio)
    resample = get_resampler(method)
    images = [random_image(rng, w, h, max_value) for w, h, max_value in SHAPES]
    for img in images + list(TIE_CELLS):
        got, want = resample(img, ratio), exact_resample(method, img, ratio)
        wrong = int(np.count_nonzero(got.pixels != want.pixels))
        assert wrong == 0, f"{wrong} of {want.pixels.size} pixels differ on {img.pixels.tolist()}"


def test_half_way_bilinear_rounds_up_at_ratio_6():
    # cell (a, k, p, g) = (0, 1, 3, 2), offset (4/6, 3/6): the bilinear
    # value is exactly 3/2, so round half up gives 2
    img = Image([[0, 1], [3, 2]])
    assert exact_pixel("bilinear", img.pixels.tolist(), 255, 6, 4, 3) == 2
    assert get_resampler("bilinear")(img, 6).get(4, 3) == 2


def test_bicubic_exact_past_int64_range():
    # at ratio 400 the bicubic numerators over 4 * 400**6 overflow int64
    img = Image([[0, 255, 255, 0]])
    out = get_resampler("bicubic")(img, 400).pixels
    rng = np.random.default_rng(400)
    rows = img.pixels.tolist()
    for y, x in zip(rng.integers(0, 400, 200), rng.integers(0, 1600, 200)):
        assert out[y, x] == exact_pixel("bicubic", rows, 255, 400, int(x), int(y)), (x, y)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    data=st.data(),
    method=st.sampled_from(METHODS),
    ratio=st.integers(1, 12),
    max_value=st.integers(1, 255),
)
def test_random_images_match_exact_reference(data, method, ratio, max_value):
    width, height = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    flat = data.draw(st.lists(st.integers(0, max_value), min_size=width * height, max_size=width * height))
    img = Image.from_flat(width, height, flat, max_value)
    out = get_resampler(method)(img, ratio)
    assert out == exact_resample(method, img, ratio)
    if method == "nnv":
        a, k, p, g = cell_values(img, ratio)
        assert np.all((out.pixels == a) | (out.pixels == k) | (out.pixels == p) | (out.pixels == g))
