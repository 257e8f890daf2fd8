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


def block(*rows):
    """Pins of the output's top-left corner, one list of values per row."""
    return {(x, y): value for y, row in enumerate(rows) for x, value in enumerate(row)}


# Hand-traced values, one row per case: name, method, source rows,
# max_value, ratio and the output pixels pinned, {(x, y): value}. Output
# x maps to source x / ratio, so at ratio r pixel (x, y) of a 2x2 cell
# (a k / p g) sits at offset (x/r, y/r); b is the bilinear value there,
# and an NNV gap is |neighbour - b| in a/k/p/g order. Each pin is checked
# against the resampler and against refimpl.exact_pixel.
CASES = [
    # a ramp of slope 12 reads back its source position x / ratio * 12
    ("ramp-sites", "bilinear", [[0, 12, 24, 36]], 255, 4, {(0, 0): 0, (4, 0): 12}),
    ("ramp-halfway", "bilinear", [[0, 12, 24, 36]], 255, 2, {(3, 0): 18}),  # 12 + 12/2
    ("ramp-thirds", "bilinear", [[0, 12, 24, 36]], 255, 3, {(4, 0): 16}),  # 12 + 12/3, exactly
    # x = 3 is the right edge: the companion column clamps; y = 1 is between the rows
    ("edge-clamps-companion", "bilinear", [[10, 20], [30, 40]], 255, 2, {(3, 0): 20, (3, 1): 30}),
    ("edge-clamps-single-row", "bilinear", [[10, 20]], 255, 2, block([10, 15, 20, 20], [10, 15, 20, 20])),
    # x = 1 maps to 1/2: the tie keeps the lower source index
    ("nn-tie-lower-index", "nn", [[10, 20]], 255, 2, block([10, 10, 20, 20])),
    # the centre is the plain average; (1/4, 0) is 12.5, which rounds half up
    ("bilinear-quarters", "bilinear", [[10, 20], [30, 40]], 255, 4, {(0, 0): 10, (1, 0): 13, (2, 2): 25}),
    # phase 1/2 weighs taps -1..2 by (-1, 9, 9, -1)/16: 1800/16 = 112.5 rounds up
    ("bicubic-overshoot", "bicubic", [[0, 100, 100, 0]], 255, 2, {(3, 0): 113}),
    ("bicubic-clamps-at-max", "bicubic", [[0, 100, 100, 0]], 100, 2, {(3, 0): 100}),  # 112.5 clamps to 100
    ("bicubic-clamps-at-zero", "bicubic", [[100, 0, 0, 100]], 255, 2, {(3, 0): 0}),  # -200/16 = -12.5
    # the first 4x4 block of a cell with a unique mode is that mode
    ("mode-triple", "nnv", [[5, 5], [5, 9]], 255, 4, block(*[[5] * 4] * 4)),
    ("mode-all-equal", "nnv", [[9, 9], [9, 9]], 255, 4, block(*[[9] * 4] * 4)),
    ("mode-single-pair", "nnv", [[3, 8], [3, 1]], 255, 4, block(*[[3] * 4] * 4)),
    # no unique mode: b = 5 + y/2 is nearer 5 in rows 0 and 1, ties in row 2
    # and goes to a = 5, and is nearer 7 in row 3
    ("mode-two-pairs-tie", "nnv", [[5, 5], [7, 7]], 255, 4, block(*[[5] * 4] * 3, [7] * 4)),
    # b = 1 + x/4 + y/2; midpoints 1.5, 2.5 and 3.5 go to the lower value, first in window
    ("all-distinct-block", "nnv", [[1, 2], [3, 4]], 255, 4, block([1, 1, 1, 2], [1, 2, 2, 2], [2, 2, 2, 3], [2, 3, 3, 3])),
    # (1/2, 1/2): b = 25, gaps (15, 5, 5, 15), so k; (1/2, 0): b = 15, gaps (5, 5, 15, 25), so a
    ("centered-bilinear", "bilinear", [[10, 20], [30, 40]], 255, 2, {(1, 1): 25}),
    ("centered-first-minimum", "nnv", [[10, 20], [30, 40]], 255, 2, {(0, 0): 10, (1, 0): 10, (1, 1): 20}),
    # (1/4, 3/4): b = 27.5, gaps (17.5, 7.5, 2.5, 12.5)
    ("all-distinct-nearest", "nnv", [[10, 20], [30, 40]], 255, 4, {(1, 3): 30}),
    # (1/2, 1/2): b = 1, gaps (1, 1, 1, 3); the mode 0 wins anyway
    ("bright-corner-bilinear", "bilinear", [[0, 0], [0, 4]], 255, 2, {(1, 1): 1}),
    ("bright-corner-mode", "nnv", [[0, 0], [0, 4]], 255, 2, {(1, 1): 0}),
    # (1/4, 2/4) and (3/4, 2/4): b = 25 and 75
    ("offsets-bilinear", "bilinear", [[0, 100], [0, 100]], 255, 4, {(1, 2): 25}),
    ("offsets-weigh-the-guide", "nnv", [[0, 100], [0, 100]], 255, 4, {(1, 2): 0, (3, 2): 100}),
    # two pairs at (1/2, 1/2): b = 15, all four gaps 5, so a
    ("two-pairs-equal-gaps", "nnv", [[10, 20], [20, 10]], 255, 2, {(1, 1): 10}),
    ("two-pairs-by-row", "nnv", [[10, 10], [20, 20]], 255, 2, {(1, 1): 10}),
    # (2/4, 1/4): b = 20, gaps (0, 10, 10, 20)
    ("zero-gap", "nnv", [[20, 10], [30, 40]], 255, 4, {(2, 1): 20}),
    # (2/4, 0): b = 25, gaps (5, 5, 15, 15), so a
    ("tied-gaps-first-neighbour", "nnv", [[20, 30], [10, 40]], 255, 4, {(2, 0): 20}),
    # (9/10, 9/10): b = 8.42 is nearest 9, but the mode 5 wins
    ("mode-skips-guide-bilinear", "bilinear", [[5, 5], [7, 9]], 255, 10, {(9, 9): 8}),
    ("mode-skips-guide", "nnv", [[5, 5], [7, 9]], 255, 10, {(9, 9): 5}),
    # the bottom-right cell clamps to the one source pixel 200
    ("corner-cell-replicates-edge", "nnv", [[1, 2], [3, 200]], 255, 3, {(5, 5): 200}),
    # cell (a, k, p, g) = (0, 1, 3, 2), offset (4/6, 3/6): the bilinear
    # value is exactly 3/2, so round half up gives 2
    ("bilinear-half-way-at-6", "bilinear", [[0, 1], [3, 2]], 255, 6, {(4, 3): 2}),
]


@pytest.mark.parametrize(
    "method, rows, max_value, ratio, pins", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_hand_traced_case(method, rows, max_value, ratio, pins):
    out = get_resampler(method)(Image(rows, max_value), ratio)
    assert {(x, y): pixel(out, x, y) for x, y in pins} == pins
    assert {(x, y): exact_pixel(method, rows, max_value, ratio, x, y) for x, y in pins} == pins


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
