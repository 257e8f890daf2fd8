"""Exact identities that follow from the resamplers' stated semantics.

They need no per-pixel reference, so they reach ratios where the Fraction
oracle of test_exact is too slow.

- Sub-sampling: output pixel (y·mr + mj, x·mr + mi) at ratio m·r has the
  offset of pixel (y·r + j, x·r + i) at ratio r, so every method gives
  resample(img, m·r)[::m, ::m] == resample(img, r).
- Negation, v -> max_value - v: nn copies pixels, and NNV's tie rule reads
  positions, not values, so both commute with it. Round half up is not
  symmetric, so bilinear and bicubic do not.
- Transposition: nn, bilinear and bicubic apply one rule to both axes, so
  they commute with it. NNV does not: a midpoint tie goes to the lower
  position in A/K/P/G order, and transposing swaps K and P. So the two
  differ only at such ties, where the transposed source picks first in
  A/P/K/G order.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnvresize import RESAMPLERS, Image, get_resampler, resample_nnv

from conftest import random_image
from refimpl import cell_values, oracle_unique_mode

METHODS = tuple(RESAMPLERS)
# output pixels of the upscale at ratio m·r, so that each case takes milliseconds
OUTPUT_BUDGET = 1 << 18


@st.composite
def images(draw):
    """Up to 6x6, often at few grey levels, where ties are common."""
    max_value = draw(st.one_of(st.sampled_from([1, 3, 15]), st.integers(1, 255)))
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    flat = draw(st.lists(st.integers(0, max_value), min_size=width * height, max_size=width * height))
    return Image(np.reshape(flat, (height, width)), max_value)


def negate(img: Image) -> Image:
    return Image(img.max_value - img.pixels, img.max_value)


def transpose(img: Image) -> Image:
    return Image(img.pixels.T, img.max_value)


@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=40)
@given(data=st.data(), img=images(), ratio=st.integers(1, 12))
def test_subsampled_upscale_is_the_smaller_upscale(method, data, img, ratio):
    # 2 <= most: a 6x6 source at ratio 12 fits 7 times the ratio in the budget
    most = min(100, math.isqrt(OUTPUT_BUDGET // (img.width * img.height)) // ratio)
    m = data.draw(st.integers(2, most), label="m")
    resample = get_resampler(method)
    assert (resample(img, m * ratio).pixels[::m, ::m] == resample(img, ratio).pixels).all()


# large ratios on the smallest source: 1108 for nn, bilinear and nnv, and
# for bicubic 378, the first ratio of its split second pass, and 1107, the
# largest it runs at
@pytest.mark.parametrize(
    "method, ratio, factors",
    [
        ("nn", 1108, (2, 4, 277)),
        ("bilinear", 1108, (2, 4, 277)),
        ("nnv", 1108, (2, 4, 277)),
        ("bicubic", 378, (2, 3, 7, 9, 14, 27)),
        ("bicubic", 1107, (3, 9, 27, 41)),
    ],
)
def test_subsampling_holds_at_large_ratios(rng, method, ratio, factors):
    img = random_image(rng, 2, 2)
    resample = get_resampler(method)
    big = resample(img, ratio).pixels
    for m in factors:
        assert (big[::m, ::m] == resample(img, ratio // m).pixels).all(), m


@pytest.mark.parametrize("method", ["nn", "nnv"])
@settings(max_examples=60)
@given(img=images(), ratio=st.integers(1, 12))
def test_negation_commutes(method, img, ratio):
    resample = get_resampler(method)
    assert resample(negate(img), ratio) == negate(resample(img, ratio))


@pytest.mark.parametrize("method", ["nn", "bilinear", "bicubic"])
@settings(max_examples=60)
@given(img=images(), ratio=st.integers(1, 12))
def test_transposition_commutes(method, img, ratio):
    resample = get_resampler(method)
    assert resample(transpose(img), ratio) == transpose(resample(img, ratio))


@settings(max_examples=120)
@given(img=images(), ratio=st.integers(1, 8))
def test_nnv_under_transposition_differs_only_at_midpoint_ties(img, ratio):
    plain = resample_nnv(img, ratio).pixels
    turned = resample_nnv(transpose(img), ratio).pixels.T
    cells = cell_values(img, ratio)
    for y, x in zip(*np.nonzero(plain != turned)):
        a, k, p, g = cell = [int(v[y, x]) for v in cells]
        i, j = x % ratio, y % ratio
        blend = Fraction((ratio - i) * (ratio - j) * a + i * (ratio - j) * k + (ratio - i) * j * p + i * j * g, ratio**2)
        gaps = [abs(v - blend) for v in cell]
        nearest = [n for n in range(4) if gaps[n] == min(gaps)]
        # an exact midpoint between two values of a cell without a mode
        assert oracle_unique_mode(cell) is None and len({cell[n] for n in nearest}) == 2, (cell, blend)
        # positions 0..3 are A, K, P, G; the transposed source has K and P swapped
        assert plain[y, x] == cell[min(nearest)]
        assert turned[y, x] == cell[min(nearest, key=(0, 2, 1, 3).index)]
