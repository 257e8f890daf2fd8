"""Properties of NNV's per-pixel rule and of the NNV resampler.

The rule is checked through resample_nnv on 2x2 images: the top-left
cell (a k / p g) is the only one without clamped companions, and its
non-site pixels are the first ratio x ratio block minus (0, 0). Most of its
hand-traced values are rows of CASES in tests/test_exact.py.
"""

import itertools

import numpy as np
import pytest

from nnvresize import Image, resample_bilinear, resample_nnv
from nnvresize.nnv import _bilinear_half_up

from conftest import random_image
from refimpl import exact_resample, oracle_unique_mode, pixel


def _fill(cell, ratio):
    """NNV values of the non-site pixels of the cell (a, k, p, g), row-major."""
    a, k, p, g = cell
    return resample_nnv(Image([[a, k], [p, g]]), ratio).pixels[:ratio, :ratio].ravel()[1:]


class TestAbsDiffs:
    """The fallback measures each neighbor's gap to the bilinear value."""

    def test_centered_cell(self):
        # b = 25, gaps (15, 5, 5, 15)
        img = Image([[10, 20], [30, 40]])
        assert pixel(resample_bilinear(img, 2), 1, 1) == 25
        assert pixel(resample_nnv(img, 2), 1, 1) == 20

    def test_constant_cell(self):
        img = Image([[7, 7], [7, 7]])
        assert np.all(resample_bilinear(img, 10).pixels == 7)
        assert np.all(resample_nnv(img, 10).pixels == 7)


class TestSelectNeighbor:
    """Without a unique mode the first neighbor, in A/K/P/G order, at the
    smallest gap wins."""

    @pytest.mark.parametrize("ratio", [5, 6])
    def test_midpoint_ties_exhaustively(self, ratio):
        # every 4-level 2x2 image without a unique mode: 24 with distinct
        # values and 36 with two pairs, some of whose higher value holds
        # position 0, at ratios with many midpoint ties
        cells = [c for c in itertools.product(range(4), repeat=4) if oracle_unique_mode(c) is None]
        assert len(cells) == 60
        for a, k, p, g in cells:
            img = Image([[a, k], [p, g]], 3)
            assert resample_nnv(img, ratio) == exact_resample("nnv", img, ratio), (a, k, p, g)


class TestNnvPixel:
    def test_result_is_always_a_neighbor_value(self, rng):
        for _ in range(200):
            cell = [int(v) for v in rng.integers(0, 256, size=4)]
            assert set(_fill(cell, 4)) <= set(cell)

    def test_mode_branch_dominates_any_offset(self, rng):
        # three shared values win at every offset of every ratio
        for _ in range(50):
            value, other = (int(v) for v in rng.integers(0, 256, size=2))
            if value == other:
                continue
            cell = [value, value, value, other]
            rng.shuffle(cell)
            ratio = int(rng.integers(2, 13))
            assert set(_fill(cell, ratio)) == {value}, (cell, ratio)


class TestResampleNnv:
    def test_constant_image(self):
        img = Image(np.full((3, 3), 9, dtype=np.uint8))
        for n in (1, 2, 4):
            assert np.all(resample_nnv(img, n).pixels == 9)

    def test_hand_traced_2x2(self):
        out = resample_nnv(Image([[10, 20], [30, 40]]), 2)
        assert pixel(out, 1, 1) == 20  # centered cell follows the bilinear guide
        assert pixel(out, 1, 0) == 10  # dy=0 row: all distinct, first minimum is A
        assert pixel(out, 0, 0) == 10  # exact site copies the source

    def test_deterministic(self, rng):
        img = random_image(rng, 16, 16)
        first = resample_nnv(img, 4)
        second = resample_nnv(img, 4)
        assert first == second

    @pytest.mark.parametrize("max_value", [255, 200, 1])
    def test_guide_is_the_bilinear_numerator(self, rng, max_value):
        # NNV steps its own bilinear guide; at every phase (j, i) it must
        # floor-divide to the pixel resample_bilinear writes there
        img = random_image(rng, 7, 5, max_value)
        band = np.pad(img.pixels, ((0, 1), (0, 1)), mode="edge")
        for r in range(1, 13):
            half_up, step = _bilinear_half_up(band, r, max_value)
            bilinear = resample_bilinear(img, r).pixels.reshape(5, r, 7, r)
            for i in range(r):
                guide = (half_up + i * step) // (2 * r * r)
                assert np.array_equal(guide, bilinear[:, :, :, i].transpose(1, 0, 2)), (r, i)
