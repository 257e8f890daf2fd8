"""Mode selection, bilinear-guided neighbor choice, and the NNV resampler.

The per-pixel rule is checked through resample_nnv on 2x2 images: the
top-left cell (a k / p g) is the only one without clamped companions,
and its non-site pixels are the first ratio x ratio block minus (0, 0).
"""

import itertools

import numpy as np
import pytest

from nnvresize import Image, resample_bilinear, resample_nnv
from nnvresize.nnv import _bilinear_half_up

from conftest import random_image
from refimpl import exact_resample, oracle_unique_mode, pixel


def _cell(a, k, p, g):
    return Image([[a, k], [p, g]])


def _fill(cell, ratio):
    """NNV values of the cell's non-site pixels, row-major."""
    return resample_nnv(_cell(*cell), ratio).pixels[:ratio, :ratio].ravel()[1:]


def _centered(cell):
    """NNV value at offset (1/2, 1/2) of the cell."""
    return pixel(resample_nnv(_cell(*cell), 2), 1, 1)


class TestMode4:
    """A unique mode of the cell fills every non-site pixel; (2,2) ties
    and all-distinct cells fall back to the bilinear guide."""

    def test_triple(self):
        assert set(_fill((5, 5, 5, 9), 4)) == {5}

    def test_two_pairs_is_a_tie(self):
        # offset (1/4, 0) stays with 5; offset (0, 3/4) is nearer 7
        assert set(_fill((5, 5, 7, 7), 4)) == {5, 7}

    def test_all_distinct(self):
        assert len(set(_fill((1, 2, 3, 4), 4))) > 1

    def test_all_equal(self):
        assert set(_fill((9, 9, 9, 9), 4)) == {9}

    def test_single_pair(self):
        assert set(_fill((3, 8, 3, 1), 4)) == {3}


class TestAbsDiffs:
    """The fallback measures each neighbor's gap to the bilinear value."""

    def test_centered_cell(self):
        # b = 25, gaps (15, 5, 5, 15)
        assert pixel(resample_bilinear(_cell(10, 20, 30, 40), 2), 1, 1) == 25
        assert _centered((10, 20, 30, 40)) == 20

    def test_constant_cell(self):
        img = _cell(7, 7, 7, 7)
        assert np.all(resample_bilinear(img, 10).pixels == 7)
        assert np.all(resample_nnv(img, 10).pixels == 7)

    def test_single_bright_corner(self):
        # b = 1, gaps (1, 1, 1, 3); the mode 0 wins anyway
        assert pixel(resample_bilinear(_cell(0, 0, 0, 4), 2), 1, 1) == 1
        assert _centered((0, 0, 0, 4)) == 0

    def test_offsets_weight_the_estimate(self):
        img = _cell(0, 100, 0, 100)
        assert pixel(resample_bilinear(img, 4), 1, 2) == 25
        out = resample_nnv(img, 4)
        assert pixel(out, 1, 2) == 0  # b = 25
        assert pixel(out, 3, 2) == 100  # b = 75


class TestSelectNeighbor:
    """Without a unique mode the first neighbor, in A/K/P/G order, at the
    smallest gap wins."""

    def test_mode_equals_minimum(self):
        # b = 15, all four gaps 5
        assert _centered((10, 20, 20, 10)) == 10

    def test_mode_is_not_minimum(self):
        # offset (1/2, 1/4): b = 20, gaps (0, 10, 10, 20)
        assert pixel(resample_nnv(_cell(20, 10, 30, 40), 4), 2, 1) == 20

    def test_tied_pairs_take_first_minimum(self):
        # offset (1/2, 0): b = 25, gaps (5, 5, 15, 15)
        assert pixel(resample_nnv(_cell(20, 30, 10, 40), 4), 2, 0) == 20

    def test_all_distinct(self):
        # offset (1/4, 3/4): b = 27.5, gaps (17.5, 7.5, 2.5, 12.5)
        assert pixel(resample_nnv(_cell(10, 20, 30, 40), 4), 1, 3) == 30

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
    def test_mode_branch_skips_bilinear(self):
        # offset (9/10, 9/10): b = 8.42 is nearest 9, but the mode 5 wins
        assert pixel(resample_bilinear(_cell(5, 5, 7, 9), 10), 9, 9) == 8
        assert pixel(resample_nnv(_cell(5, 5, 7, 9), 10), 9, 9) == 5

    def test_tied_pairs_fall_back_to_first_neighbor(self):
        assert _centered((10, 10, 20, 20)) == 10

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

    def test_degenerate_border_cells_replicate_edges(self):
        # bottom-right corner cell collapses to a single source pixel
        out = resample_nnv(Image([[1, 2], [3, 200]]), 3)
        assert pixel(out, 5, 5) == 200
