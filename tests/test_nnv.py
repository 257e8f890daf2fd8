"""Mode selection, bilinear-guided neighbor choice, and the NNV resampler."""

import itertools

import numpy as np
import pytest

from nnvresize import (
    DiffSet,
    Image,
    ModeKind,
    NeighborSet,
    abs_diffs,
    cell_at,
    mode4,
    nnv_pixel,
    resample_nnv,
    select_neighbor,
)

from conftest import random_image
from refimpl import exact_resample, oracle_first_argmin, oracle_nnv_centered, oracle_unique_mode


class TestMode4:
    def test_triple(self):
        out = mode4([5, 5, 5, 9])
        assert out.is_mode and out.value == 5

    def test_two_pairs_is_a_tie(self):
        assert mode4([5, 5, 7, 7]).kind is ModeKind.NO_MODE_TIE

    def test_all_distinct(self):
        assert mode4([1, 2, 3, 4]).kind is ModeKind.NO_MODE_ALL_DISTINCT

    def test_all_equal(self):
        out = mode4([9, 9, 9, 9])
        assert out.is_mode and out.value == 9

    def test_single_pair(self):
        out = mode4([3, 8, 3, 1])
        assert out.is_mode and out.value == 3

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            mode4([1, 2, 3])

    def test_exhaustive_against_frequency_patterns(self):
        for tup in itertools.product(range(4), repeat=4):
            got = mode4(tup)
            expected = oracle_unique_mode(tup)
            if expected is None:
                assert not got.is_mode, tup
            else:
                assert got.is_mode and got.value == expected, tup


class TestAbsDiffs:
    def test_centered_cell(self):
        d = abs_diffs(NeighborSet(10, 20, 30, 40, 0.5, 0.5))
        assert d.b == 25.0
        assert d.values() == (15.0, 5.0, 5.0, 15.0)

    def test_constant_cell(self):
        d = abs_diffs(NeighborSet(7, 7, 7, 7, 0.3, 0.9))
        assert d.b == 7.0
        assert d.values() == (0.0, 0.0, 0.0, 0.0)

    def test_single_bright_corner(self):
        d = abs_diffs(NeighborSet(0, 0, 0, 4, 0.5, 0.5))
        assert d.b == 1.0
        assert d.values() == (1.0, 1.0, 1.0, 3.0)

    def test_offsets_weight_the_estimate(self):
        d = abs_diffs(NeighborSet(0, 100, 0, 100, 0.25, 0.5))
        assert d.b == 25.0


def _diffset(v1, v2, v3, v4, b=0.0):
    return DiffSet(v1=v1, v2=v2, v3=v3, v4=v4, b=b)


class TestSelectNeighbor:
    def test_mode_equals_minimum(self):
        assert select_neighbor(_diffset(0.2, 0.2, 0.2, 0.8)) == 1

    def test_mode_is_not_minimum(self):
        assert select_neighbor(_diffset(0.2, 0.8, 0.8, 0.8)) == 1

    def test_tied_pairs_take_first_minimum(self):
        assert select_neighbor(_diffset(0.2, 0.2, 0.8, 0.8)) == 1

    def test_first_minimum_not_in_front(self):
        assert select_neighbor(_diffset(15.0, 5.0, 5.0, 15.0)) == 2

    def test_all_distinct(self):
        assert select_neighbor(_diffset(3.0, 2.0, 0.5, 1.0)) == 3

    def test_dispatch_equals_first_argmin_exhaustively(self):
        # all 625 centered cells over a 5-value alphabet
        alphabet = (0, 64, 128, 192, 255)
        for cell in itertools.product(alphabet, repeat=4):
            diffs = abs_diffs(NeighborSet(*cell, 0.5, 0.5))
            assert select_neighbor(diffs) == oracle_first_argmin(diffs.values()) + 1, cell


class TestNnvPixel:
    def test_mode_branch_skips_bilinear(self):
        assert nnv_pixel(NeighborSet(5, 5, 7, 9, 0.9, 0.1)) == 5

    def test_all_distinct_follows_bilinear_guide(self):
        assert nnv_pixel(NeighborSet(10, 20, 30, 40, 0.5, 0.5)) == 20

    def test_tied_pairs_fall_back_to_first_neighbor(self):
        assert nnv_pixel(NeighborSet(10, 10, 20, 20, 0.5, 0.5)) == 10

    def test_result_is_always_a_neighbor_value(self, rng):
        for _ in range(200):
            cell = [int(v) for v in rng.integers(0, 256, size=4)]
            dx, dy = rng.integers(0, 4, size=2) / 4
            assert nnv_pixel(NeighborSet(*cell, dx, dy)) in cell

    def test_exhaustive_against_oracle(self):
        alphabet = (0, 64, 128, 192, 255)
        for cell in itertools.product(alphabet, repeat=4):
            got = nnv_pixel(NeighborSet(*cell, 0.5, 0.5))
            assert got == oracle_nnv_centered(*cell), cell

    def test_mode_branch_dominates_any_offset(self, rng):
        # three shared values win regardless of the cell offsets
        for _ in range(50):
            value, other = (int(v) for v in rng.integers(0, 256, size=2))
            if value == other:
                continue
            cell = [value, value, value, other]
            rng.shuffle(cell)
            dx, dy = rng.random(2)
            assert nnv_pixel(NeighborSet(*cell, dx, dy)) == value


class TestResampleNnv:
    def test_constant_image(self):
        img = Image(np.full((3, 3), 9, dtype=np.uint8))
        for n in (1, 2, 4):
            assert np.all(resample_nnv(img, n).pixels == 9)

    def test_identity(self, rng):
        img = random_image(rng, 6, 6)
        assert resample_nnv(img, 1) == img

    def test_hand_traced_2x2(self):
        out = resample_nnv(Image([[10, 20], [30, 40]]), 2)
        assert out.get(1, 1) == 20  # centered cell follows the bilinear guide
        assert out.get(1, 0) == 10  # dy=0 row: all distinct, first minimum is A
        assert out.get(0, 0) == 10  # exact site copies the source

    def test_source_sites_preserved(self, rng):
        img = random_image(rng, 5, 7)
        for n in (2, 3, 4):
            out = resample_nnv(img, n)
            assert np.array_equal(out.pixels[::n, ::n], img.pixels)

    def test_no_new_values(self, rng):
        img = random_image(rng, 8, 8)
        for n in (2, 3, 4):
            out = resample_nnv(img, n)
            for y in range(out.height):
                for x in range(out.width):
                    cell = cell_at(img, x, y, n)
                    assert out.get(x, y) in cell.values()

    def test_matches_per_pixel_reference(self, rng):
        for n in (1, 2, 3, 4, 5):
            img = random_image(rng, 7, 6)
            assert resample_nnv(img, n) == exact_resample("nnv", img, n)

    def test_deterministic(self, rng):
        img = random_image(rng, 16, 16)
        first = resample_nnv(img, 4)
        second = resample_nnv(img, 4)
        assert first == second

    def test_degenerate_border_cells_replicate_edges(self):
        # bottom-right corner cell collapses to a single source pixel
        out = resample_nnv(Image([[1, 2], [3, 200]]), 3)
        assert out.get(5, 5) == 200
