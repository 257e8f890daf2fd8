"""Coordinate mapping and the nearest/bilinear/bicubic upscalers."""

import numpy as np
import pytest

from nnvresize import (
    Image,
    SourceLocus,
    bilinear_at,
    cubic_kernel,
    map_coord,
    map_locus,
    resample_bicubic,
    resample_bilinear,
    resample_nn,
)

from conftest import random_image
from refimpl import exact_resample

ALL_METHODS = (resample_nn, resample_bilinear, resample_bicubic)


class TestMapCoord:
    def test_origin(self):
        assert map_coord(0, 4) == (0, 0.0)

    def test_exact_sample_site(self):
        assert map_coord(4, 4) == (1, 0.0)

    def test_halfway(self):
        assert map_coord(3, 2) == (1, 0.5)

    def test_thirds(self):
        base, frac = map_coord(4, 3)
        assert base == 1
        assert frac == pytest.approx(1 / 3, abs=1e-15)

    def test_bad_ratio(self):
        with pytest.raises(ValueError):
            map_coord(0, 0)

    def test_locus_clamps_companion(self):
        locus = map_locus(2, 2, 3, 0, 2)
        assert (locus.x0, locus.x1) == (1, 1)  # right edge: companion clamps
        assert (locus.y0, locus.y1) == (0, 1)  # interior row: no clamp
        assert locus.dx == 0.5

    def test_locus_clamps_single_row(self):
        locus = map_locus(2, 1, 1, 0, 2)
        assert (locus.y0, locus.y1) == (0, 0)
        assert (locus.x0, locus.x1) == (0, 1)


class TestNearest:
    def test_constant_1x1(self):
        out = resample_nn(Image([[7]]), 3)
        assert out.pixels.tolist() == [[7]* 3] * 3

    def test_identity(self, rng):
        img = random_image(rng, 5, 4)
        assert resample_nn(img, 1) == img

    def test_tie_resolves_to_lower_index(self):
        out = resample_nn(Image([[10, 20]]), 2)
        # dst 1 maps to 0.5: tie, keep the lower source index
        assert out.pixels[0].tolist() == [10, 10, 20, 20]

    def test_only_source_values_appear(self, rng):
        img = random_image(rng, 6, 6)
        out = resample_nn(img, 3)
        assert set(np.unique(out.pixels)) <= set(np.unique(img.pixels))

    def test_matches_reference(self, rng):
        for n in (1, 2, 3, 4, 5):
            img = random_image(rng, 7, 5)
            assert resample_nn(img, n) == exact_resample("nn", img, n)


class TestBilinearAt:
    IMG = Image([[10, 20], [30, 40]])

    def test_center_is_plain_average(self):
        locus = SourceLocus(0, 0, 1, 1, 0.5, 0.5)
        assert bilinear_at(self.IMG, locus) == 25.0

    def test_grid_point_is_exact(self):
        locus = SourceLocus(0, 0, 1, 1, 0.0, 0.0)
        assert bilinear_at(self.IMG, locus) == 10.0

    def test_quarter_offset(self):
        locus = SourceLocus(0, 0, 1, 1, 0.25, 0.0)
        assert bilinear_at(self.IMG, locus) == 12.5


class TestBilinearResample:
    def test_constant_preserved(self):
        img = Image(np.full((3, 3), 77, dtype=np.uint8))
        for n in (1, 2, 3):
            out = resample_bilinear(img, n)
            assert np.all(out.pixels == 77)

    def test_row_values_with_edge_clamp(self):
        out = resample_bilinear(Image([[10, 20]]), 2)
        # dst 3 maps past the last sample; the clamp repeats 20
        assert out.pixels[0].tolist() == [10, 15, 20, 20]

    def test_ramp_reproduced_exactly_at_interior_loci(self):
        width = height = 4
        img = Image([[x for x in range(width)] for _ in range(height)])
        n = 2
        for y in range(height * n):
            for x in range(width * n):
                locus = map_locus(width, height, x, y, n)
                if locus.x1 != locus.x0 + 1 or locus.y1 != locus.y0 + 1:
                    continue
                assert bilinear_at(img, locus) == pytest.approx(x / n, abs=1e-9)

    def test_matches_reference(self, rng):
        for n in (1, 2, 3, 4):
            img = random_image(rng, 6, 5)
            assert resample_bilinear(img, n) == exact_resample("bilinear", img, n)


class TestCubicKernel:
    def test_center(self):
        assert cubic_kernel(0.0) == 1.0

    def test_zero_at_integer_taps(self):
        assert cubic_kernel(1.0) == 0.0
        assert cubic_kernel(2.0) == 0.0
        assert cubic_kernel(-1.0) == 0.0

    def test_half_tap(self):
        assert cubic_kernel(0.5) == 0.5625

    def test_even_symmetry(self):
        for t in (0.1, 0.75, 1.3, 1.9):
            assert cubic_kernel(-t) == cubic_kernel(t)

    def test_outside_support(self):
        assert cubic_kernel(2.5) == 0.0
        assert cubic_kernel(-3.0) == 0.0

    def test_partition_of_unity(self):
        for t in np.linspace(0.0, 1.0, 1000, endpoint=False):
            total = (
                cubic_kernel(-1.0 - t)
                + cubic_kernel(-t)
                + cubic_kernel(1.0 - t)
                + cubic_kernel(2.0 - t)
            )
            assert abs(total - 1.0) <= 1e-12


class TestBicubicResample:
    def test_constant_preserved(self):
        img = Image(np.full((4, 4), 42, dtype=np.uint8))
        for n in (1, 2, 4):
            assert np.all(resample_bicubic(img, n).pixels == 42)

    def test_identity(self, rng):
        img = random_image(rng, 6, 6)
        assert resample_bicubic(img, 1) == img

    def test_overshoot_at_plateau_edge(self):
        out = resample_bicubic(Image([[0, 100, 100, 0]]), 2)
        # phase-0.5 weights (-1/16, 9/16, 9/16, -1/16) on [0,100,100,0] -> 112.5
        assert out.pixels[0, 3] == 113

    def test_negative_lobe_clamps_to_zero(self):
        out = resample_bicubic(Image([[100, 0, 0, 100]]), 2)
        assert out.pixels[0, 3] == 0  # raw value -12.5 floors below range

    def test_matches_reference(self, rng):
        for n in (1, 2, 3, 4):
            img = random_image(rng, 6, 5)
            assert resample_bicubic(img, n) == exact_resample("bicubic", img, n)


class TestSharedProperties:
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda f: f.__name__)
    def test_identity_at_ratio_one(self, rng, method):
        img = random_image(rng, 9, 4)
        assert method(img, 1) == img

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
        with pytest.raises(ValueError):
            method(Image([[1]]), 0)
