"""MSE and PSNR. Their hand values are rows of CASES in
tests/test_reductions.py."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nnvresize import Image, psnr

from conftest import band_bytes, random_image


def _const(value, width=4, height=4, max_value=255):
    return Image(np.full((height, width), value, dtype=np.int64), max_value)


class TestMse:
    def test_full_scale_difference_over_a_large_band(self):
        # 90 000 * 255**2 passes 2**32; a budget of 2**30 leaves the run at
        # 66 051 pixels, so the pair is summed in two uint32 runs whose
        # total would wrap in uint32
        zero, full = _const(0, 300, 300), _const(255, 300, 300)
        with band_bytes(2**30):
            assert psnr(zero, full).mse == 65025.0

    @settings(max_examples=100)
    @given(
        width=st.integers(1, 12),
        height=st.integers(1, 12),
        budget=st.sampled_from([1, 64, 256]),
        data=st.data(),
    )
    def test_equals_a_python_int_sum(self, width, height, budget, data):
        # small budgets split the pair into runs of 1, 8 or 32 pixels, which
        # end mid-row
        a, b = (data.draw(st.binary(min_size=width * height, max_size=width * height)) for _ in range(2))
        want = sum((x - y) ** 2 for x, y in zip(a, b)) / (width * height)
        with band_bytes(budget):
            got = psnr(*(Image(np.frombuffer(v, np.uint8).reshape(height, width)) for v in (a, b))).mse
        assert got == want


class TestPsnr:
    def test_identical_is_undefined(self):
        img = _const(100)
        report = psnr(img, img)
        assert report.mse == 0.0
        assert report.psnr_db is None

    def test_symmetry(self, rng):
        a = random_image(rng, 5, 5)
        b = random_image(rng, 5, 5)
        assert psnr(a, b) == psnr(b, a)

    def test_monotone_in_error(self):
        ref = _const(100)
        near = _const(101)
        far = _const(110)
        assert psnr(ref, near).psnr_db > psnr(ref, far).psnr_db

    def test_upper_bound_single_worst_pixel(self, rng):
        import math

        for _ in range(20):
            a = random_image(rng, 8, 8)
            b = random_image(rng, 8, 8)
            report = psnr(a, b)
            if report.psnr_db is None:
                continue
            bound = 20.0 * math.log10(255.0 * math.sqrt(64))
            assert 0.0 <= report.psnr_db <= bound

    def test_max_value_mismatch(self):
        with pytest.raises(ValueError, match="max_value"):
            psnr(Image([[1]], max_value=100), Image([[1]], max_value=255))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            psnr(_const(0, 2, 2), _const(0, 2, 3))

    def test_max_value_mismatch_is_checked_before_dimensions(self):
        with pytest.raises(ValueError, match=r"^max_value mismatch: 255 vs 15$"):
            psnr(_const(0, 2, 2), _const(0, 3, 2, max_value=15))
