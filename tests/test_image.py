"""Image container, PGM codec, and block downsampling."""

import tracemalloc

import numpy as np
import pytest

from nnvresize import Image, PgmError, block_downsample, load_pgm, save_pgm

from conftest import random_image


class TestImage:
    def test_basic_construction(self):
        img = Image([[10, 20], [30, 40]])
        assert (img.width, img.height, img.max_value) == (2, 2, 255)
        assert img.get(1, 0) == 20  # x = column, y = row
        assert img.get(0, 1) == 30

    def test_from_flat_row_major(self):
        img = Image.from_flat(2, 2, [10, 20, 30, 40])
        assert img.pixels.tolist() == [[10, 20], [30, 40]]

    def test_pixels_are_read_only(self):
        img = Image([[1]])
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 2

    def test_value_above_max_rejected(self):
        with pytest.raises(ValueError):
            Image([[101]], max_value=100)

    @pytest.mark.parametrize("bad", [0, 256, True, 255.0])
    def test_bad_max_value_rejected(self, bad):
        # True would be written as a "True" header no PGM reader accepts
        with pytest.raises(ValueError, match="max_value"):
            Image([[1, 0]], max_value=bad)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            Image(np.array([[-1]]))

    def test_non_integer_pixels_rejected(self):
        with pytest.raises(TypeError):
            Image(np.zeros((2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Image(np.zeros((0, 3), dtype=np.uint8))

    def test_equality(self):
        assert Image([[5]]) == Image([[5]])
        assert Image([[5]]) != Image([[6]])
        assert Image([[5]], max_value=254) != Image([[5]])


class TestLoadPgm:
    def test_p5_binary(self):
        img = load_pgm(b"P5\n2 2\n255\n" + bytes([10, 20, 30, 40]))
        assert (img.width, img.height) == (2, 2)
        assert img.pixels.tolist() == [[10, 20], [30, 40]]

    def test_p2_ascii(self):
        img = load_pgm(b"P2 1 1 255 7")
        assert (img.width, img.height) == (1, 1)
        assert img.get(0, 0) == 7

    def test_p2_multiline_with_comments(self):
        data = b"P2\n# a comment\n2 2 # trailing\n100\n0 1\n2 3\n"
        img = load_pgm(data)
        assert img.pixels.tolist() == [[0, 1], [2, 3]]
        assert img.max_value == 100

    def test_p5_header_comments(self):
        data = b"P5 # comment\n2 1 # another\n255\n" + bytes([9, 8])
        assert load_pgm(data).pixels.tolist() == [[9, 8]]

    def test_color_ppm_rejected(self):
        with pytest.raises(PgmError, match="color"):
            load_pgm(b"P6\n1 1\n255\n\x00\x00\x00")

    def test_bad_magic_rejected(self):
        with pytest.raises(PgmError, match="magic"):
            load_pgm(b"JUNK")

    def test_maxval_too_large_rejected(self):
        with pytest.raises(PgmError, match="maxval"):
            load_pgm(b"P5\n1 1\n65535\n\x00\x00")

    def test_zero_dimension_rejected(self):
        with pytest.raises(PgmError, match="dimensions"):
            load_pgm(b"P5\n0 4\n255\n")

    def test_truncated_p5_raster(self):
        with pytest.raises(PgmError, match="truncated"):
            load_pgm(b"P5\n2 2\n255\n\x01\x02")

    def test_truncated_p2_raster(self):
        with pytest.raises(PgmError, match="truncated"):
            load_pgm(b"P2\n2 2\n255\n1 2 3")

    def test_sample_above_maxval_rejected(self):
        with pytest.raises(PgmError, match="sample"):
            load_pgm(b"P2\n1 1\n10\n11")

    def test_trailing_bytes_tolerated(self):
        img = load_pgm(b"P5\n1 1\n255\n\x07\n")
        assert img.get(0, 0) == 7

    def test_overflowing_p2_sample_is_pgm_error(self):
        # beyond int64 it once escaped as OverflowError, past the CLI's handler
        with pytest.raises(PgmError, match=r"sample value outside \[0, 255\]"):
            load_pgm(b"P2 1 1 255 99999999999999999999")

    @pytest.mark.parametrize(
        "header",
        [
            b"P5\n# ends in CR\r2 1\n255\n",
            b"P5 2#glued\r1\n255\n",
            b"P5 #" + b"x" * (1 << 20) + b"\n2 1\n255\n",
        ],
        ids=["cr", "glued-cr", "1MiB"],
    )
    def test_p5_header_comments_give_same_image(self, header):
        # a comment ends at CR as well as at LF, and a 1 MiB one decodes in one regex match
        assert load_pgm(header + bytes([9, 8])) == load_pgm(b"P5 2 1 255\n" + bytes([9, 8]))

    @pytest.mark.parametrize("comment", [b"# at EOF", b"#" + b"x" * (1 << 20)], ids=["short", "1MiB"])
    def test_p2_comment_at_eof_gives_same_image(self, comment):
        assert load_pgm(b"P2 2 1 255\n9 8" + comment) == load_pgm(b"P2 2 1 255\n9 8")
        assert load_pgm(b"P2 2 1 255\n9" + comment + b"\r8") == load_pgm(b"P2 2 1 255\n9 8")

    def test_header_comment_at_eof_is_truncated_header(self):
        with pytest.raises(PgmError, match="truncated header"):
            load_pgm(b"P5 2 1 # no maxval")


class TestSavePgm:
    def test_single_pixel_layout(self):
        assert save_pgm(Image([[0]])) == b"P5\n1 1\n255\n\x00"

    def test_payload_is_row_major(self):
        data = save_pgm(Image([[10, 20], [30, 40]]))
        assert data.endswith(bytes([10, 20, 30, 40]))
        assert len(data) - data.index(b"\n255\n") - 5 == 4

    def test_round_trip_random(self, rng):
        img = random_image(rng, 16, 16)
        assert load_pgm(save_pgm(img)) == img

    @pytest.mark.parametrize("maxval", [1, 100, 255, np.uint8(255)])
    def test_round_trip_preserves_maxval(self, rng, maxval):
        img = Image(rng.integers(0, int(maxval) + 1, size=(3, 5)), maxval)
        assert type(img.max_value) is int
        again = load_pgm(save_pgm(img))
        assert again == img
        assert again.max_value == maxval

    def test_peak_memory_is_one_copy(self, rng):
        # the header is joined to the pixel buffer, not to a copy of it
        img = random_image(rng, 512, 512)
        tracemalloc.start()
        try:
            data = save_pgm(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * len(data), peak / len(data)

    def test_p2_reads_back_as_identical_p5(self):
        p2 = b"P2\n3 1\n255\n5 6 7\n"
        img = load_pgm(p2)
        assert load_pgm(save_pgm(img)) == img


class TestBlockDownsample:
    def test_mean_of_block(self):
        img = Image([[10, 20], [30, 40]])
        assert block_downsample(img, 2).pixels.tolist() == [[25]]

    def test_identity_ratio(self, rng):
        img = random_image(rng, 6, 4)
        assert block_downsample(img, 1) == img

    def test_round_half_up_on_quarter(self):
        # mean 0.25 rounds down to 0
        img = Image([[0, 1], [0, 0]])
        assert block_downsample(img, 2).pixels.tolist() == [[0]]

    def test_round_half_up_on_half(self):
        # mean 0.5 rounds up to 1
        img = Image([[1, 1], [0, 0]])
        assert block_downsample(img, 2).pixels.tolist() == [[1]]

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            block_downsample(Image([[1, 2, 3]]), 2)

    def test_bad_ratio_rejected(self):
        for bad in (0, True):
            with pytest.raises(ValueError, match="ratio"):
                block_downsample(Image([[1]]), bad)
        # a numpy integer is a valid ratio
        img = Image([[10, 20], [30, 40]])
        assert block_downsample(img, np.int64(2)) == block_downsample(img, 2)

    def test_output_within_block_range(self, rng):
        img = random_image(rng, 12, 12)
        for n in (2, 3, 4):
            small = block_downsample(img, n)
            blocks = img.pixels.reshape(12 // n, n, 12 // n, n)
            lo = blocks.min(axis=(1, 3))
            hi = blocks.max(axis=(1, 3))
            assert np.all(small.pixels >= lo)
            assert np.all(small.pixels <= hi)

    def test_reduces_dimensions(self, rng):
        img = random_image(rng, 8, 12)
        small = block_downsample(img, 4)
        assert (small.width, small.height) == (2, 3)
