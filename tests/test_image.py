"""Image container, PGM codec, and block downsampling."""

import numpy as np
import pytest

from nnvresize import (
    RESAMPLERS,
    Image,
    PgmError,
    block_downsample,
    image,
    load_pgm,
    resample_bilinear,
    save_pgm,
    write_pgm,
)

from conftest import random_image, traced_peak
from refimpl import pixel


def frozen_base(arr):
    """What the base chain of ``arr`` ends in, after checking that every
    array on it is read-only."""
    while isinstance(arr, np.ndarray):
        assert not arr.flags.writeable
        arr = arr.base
    return arr


class TestImage:
    def test_basic_construction(self):
        img = Image([[10, 20], [30, 40]])
        assert (img.width, img.height, img.max_value) == (2, 2, 255)
        assert pixel(img, 1, 0) == 20  # x = column, y = row
        assert pixel(img, 0, 1) == 30

    def test_pixels_are_read_only(self):
        img = Image([[1]])
        with pytest.raises(ValueError):
            img.pixels[0, 0] = 2
        with pytest.raises(AttributeError):
            img.extra = 1

    def test_callers_array_stays_writable_and_apart(self):
        pixels = np.zeros((4, 4), dtype=np.uint8)
        img = Image(pixels, 1)
        assert pixels.flags.writeable
        pixels[:] = 255
        assert img == Image(np.zeros((4, 4), dtype=np.uint8), 1)

    def test_view_of_a_writable_base_is_not_shared(self):
        base = np.zeros(16, dtype=np.uint8)
        img = Image(base.reshape(4, 4), 1)
        base[:] = 255
        assert img.pixels.max() == 0
        assert resample_bilinear(img, 9) == Image(np.zeros((36, 36), dtype=np.uint8), 1)

    def test_read_only_view_of_a_writable_base_is_not_shared(self):
        base = np.zeros(16, dtype=np.uint8)
        view = base.reshape(4, 4)
        view.flags.writeable = False
        img = Image(view, 1)
        base[:] = 255
        assert img.pixels.max() == 0
        assert resample_bilinear(img, 9) == Image(np.zeros((36, 36), dtype=np.uint8), 1)

    def test_read_only_view_of_a_writable_buffer_is_not_shared(self):
        buffer = bytearray(16)
        view = np.frombuffer(buffer, dtype=np.uint8).reshape(4, 4)
        view.flags.writeable = False
        img = Image(view, 1)
        buffer[:] = b"\xff" * 16
        assert img.pixels.max() == 0

    def test_read_only_view_of_an_interface_holder_is_not_shared(self):
        # the view's base is the holder, which has no buffer to ask whether
        # it is read-only, although the array behind it is writable
        class Holder:
            def __init__(self, arr):
                self.arr = arr
                self.__array_interface__ = arr.__array_interface__

        base = np.zeros((4, 4), dtype=np.uint8)
        view = np.asarray(Holder(base))
        view.flags.writeable = False
        assert view.base is not base and not isinstance(view.base, np.ndarray)
        img = Image(view, 1)
        base[:] = 255
        assert img.pixels.max() == 0

    def test_read_only_arrays_are_copied(self):
        frozen = np.zeros((4, 4), dtype=np.uint8)
        frozen.flags.writeable = False
        from_bytes = np.frombuffer(bytes(16), dtype=np.uint8).reshape(4, 4)
        for pixels in (frozen, frozen[1:], from_bytes):
            img = Image(pixels, 1)
            assert not np.shares_memory(img.pixels, pixels)
            assert np.array_equal(img.pixels, pixels)

    @pytest.mark.parametrize(
        "build", [*RESAMPLERS.values(), block_downsample], ids=[*RESAMPLERS, "block_downsample"]
    )
    def test_package_outputs_are_kept_and_frozen(self, rng, build):
        assert frozen_base(build(random_image(rng, 6, 6, 15), 2).pixels) is None

    def test_p5_raster_is_kept_and_frozen(self, rng):
        data = save_pgm(random_image(rng, 5, 3, 15))
        assert frozen_base(load_pgm(data).pixels) is data

    def test_outputs_are_not_rescanned(self, rng, monkeypatch):
        img = random_image(rng, 6, 6, 15)
        data = save_pgm(img)

        def refuse(arr, max_value):
            raise ValueError("range checked")

        monkeypatch.setattr(image, "_check_range", refuse)
        for build in [*RESAMPLERS.values(), block_downsample]:
            assert build(img, 2).max_value == 15
        with pytest.raises(ValueError, match="range checked"):
            Image([[1]], 15)
        with pytest.raises(PgmError, match="sample value outside"):
            load_pgm(data)

    @pytest.mark.parametrize("shape", [(4,), (2, 2, 2)])
    def test_grid_must_be_two_dimensional(self, shape):
        with pytest.raises(ValueError, match=rf"^expected a 2-D pixel grid, got ndim={len(shape)}$"):
            Image(np.zeros(shape, dtype=np.uint8))

    @pytest.mark.parametrize("bad", [0, 256, True, 255.0])
    def test_bad_max_value_rejected(self, bad):
        # True would be written as a "True" header no PGM reader accepts
        with pytest.raises(ValueError, match="max_value"):
            Image([[1, 0]], max_value=bad)

    @pytest.mark.parametrize(
        "pixels, max_value, message",
        [
            (np.array([[7, 101]], dtype=np.uint8), 100, "pixel values [7, 101] fall outside [0, 100]"),
            (np.array([[300, 2]], dtype=np.uint16), 255, "pixel values [2, 300] fall outside [0, 255]"),
            (np.array([[-1, 5]], dtype=np.int8), 255, "pixel values [-1, 5] fall outside [0, 255]"),
            ([[101]], 100, "pixel values [101, 101] fall outside [0, 100]"),
            (np.array([[-1]]), 255, "pixel values [-1, -1] fall outside [0, 255]"),
        ],
        ids=["uint8-above-100", "uint16-above-255", "int8-negative", "list-above-100", "int64-negative"],
    )
    def test_out_of_range_array_reports_its_span(self, pixels, max_value, message):
        # arrays whose dtype can leave [0, max_value] are scanned, whatever the dtype
        with pytest.raises(ValueError) as excinfo:
            Image(pixels, max_value)
        assert str(excinfo.value) == message

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
        assert Image([[1, 2]]) != Image([[1], [2]])

    def test_is_not_hashable(self):
        # an Image compares by value and is not hashable, like the array it holds
        with pytest.raises(TypeError):
            hash(Image([[1]]))

    def test_equality_with_a_non_image_is_false(self):
        # Image.__eq__ returns NotImplemented, so Python falls back to identity
        assert Image([[1]]).__eq__([[1]]) is NotImplemented
        assert not Image([[1]]) == [[1]]
        assert Image([[1]]) != [[1]]

    def test_repr_names_size_and_max_value(self):
        assert repr(Image(np.zeros((2, 3), dtype=np.uint8), 100)) == "Image(3x2, max_value=100)"


class TestLoadPgm:
    """What a decode costs; what it decodes to is pinned in tests/test_pgm_decode.py."""

    def test_p5_raster_is_not_copied(self, rng):
        # the pixels are a view of the raster in the input bytes
        data = save_pgm(random_image(rng, 1024, 1024))
        peak, img = traced_peak(load_pgm, data)
        assert peak < 16 * 1024, peak
        assert img == load_pgm(bytearray(data))
        # a buffer the caller may write is copied, so later writes miss the image
        small = b"P5 2 1 255 " + bytes([10, 20])
        for buffer in (bytearray(small), memoryview(bytearray(small))):
            img = load_pgm(buffer)
            buffer[-1] = 99
            assert img.pixels.tolist() == [[10, 20]]

    def test_p2_trailing_text_costs_no_second_decode(self, rng):
        # text after the last sample is never parsed: the decode stops at
        # the chunk that holds the last sample
        img = random_image(rng, 512, 512)
        clean = b"P2 512 512 255\n" + "\n".join(" ".join(map(str, row)) for row in img.pixels.tolist()).encode()
        (clean_peak, clean_img), (tail_peak, tail_img) = (
            traced_peak(load_pgm, data) for data in (clean, clean + b"\nend of data\n")
        )
        assert clean_img == tail_img == img
        assert tail_peak <= 2 * clean_peak, (tail_peak, clean_peak)

    def test_p2_peak_memory_is_bounded(self, rng):
        # the text is parsed in bounded chunks straight into the uint8
        # raster, so a decode holds the raster and one chunk's temporaries,
        # whatever the layout of the text
        img = random_image(rng, 1024, 1024)
        rows = [" ".join(map(str, row)).encode() for row in img.pixels.tolist()]
        forms = {
            "clean": b"P2 1024 1024 255\n" + b"\n".join(rows),
            "comments": b"P2 1024 1024 255\n" + b"".join(row + b" # a comment\n" for row in rows),
            "trailing": b"P2 1024 1024 255\n" + b"\n".join(rows) + b"\nend of data\n",
            "one-line": b"P2 1024 1024 255 " + b" ".join(rows),
        }
        for form, data in forms.items():
            peak, decoded = traced_peak(load_pgm, data)
            assert decoded == img, form
            assert peak <= 2 * img.pixels.nbytes + 2 * 2**20, (form, peak)


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
        peak, data = traced_peak(save_pgm, img)
        assert peak <= 1.1 * len(data), peak / len(data)

    def test_p2_reads_back_as_identical_p5(self):
        p2 = b"P2\n3 1\n255\n5 6 7\n"
        img = load_pgm(p2)
        assert load_pgm(save_pgm(img)) == img


class TestWritePgm:
    @pytest.mark.parametrize("maxval", [1, 100, 255])
    def test_writes_the_bytes_of_save_pgm_without_a_copy(self, rng, tmp_path, maxval):
        # the header, then the pixel buffer itself: the raster is not joined
        path = tmp_path / "out.pgm"
        img = random_image(rng, 1024, 1024, maxval)
        peak, _ = traced_peak(write_pgm, path, img)
        assert peak < 16 * 1024, peak
        assert path.read_bytes() == save_pgm(img)

    def test_what_is_not_an_image_leaves_the_file_untouched(self, tmp_path):
        path = tmp_path / "kept.pgm"
        path.write_bytes(b"8 bytes.")
        with pytest.raises(AttributeError):
            write_pgm(path, [[1]])
        assert path.read_bytes() == b"8 bytes."


class TestBlockDownsample:
    """Its hand values are rows of CASES in tests/test_reductions.py."""

    def test_identity_ratio(self, rng):
        img = random_image(rng, 6, 4)
        assert block_downsample(img, 1) == img

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
