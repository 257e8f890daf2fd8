"""Grayscale image container, PGM codec, block-average downsampling, and
the row bands that every whole-image loop of the package walks."""

from __future__ import annotations

import os
import re

import numpy as np

_WHITESPACE = b" \t\n\r\x0b\x0c"
_DIGITS = b"0123456789"
# a comment runs from '#' to the end of its line and ends any token it touches
_COMMENT = re.compile(rb"#[^\r\n]*")
# whitespace and comments, then the token they precede (empty at the end)
_TOKEN = re.compile(rb"(?:[ \t\n\r\x0b\x0c]+|" + _COMMENT.pattern + rb")*([^ \t\n\r\x0b\x0c#]*)")

# bytes of work per band (a resampler's output), chosen by measurement,
# not to fit a cache: NNV's temporaries for a 512-wide source at ratio 2
# are about 6 MiB. Over the scale-photo mix on 2 vCPUs, NNV took 155, 103,
# 72-80, 71 and 69-70 ms at 64, 128, 256, 512 and 1024 KiB, and bicubic
# was slower at 1024 KiB than at 512. A small image runs as one band.
_BAND_BYTES = 512 * 1024
# a reduction's inputs and temporaries per source pixel, rounded up: psnr
# reads two uint8 pixels into a uint8 difference (the larger minus the
# smaller, one more uint8 temporary) and its uint16 square, 6 bytes, and
# block_downsample's strided row sums take no more
_REDUCE_PIXEL_BYTES = 8


class PgmError(ValueError):
    """Raised for malformed or unsupported PGM data."""


def _is_integer(value) -> bool:
    """True for Python and numpy integers, False for bool and everything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _check_count(value, name: str) -> int:
    """``value`` as a Python int; ValueError naming it unless it is an
    integer >= 1. Every count argument of the package goes through here."""
    if not _is_integer(value) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return int(value)


def _check_range(arr: np.ndarray, max_value: int) -> None:
    """ValueError unless every value of ``arr`` lies in [0, max_value]; a
    dtype that cannot leave that range is not scanned."""
    info = np.iinfo(arr.dtype)
    if info.min < 0 or info.max > max_value:
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi > max_value:
            raise ValueError(f"pixel values [{lo}, {hi}] fall outside [0, {max_value}]")


class Image:
    """Immutable grayscale raster with an explicit intensity ceiling.

    Pixels are stored row-major as uint8 with the origin at the top-left
    corner, so ``pixels[y, x]`` is column x of row y. The constructor
    checks the caller's array and stores a copy of it, so the caller's
    array stays writable, and later writes to it, or to what it views,
    do not reach the image. The package's own outputs and a decoded P5
    raster are kept without a copy.
    """

    __slots__ = ("_pixels", "_max_value")

    def __init__(self, pixels, max_value: int = 255):
        arr = np.asarray(pixels)
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-D pixel grid, got ndim={arr.ndim}")
        if arr.size == 0:
            raise ValueError("image must have at least one pixel")
        if not np.issubdtype(arr.dtype, np.integer):
            raise TypeError(f"pixel values must be integers, got dtype {arr.dtype}")
        if not _is_integer(max_value) or not 1 <= max_value <= 255:
            raise ValueError(f"max_value must be an integer in [1, 255], got {max_value!r}")
        max_value = int(max_value)
        _check_range(arr, max_value)
        packed = np.array(arr, dtype=np.uint8, order="C")
        packed.setflags(write=False)
        self._pixels, self._max_value = packed, max_value

    @classmethod
    def _adopt(cls, pixels: np.ndarray, max_value: int) -> "Image":
        """An image of ``pixels`` without a copy or a range scan: the
        package's way in for a C-contiguous 2-D uint8 array in
        [0, max_value] that nothing else writes. It freezes ``pixels``."""
        pixels.setflags(write=False)
        img = cls.__new__(cls)
        img._pixels, img._max_value = pixels, max_value
        return img

    @property
    def width(self) -> int:
        return self._pixels.shape[1]

    @property
    def height(self) -> int:
        return self._pixels.shape[0]

    @property
    def max_value(self) -> int:
        return self._max_value

    @property
    def pixels(self) -> np.ndarray:
        """Read-only (height, width) uint8 array."""
        return self._pixels

    def __eq__(self, other) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return self._max_value == other._max_value and bool(
            np.array_equal(self._pixels, other._pixels)
        )

    def __repr__(self) -> str:
        return f"Image({self.width}x{self.height}, max_value={self._max_value})"


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    match = _TOKEN.match(data, pos)
    if not match.group(1):
        raise PgmError("truncated header: expected another token")
    return match.group(1), match.end()


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    if not token.isdigit():
        raise PgmError(f"malformed header: {what} is not a number: {token!r}")
    # a number is a run of ASCII digits, read as a P2 sample is: a run
    # beyond int64, which 20 significant digits are, reads as its maximum
    return min(int(token.lstrip(b"0")[:20] or b"0"), 2**63 - 1), pos


def _p2_samples(body: bytes, count: int) -> np.ndarray:
    """The first ``count`` samples of a P2 raster as int64, or PgmError.

    A sample is a run of ASCII digits between whitespace; a comment ends a
    sample, and whatever follows the last sample is ignored. A sample
    beyond int64 reads as the int64 maximum, which no maxval admits.
    """
    if b"#" in body:
        body = _COMMENT.sub(b" ", body)
    other = body.translate(None, _DIGITS + _WHITESPACE)
    # the samples end where the token holding the first other byte starts
    head = body[: body.find(other[:1])].rstrip(_DIGITS) if other else body
    # one C-level pass; np.fromstring reads a blank string as [0] and must
    # never get count=, which over-reads
    if head and not head.isspace():
        samples = np.fromstring(head, dtype=np.int64, sep=" ")
    else:
        samples = np.empty(0, dtype=np.int64)
    if len(samples) < count and other:
        raise PgmError(f"malformed sample: {_next_token(body, len(head))[0]!r}")
    if len(samples) < count:
        raise PgmError(f"truncated pixel data: expected {count} samples, got {len(samples)}")
    return samples[:count]


def load_pgm(data: bytes) -> Image:
    """Decode a binary (P5) or ASCII (P2) PGM byte sequence.

    Comments ('#' to the end of the line) may stand anywhere in the header
    and, in P2, between samples. Color formats (P6/P3) and maxval > 255
    are rejected. Malformed input raises PgmError.
    """
    data = bytes(data)
    try:
        magic, pos = _next_token(data, 0)
    except PgmError:
        raise PgmError("empty or unreadable PGM data") from None
    if magic in (b"P6", b"P3"):
        raise PgmError(f"unsupported color PPM format {magic.decode('ascii')}")
    if magic not in (b"P5", b"P2"):
        raise PgmError(f"bad magic number {magic[:8]!r}: not a PGM file")

    width, pos = _header_int(data, pos, "width")
    height, pos = _header_int(data, pos, "height")
    if width < 1 or height < 1:
        raise PgmError(f"dimensions out of range: {width}x{height}")
    maxval, pos = _header_int(data, pos, "maxval")
    if maxval < 1 or maxval > 255:
        raise PgmError(f"maxval out of range (want 1..255): {maxval}")

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates maxval from the raster
        if data[pos : pos + 1] not in _WHITESPACE:
            raise PgmError("malformed header: missing whitespace before raster")
        available = max(0, len(data) - pos - 1)
        if available < count:
            raise PgmError(f"truncated pixel data: expected {count} bytes, got {available}")
        # a view of the raster in data, not a copy of it
        arr = np.frombuffer(data, dtype=np.uint8, count=count, offset=pos + 1).reshape(height, width)
    else:
        arr = _p2_samples(data[pos:], count).reshape(height, width)

    # the header checks leave only the sample range to refuse
    try:
        _check_range(arr, maxval)
    except ValueError:
        raise PgmError(f"sample value outside [0, {maxval}]") from None
    # a P5 raster stays a view of data, which nothing writes
    return Image._adopt(np.ascontiguousarray(arr, dtype=np.uint8), maxval)


def _p5_header(img: Image) -> bytes:
    return f"P5\n{img.width} {img.height}\n{img.max_value}\n".encode("ascii")


def save_pgm(img: Image) -> bytes:
    """Encode an image as binary P5; load_pgm(save_pgm(img)) == img."""
    return _p5_header(img) + img.pixels.data


def read_pgm(path: str | os.PathLike) -> Image:
    """Decode the PGM file at ``path``; a PgmError names the file."""
    with open(path, "rb") as fh:
        try:
            return load_pgm(fh.read())
        except PgmError as exc:
            raise PgmError(f"{path}: {exc}") from None


def write_pgm(path: str | os.PathLike, img: Image) -> None:
    """Write the bytes of save_pgm(img) without joining them: the header,
    then the pixel buffer itself. Both are taken before the file is
    opened, so what is not an image leaves an existing file untouched."""
    header, raster = _p5_header(img), img.pixels.data
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(raster)


def _bands(rows: int, row_bytes: int):
    """(y0, y1) of consecutive bands [y0, y1) of ``rows`` rows that cost
    ``row_bytes`` each, about _BAND_BYTES a band and one row at least."""
    step = max(1, _BAND_BYTES // row_bytes)
    for y0 in range(0, rows, step):
        yield y0, min(y0 + step, rows)


def _int_dtype(bound: int):
    """Narrowest signed integer type holding every integer of magnitude
    <= bound; OverflowError past int64."""
    for dtype in (np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    raise OverflowError(f"no integer type holds {bound}")


def _block_sums_half_up(band: np.ndarray, ratio: int, dtype) -> np.ndarray:
    """s + ratio**2 // 2 for the sum s of each ratio x ratio block of the
    band: its strided rows are added, then the strided columns of that."""
    rows = band[0::ratio].astype(dtype)
    for i in range(1, ratio):
        rows += band[i::ratio]
    sums = rows[:, 0::ratio].copy()
    for i in range(1, ratio):
        sums += rows[:, i::ratio]
    sums += ratio * ratio // 2
    return sums


def block_downsample(img: Image, ratio: int) -> Image:
    """Shrink by an integer ratio, averaging each ratio x ratio block.

    Block means are rounded half up. Width and height must be divisible
    by the ratio.
    """
    ratio = _check_count(ratio, "ratio")
    if img.width % ratio or img.height % ratio:
        raise ValueError(
            f"dimensions {img.width}x{img.height} not divisible by ratio {ratio}"
        )
    denom = ratio * ratio
    # round half up on the exact rational mean, floor(s/r^2 + 1/2), is
    # (s + r^2 // 2) // r^2; a mean of values in [0, max_value] rounds to
    # at most max_value, so no clamp
    dtype = _int_dtype(denom * img.max_value + denom // 2)
    width = img.width
    out = np.empty((img.height // ratio, width // ratio), dtype=np.uint8)
    for y0, y1 in _bands(out.shape[0], _REDUCE_PIXEL_BYTES * width * ratio):
        # no name holds a band's sums, so they are freed before the next
        # band's are taken
        band = img.pixels[y0 * ratio : y1 * ratio]
        np.floor_divide(_block_sums_half_up(band, ratio, dtype), denom, out=out[y0:y1], casting="unsafe")
    return Image._adopt(out, img.max_value)
