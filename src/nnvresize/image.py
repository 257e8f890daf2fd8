"""Grayscale image container, PGM codec, and block-average downsampling."""

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
# what int() accepts in a token: optional sign, digits, single underscores
_SAMPLE = re.compile(rb"[+-]?[0-9](?:_?[0-9])*")


class PgmError(ValueError):
    """Raised for malformed or unsupported PGM data."""


def _is_integer(value) -> bool:
    """True for Python and numpy integers, False for bool and everything else."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class Image:
    """Immutable grayscale raster with an explicit intensity ceiling.

    Pixels are stored row-major as uint8; coordinates are (x = column,
    y = row) with the origin at the top-left corner.
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
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi > max_value:
            raise ValueError(f"pixel values [{lo}, {hi}] fall outside [0, {max_value}]")
        packed = np.ascontiguousarray(arr, dtype=np.uint8)
        packed.setflags(write=False)
        self._pixels = packed
        self._max_value = max_value

    @classmethod
    def from_flat(cls, width: int, height: int, values, max_value: int = 255) -> "Image":
        """Build an image from a flat row-major sequence of intensities."""
        arr = np.asarray(values)
        if arr.size != width * height:
            raise ValueError(f"expected {width * height} values for {width}x{height}, got {arr.size}")
        return cls(arr.reshape(height, width), max_value)

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

    def get(self, x: int, y: int) -> int:
        """Intensity at column x, row y."""
        return int(self._pixels[y, x])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return (
            self._max_value == other._max_value
            and self._pixels.shape == other._pixels.shape
            and bool(np.array_equal(self._pixels, other._pixels))
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"Image({self.width}x{self.height}, max_value={self._max_value})"


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    match = _TOKEN.match(data, pos)
    if not match.group(1):
        raise PgmError("truncated header: expected another token")
    return match.group(1), match.end()


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    token, pos = _next_token(data, pos)
    try:
        return int(token), pos
    except ValueError:
        raise PgmError(f"malformed header: {what} is not a number: {token!r}") from None


def _p2_samples(body: bytes, count: int) -> np.ndarray:
    """The first ``count`` samples of a P2 raster as int64, or PgmError.

    Samples are whitespace-separated tokens that int() accepts; a comment
    ends a token, and whatever follows the last sample is ignored. An
    integer beyond int64 reads as the int64 maximum, which no maxval admits.
    """
    if b"#" in body:
        body = _COMMENT.sub(b" ", body)
    if not body.translate(None, _DIGITS + _WHITESPACE):
        # digits and whitespace only: one C-level pass; np.fromstring reads a
        # blank body as [0] and must never get count=, which over-reads
        if body.isspace():
            return np.empty(0, dtype=np.int64)
        return np.fromstring(body, dtype=np.int64, sep=" ")[:count]
    # maxsplit is capped because a huge header makes count exceed sys.maxsize
    tokens = body.split(None, min(count, len(body)))[:count]
    try:
        return np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        for token in tokens:
            if not _SAMPLE.fullmatch(token):
                raise PgmError(f"malformed sample: {token!r}") from None
    # every token is an integer, so some fall outside int64
    return np.full(len(tokens), np.iinfo(np.int64).max)


def load_pgm(data: bytes) -> Image:
    """Decode a binary (P5) or ASCII (P2) PGM byte sequence.

    Comments ('#' to the end of the line) may stand anywhere in the header
    and, in P2, between samples. Color formats (P6/P3) and maxval > 255
    are rejected.
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
        raster = data[pos + 1 : pos + 1 + count]
        if len(raster) < count:
            raise PgmError(f"truncated pixel data: expected {count} bytes, got {len(raster)}")
        arr = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    else:
        samples = _p2_samples(data[pos:], count)
        if len(samples) < count:
            raise PgmError(f"truncated pixel data: expected {count} samples, got {len(samples)}")
        arr = samples.reshape(height, width)

    if int(arr.max()) > maxval or int(arr.min()) < 0:
        raise PgmError(f"sample value outside [0, {maxval}]")
    return Image(arr, maxval)


def save_pgm(img: Image) -> bytes:
    """Encode an image as binary P5; load_pgm(save_pgm(img)) == img."""
    header = f"P5\n{img.width} {img.height}\n{img.max_value}\n".encode("ascii")
    return header + img.pixels.data


def read_pgm(path: str | os.PathLike) -> Image:
    with open(path, "rb") as fh:
        return load_pgm(fh.read())


def write_pgm(path: str | os.PathLike, img: Image) -> None:
    with open(path, "wb") as fh:
        fh.write(save_pgm(img))


def _check_ratio(ratio) -> int:
    """The ratio as a Python int; ValueError unless it is an integer >= 1."""
    if not _is_integer(ratio) or ratio < 1:
        raise ValueError(f"ratio must be an integer >= 1, got {ratio!r}")
    return int(ratio)


def block_downsample(img: Image, ratio: int) -> Image:
    """Shrink by an integer ratio, averaging each ratio x ratio block.

    Block means are rounded half up. Width and height must be divisible
    by the ratio.
    """
    ratio = _check_ratio(ratio)
    if img.width % ratio or img.height % ratio:
        raise ValueError(
            f"dimensions {img.width}x{img.height} not divisible by ratio {ratio}"
        )
    out_w = img.width // ratio
    out_h = img.height // ratio
    blocks = img.pixels.astype(np.int64).reshape(out_h, ratio, out_w, ratio)
    sums = blocks.sum(axis=(1, 3))
    # round half up on the exact rational mean: floor(s/r^2 + 1/2)
    denom = ratio * ratio
    means = (2 * sums + denom) // (2 * denom)
    return Image(np.clip(means, 0, img.max_value), img.max_value)
