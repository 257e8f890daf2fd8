"""Nearest-neighbor-value (NNV) upscaling.

Each empty output location is filled with the value of one of the four
source pixels around it, never with a synthesized value. The pick is the
cell's mode when it has one; otherwise the neighbor whose value sits
closest to the bilinear estimate for that location.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .image import Image
from .resample import (
    _bilinear_weights,
    _check_ratio,
    _int_dtype,
    _interleave,
    _pad_edges,
    bilinear_blend,
    map_locus,
)


class ModeKind(Enum):
    MODE = "mode"
    NO_MODE_TIE = "no-mode-tie"
    NO_MODE_ALL_DISTINCT = "no-mode-all-distinct"


@dataclass(frozen=True)
class ModeOutcome:
    """Result of the four-element mode check."""

    kind: ModeKind
    value: int | float | None = None

    @property
    def is_mode(self) -> bool:
        return self.kind is ModeKind.MODE


@dataclass(frozen=True)
class NeighborSet:
    """The 2x2 cell around an empty location, in fixed A/K/P/G order.

    a = top-left, k = top-right, p = bottom-left, g = bottom-right;
    (dx, dy) is the empty location's fractional offset inside the cell.
    """

    a: int
    k: int
    p: int
    g: int
    dx: float = 0.5
    dy: float = 0.5

    def values(self) -> tuple[int, int, int, int]:
        return (self.a, self.k, self.p, self.g)


@dataclass(frozen=True)
class DiffSet:
    """Absolute gaps between each neighbor and the bilinear value b."""

    v1: float
    v2: float
    v3: float
    v4: float
    b: float

    def values(self) -> tuple[float, float, float, float]:
        return (self.v1, self.v2, self.v3, self.v4)


def mode4(values) -> ModeOutcome:
    """Mode of four values, if a single value is strictly most frequent.

    Frequency patterns (4), (3,1) and (2,1,1) yield a mode; (2,2) is a
    tie and (1,1,1,1) has nothing repeating, so neither has one.
    """
    items = tuple(values)
    if len(items) != 4:
        raise ValueError(f"expected exactly 4 values, got {len(items)}")
    counts = Counter(items)
    best = max(counts.values())
    if best == 1:
        return ModeOutcome(ModeKind.NO_MODE_ALL_DISTINCT)
    leaders = [v for v, c in counts.items() if c == best]
    if len(leaders) == 1:
        return ModeOutcome(ModeKind.MODE, leaders[0])
    return ModeOutcome(ModeKind.NO_MODE_TIE)


def abs_diffs(nbrs: NeighborSet) -> DiffSet:
    """Bilinear value of the cell plus each neighbor's absolute gap to it."""
    b = bilinear_blend(nbrs.a, nbrs.k, nbrs.p, nbrs.g, nbrs.dx, nbrs.dy)
    return DiffSet(
        v1=abs(nbrs.a - b),
        v2=abs(nbrs.k - b),
        v3=abs(nbrs.p - b),
        v4=abs(nbrs.g - b),
        b=b,
    )


def select_neighbor(diffs: DiffSet) -> int:
    """Pick which neighbor (1..4) carries the smallest gap to the bilinear value.

    The gaps are dispatched on their own mode: a mode that is also the
    minimum is taken at its first occurrence; a mode that is not the
    minimum falls back to the first minimum; with no mode the first
    minimum is taken directly. Every branch therefore lands on the first
    index attaining min(gaps). Gap comparisons use exact float equality:
    with integer pixels and dyadic offsets the arithmetic is exact.
    """
    gaps = diffs.values()
    smallest = min(gaps)
    outcome = mode4(gaps)
    if outcome.is_mode:
        if outcome.value == smallest:
            return gaps.index(outcome.value) + 1
        return gaps.index(smallest) + 1
    return gaps.index(smallest) + 1


def nnv_pixel(nbrs: NeighborSet) -> int:
    """Value for an empty location: the cell's mode, else the neighbor
    closest to the bilinear estimate. Always one of the four inputs."""
    outcome = mode4(nbrs.values())
    if outcome.is_mode:
        return outcome.value
    choice = select_neighbor(abs_diffs(nbrs))
    return nbrs.values()[choice - 1]


def cell_at(img: Image, dst_x: int, dst_y: int, ratio: int) -> NeighborSet:
    """NeighborSet for output pixel (dst_x, dst_y) at the given ratio."""
    locus = map_locus(img.width, img.height, dst_x, dst_y, ratio)
    return NeighborSet(
        a=img.get(locus.x0, locus.y0),
        k=img.get(locus.x1, locus.y0),
        p=img.get(locus.x0, locus.y1),
        g=img.get(locus.x1, locus.y1),
        dx=locus.dx,
        dy=locus.dy,
    )


def resample_nnv(img: Image, ratio: int) -> Image:
    """Upscale with NNV: copy source pixels at exact sample sites, fill
    every other location with its cell's unique mode, else with the
    neighbor closest to the bilinear value (the rule of nnv_pixel),
    in exact integer arithmetic.

    The mode census depends only on the 2x2 cell, so it runs once per
    source cell. The bilinear fallback runs only on cells without a
    unique mode: at offset (i/ratio, j/ratio) the bilinear value is
    N / ratio**2 with integer N, so the gaps |ratio**2 * v - N| compare
    exactly and the first minimum in A/K/P/G order wins.
    """
    _check_ratio(ratio)
    h, w = img.height, img.width
    src = _pad_edges(img.pixels, 0, 1)
    a, k, p, g = src[:-1, :-1], src[:-1, 1:], src[1:, :-1], src[1:, 1:]

    # per-cell frequency of each neighbor's value (counting itself)
    count_a = 1 + (a == k) + (a == p) + (a == g)
    count_k = 1 + (k == a) + (k == p) + (k == g)
    count_p = 1 + (p == a) + (p == k) + (p == g)
    count_g = 1 + (g == a) + (g == k) + (g == p)
    top = np.maximum(np.maximum(count_a, count_k), np.maximum(count_p, count_g))
    # frequency 2 is a mode only for the (2,1,1) pattern: exactly one
    # doubled value, i.e. exactly two positions at count 2
    doubled = (count_a == 2).astype(np.int8) + (count_k == 2) + (count_p == 2) + (count_g == 2)
    has_mode = (top >= 3) | ((top == 2) & (doubled == 2))
    mode_value = np.where(
        count_a == top, a, np.where(count_k == top, k, np.where(count_p == top, p, g))
    ).reshape(h * w)

    # The cells without a unique mode, compacted to (1, m) rows. Each
    # neighbor's key is gap * 1024 + position * 256 + value, so the
    # smallest key is the first neighbor at the smallest gap and its low
    # byte is that neighbor's value.
    rest = np.flatnonzero(~has_mode)
    dtype = _int_dtype(1024 * (ratio * ratio * img.max_value + 1))
    cells = [v.reshape(1, -1)[:, rest].astype(dtype) for v in (a, k, p, g)]
    weights = 1024 * _bilinear_weights(ratio).astype(dtype)[:, :, None]
    # 1024 * horizontal bilinear numerators of the top and bottom rows,
    # (ratio, m): one row per column phase
    upper = weights[:, 0] * cells[0] + weights[:, 1] * cells[1]
    lower = weights[:, 0] * cells[2] + weights[:, 1] * cells[3]
    scaled = [1024 * ratio * ratio * v for v in cells]
    tags = [256 * position + v for position, v in enumerate(cells)]

    def row_phase(j: int) -> np.ndarray:
        planes = np.empty((ratio, h * w), dtype=np.uint8)
        planes[:] = mode_value
        num = (ratio - j) * upper
        num += j * lower
        key = None
        for s, tag in zip(scaled, tags):
            gap = s - num
            np.abs(gap, out=gap)
            gap += tag
            key = gap if key is None else np.minimum(key, gap, out=key)
        key &= 255
        planes[:, rest] = key
        planes = planes.reshape(ratio, h, w)
        if j == 0:
            planes[0] = img.pixels
        return planes

    return _interleave(img, ratio, row_phase)
