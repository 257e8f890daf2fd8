"""Golden output digests: one SHA-256 of the P5 encoding of every
(case, method, ratio) output, checked against tests/golden.json.

The digests pin bytes; they do not prove them right (tests/refimpl.py is
the spec). The inputs come from an integer hash of (x, y, seed) in
uint64, so they do not depend on numpy's random streams. After a
deliberate change of stated semantics, rewrite the file with
``PYTHONPATH=src python tests/test_golden.py`` and say which digests
changed and why.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from nnvresize import RESAMPLERS, Image, save_pgm

GOLDEN = Path(__file__).with_name("golden.json")

_M = (1 << 64) - 1


def _hash(width, height, seed):
    """A uint64 mix (splitmix64's finaliser) of each pixel's (x, y, seed)."""
    y, x = np.indices((height, width), dtype=np.uint64)
    h = x * np.uint64(0x9E3779B97F4A7C15) + y * np.uint64(0xC2B2AE3D27D4EB4F)
    h += np.uint64(seed * 0x165667B19E3779F9 & _M)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        h ^= h >> np.uint64(shift)
        h *= np.uint64(mult)
    return h ^ (h >> np.uint64(31))


def _photo(width, height, seed):
    # a smooth ramp with hash noise on top, clamped to 255
    y, x = np.indices((height, width))
    noise = (_hash(width, height, seed) % np.uint64(48)).astype(np.int64)
    return Image(np.minimum(x * 160 // width + y * 96 // height + noise, 255))


def _levels(width, height, seed, levels):
    # a few far-apart grey levels, so most 2x2 cells have a mode
    codes = (_hash(width, height, seed) % np.uint64(levels)).astype(np.int64)
    return Image(codes * (255 // (levels - 1)))


CASES = {
    "photo_40x48": (_photo(40, 48, 1), range(1, 13)),
    "levels4_64x64": (_levels(64, 64, 2, 4), range(1, 13)),
    "max15_7x9": (Image((_hash(7, 9, 3) % np.uint64(16)).astype(np.int64), 15), range(1, 13)),
    "strip_1x33": (_photo(1, 33, 4), range(1, 13)),
    # 1, 2, 3 and 6 bands at ratios 2, 3, 4 and 6
    "photo_300x260": (_photo(300, 260, 5), (2, 3, 4, 6)),
    # bicubic's split second pass, up to its largest ratio
    "tiny_3x2": (_photo(3, 2, 6), (378, 1000, 1107)),
    # two column tiles at ratios 8 and 12, the second one shorter
    "row_1x70000": (_photo(70000, 1, 7), (8, 12)),
}


def digests(case, method):
    img, ratios = CASES[case]
    return {str(r): hashlib.sha256(save_pgm(RESAMPLERS[method](img, r))).hexdigest() for r in ratios}


@pytest.mark.parametrize("method", list(RESAMPLERS))
@pytest.mark.parametrize("case", list(CASES))
def test_output_bytes_match_the_golden_digests(case, method):
    assert digests(case, method) == json.loads(GOLDEN.read_text())[case][method]


if __name__ == "__main__":
    table = {case: {method: digests(case, method) for method in RESAMPLERS} for case in CASES}
    GOLDEN.write_text(json.dumps(table, indent=1) + "\n")
