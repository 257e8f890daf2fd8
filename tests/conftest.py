"""Shared fixtures: RNG and resolution of the standard 512x512 originals.

The PSNR-ordering acceptance check runs against the classic grayscale
test set (cameraman, girl, house, peppers). Those photographs are not
redistributable with this package and cannot be fetched in an offline
environment: drop 512x512 PGM copies named <name>.pgm into a directory
and point NNV_ORIGINALS_DIR at it to enable the check. Where pixel
content is irrelevant (timing), a labeled seeded stand-in is used.
"""

import os
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from nnvresize import Image, image, metrics, read_pgm

# Hypothesis' built-in "ci" profile, everywhere: derandomized, so every run
# draws the same examples, and no deadline; each test sets only max_examples
settings.load_profile("ci")

STANDARD_ORIGINAL_NAMES = ("cameraman", "girl", "house", "peppers")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_image(rng, width, height, max_value=255):
    return Image(rng.integers(0, max_value + 1, size=(height, width)), max_value)


def traced_peak(fn, *args):
    """(tracemalloc peak of one call fn(*args), in bytes; its result)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, result


@contextmanager
def band_bytes(budget):
    """Run every tiled loop (the resamplers and block_downsample) and the
    P2 decoder's chunks with a budget of ``budget`` bytes, and psnr with
    runs of at most budget // 8 pixels; 1 makes every tile one source
    pixel (one block in block_downsample), every P2 chunk one token or
    comment, and every run one pixel."""
    run = min(metrics._RUN, max(1, budget // 8))
    with mock.patch.object(image, "_BAND_BYTES", budget), mock.patch.object(metrics, "_RUN", run):
        yield


def find_standard_original(name: str):
    """Image for one of the standard originals, or None if unavailable."""
    env_dir = os.environ.get("NNV_ORIGINALS_DIR")
    if env_dir:
        candidate = Path(env_dir) / f"{name}.pgm"
        if candidate.is_file():
            return read_pgm(candidate)
    return None


def available_standard_originals():
    """(name, Image) pairs for every resolvable standard original."""
    found = []
    for name in STANDARD_ORIGINAL_NAMES:
        img = find_standard_original(name)
        if img is not None:
            found.append((name, img))
    return found


def timing_image():
    """(label, 512x512 Image) for wall-clock measurements.

    All four resamplers do the same work on any content of a given size:
    nnv sorts every 2x2 cell and compares every output pixel against its
    cell's midpoint thresholds, mode cell or not.
    """
    seeded = np.random.default_rng(512)
    return "synthetic 512x512 stand-in", Image(seeded.integers(0, 256, size=(512, 512)))
