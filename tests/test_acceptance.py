"""Acceptance suite: one test per shipping criterion.

Each test prints a single `[acceptance] ... PASS/FAIL` line; run with
`pytest -s tests/test_acceptance.py` to see them. Criteria 7 and 8 use
the classic 512x512 grayscale originals (see conftest for how they are
resolved; unavailable ones are reported, and the checks run on the rest).
"""

import contextlib
import io
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from nnvresize import (
    Image,
    block_downsample,
    get_resampler,
    psnr,
    resample_bilinear,
    resample_nnv,
    run_benchmark,
    write_pgm,
)
from nnvresize.resample import _cubic_weights
from nnvresize.cli import main as cli_main

from conftest import (
    STANDARD_ORIGINAL_NAMES,
    available_standard_originals,
    random_image,
    timing_image,
)
from refimpl import cell_values, exact_resample, oracle_nnv_centered, oracle_unique_mode, pixel

# Externally reported NNV scores for the classic 512x512 set at ratio 4.
# Calibration targets only: deltas are printed, never asserted.
CALIBRATION_NNV_PSNR_DB = {
    "cameraman": 35.0154,
    "girl": 34.2262,
    "house": 36.2054,
    "peppers": 34.5064,
}

ALL_METHODS = ("nn", "bilinear", "bicubic", "nnv")


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def standard_originals():
    return available_standard_originals()


def test_criterion_1_nnv_pixel_matches_brute_force_oracle():
    alphabet = (0, 64, 128, 192, 255)
    start = time.perf_counter()
    mismatches = sum(
        1
        for a, k, p, g in itertools.product(alphabet, repeat=4)
        if pixel(resample_nnv(Image([[a, k], [p, g]]), 2), 1, 1) != oracle_nnv_centered(a, k, p, g)
    )
    elapsed = time.perf_counter() - start
    _report(
        "criterion 1 (625 centered cells of resample_nnv vs brute-force oracle, < 1 s)",
        mismatches == 0 and elapsed < 1.0,
        f"{mismatches} mismatches, {elapsed:.3f} s",
    )


def test_criterion_2_mode4_truth_table():
    bad = []
    for a, k, p, g in itertools.product(range(4), repeat=4):
        img = Image([[a, k], [p, g]])
        mode = oracle_unique_mode((a, k, p, g))
        for ratio in (2, 3):
            out = resample_nnv(img, ratio)
            fill = out.pixels[:ratio, :ratio].ravel()[1:]  # the cell minus its site
            if out != exact_resample("nnv", img, ratio) or (mode is not None and np.any(fill != mode)):
                bad.append(((a, k, p, g), ratio))
    _report(
        "criterion 2 (mode truth table, 256 tuples x ratios 2,3 vs exact oracle)",
        not bad,
        f"{len(bad)} violations",
    )


def test_criterion_3_no_new_values():
    rng = np.random.default_rng(31337)
    offending = 0
    total = 0
    for _ in range(50):
        img = random_image(rng, 16, 16)
        for ratio in (2, 3, 4):
            out = resample_nnv(img, ratio).pixels
            a, k, p, g = cell_values(img, ratio)
            member = (out == a) | (out == k) | (out == p) | (out == g)
            offending += int(member.size - member.sum())
            total += member.size
    _report(
        "criterion 3 (no new values: 50 images x ratios 2,3,4)",
        offending == 0,
        f"{offending}/{total} pixels outside their cell",
    )


def test_criterion_4_identity_and_source_preservation():
    rng = np.random.default_rng(424242)
    ok = True
    for _ in range(10):
        w, h = (int(v) for v in rng.integers(3, 13, size=2))
        img = random_image(rng, w, h)
        for method in ALL_METHODS:
            fn = get_resampler(method)
            ok &= fn(img, 1) == img
            for ratio in (2, 4):
                out = fn(img, ratio)
                ok &= bool(np.array_equal(out.pixels[::ratio, ::ratio], img.pixels))
    _report("criterion 4 (identity at n=1, source sites preserved at n=2,4)", ok)


def test_criterion_5_bilinear_ramp_and_kernel_partition():
    ramp_errors = 0
    half = Fraction(1, 2)
    for slope_x, slope_y, offset in [(3, 5, 10), (1, 0, 0), (0, 2, 7), (2, 3, 50)]:
        img = Image(
            [[slope_x * x + slope_y * y + offset for x in range(6)] for y in range(6)]
        )
        for ratio in (2, 3, 4):
            out = resample_bilinear(img, ratio)
            for y in range(5 * ratio):  # interior loci: no clamped support
                for x in range(5 * ratio):
                    ramp = slope_x * Fraction(x, ratio) + slope_y * Fraction(y, ratio) + offset
                    ramp_errors += pixel(out, x, y) != math.floor(ramp + half)

    partition_errors = sum(
        1 for r in range(1, 13) if np.any(_cubic_weights(r).sum(axis=1) != 2 * r**3)
    )

    _report(
        "criterion 5 (bilinear ramp exact after rounding; cubic weights sum to 2r^3, r = 1..12)",
        ramp_errors == 0 and partition_errors == 0,
        f"{ramp_errors} ramp pixels off, {partition_errors} ratios off unity",
    )


def test_criterion_6_psnr_unit_checks():
    flat = Image(np.full((8, 8), 200, dtype=np.uint8))
    undefined_ok = psnr(flat, flat).psnr_db is None

    shifted = Image(np.full((8, 8), 201, dtype=np.uint8))
    offset_db = psnr(flat, shifted).psnr_db
    offset_ok = abs(offset_db - 48.1308) <= 1e-4

    zeros = Image(np.zeros((8, 8), dtype=np.uint8))
    full = Image(np.full((8, 8), 255, dtype=np.uint8))
    swing_ok = psnr(zeros, full).psnr_db == 0.0

    _report(
        "criterion 6 (PSNR: undefined at MSE 0; +1 offset 48.1308 dB; full swing 0 dB)",
        undefined_ok and offset_ok and swing_ok,
        f"+1 offset gave {offset_db:.6f} dB",
    )


def test_criterion_7_nnv_psnr_beats_nn_and_bilinear(standard_originals):
    if not standard_originals:
        pytest.skip(
            "none of the standard 512x512 originals (cameraman, girl, house,"
            " peppers) are bundled or fetchable offline; set NNV_ORIGINALS_DIR"
            " to a directory of <name>.pgm copies to enable this check"
        )
    start = time.perf_counter()
    ordering_ok = True
    details = []
    for name, img in standard_originals:
        small = block_downsample(img, 4)
        scores = {}
        for method in ALL_METHODS:
            upscaled = get_resampler(method)(small, 4)
            db = psnr(img, upscaled).psnr_db
            scores[method] = float("inf") if db is None else db
        beats = scores["nnv"] > scores["nn"] and scores["nnv"] > scores["bilinear"]
        ordering_ok &= beats
        details.append(
            f"{name}: nnv={scores['nnv']:.4f} nn={scores['nn']:.4f}"
            f" bilinear={scores['bilinear']:.4f} bicubic={scores['bicubic']:.4f}"
            f" [{'ok' if beats else 'ORDERING VIOLATED'}]"
        )
        target = CALIBRATION_NNV_PSNR_DB.get(name)
        if target is not None:
            delta = scores["nnv"] - target
            details.append(
                f"{name}: calibration target {target:.4f} dB, delta {delta:+.4f} dB"
                f" ({'within' if abs(delta) <= 2.5 else 'OUTSIDE'} +/-2.5; reported only)"
            )
    elapsed = time.perf_counter() - start
    missing = [n for n in STANDARD_ORIGINAL_NAMES if n not in {nm for nm, _ in standard_originals}]
    if missing:
        details.append(f"unavailable here, not checked: {', '.join(missing)}")
    for line in details:
        print(f"    {line}")
    _report(
        "criterion 7 (ratio-4 pipeline: NNV PSNR > NN and bilinear, < 30 s)",
        ordering_ok and elapsed < 30.0,
        f"{len(standard_originals)} image(s), {elapsed:.1f} s",
    )


def test_criterion_8_nnv_slower_than_nn(standard_originals):
    # nnv does the same work on any content of a given size. When the
    # standard originals are unavailable the protocol runs on a labeled
    # seeded 512x512 stand-in raster.
    subjects = standard_originals or [timing_image()]
    ordering_ok = True
    details = []
    # rows come in (image, method) order, so they pair up as (nn, nnv)
    rows = run_benchmark(subjects, [4], ("nn", "nnv"), repeats=5)
    for nn, nnv in zip(rows[::2], rows[1::2]):
        wall_nn, wall_nnv = nn.wall_time_s, nnv.wall_time_s
        ordering_ok &= wall_nnv > wall_nn
        details.append(f"{nn.image_name}: nnv {wall_nnv * 1e3:.2f} ms vs nn {wall_nn * 1e3:.2f} ms ({wall_nnv / wall_nn:.1f}x)")
    _report(
        "criterion 8 (median wall time: nnv > nn on the ratio-4 protocol)",
        ordering_ok,
        "; ".join(details),
    )


def test_criterion_9_bench_csv_deterministic(tmp_path):
    rng = np.random.default_rng(90210)
    image_dir = tmp_path / "imgs"
    image_dir.mkdir()
    write_pgm(image_dir / "noise.pgm", random_image(rng, 16, 16))
    write_pgm(image_dir / "ramp.pgm", Image(np.add.outer(np.arange(16), np.arange(16)) * 8))

    def run(index: int) -> str:
        csv_path = tmp_path / f"run{index}.csv"
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main(
                ["bench", str(image_dir), "--ratios", "2,4", "--csv", str(csv_path), "--repeats", "2"]
            )
        assert code == 0
        text = csv_path.read_text(encoding="ascii")
        return "\n".join(",".join(line.split(",")[:-1]) for line in text.strip().split("\n"))

    first, second, third = run(1), run(2), run(3)
    _report(
        "criterion 9 (bench CSV identical across 3 runs, time column aside)",
        first == second == third,
        f"{len(first.splitlines()) - 1} rows compared",
    )
