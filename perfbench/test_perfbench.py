"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from spans import Tracer, layer_totals, self_times  # noqa: E402

from nnvresize import Image, resample_bilinear, resample_nnv  # noqa: E402
from nnvresize import cli, image  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def photo():
    return gen.photo_like(np.random.default_rng(3), 24)


def test_checker_accepts_package_output_at_dyadic_ratio(photo):
    out = resample_nnv(Image(photo), 2).pixels
    assert check.invariant_errors("nnv", photo, 255, out, 255, 2) == []
    assert check.exact_mismatches("nnv", photo, 255, out, 2, seed=0, count=out.size) == 0


def test_checker_flags_broken_site_pixel(photo):
    out = resample_bilinear(Image(photo), 2).pixels.copy()
    out[4, 6] = (int(out[4, 6]) + 1) % 256
    assert any("sites" in e for e in check.invariant_errors("bilinear", photo, 255, out, 255, 2))
    assert check.exact_mismatches("bilinear", photo, 255, out, 2, seed=0, count=out.size) == 1


def test_checker_flags_invented_nnv_value():
    src = np.array([[10, 20], [30, 40]], dtype=np.uint8)
    out = resample_nnv(Image(src), 3).pixels.copy()
    out[1, 1] = 25  # not one of 10, 20, 30, 40
    errors = check.invariant_errors("nnv", src, 255, out, 255, 3)
    assert errors == ["1 nnv pixels not drawn from their cell"]


def test_checker_flags_wrong_shape_and_max_value(photo):
    out = resample_nnv(Image(photo), 2).pixels
    assert check.invariant_errors("nnv", photo, 255, out[:-1], 255, 2)
    assert check.invariant_errors("nnv", photo, 255, out, 254, 2)


def test_check_request_flags_corrupted_output_file(tmp_path, photo):
    wl = run.Workload(sources={"photo": photo})
    out_path = tmp_path / "out.pgm"
    req = run.Request([], str(out_path), "scale", "photo", "nnv", 3)
    good = resample_nnv(Image(photo), 3).pixels
    out_path.write_bytes(gen.encode_p5(good))
    assert run.check_request(req, wl, (0, 0)).errors == []
    bad = good.copy()
    bad[0, 3] = 255 - bad[0, 3]  # a source site
    out_path.write_bytes(gen.encode_p5(bad))
    assert any("sites" in e for e in run.check_request(req, wl, (0, 0)).errors)
    out_path.write_bytes(gen.encode_p5(good)[:-1])
    assert "unreadable output" in run.check_request(req, wl, (0, 0)).errors[0]


def test_exact_reference_known_non_dyadic_case():
    # cell (a, k, p, g) = (0, 1, 3, 2) at ratio 6, offset (4/6, 3/6):
    # b = 3/2 exactly, so bilinear rounds half up to 2
    src = [[0, 1], [3, 2]]
    assert check._bilinear(0, 1, 3, 2, Fraction(4, 6), Fraction(3, 6)) == Fraction(3, 2)
    assert check.exact_pixel("bilinear", src, 255, 6, 4, 3) == 2


def test_block_mean_reference(photo):
    small = gen.block_mean(photo, 2)
    assert check.block_mean_mismatches(photo, small, 2, seed=0, count=small.size) == 0
    small[0, 0] ^= 1
    assert check.block_mean_mismatches(photo, small, 2, seed=0, count=small.size) == 1


def test_different_seed_changes_inputs(tmp_path):
    for build in run.WORKLOADS.values():
        a = build(np.random.default_rng(1), tmp_path / "a")
        b = build(np.random.default_rng(1), tmp_path / "b")
        c = build(np.random.default_rng(2), tmp_path / "c")
        assert all(np.array_equal(a.sources[k], b.sources[k]) for k in a.sources)
        assert not any(np.array_equal(a.sources[k], c.sources[k]) for k in a.sources)


def test_mode_census_patterns():
    flat = np.full((4, 4), 7, dtype=np.uint8)
    checker = (np.indices((4, 4)).sum(axis=0) % 2 * 9).astype(np.uint8)
    assert gen.mode_cells(flat) == (16, 16)
    # 2+2 everywhere except the bottom-right cell, which clamps to one pixel
    assert gen.mode_cells(checker) == (1, 16)
    # top-left cells 3+1 and 2+1+1 have a mode; the clamped edge cells are 2+2
    assert gen.mode_cells(np.array([[1, 1], [1, 2]], dtype=np.uint8)) == (2, 4)
    assert gen.mode_cells(np.array([[1, 1], [2, 3]], dtype=np.uint8)) == (2, 4)
    assert gen.mode_cells(np.array([[1, 2], [3, 4]], dtype=np.uint8)) == (1, 4)


def _traced_bench(tmp_path):
    directory = tmp_path / "originals"
    directory.mkdir()
    pixels = gen.posterized(np.random.default_rng(5), 48)
    (directory / "p.pgm").write_bytes(gen.encode_p5(pixels))
    tracer = Tracer()
    uninstall = tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            argv = ["bench", str(directory), "--ratios", "2,3", "--csv", str(tmp_path / "b.csv"), "--repeats", "1"]
            assert tracer.call("cli", "main", cli.main, argv) == 0
    finally:
        uninstall()
    return tracer.spans


def test_child_spans_fit_inside_parent(tmp_path):
    spans = _traced_bench(tmp_path)
    own = self_times(spans)
    for index, span in enumerate(spans):
        children = [s for s in spans if s.parent == index]
        assert sum(s.end - s.start for s in children) <= span.end - span.start
        assert 0 <= own[index] <= span.end - span.start
    totals = layer_totals(spans)
    assert totals["bench.run_benchmark"]["calls"] == 1
    assert totals["image.block_downsample"]["calls"] == 2
    assert totals["nnv.resample_nnv"]["calls"] == 2
    assert totals["metrics.psnr"]["calls"] == 8
    assert totals["nnv.resample_nnv"]["peak_mib"] > 0


def test_tracer_restores_package_functions(tmp_path):
    before = (cli.read_pgm, image.load_pgm, dict(cli.RESAMPLERS))
    _traced_bench(tmp_path)
    assert (cli.read_pgm, image.load_pgm, dict(cli.RESAMPLERS)) == before


def test_names_are_well_formed():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert set(run.WORKLOADS) == {w["name"] for w in spec["workloads"]}
    layer = run.layer_metrics({}, 1, 0.0, 0.5)
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
    assert all(layer[m["name"]]["unit"] == m["unit"] for m in spec["per_layer"])


def test_tail_is_eleventh_largest():
    value, pct = run.tail([float(i) for i in range(100)])
    assert (value, pct) == (89.0, 90.0)
