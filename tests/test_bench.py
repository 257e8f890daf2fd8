"""Benchmark harness: row coverage, CSV/markdown layout, determinism."""

import numpy as np
import pytest

from nnvresize import (
    Image,
    get_resampler,
    report_markdown,
    rows_to_csv,
    run_benchmark,
    time_resample,
)
from nnvresize.bench import CSV_HEADER

from conftest import random_image


@pytest.fixture
def originals(rng):
    return [
        ("gradient", Image(np.arange(256, dtype=np.int64).reshape(16, 16))),
        ("noise", random_image(rng, 16, 16)),
    ]


class TestRunBenchmark:
    def test_full_cross_product(self, originals):
        report = run_benchmark(originals, ratios=[2, 4], repeats=1)
        assert len(report.rows) == 2 * 2 * 4
        keys = {(r.image_name, r.method, r.ratio) for r in report.rows}
        assert len(keys) == len(report.rows)

    def test_row_ordering(self, originals):
        report = run_benchmark(originals, ratios=[2, 4], methods=("nn", "nnv"), repeats=1)
        triples = [(r.image_name, r.ratio, r.method) for r in report.rows]
        assert triples == [
            ("gradient", 2, "nn"),
            ("gradient", 2, "nnv"),
            ("gradient", 4, "nn"),
            ("gradient", 4, "nnv"),
            ("noise", 2, "nn"),
            ("noise", 2, "nnv"),
            ("noise", 4, "nn"),
            ("noise", 4, "nnv"),
        ]

    def test_constant_image_yields_undefined_psnr(self):
        flat = [("flat", Image(np.full((8, 8), 5, dtype=np.uint8)))]
        report = run_benchmark(flat, ratios=[2], repeats=1)
        assert all(r.psnr_db is None and r.mse == 0.0 for r in report.rows)

    def test_scores_are_deterministic_across_runs(self, originals):
        first = run_benchmark(originals, ratios=[2, 4], repeats=1)
        second = run_benchmark(originals, ratios=[2, 4], repeats=1)
        score = lambda rows: [(r.image_name, r.method, r.ratio, r.psnr_db, r.mse) for r in rows]
        assert score(first.rows) == score(second.rows)

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            run_benchmark([], ratios=[2])

    def test_rejects_indivisible_dimensions(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            run_benchmark([("odd", random_image(rng, 9, 9))], ratios=[2], repeats=1)

    def test_rejects_unknown_method(self, originals):
        with pytest.raises(ValueError, match="unknown method"):
            run_benchmark(originals, ratios=[2], methods=("lanczos",))

    def test_timing_is_nonnegative(self, originals):
        report = run_benchmark(originals, ratios=[2], repeats=3)
        assert all(r.wall_time_s >= 0.0 for r in report.rows)


class TestTimeResample:
    def test_returns_resampled_image_and_median(self, rng):
        img = random_image(rng, 8, 8)
        out, wall = time_resample(get_resampler("nn"), img, 2, repeats=5)
        assert (out.width, out.height) == (16, 16)
        assert wall >= 0.0

    def test_rejects_zero_repeats(self, rng):
        with pytest.raises(ValueError):
            time_resample(get_resampler("nn"), random_image(rng, 4, 4), 2, repeats=0)


class TestCsv:
    def test_header_and_shape(self, originals):
        report = run_benchmark(originals, ratios=[2], repeats=1)
        text = rows_to_csv(report.rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER == "image,method,ratio,psnr_db,mse,wall_time_s"
        assert len(lines) == 1 + len(report.rows)
        assert all(line.count(",") == 5 for line in lines)

    def test_psnr_has_four_decimals(self, originals):
        report = run_benchmark(originals, ratios=[2], repeats=1)
        for line in rows_to_csv(report.rows).strip().split("\n")[1:]:
            psnr_field = line.split(",")[3]
            if psnr_field != "undefined":
                assert len(psnr_field.split(".")[1]) == 4

    def test_undefined_psnr_spelled_out(self):
        flat = [("flat", Image(np.full((4, 4), 1, dtype=np.uint8)))]
        report = run_benchmark(flat, ratios=[2], repeats=1)
        assert ",undefined,0.000000," in rows_to_csv(report.rows)


class TestMarkdown:
    def test_one_table_per_ratio(self, originals):
        report = run_benchmark(originals, ratios=[2, 4], repeats=1)
        text = report_markdown(report)
        assert "## ratio = 2" in text and "## ratio = 4" in text
        assert text.count("| gradient |") == 2
        assert "nnv PSNR (dB)" in text and "nn time (s)" in text

    def test_environment_note_present(self, originals):
        report = run_benchmark(originals, ratios=[2], repeats=1)
        assert "Environment:" in report_markdown(report)
