"""Benchmark harness: row coverage, CSV/markdown layout, determinism."""

import csv
import io
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from nnvresize import (
    Image,
    report_markdown,
    rows_to_csv,
    run_benchmark,
)
from nnvresize import bench
from nnvresize.bench import CSV_HEADER, BenchRow

from conftest import random_image, traced_peak


@pytest.fixture
def originals(rng):
    return [
        ("gradient", Image(np.arange(256, dtype=np.int64).reshape(16, 16))),
        ("noise", random_image(rng, 16, 16)),
    ]


class TestRunBenchmark:
    def test_full_cross_product(self, originals):
        rows = run_benchmark(originals, ratios=[2, 4], repeats=1)
        assert len(rows) == 2 * 2 * 4
        keys = {(r.image_name, r.method, r.ratio) for r in rows}
        assert len(keys) == len(rows)

    def test_repeated_ratios_and_methods_run_once(self, originals):
        rows = run_benchmark(originals, ratios=[2, 2, np.int64(2)], methods=["nn", "nn"], repeats=1)
        assert [(r.image_name, r.method, r.ratio) for r in rows] == [
            ("gradient", "nn", 2),
            ("noise", "nn", 2),
        ]

    def test_first_occurrence_sets_the_order(self, originals):
        rows = run_benchmark(originals[:1], ratios=[4, 2, 4], methods=["nnv", "nn", "nnv"], repeats=1)
        assert [(r.ratio, r.method) for r in rows] == [(4, "nnv"), (4, "nn"), (2, "nnv"), (2, "nn")]

    def test_row_ordering(self, originals):
        rows = run_benchmark(originals, ratios=[2, 4], methods=("nn", "nnv"), repeats=1)
        triples = [(r.image_name, r.ratio, r.method) for r in rows]
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
        rows = run_benchmark(flat, ratios=[2], repeats=1)
        assert all(r.psnr_db is None and r.mse == 0.0 for r in rows)

    def test_scores_are_deterministic_across_runs(self, originals):
        first = run_benchmark(originals, ratios=[2, 4], repeats=1)
        second = run_benchmark(originals, ratios=[2, 4], repeats=1)
        score = lambda rows: [(r.image_name, r.method, r.ratio, r.psnr_db, r.mse) for r in rows]
        assert score(first) == score(second)

    def test_rejects_empty_inputs(self):
        with pytest.raises(ValueError):
            run_benchmark([], ratios=[2])

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"ratios": []}, "^no ratios requested$"),
            ({"ratios": [2], "methods": ()}, "^no methods requested$"),
            ({"ratios": [2], "methods": ("nn", "lanczos")}, "^unknown method 'lanczos'"),
            ({"ratios": [2, 0]}, r"^ratio must be an integer >= 1, got 0$"),
            ({"ratios": [2.5]}, r"^ratio must be an integer >= 1, got 2\.5$"),
            ({"ratios": [True]}, r"^ratio must be an integer >= 1, got True$"),
            ({"ratios": [2], "repeats": 0}, r"^repeats must be an integer >= 1, got 0$"),
            ({"ratios": [2], "repeats": 2.5}, r"^repeats must be an integer >= 1, got 2\.5$"),
            ({"ratios": [2], "repeats": True}, r"^repeats must be an integer >= 1, got True$"),
        ],
        ids=[
            "no-ratios",
            "no-methods",
            "unknown-method",
            "zero-ratio",
            "fractional-ratio",
            "bool-ratio",
            "zero-repeats",
            "fractional-repeats",
            "bool-repeats",
        ],
    )
    def test_rejects_bad_arguments_before_reading_an_original(self, kwargs, message):
        def originals():
            pytest.fail("an original was read before the arguments were checked")
            yield

        with pytest.raises(ValueError, match=message):
            run_benchmark(originals(), **kwargs)

    def test_rejects_indivisible_dimensions(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            run_benchmark([("odd", random_image(rng, 9, 9))], ratios=[2], repeats=1)

    def test_rejects_a_repeated_image_name_before_downsampling_it(self, rng):
        # the markdown keys its table by image name, so a second "x" would
        # drop the first one's scores; 9x9 is not divisible by 2, so the
        # name is checked before the downsample
        twice = [("x", random_image(rng, 4, 4)), ("x", random_image(rng, 9, 9))]
        with pytest.raises(ValueError, match=r"^image name 'x' given twice$"):
            run_benchmark(twice, ratios=[2], methods=["nn"], repeats=1)

    def test_rejects_unknown_method(self, originals):
        with pytest.raises(ValueError, match="unknown method"):
            run_benchmark(originals, ratios=[2], methods=("lanczos",))

    def test_timing_is_nonnegative(self, originals):
        rows = run_benchmark(originals, ratios=[2], repeats=3)
        assert all(r.wall_time_s >= 0.0 for r in rows)

    @pytest.mark.parametrize("durations, median", [([5.0, 1.0, 4.0, 2.0], 3.0), ([3.0, 1.0, 2.0], 2.0)])
    def test_reports_the_median_duration(self, durations, median):
        # each call is timed from one perf_counter reading to the next
        readings = iter([t for k, d in enumerate(durations) for t in (10.0 * k, 10.0 * k + d)])
        with mock.patch.object(bench.time, "perf_counter", side_effect=lambda: next(readings)):
            (row,) = run_benchmark([("a", Image([[1, 2], [3, 4]]))], [2], ("nn",), len(durations))
        assert row.wall_time_s == median

    def test_releases_each_original_before_drawing_the_next(self, rng):
        # an original and its downsampled and upscaled copies are 144 KiB
        # at 256x256; later draws may sit above the first only by rows
        traced = []

        def originals():
            for i in range(3):
                traced.append(tracemalloc.get_traced_memory()[0])
                yield str(i), random_image(rng, 256, 256)

        tracemalloc.start()
        try:
            run_benchmark(originals(), ratios=[2], methods=("nn", "nnv"), repeats=1)
        finally:
            tracemalloc.stop()
        assert max(traced[1:]) - traced[0] <= 32 * 1024, traced

    def test_holds_one_output_across_methods(self, rng):
        # each method's output is let go before the next method makes its
        # own, so running nn first adds no 1 MiB output to bilinear's peak
        img = random_image(rng, 1024, 1024)
        one, two = (
            traced_peak(run_benchmark, [("a", img)], [4], methods, 1)[0]
            for methods in (("bilinear",), ("nn", "bilinear"))
        )
        assert two <= one + 64 * 1024, (one, two)

    def test_holds_one_output_across_repeats(self, rng):
        # each call's output is let go before the next call builds its own
        img = random_image(rng, 1024, 1024)
        once, many = (traced_peak(run_benchmark, [("a", img)], [4], ("nn",), r)[0] for r in (1, 5))
        assert abs(many - once) <= 0.1 * once, (once, many)


class TestCsv:
    def test_header_and_shape(self, originals):
        rows = run_benchmark(originals, ratios=[2], repeats=1)
        text = rows_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER == "image,method,ratio,psnr_db,mse,wall_time_s"
        assert len(lines) == 1 + len(rows)
        assert all(line.count(",") == 5 for line in lines)

    def test_psnr_has_four_decimals(self, originals):
        rows = run_benchmark(originals, ratios=[2], repeats=1)
        for line in rows_to_csv(rows).strip().split("\n")[1:]:
            psnr_field = line.split(",")[3]
            if psnr_field != "undefined":
                assert len(psnr_field.split(".")[1]) == 4

    def test_carriage_return_in_a_name_reads_back_as_one_row(self):
        rows = [
            BenchRow("plain", "nn", 2, 31.25, 48.5, 0.001),
            BenchRow("carriage\rreturn", "nnv", 2, None, 0.0, 0.002),
            BenchRow("a,b", "bicubic", 4, 28.0, 103.0625, 0.003),
            BenchRow("line\nbreak", "nn", 4, 27.5, 115.0, 0.004),
        ]
        text = rows_to_csv(rows)
        read = list(csv.DictReader(io.StringIO(text, newline="")))
        assert [(r["image"], r["method"], r["ratio"], r["psnr_db"], r["mse"]) for r in read] == [
            ("plain", "nn", "2", "31.2500", "48.500000"),
            ("carriage\rreturn", "nnv", "2", "undefined", "0.000000"),
            ("a,b", "bicubic", "4", "28.0000", "103.062500"),
            ("line\nbreak", "nn", "4", "27.5000", "115.000000"),
        ]
        # every other row keeps its bytes, LF-terminated
        assert text.startswith(CSV_HEADER + "\nplain,nn,2,31.2500,48.500000,0.001000\n")
        assert text.endswith('\n"a,b",bicubic,4,28.0000,103.062500,0.003000\n"line\nbreak",nn,4,27.5000,115.000000,0.004000\n')

    def test_undefined_psnr_spelled_out(self):
        flat = [("flat", Image(np.full((4, 4), 1, dtype=np.uint8)))]
        rows = run_benchmark(flat, ratios=[2], repeats=1)
        assert ",undefined,0.000000," in rows_to_csv(rows)


class TestMarkdown:
    def test_one_table_per_ratio(self, originals):
        rows = run_benchmark(originals, ratios=[2, 4], repeats=1)
        text = report_markdown(rows)
        assert "## ratio = 2" in text and "## ratio = 4" in text
        assert text.count("| gradient |") == 2
        assert "nnv PSNR (dB)" in text and "nn time (s)" in text

    def test_takes_rows_from_a_generator(self, originals):
        rows = run_benchmark(originals, ratios=[2, 4], repeats=1)
        assert report_markdown(r for r in rows) == report_markdown(rows)

    def test_environment_note_present(self, originals):
        rows = run_benchmark(originals, ratios=[2], repeats=1)
        assert "Environment:" in report_markdown(rows)

    def test_missing_combination_gets_empty_cells(self, rng):
        rows = run_benchmark([("a", random_image(rng, 8, 8))], [2, 4], ("nn", "nnv"), repeats=1)
        kept = [r for r in rows if (r.method, r.ratio) != ("nn", 4)]
        nnv = kept[-1]
        assert (nnv.method, nnv.ratio) == ("nnv", 4)
        table = report_markdown(kept).split("## ratio = 4\n\n")[1].split("\n")
        assert table[2] == f"| a |  | {nnv.psnr_db:.4f} |  | {nnv.wall_time_s:.6f} |"

    def test_carriage_return_in_a_name_becomes_a_space(self, rng):
        rows = run_benchmark([("cr\rname", random_image(rng, 4, 4))], ratios=[2], methods=["nn"], repeats=1)
        assert "| cr name |" in report_markdown(rows)
