"""End-to-end CLI behavior through main()."""

import argparse
import csv
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from nnvresize import Image, get_resampler, load_pgm, read_pgm, resample, save_pgm, write_pgm
from nnvresize import cli
from nnvresize.cli import main

from conftest import random_image, traced_peak
from test_resample import PEAK_BOUNDS

# the source tree of the package under test, for a child interpreter
SRC = Path(cli.__file__).resolve().parents[1]


@pytest.fixture
def source_pgm(tmp_path, rng):
    path = tmp_path / "src.pgm"
    write_pgm(path, random_image(rng, 8, 8))
    return path


class TestScale:
    def test_upscales_and_reports_dimensions(self, tmp_path, source_pgm, capsys):
        out_path = tmp_path / "out.pgm"
        code = main(["scale", str(source_pgm), str(out_path), "--method", "nnv", "--ratio", "4"])
        assert code == 0
        assert capsys.readouterr().out == f"{source_pgm} 8x8 -> {out_path} 32x32 [nnv, ratio 4]\n"
        out = read_pgm(out_path)
        assert (out.width, out.height) == (32, 32)

    def test_module_entry_point_matches_main(self, tmp_path, source_pgm, capsys):
        argv = ["scale", str(source_pgm), str(tmp_path / "main.pgm"), "--method", "bicubic", "--ratio", "3"]
        assert main(argv) == 0
        line = capsys.readouterr().out
        argv[2] = str(tmp_path / "module.pgm")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-m", "nnvresize", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, line.replace("main.pgm", "module.pgm"), "")
        assert (tmp_path / "module.pgm").read_bytes() == (tmp_path / "main.pgm").read_bytes()

    @pytest.mark.parametrize("ratio", range(1, 7))
    @pytest.mark.parametrize("method", ["nn", "bilinear", "bicubic", "nnv"])
    def test_writes_the_bytes_of_save_pgm(self, tmp_path, rng, method, ratio):
        src, out_path = tmp_path / "src.pgm", tmp_path / "out.pgm"
        write_pgm(src, random_image(rng, 7, 5, 200))
        assert main(["scale", str(src), str(out_path), "--method", method, "--ratio", str(ratio)]) == 0
        assert out_path.read_bytes() == save_pgm(get_resampler(method)(read_pgm(src), ratio))

    @pytest.mark.parametrize("method", PEAK_BOUNDS, ids=lambda f: f.__name__)
    def test_peak_is_the_input_file_and_the_resampler(self, tmp_path, method):
        # beyond the resampler's own peak, scale holds the input file's
        # bytes; writing the output makes no copy of it
        src, out_path = tmp_path / "src.pgm", tmp_path / "out.pgm"
        write_pgm(src, random_image(np.random.default_rng(256), 256, 256))
        resampler_peak, _ = traced_peak(method, read_pgm(src), 4)
        argv = ["scale", str(src), str(out_path), "--method", method.__name__.removeprefix("resample_"), "--ratio", "4"]
        peak, code = traced_peak(main, argv)
        assert code == 0
        extra = peak - resampler_peak
        assert extra <= src.stat().st_size + 16 * 1024, extra

    def test_ratio_one_is_byte_identical(self, tmp_path, source_pgm):
        out_path = tmp_path / "copy.pgm"
        assert main(["scale", str(source_pgm), str(out_path), "--method", "bilinear", "--ratio", "1"]) == 0
        assert out_path.read_bytes() == source_pgm.read_bytes()

    def test_unknown_method_is_usage_error(self, tmp_path, source_pgm):
        with pytest.raises(SystemExit) as excinfo:
            main(["scale", str(source_pgm), str(tmp_path / "x.pgm"), "--method", "foo"])
        assert excinfo.value.code != 0

    def test_non_integer_ratio_is_usage_error(self, tmp_path, source_pgm, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["scale", str(source_pgm), str(tmp_path / "x.pgm"), "--ratio", "x"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --ratio: must be an integer >= 1, got 'x'\n"), err

    def test_missing_input_fails(self, tmp_path, capsys):
        code = main(["scale", str(tmp_path / "nope.pgm"), str(tmp_path / "out.pgm")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_corrupt_input_fails(self, tmp_path, capsys):
        bad = tmp_path / "bad.pgm"
        bad.write_bytes(b"P5\n4 4\n255\nxx")
        code = main(["scale", str(bad), str(tmp_path / "out.pgm")])
        assert code == 1
        assert "truncated" in capsys.readouterr().err

    def test_output_above_pixel_limit_fails_cleanly(self, tmp_path, source_pgm, capsys):
        # the limit is patched down: a real one would need a huge ratio
        out_path = tmp_path / "out.pgm"
        with mock.patch.object(resample, "_MAX_OUTPUT_PIXELS", 255):
            code = main(["scale", str(source_pgm), str(out_path), "--ratio", "2"])
        assert code == 1
        assert capsys.readouterr().err == "error: output 16x16 (8x8 at ratio 2) exceeds the limit of 255 pixels\n"
        assert not out_path.exists()

    def test_bicubic_above_its_ceiling_fails_cleanly(self, tmp_path, source_pgm, capsys):
        out_path = tmp_path / "out.pgm"
        code = main(["scale", str(source_pgm), str(out_path), "--method", "bicubic", "--ratio", "1108"])
        assert code == 1
        assert capsys.readouterr().err == "error: bicubic ratio must be at most 1107, got 1108\n"
        assert not out_path.exists()

    def test_overflowing_p2_sample_fails_cleanly(self, tmp_path, capsys):
        # a number past int64, in a P2 raster or in the header (here a P5
        # file with 4000-digit sides), is a PgmError that names the file
        side = b"1" * 4000
        cases = [
            (b"P2 1 1 255 99999999999999999999", "sample value outside [0, 255]"),
            (b"P5 " + side + b" " + side + b" 255\n\x01", "truncated pixel data"),
        ]
        for data, message in cases:
            bad = tmp_path / "big.pgm"
            bad.write_bytes(data)
            code = main(["scale", str(bad), str(tmp_path / "out.pgm")])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {bad}: {message}"), err[:200]
            assert "Traceback" not in err
            assert not (tmp_path / "out.pgm").exists()

    def test_bicubic_at_ratio_1000_writes_its_output(self, tmp_path):
        src, out_path = tmp_path / "tiny.pgm", tmp_path / "out.pgm"
        write_pgm(src, Image([[0, 64], [128, 255]]))
        assert main(["scale", str(src), str(out_path), "--method", "bicubic", "--ratio", "1000"]) == 0
        out = read_pgm(out_path)
        assert (out.width, out.height) == (2000, 2000)

    def test_p2_with_text_after_its_samples(self, tmp_path):
        src, out_path = tmp_path / "ascii.pgm", tmp_path / "out.pgm"
        src.write_bytes(b"P2 2 2 255\n0 64 128 255\nend\n")
        assert main(["scale", str(src), str(out_path), "--method", "nnv", "--ratio", "2"]) == 0
        out = read_pgm(out_path)
        assert (out.width, out.height) == (4, 4)


class TestMetrics:
    def test_identical_files(self, tmp_path, source_pgm, capsys):
        assert main(["metrics", str(source_pgm), str(source_pgm)]) == 0
        out = capsys.readouterr().out
        assert "MSE: 0.000000" in out
        assert "PSNR: undefined (images are identical)" in out.splitlines()

    def test_unit_offset(self, tmp_path, capsys):
        ref = tmp_path / "ref.pgm"
        test = tmp_path / "test.pgm"
        write_pgm(ref, Image(np.full((4, 4), 100, dtype=np.uint8)))
        write_pgm(test, Image(np.full((4, 4), 101, dtype=np.uint8)))
        assert main(["metrics", str(ref), str(test)]) == 0
        assert "48.1308" in capsys.readouterr().out

    def test_unreadable_second_file_is_named(self, tmp_path, source_pgm, capsys):
        broken = tmp_path / "b.pgm"
        broken.write_bytes(b"P5 2 2 255\n\x01")
        assert main(["metrics", str(source_pgm), str(broken)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {broken}: truncated pixel data: expected 4 bytes, got 1\n")

    def test_max_value_mismatch_fails(self, tmp_path, capsys):
        ref, low = tmp_path / "ref.pgm", tmp_path / "low.pgm"
        ref.write_bytes(b"P5 2 2 255\n\x00\x40\x80\xff")
        low.write_bytes(b"P5 2 2 15\n\x00\x05\x0a\x0f")
        assert main(["metrics", str(ref), str(low)]) == 1
        assert capsys.readouterr().err == "error: max_value mismatch: 255 vs 15\n"

    def test_dimension_mismatch_fails(self, tmp_path, source_pgm, rng, capsys):
        other = tmp_path / "other.pgm"
        write_pgm(other, random_image(rng, 4, 4))
        assert main(["metrics", str(source_pgm), str(other)]) == 1
        assert "dimension" in capsys.readouterr().err


class TestDownsample:
    def test_halves_dimensions(self, tmp_path, source_pgm, capsys):
        out_path = tmp_path / "small.pgm"
        assert main(["downsample", str(source_pgm), str(out_path), "--ratio", "2"]) == 0
        assert read_pgm(out_path).width == 4
        assert capsys.readouterr().out == f"{source_pgm} 8x8 -> {out_path} 4x4 [block mean, ratio 2]\n"

    def test_block_mean_value(self, tmp_path):
        src = tmp_path / "quad.pgm"
        write_pgm(src, Image([[10, 20], [30, 40]]))
        out_path = tmp_path / "one.pgm"
        assert main(["downsample", str(src), str(out_path), "--ratio", "2"]) == 0
        assert read_pgm(out_path).pixels.tolist() == [[25]]

    def test_ratio_one_is_byte_identical(self, tmp_path, source_pgm):
        out_path = tmp_path / "same.pgm"
        assert main(["downsample", str(source_pgm), str(out_path), "--ratio", "1"]) == 0
        assert out_path.read_bytes() == source_pgm.read_bytes()

    def test_indivisible_fails(self, tmp_path, rng, capsys):
        src = tmp_path / "odd.pgm"
        write_pgm(src, random_image(rng, 5, 5))
        assert main(["downsample", str(src), str(tmp_path / "out.pgm"), "--ratio", "2"]) == 1
        assert "divisible" in capsys.readouterr().err


class TestBench:
    @pytest.fixture
    def image_dir(self, tmp_path, rng):
        d = tmp_path / "imgs"
        d.mkdir()
        write_pgm(d / "a.pgm", random_image(rng, 8, 8))
        write_pgm(d / "b.pgm", Image(np.arange(64, dtype=np.int64).reshape(8, 8) * 4))
        return d

    def test_writes_csv_and_prints_markdown(self, tmp_path, image_dir, capsys):
        csv_path = tmp_path / "bench.csv"
        code = main([
            "bench", str(image_dir),
            "--ratios", "2,4",
            "--csv", str(csv_path),
            "--repeats", "1",
        ])
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "image,method,ratio,psnr_db,mse,wall_time_s"
        assert len(lines) == 1 + 2 * 2 * 4
        # without --methods, every method of the registry, in its order
        rows = list(csv.DictReader(lines))
        groups = [rows[k : k + 4] for k in range(0, len(rows), 4)]
        assert [[r["method"] for r in g] for g in groups] == [["nn", "bilinear", "bicubic", "nnv"]] * 4
        assert all(len({(r["image"], r["ratio"]) for r in g}) == 1 for g in groups)
        out, err = capsys.readouterr()
        assert "## ratio = 2" in out.splitlines() and "| a |" in out
        assert f"wrote 16 rows to {csv_path}" in err.splitlines()

    def test_method_subset(self, tmp_path, image_dir):
        csv_path = tmp_path / "bench.csv"
        code = main([
            "bench", str(image_dir),
            "--ratios", "2",
            "--methods", "nn,nnv",
            "--csv", str(csv_path),
            "--repeats", "1",
        ])
        assert code == 0
        lines = csv_path.read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * 1 * 2

    def test_names_with_comma_and_non_ascii_read_back(self, tmp_path, rng, capsys):
        d = tmp_path / "imgs"
        d.mkdir()
        for name in ("a,b", "café"):
            write_pgm(d / f"{name}.pgm", random_image(rng, 4, 4))
        csv_path = tmp_path / "bench.csv"
        code = main([
            "bench", str(d),
            "--ratios", "2",
            "--csv", str(csv_path),
            "--repeats", "1",
        ])
        assert code == 0
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["image"], r["method"]) for r in rows] == [
            (name, method) for name in ("a,b", "café") for method in ("nn", "bilinear", "bicubic", "nnv")
        ]
        # a row with more fields than the header keeps the rest under None
        assert all(None not in r for r in rows)
        assert "| café |" in capsys.readouterr().out

    def test_names_with_pipe_and_line_breaks_keep_one_row(self, tmp_path, rng, capsys):
        names = ("x|y", "line\nbreak")
        d = tmp_path / "imgs"
        d.mkdir()
        for name in names:
            write_pgm(d / f"{name}.pgm", random_image(rng, 4, 4))
        csv_path = tmp_path / "bench.csv"
        code = main([
            "bench", str(d),
            "--ratios", "2",
            "--csv", str(csv_path),
            "--repeats", "1",
        ])
        assert code == 0
        with open(csv_path, newline="", encoding="utf-8") as fh:
            assert sorted({r["image"] for r in csv.DictReader(fh)}) == sorted(names)
        table = [line for line in capsys.readouterr().out.split("\n") if line.startswith("|")]
        # header, rule and one row per image, each of 1 + 4 + 4 cells
        assert len(table) == 2 + len(names)
        # GFM's rule: a backslash escapes the character after it
        assert all(re.sub(r"\\.", "", line).count("|") == 1 + 9 for line in table)
        for cell in (r"| x\|y |", "| line break |"):
            assert any(line.startswith(cell) for line in table[2:]), cell

    def test_holds_one_original_at_a_time(self, tmp_path, rng):
        # eight originals may peak above two only by their rows and names,
        # not by the 64 KiB of each original held at once
        def bench_peak(count):
            d = tmp_path / f"imgs{count}"
            d.mkdir()
            for i in range(count):
                write_pgm(d / f"{i}.pgm", random_image(rng, 256, 256))
            argv = ["bench", str(d), "--ratios", "2", "--methods", "nn", "--repeats", "1", "--csv", str(d / "out.csv")]
            peak, code = traced_peak(main, argv)
            assert code == 0
            return peak

        two, eight = bench_peak(2), bench_peak(8)
        assert eight - two <= 32 * 1024, (two, eight)

    def test_unreadable_later_original_writes_nothing(self, tmp_path, rng, capsys):
        d = tmp_path / "imgs"
        d.mkdir()
        write_pgm(d / "a.pgm", random_image(rng, 8, 8))
        (d / "b.pgm").write_bytes(b"P5 8 8 255\n" + bytes(10))
        csv_path = tmp_path / "bench.csv"
        argv = ["bench", str(d), "--ratios", "2", "--csv", str(csv_path), "--repeats", "1"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {d / 'b.pgm'}: truncated pixel data: expected 64 bytes, got 10\n")
        assert not csv_path.exists()

    def test_non_integer_ratio_in_list_is_usage_error(self, tmp_path, image_dir, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", str(image_dir), "--ratios", "2,x", "--csv", str(tmp_path / "x.csv")])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith("error: argument --ratios: must be an integer >= 1, got 'x'\n"), err
        assert not (tmp_path / "x.csv").exists()

    def test_directories_named_pgm_are_skipped(self, tmp_path, image_dir, capsys):
        (image_dir / "sub.pgm").mkdir()
        csv_path = tmp_path / "bench.csv"
        assert main(["bench", str(image_dir), "--ratios", "2", "--methods", "nn", "--csv", str(csv_path), "--repeats", "1"]) == 0
        assert [line.split(",")[0] for line in csv_path.read_text().splitlines()[1:]] == ["a", "b"]
        only_dir = tmp_path / "only_dir"
        (only_dir / "sub.pgm").mkdir(parents=True)
        assert main(["bench", str(only_dir), "--csv", str(tmp_path / "x.csv")]) == 1
        assert f"no .pgm files found in {only_dir}" in capsys.readouterr().err

    def test_empty_directory_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["bench", str(empty), "--csv", str(tmp_path / "x.csv")]) == 1
        assert "no .pgm" in capsys.readouterr().err

    def test_indivisible_dimensions_fail(self, tmp_path, rng, capsys):
        d = tmp_path / "imgs"
        d.mkdir()
        write_pgm(d / "odd.pgm", random_image(rng, 6, 6))
        assert main(["bench", str(d), "--ratios", "4", "--csv", str(tmp_path / "x.csv")]) == 1
        assert "divisible" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code != 0


def test_successive_calls_parse_as_a_fresh_parser_would(tmp_path, source_pgm, capsys):
    # main builds its parser once per process, so each call must parse,
    # defaults included, and fail exactly as a freshly built parser does
    images = tmp_path / "imgs"
    images.mkdir()
    write_pgm(images / "a.pgm", read_pgm(source_pgm))
    argvs = [
        ["scale", str(source_pgm), str(tmp_path / "up.pgm"), "--ratio", "3"],
        ["metrics", str(source_pgm), str(source_pgm)],
        ["bench", str(images), "--csv", str(tmp_path / "bench.csv")],
    ]
    bad = ["scale", str(source_pgm), str(tmp_path / "bad.pgm"), "--ratio", "0"]
    seen = []
    parse = cli._PARSER.parse_args
    recording = lambda argv: seen.append(parse(argv)) or seen[-1]
    assert main(argvs[1]) == 0  # the parser now exists
    capsys.readouterr()
    with mock.patch.object(cli._PARSER, "parse_args", recording), mock.patch.object(
        cli, "build_parser", side_effect=AssertionError("parser rebuilt")
    ):
        assert [main(argv) for argv in argvs] == [0, 0, 0]
        capsys.readouterr()
        with pytest.raises(SystemExit) as shared:
            main(bad)
        shared_err = capsys.readouterr().err

    assert seen == [cli.build_parser().parse_args(argv) for argv in argvs]
    assert (seen[2].ratios, seen[2].repeats, seen[2].methods) == ([2, 4], 5, "nn,bilinear,bicubic,nnv")
    with open(tmp_path / "bench.csv", newline="", encoding="utf-8") as fh:
        assert len(list(csv.DictReader(fh))) == 2 * 4
    with pytest.raises(SystemExit) as fresh:
        cli.build_parser().parse_args(bad)
    assert shared.value.code == fresh.value.code == 2
    assert shared_err == capsys.readouterr().err
    assert "must be an integer >= 1, got '0'" in shared_err
    assert not (tmp_path / "bad.pgm").exists()
