"""End-to-end CLI behavior through main()."""

import numpy as np
import pytest

from nnvresize import Image, load_pgm, read_pgm, save_pgm, write_pgm
from nnvresize.cli import main

from conftest import random_image


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
        assert "8x8" in capsys.readouterr().out
        out = read_pgm(out_path)
        assert (out.width, out.height) == (32, 32)

    @pytest.mark.parametrize("method", ["nn", "bilinear", "bicubic", "nnv"])
    def test_all_methods_run(self, tmp_path, source_pgm, method):
        out_path = tmp_path / f"{method}.pgm"
        assert main(["scale", str(source_pgm), str(out_path), "--method", method, "--ratio", "2"]) == 0
        assert read_pgm(out_path).width == 16

    def test_ratio_one_is_byte_identical(self, tmp_path, source_pgm):
        out_path = tmp_path / "copy.pgm"
        assert main(["scale", str(source_pgm), str(out_path), "--method", "bilinear", "--ratio", "1"]) == 0
        assert out_path.read_bytes() == source_pgm.read_bytes()

    def test_unknown_method_is_usage_error(self, tmp_path, source_pgm):
        with pytest.raises(SystemExit) as excinfo:
            main(["scale", str(source_pgm), str(tmp_path / "x.pgm"), "--method", "foo"])
        assert excinfo.value.code != 0

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

    def test_overflowing_p2_sample_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "big.pgm"
        bad.write_bytes(b"P2 1 1 255 99999999999999999999")
        code = main(["scale", str(bad), str(tmp_path / "out.pgm")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "out.pgm").exists()


class TestMetrics:
    def test_identical_files(self, tmp_path, source_pgm, capsys):
        assert main(["metrics", str(source_pgm), str(source_pgm)]) == 0
        out = capsys.readouterr().out
        assert "MSE: 0.000000" in out
        assert "undefined" in out

    def test_unit_offset(self, tmp_path, capsys):
        ref = tmp_path / "ref.pgm"
        test = tmp_path / "test.pgm"
        write_pgm(ref, Image(np.full((4, 4), 100, dtype=np.uint8)))
        write_pgm(test, Image(np.full((4, 4), 101, dtype=np.uint8)))
        assert main(["metrics", str(ref), str(test)]) == 0
        assert "48.1308" in capsys.readouterr().out

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
        out = capsys.readouterr().out
        assert "## ratio = 2" in out and "| a |" in out

    def test_markdown_file_option(self, tmp_path, image_dir):
        md_path = tmp_path / "bench.md"
        code = main([
            "bench", str(image_dir),
            "--ratios", "2",
            "--csv", str(tmp_path / "bench.csv"),
            "--markdown", str(md_path),
            "--repeats", "1",
        ])
        assert code == 0
        assert "## ratio = 2" in md_path.read_text()

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
