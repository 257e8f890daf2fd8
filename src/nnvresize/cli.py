"""Command-line front end: scale, metrics, downsample, bench."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import RESAMPLERS, report_markdown, rows_to_csv, run_benchmark
from .image import _check_count, block_downsample, read_pgm, write_pgm
from .metrics import psnr


def _positive_int(text: str) -> int:
    try:
        return _check_count(int(text), "value")
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}") from None


def _int_list(text: str) -> list[int]:
    return [_positive_int(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnvresize",
        description="Grayscale PGM upscaling (nn, bilinear, bicubic, nnv) with PSNR/timing benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scale = sub.add_parser("scale", help="upscale a PGM by an integer ratio")
    p_scale.add_argument("input", help="source PGM (P5 or P2)")
    p_scale.add_argument("output", help="destination PGM (written as P5)")
    p_scale.add_argument("--method", choices=sorted(RESAMPLERS), default="nnv")
    p_scale.add_argument("--ratio", type=_positive_int, default=2)
    p_scale.set_defaults(run=cmd_scale)

    p_metrics = sub.add_parser("metrics", help="MSE and PSNR between two PGMs")
    p_metrics.add_argument("reference")
    p_metrics.add_argument("test")
    p_metrics.set_defaults(run=cmd_metrics)

    p_down = sub.add_parser("downsample", help="block-average a PGM by an integer ratio")
    p_down.add_argument("input")
    p_down.add_argument("output")
    p_down.add_argument("--ratio", type=_positive_int, default=2)
    p_down.set_defaults(run=cmd_downsample)

    p_bench = sub.add_parser(
        "bench",
        help="downsample each PGM in a directory, upscale back with every method, print PSNR and wall time as markdown",
    )
    p_bench.add_argument("directory", help="directory of original PGM images")
    p_bench.add_argument("--ratios", type=_int_list, default=[2, 4], metavar="N,N")
    p_bench.add_argument(
        "--methods",
        default=",".join(RESAMPLERS),
        metavar="M,M",
        help=f"comma-separated subset of: {','.join(RESAMPLERS)}",
    )
    p_bench.add_argument("--csv", required=True, help="output CSV path")
    p_bench.add_argument("--repeats", type=_positive_int, default=5, help="timing repetitions (median is reported)")
    p_bench.set_defaults(run=cmd_bench)
    return parser


def _resize(args, transform, label: str) -> int:
    img = read_pgm(args.input)
    out = transform(img, args.ratio)
    write_pgm(args.output, out)
    print(
        f"{args.input} {img.width}x{img.height} -> {args.output} "
        f"{out.width}x{out.height} [{label}, ratio {args.ratio}]"
    )
    return 0


def cmd_scale(args) -> int:
    # --method's choices have already refused an unknown name
    return _resize(args, RESAMPLERS[args.method], args.method)


def cmd_metrics(args) -> int:
    reference = read_pgm(args.reference)
    test = read_pgm(args.test)
    report = psnr(reference, test)
    print(f"MSE: {report.mse:.6f}")
    if report.psnr_db is None:
        print("PSNR: undefined (images are identical)")
    else:
        print(f"PSNR: {report.psnr_db:.4f} dB")
    return 0


def cmd_downsample(args) -> int:
    return _resize(args, block_downsample, "block mean")


def cmd_bench(args) -> int:
    directory = Path(args.directory)
    paths = sorted(p for p in directory.glob("*.pgm") if p.is_file())
    if not paths:
        raise ValueError(f"no .pgm files found in {directory}")
    originals = ((path.stem, read_pgm(path)) for path in paths)
    methods = [m for m in args.methods.split(",") if m]
    rows = run_benchmark(originals, args.ratios, methods, repeats=args.repeats)

    Path(args.csv).write_text(rows_to_csv(rows), encoding="utf-8")
    print(report_markdown(rows), end="")
    print(f"wrote {len(rows)} rows to {args.csv}", file=sys.stderr)
    return 0


# the one parser of this process: parse_args leaves no state in it
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
