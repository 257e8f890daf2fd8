"""Benchmark harness: shrink originals, upscale back with each method,
and collect PSNR/MSE plus wall-clock time per (image, method, ratio)."""

from __future__ import annotations

import platform
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .image import Image, _check_count, block_downsample
from .metrics import psnr
from .nnv import resample_nnv
from .resample import resample_bicubic, resample_bilinear, resample_nn

RESAMPLERS: dict[str, Callable[[Image, int], Image]] = {
    "nn": resample_nn,
    "bilinear": resample_bilinear,
    "bicubic": resample_bicubic,
    "nnv": resample_nnv,
}

CSV_HEADER = "image,method,ratio,psnr_db,mse,wall_time_s"


@dataclass(frozen=True)
class BenchRow:
    image_name: str
    method: str
    ratio: int
    psnr_db: float | None
    mse: float
    wall_time_s: float


def get_resampler(method: str) -> Callable[[Image, int], Image]:
    try:
        return RESAMPLERS[method]
    except KeyError:
        known = ", ".join(sorted(RESAMPLERS))
        raise ValueError(f"unknown method {method!r} (known: {known})") from None


def describe_environment() -> str:
    return (
        f"{platform.platform()}; python {platform.python_version()};"
        f" numpy {np.__version__}"
    )


def run_benchmark(
    originals: Iterable[tuple[str, Image]],
    ratios: Iterable[int],
    methods: Sequence[str] = tuple(RESAMPLERS),
    repeats: int = 5,
) -> tuple[BenchRow, ...]:
    """Full cross product: for every original and ratio, downsample by the
    ratio, upscale back with every method, and score against the original.

    The ratios, methods and ``repeats`` are checked before any work;
    ``originals`` is then iterated once, one original at a time, and an
    image name drawn a second time raises ValueError. A ratio or method
    given more than once runs once, at its first place. Rows come out in
    (image, ratio, method) order. Each method's time is the median of
    ``repeats`` calls of it alone (no I/O, single thread), and methods run
    one after another so their timings do not contaminate each other.
    """
    ratios = list(dict.fromkeys(_check_count(ratio, "ratio") for ratio in ratios))
    if not ratios:
        raise ValueError("no ratios requested")
    resamplers = [(m, get_resampler(m)) for m in dict.fromkeys(methods)]
    if not resamplers:
        raise ValueError("no methods requested")
    repeats = _check_count(repeats, "repeats")

    rows, names = [], set()
    for name, img in originals:
        # the markdown keys its rows by image name
        if name in names:
            raise ValueError(f"image name {name!r} given twice")
        names.add(name)
        for ratio in ratios:
            small = block_downsample(img, ratio)
            for method, fn in resamplers:
                times = []
                for _ in range(repeats):
                    # free the previous output, this method's or the last
                    # one's, so that one output is held at a time
                    upscaled = None
                    start = time.perf_counter()
                    upscaled = fn(small, ratio)
                    times.append(time.perf_counter() - start)
                report = psnr(img, upscaled)
                t = sorted(times)
                median = (t[(repeats - 1) // 2] + t[repeats // 2]) / 2
                rows.append(BenchRow(name, method, ratio, report.psnr_db, report.mse, median))
        # free this original's arrays before the next one is drawn and decoded
        del img, small, upscaled
    if not rows:
        raise ValueError("no input images")
    return tuple(rows)


def _fmt_psnr(value: float | None) -> str:
    return "undefined" if value is None else f"{value:.4f}"


def _csv_field(name: str) -> str:
    if any(c in name for c in ',"\r\n'):
        return '"' + name.replace('"', '""') + '"'
    return name


def rows_to_csv(rows: Iterable[BenchRow]) -> str:
    """CSV text with fixed-format numeric columns; everything except
    wall_time_s is deterministic across runs. Rows end in LF. By RFC 4180,
    an image name that holds a comma, a quote, a CR or an LF is quoted,
    with its quotes doubled; no other field needs quoting."""
    lines = [CSV_HEADER] + [
        f"{_csv_field(r.image_name)},{r.method},{r.ratio},{_fmt_psnr(r.psnr_db)},{r.mse:.6f},{r.wall_time_s:.6f}"
        for r in rows
    ]
    return "\n".join(lines) + "\n"


# a "|" would end a markdown table cell and a line break its row
_MARKDOWN_CELL = str.maketrans({"\\": r"\\", "|": r"\|", "\r": " ", "\n": " "})


def _markdown_row(cells: Iterable[str]) -> str:
    return "| " + " | ".join(cell.translate(_MARKDOWN_CELL) for cell in cells) + " |"


def report_markdown(rows: Iterable[BenchRow]) -> str:
    """Per-ratio tables, one row per image, PSNR columns then time columns,
    under this process's environment. A (image, method, ratio) without a
    row gets empty cells."""
    # one pass over the rows, so that a generator serves as well as a tuple;
    # a dict keeps each key at its first place
    by_key = {(r.image_name, r.method, r.ratio): r for r in rows}
    images, methods, ratios = (list(dict.fromkeys(key[n] for key in by_key)) for n in range(3))

    lines = ["# Upscale benchmark", "", f"Environment: {describe_environment()}"]
    for ratio in ratios:
        header = (
            ["image"]
            + [f"{m} PSNR (dB)" for m in methods]
            + [f"{m} time (s)" for m in methods]
        )
        lines += ["", f"## ratio = {ratio}", ""]
        lines.append(_markdown_row(header))
        lines.append("|" + "---|" * len(header))
        for name in images:
            cells = [name]
            picked = [by_key.get((name, m, ratio)) for m in methods]
            cells += ["" if r is None else _fmt_psnr(r.psnr_db) for r in picked]
            cells += ["" if r is None else f"{r.wall_time_s:.6f}" for r in picked]
            lines.append(_markdown_row(cells))
    return "\n".join(lines) + "\n"
