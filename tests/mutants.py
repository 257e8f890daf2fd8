"""Mutants of src/ that the test suite must kill, and their runner.

Each entry is one small edit of one file of the package: its exact old
text, the new text, and the promise it guards. Run from anywhere:

    python tests/mutants.py              # every entry
    python tests/mutants.py --only NAME  # one entry (repeatable)

Each entry is applied alone to a copy of src/ in a temporary directory,
and ``pytest -x -q -p no:cacheprovider`` runs this repository's tests
against the copy. A mutant is killed when a test fails, and the report
names the first failing test. An entry marked equivalent changes no
behaviour, says why, and is expected to survive. The exit status is 1
when any other entry survives, or an equivalent one is killed.

A change that moves an entry's old text updates the entry with it:
tests/test_mutants.py checks that each old text occurs exactly once in
its file.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "nnvresize"


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/nnvresize
    old: str
    new: str
    guards: str
    equivalent: str = ""  # why the edit changes no behaviour, if it does not


MUTANTS = [
    # --- mutations named in CHANGES.md that still apply ----------------------
    Mutant(
        "nnv-tie-flipped",
        "nnv.py",
        "- (position[n + 1] < lower_first[n])",
        "- (position[n + 1] > lower_first[n])",
        "nnv: a midpoint tie goes to the value first in the window",
    ),
    Mutant(
        "nnv-tie-always-up",
        "nnv.py",
        "- (position[n + 1] < lower_first[n])",
        "- 1",
        "nnv: a midpoint tie goes to the value first in the window",
    ),
    Mutant(
        "nnv-tie-middle-of-two-pairs",
        "nnv.py",
        "np.where(e1, position[0], position[1])",
        "position[1]",
        "nnv: the middle tie of a 2+2 cell reads the lower pair's first position",
    ),
    Mutant(
        "nnv-tie-le",
        "nnv.py",
        "position[n + 1] < lower_first[n]",
        "position[n + 1] <= lower_first[n]",
        "nnv: a midpoint tie goes to the value first in the window",
        equivalent="the two positions always belong to different keys, so they are never equal",
    ),
    Mutant(
        "nnv-uint8-keys",
        "nnv.py",
        "np.multiply(v, 4, dtype=np.uint16)",
        "np.multiply(v, 4, dtype=np.uint8)",
        "nnv: sort keys value * 4 + position do not wrap",
    ),
    Mutant(
        "nnv-threshold-no-plus-one",
        "nnv.py",
        "(lo.astype(half_up.dtype) + hi + 1)",
        "(lo.astype(half_up.dtype) + hi)",
        "nnv: thresholds sit at the midpoints r²·(v_n + v_n+1 + 1) of 2N + r²",
    ),
    Mutant(
        "nnv-mode-base-always-s1",
        "nnv.py",
        "np.where(e1 | e2, values[1], values[2])",
        "values[1]",
        "nnv: a cell whose only pair is s2 = s3 has that pair as its mode",
    ),
    Mutant(
        "nnv-steps-unmasked",
        "nnv.py",
        "(hi - lo) * ~has_mode",
        "(hi - lo)",
        "nnv: a mode cell takes no steps, whatever the thresholds say",
    ),
    Mutant(
        "nnv-no-column-step",
        "nnv.py",
        "half_up += step",
        "pass",
        "nnv: the guide advances one column phase at a time",
    ),
    Mutant(
        "nnv-guide-no-offset",
        "nnv.py",
        "mid += 2 * ratio * top + ratio",
        "mid += 2 * ratio * top",
        "nnv: the guide is 2N + r², the bilinear numerator with its offset",
    ),
    Mutant(
        "nnv-sites-from-g",
        "nnv.py",
        "out[:, 0, ::ratio] = a",
        "out[:, 0, ::ratio] = g",
        "every method copies the source at the sample sites",
    ),
    Mutant(
        "horizontal-offset-plus-one",
        "resample.py",
        "np.add(total, d, out=mid[:, i::ratio])",
        "np.add(total, d + 1, out=mid[:, i::ratio])",
        "bilinear and bicubic round half up: the offset d is folded in once",
    ),
    Mutant(
        "cubic-weight-tap-one",
        "resample.py",
        "3 * i**3 - 5 * i * i * r + 2 * r**3,",
        "3 * i**3 - 5 * i * i * r + 2 * r**3 + i,",
        "bicubic: Keys cubic convolution with a = -1/2",
    ),
    Mutant(
        "type-bound-narrowed",
        "resample.py",
        "bound = reach * (2 * reach * max_value + d)",
        "bound = reach * (reach * max_value + d)",
        "every first pass holds its largest value without wrapping",
    ),
    Mutant(
        "column-cost-ratio-squared",
        "resample.py",
        "_tiles(h, w, ratio * ratio, ratio)",
        "_tiles(h, w, ratio * ratio, ratio * ratio)",
        "a tiny source at a huge ratio keeps its rows whole",
    ),
    Mutant(
        "column-cost-one",
        "resample.py",
        "_tiles(h, w, ratio * ratio, ratio)",
        "_tiles(h, w, ratio * ratio, 1)",
        "resampler memory stays flat in the width",
    ),
    Mutant(
        "tile-window-no-halo-columns",
        "resample.py",
        "x0 : x1 + before + after]",
        "x0 : x1 + before]",
        "each tile reads the padded columns its taps reach",
    ),
    Mutant(
        "tile-window-no-halo-rows",
        "resample.py",
        "src[y0 : y1 + before + after,",
        "src[y0 : y1 + before,",
        "each band reads the padded rows its taps reach",
    ),
    Mutant(
        "tiles-no-min",
        "image.py",
        "x0, min(x0 + width, cols)",
        "x0, x0 + width",
        "tiles cover the grid once and stay inside it",
    ),
    Mutant(
        "check-count-accepts-bool",
        "image.py",
        "isinstance(value, (int, np.integer)) and not isinstance(value, bool)",
        "isinstance(value, (int, np.integer))",
        "a ratio or count must be an integer >= 1, and True is refused",
    ),
    Mutant(
        "downsample-no-column-split",
        "image.py",
        "_tiles(*out.shape, _REDUCE_PIXEL_BYTES * denom, _REDUCE_PIXEL_BYTES * denom)",
        "_tiles(*out.shape, _REDUCE_PIXEL_BYTES * denom, 1)",
        "block_downsample's memory stays flat in the width",
    ),
    Mutant(
        "p2-no-four-digit-check",
        "image.py",
        "if four.any():",
        "if False:",
        "a P2 sample of four or more significant digits is out of range",
    ),
    Mutant(
        "p2-hundreds-unmasked",
        "image.py",
        "np.multiply(d[:-3], digit[1:-2], dtype=np.uint16)",
        "d[:-3].astype(np.uint16)",
        "a P2 sample's value comes from its own digits only",
    ),
    Mutant(
        "p2-no-comment-carry",
        "image.py",
        "end = max(end, _COMMENT.match(data, comment).end())",
        "end = end",
        "no P2 comment spans two chunks",
    ),
    Mutant(
        "p2-chunks-cut-mid-token",
        "image.py",
        "end = space.start() if space else len(data)",
        "end = min(pos + size, len(data))",
        "no P2 token spans two chunks",
    ),
    Mutant(
        "p2-malformed-token-unstripped",
        "image.py",
        "text[: text.find(other[:1])].rstrip(_DIGITS)",
        "text[: text.find(other[:1])]",
        "a malformed P2 token is refused whole, its leading digits included",
    ),
    Mutant(
        "header-int-19-digits",
        "image.py",
        'token.lstrip(b"0")[:20]',
        'token.lstrip(b"0")[:19]',
        "a header number past int64 reads as the int64 maximum",
    ),
    Mutant(
        "no-color-branch",
        "image.py",
        'if magic in (b"P6", b"P3"):',
        "if False:",
        "color PPM input is refused by name",
    ),
    Mutant(
        "comment-ends-only-at-lf",
        "image.py",
        r'rb"#[^\r\n]*"',
        r'rb"#[^\n]*"',
        "a comment ends at CR as well as at LF",
    ),
    Mutant(
        "header-vt-not-whitespace",
        "image.py",
        r'rb"(?:[ \t\n\r\x0b\x0c]+|"',
        r'rb"(?:[ \t\n\r\x0c]+|"',
        "every PGM whitespace byte, VT included, separates header tokens",
    ),
    Mutant(
        "p2-samples-past-count",
        "image.py",
        "_digit_runs(head)[: count - filled]",
        "_digit_runs(head)",
        "P2 samples past the raster are ignored",
    ),
    Mutant(
        "one-band-for-the-whole-image",
        "image.py",
        "height, width = max(1, _BAND_BYTES // (cols * band_cost)),",
        "height, width = rows,",
        "memory stays flat in the height: bands hold about _BAND_BYTES",
    ),
    Mutant(
        "one-row-per-band",
        "image.py",
        "height, width = max(1, _BAND_BYTES // (cols * band_cost)),",
        "height, width = 1,",
        "a band holds as many rows as fit _BAND_BYTES, not one",
    ),
    Mutant(
        "allocate-before-size-check",
        "resample.py",
        "    if w * h * ratio * ratio > _MAX_OUTPUT_PIXELS:",
        "    np.empty((h * ratio, w * ratio), np.uint8)\n    if w * h * ratio * ratio > _MAX_OUTPUT_PIXELS:",
        "an output above the pixel limit is refused before anything is allocated",
    ),
    Mutant(
        "psnr-run-plus-one",
        "metrics.py",
        "_RUN = (2**32 - 1) // 255**2",
        "_RUN = (2**32 - 1) // 255**2 + 1",
        "psnr: a run's sum of squares fits uint32",
    ),
    Mutant(
        "psnr-runs-one-short",
        "metrics.py",
        "a[i : i + _RUN], b[i : i + _RUN]",
        "a[i : i + _RUN - 1], b[i : i + _RUN - 1]",
        "psnr: the runs cover every pixel once",
    ),
    Mutant(
        "psnr-squares-in-uint8",
        "metrics.py",
        "square = diff.astype(np.uint16)",
        "square = diff.astype(np.uint8)",
        "psnr: squared differences are exact",
    ),
    Mutant(
        "psnr-formula",
        "metrics.py",
        "10.0 * math.log10(peak * peak / err)",
        "20.0 * math.log10(peak / err)",
        "psnr_db is 10*log10(max_value^2 / mse)",
    ),
    # --- one entry per README promise ------------------------------------------
    Mutant(
        "nn-column-tie-up",
        "resample.py",
        "int(2 * i > ratio)",
        "int(2 * i >= ratio)",
        "nn: a frac of exactly 1/2 resolves to the lower index, along a row",
    ),
    Mutant(
        "nn-row-tie-up",
        "resample.py",
        "int(2 * j > ratio)",
        "int(2 * j >= ratio)",
        "nn: a frac of exactly 1/2 resolves to the lower index, down a column",
    ),
    Mutant(
        "bilinear-half-down",
        "resample.py",
        "half_up, step = ratio * mid[:-1],",
        "half_up, step = ratio * mid[:-1] - 1,",
        "bilinear rounds half up",
    ),
    Mutant(
        "bicubic-split-never",
        "resample.py",
        "if dtype is not None:",
        "if True:",
        "bicubic is exact up to ratio 1107, past the int64 bound",
    ),
    Mutant(
        "bicubic-ceiling-1108",
        "resample.py",
        "_MAX_BICUBIC_RATIO = 1107",
        "_MAX_BICUBIC_RATIO = 1108",
        "bicubic refuses a ratio above 1107",
    ),
    Mutant(
        "downsample-offset-low-at-odd-ratios",
        "image.py",
        "sums += ratio * ratio // 2",
        "sums += ratio * ratio // 2 - ratio % 2",
        "block_downsample rounds half up",
    ),
    Mutant(
        "nnv-mode-test-any-pair",
        "nnv.py",
        "has_mode = e2 | (e1 != e3)",
        "has_mode = e2 | e1 | e3",
        "nnv: only a unique mode fills a cell; a 2+2 cell has none",
    ),
    Mutant(
        "output-limit-inclusive",
        "resample.py",
        "w * h * ratio * ratio > _MAX_OUTPUT_PIXELS",
        "w * h * ratio * ratio >= _MAX_OUTPUT_PIXELS",
        "an output of exactly the pixel limit is allowed, one more is refused",
    ),
    Mutant(
        "p5-no-whitespace-byte",
        "image.py",
        "if data[pos : pos + 1] not in _WHITESPACE:",
        "if not data[pos : pos + 1]:",
        "exactly one whitespace byte separates a P5 maxval from the raster",
    ),
    Mutant(
        "p5-raster-copied",
        "image.py",
        "count=count, offset=pos + 1)",
        "count=count, offset=pos + 1).copy()",
        "a P5 raster is a view of the decoded bytes, not a copy",
    ),
    Mutant(
        "range-scan-skips-wide-types",
        "image.py",
        "if info.min < 0 or info.max > max_value:",
        "if info.min < 0:",
        "Image refuses pixel values outside [0, max_value]",
    ),
    # --- statements a one-line scan found unpinned -----------------------------
    Mutant(
        "version-drift",
        "__init__.py",
        '__version__ = "0.1.0"',
        '__version__ = "0.1.1"',
        "nnvresize.__version__ is the version in pyproject.toml",
    ),
    Mutant(
        "image-no-slots",
        "image.py",
        '__slots__ = ("_pixels", "_max_value")',
        "pass",
        "an Image takes no new attributes",
    ),
    Mutant(
        "bench-no-wrote-line",
        "cli.py",
        'print(f"wrote {len(rows)} rows to {args.csv}", file=sys.stderr)',
        "pass",
        "bench names the CSV file it wrote, on stderr",
    ),
    Mutant(
        "load-pgm-keeps-caller-buffer",
        "image.py",
        "data = bytes(data)",
        "pass",
        "a decoded image does not change when the caller writes its buffer",
    ),
    # --- behaviours that tests/test_exact.py's hand-traced CASES pin ---------
    Mutant(
        "bicubic-clamp-floor-one",
        "resample.py",
        "np.clip(num, 0, max_value,",
        "np.clip(num, 1, max_value,",
        "bicubic clamps an undershoot at 0",
    ),
    Mutant(
        "bicubic-clamp-ceiling-above-max",
        "resample.py",
        "np.clip(num, 0, max_value,",
        "np.clip(num, 0, max_value + 1,",
        "bicubic clamps an overshoot at max_value",
    ),
    Mutant(
        "edge-clamp-zero-pad",
        "resample.py",
        'mode="edge"',
        'mode="constant"',
        "companions and taps past the image clamp to its edge",
    ),
]


def run_mutant(mutant: Mutant, workdir: Path) -> tuple[bool, str]:
    """(killed, the first failing test or error line) for one mutant,
    applied to a fresh copy of src/ under ``workdir``."""
    src = workdir / "src"
    shutil.rmtree(src, ignore_errors=True)
    shutil.copytree(PACKAGE.parent, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "nnvresize" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: its old text occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run(
        [sys.executable, "-c", "import nnvresize; print(nnvresize.__file__)"], env=env, capture_output=True, text=True
    )
    if not where.stdout.startswith(str(src)):
        raise SystemExit(f"{mutant.name}: nnvresize was not imported from the copy: {where.stdout or where.stderr}")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
    )
    if proc.returncode == 0:
        return False, ""
    lines = proc.stdout.splitlines()
    first = next((line for line in lines if line.startswith(("FAILED ", "ERROR "))), lines[-1] if lines else "")
    return True, first.split(" - ")[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", action="append", metavar="NAME", help="run only this entry (repeatable)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.only or ()) - {m.name for m in MUTANTS})
    if unknown:
        parser.error(f"no entry named {', '.join(unknown)}")
    chosen = [m for m in MUTANTS if not args.only or m.name in args.only]
    counts, start = Counter(), time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="nnvresize-mutants-") as tmp:
        for mutant in chosen:
            began = time.perf_counter()
            killed, first = run_mutant(mutant, Path(tmp))
            if killed:
                verdict = "KILLED, BUT EQUIVALENT" if mutant.equivalent else "killed"
            else:
                verdict = "survived (equivalent)" if mutant.equivalent else "SURVIVED"
            counts[verdict] += 1
            detail = first if killed else mutant.equivalent or mutant.guards
            print(f"{verdict:<22} {mutant.name:<36} {time.perf_counter() - began:6.1f} s  {detail}", flush=True)
    summary = ", ".join(f"{n} {verdict}" for verdict, n in counts.items())
    print(f"{len(chosen)} entries in {time.perf_counter() - start:.0f} s: {summary}", flush=True)
    return 1 if counts["SURVIVED"] or counts["KILLED, BUT EQUIVALENT"] else 0


if __name__ == "__main__":
    sys.exit(main())
