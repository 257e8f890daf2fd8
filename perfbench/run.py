"""nnvresize benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload scale-photo --seed 1 --seconds 16 --trace 0

Run from the repository root. Inputs are generated from --seed; the
package under ./src is driven through `nnvresize.cli.main` by one client
in a closed loop inside a separate workload process (worker.py). After
the timed passes the outputs are checked against invariants and an exact
rational reference. The last line of standard output is the result JSON;
with --trace 0 it holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import check
import gen

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

METHODS = ("nn", "bilinear", "bicubic", "nnv")
RATIOS = (2, 3, 4, 6)
TAIL_BEYOND = 10  # op_tail_ms: the highest percentile with this many samples beyond it
SETUP_SPAWNS = 6  # timed before the workload process and again after it
WORKER_TIMEOUT_S = 150
# Wall seconds of one pass at the seed, on the 2-core reference machine.
# The number of timed passes is --seconds divided by this, rounded, so it
# is fixed for a given --seconds and the latency percentiles always rank
# the same mix of requests.
NOMINAL_PASS_S = {"scale-photo": 6.5, "bench-graphics": 2.2, "ingest-ascii": 2.5}


@dataclass
class Request:
    argv: list[str]
    output: str
    kind: str  # "scale", "downsample" or "bench"
    source: str  # key into Workload.sources
    method: str = ""
    ratio: int = 1
    out_px: int = 0

    @property
    def label(self) -> str:
        return " ".join(filter(None, (self.kind, self.source, self.method, f"x{self.ratio}")))


@dataclass
class Workload:
    requests: list[Request] = field(default_factory=list)
    sources: dict[str, np.ndarray] = field(default_factory=dict)
    inputs: list[dict] = field(default_factory=list)  # census: one entry per input file
    census_sources: list[np.ndarray] = field(default_factory=list)  # what NNV would see

    def add_input(self, key: str, pixels: np.ndarray, data: bytes, path: Path, fmt: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        self.sources[key] = pixels
        self.inputs.append({"file": path.name, "format": fmt, "size": list(pixels.shape), "bytes": len(data)})


# --- workloads -------------------------------------------------------------
# scale-photo: resampling dominates; photo-like content has a unique mode in
#   only ~13% of cells, so the NNV fallback runs almost everywhere, and
#   ratios 3 and 6 reach the non-dyadic offsets.
# bench-graphics: the `bench` protocol on posterized originals; ~96% of the
#   downsampled cells have a unique mode. Only workload running
#   block_downsample, psnr and run_benchmark together.
# ingest-ascii: P2 decoding dominates; resampling is trivial, so resampler
#   changes should not move it.


def build_scale_photo(rng: np.random.Generator, work: Path) -> Workload:
    wl = Workload()
    for size in (256, 512):
        pixels = gen.photo_like(rng, size)
        src = work / f"photo{size}.pgm"
        wl.add_input(f"photo{size}", pixels, gen.encode_p5(pixels), src, "P5")
        wl.census_sources.append(pixels)
        for ratio in RATIOS:
            for method in METHODS:
                out = work / f"out-{size}-{ratio}-{method}.pgm"
                argv = ["scale", str(src), str(out), "--method", method, "--ratio", str(ratio)]
                wl.requests.append(Request(argv, str(out), "scale", f"photo{size}", method, ratio, (size * ratio) ** 2))
    return wl


def build_bench_graphics(rng: np.random.Generator, work: Path) -> Workload:
    wl = Workload()
    size = 768
    for index in range(4):
        pixels = gen.posterized(rng, size)
        directory = work / f"orig{index}"
        wl.add_input(f"orig{index}", pixels, gen.encode_p5(pixels), directory / f"poster{index}.pgm", "P5")
        for ratio in RATIOS:
            wl.census_sources.append(gen.block_mean(pixels, ratio))
            out = work / f"bench{index}-{ratio}.csv"
            argv = ["bench", str(directory), "--ratios", str(ratio), "--csv", str(out), "--repeats", "1"]
            wl.requests.append(Request(argv, str(out), "bench", f"orig{index}", "", ratio, len(METHODS) * size * size))
    return wl


def build_ingest_ascii(rng: np.random.Generator, work: Path) -> Workload:
    wl = Workload()
    for size in (256, 512):
        pixels = gen.photo_like(rng, size)
        src = work / f"ascii{size}.pgm"
        wl.add_input(f"ascii{size}", pixels, gen.encode_p2(pixels), src, "P2")
        wl.census_sources.append(pixels)
        out = work / f"up-{size}.pgm"
        argv = ["scale", str(src), str(out), "--method", "nn", "--ratio", "2"]
        wl.requests.append(Request(argv, str(out), "scale", f"ascii{size}", "nn", 2, (2 * size) ** 2))
        out = work / f"down-{size}.pgm"
        argv = ["downsample", str(src), str(out), "--ratio", "2"]
        wl.requests.append(Request(argv, str(out), "downsample", f"ascii{size}", "", 2, (size // 2) ** 2))
    return wl


WORKLOADS = {
    "scale-photo": build_scale_photo,
    "bench-graphics": build_bench_graphics,
    "ingest-ascii": build_ingest_ascii,
}


# --- output checks (outside every timed region) ----------------------------


@dataclass
class Checked:
    errors: list[str]
    mismatches: int
    nnv_psnr: list[float] = field(default_factory=list)


def check_request(req: Request, wl: Workload, sample_seed: tuple) -> Checked:
    try:
        return _check_request(req, wl.sources[req.source], sample_seed)
    except (OSError, ValueError) as exc:
        return Checked([f"unreadable output: {exc}"], 0)


def _check_request(req: Request, src: np.ndarray, sample_seed: tuple) -> Checked:
    if req.kind == "bench":
        return check_bench(req, src, sample_seed)
    out, out_max = check.read_p5(Path(req.output).read_bytes())
    if req.kind == "downsample":
        errors = check.downsample_errors(src, gen.MAX_VALUE, out, out_max, req.ratio)
        mismatches = 0 if errors else check.block_mean_mismatches(src, out, req.ratio, sample_seed)
        return Checked(errors, mismatches)
    errors = check.invariant_errors(req.method, src, gen.MAX_VALUE, out, out_max, req.ratio)
    mismatches = 0 if errors else check.exact_mismatches(req.method, src, gen.MAX_VALUE, out, req.ratio, sample_seed)
    return Checked(errors, mismatches)


def check_bench(req: Request, original: np.ndarray, sample_seed: tuple) -> Checked:
    """Re-run the protocol's steps through the package's public functions,
    check each image they produce, and check the CSV's scores against an
    MSE/PSNR computed here."""
    from nnvresize import Image, block_downsample, get_resampler

    with open(req.output, newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = [(req.ratio, m) for m in METHODS]
    got = [(int(row["ratio"]), row["method"]) for row in rows]
    if got != expected:
        return Checked([f"bench rows {got} != {expected}"], 0)
    ratio, share = req.ratio, check.SAMPLE_PIXELS // (len(METHODS) + 1)
    small = block_downsample(Image(original), ratio).pixels
    errors = check.downsample_errors(original, gen.MAX_VALUE, small, gen.MAX_VALUE, ratio)
    mismatches = check.block_mean_mismatches(original, small, ratio, (*sample_seed, 0), share)
    nnv_psnr = []
    for index, row in enumerate(rows, 1):
        method = row["method"]
        out = get_resampler(method)(Image(small), ratio).pixels
        errors += check.invariant_errors(method, small, gen.MAX_VALUE, out, gen.MAX_VALUE, ratio)
        mismatches += check.exact_mismatches(method, small, gen.MAX_VALUE, out, ratio, (*sample_seed, index), share)
        mse, psnr_db = check.mse_psnr(original, out, gen.MAX_VALUE)
        if not math.isclose(float(row["mse"]), mse, abs_tol=1e-6) or not math.isclose(float(row["psnr_db"]), psnr_db, abs_tol=1e-4):
            errors.append(f"{method}: CSV mse/psnr {row['mse']}/{row['psnr_db']} != {mse:.6f}/{psnr_db:.4f}")
        if method == "nnv":
            nnv_psnr.append(psnr_db)
    return Checked(errors, mismatches, nnv_psnr)


# --- measurement -----------------------------------------------------------


def time_setup(env: dict, spawns: int) -> list[float]:
    """Wall times of fresh interpreters importing the package and
    finishing one trivial call.

    No timeout: with one, subprocess polls the child with sleeps of up to
    50 ms and the times come out in 50 ms steps."""
    code = "import nnvresize; nnvresize.resample_nn(nnvresize.Image([[1]]), 2)"
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return times


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has TAIL_BEYOND
    samples beyond it: the (TAIL_BEYOND + 1)-th largest sample."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


LAYER_FIELDS = {
    "nnv.resample_nnv": ("calls", "busy_s", "out_mpix_s", "peak_alloc_mib"),
    "resample.resample_nn": ("calls", "busy_s", "out_mpix_s", "peak_alloc_mib"),
    "resample.resample_bilinear": ("calls", "busy_s", "out_mpix_s", "peak_alloc_mib"),
    "resample.resample_bicubic": ("calls", "busy_s", "out_mpix_s", "peak_alloc_mib"),
    "image.load_pgm_p2": ("calls", "busy_s", "mb_s"),
    "image.load_pgm_p5": ("busy_s",),
    "image.save_pgm": ("busy_s",),
    "image.read_pgm": ("self_s",),
    "image.write_pgm": ("self_s",),
    "image.block_downsample": ("busy_s",),
    "metrics.psnr": ("busy_s",),
    "bench.run_benchmark": ("self_s",),
    "cli.main": ("self_s",),
}
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "out_mpix_s": "Mpix/s", "mb_s": "MB/s", "peak_alloc_mib": "MiB"}


def layer_metrics(layers: dict, passes: int, overhead_pct: float, mode_share: float) -> dict:
    """Per-layer metrics; counts and times are per pass, rates over all calls."""
    out = {}
    for name, fields in LAYER_FIELDS.items():
        t = layers.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0, "peak_mib": 0.0})
        values = {
            "calls": t["calls"] / passes,
            "busy_s": t["busy_s"] / passes,
            "self_s": t["self_s"] / passes,
            "out_mpix_s": t["work"] / 1e6 / t["busy_s"] if t["busy_s"] else 0.0,
            "mb_s": t["work"] / 1e6 / t["busy_s"] if t["busy_s"] else 0.0,
            "peak_alloc_mib": t["peak_mib"],
        }
        for f in fields:
            out[f"{name}.{f}"] = metric(values[f], UNITS[f])
    out["nnv.mode_cell_share"] = metric(mode_share, "ratio")
    out["trace.overhead_pct"] = metric(overhead_pct, "%")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nnvresize" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'nnvresize'}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nnvresize
    from nnvresize.bench import describe_environment

    if Path(nnvresize.__file__).resolve().parent != (SRC / "nnvresize").resolve():
        print(f"error: imported nnvresize from {nnvresize.__file__}, not {SRC}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind: subprocess.run kills and reaps the workload
    # process, and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    tag = f"{args.workload}-seed{args.seed}"
    work = WORK / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, tag, work, describe_environment())
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, tag: str, work: Path, environment: str) -> int:
    wl = WORKLOADS[args.workload](np.random.default_rng(args.seed), work)
    passes = max(2, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    if args.trace:
        passes = max(2, math.ceil(passes / 2))  # untraced and traced passes share the time
    env = dict(os.environ, PYTHONPATH=str(SRC))
    setup_times = [] if args.trace else time_setup(env, SETUP_SPAWNS + 1)[1:]  # first spawn untimed

    plan = {
        "requests": [{"argv": r.argv, "output": r.output} for r in wl.requests],
        "passes": passes,
        "trace": bool(args.trace),
        "result_out": str(work / "result.json"),
        "spans_out": str(WORK / f"spans-{tag}.json"),
    }
    (work / "plan.json").write_text(json.dumps(plan))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(work / "plan.json")],
        env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        print(f"error: workload process exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text())
    if not args.trace:
        setup_times += time_setup(env, SETUP_SPAWNS)

    measured = result["passes"] + result["traced"]
    final = measured[-1]
    checks = [check_request(req, wl, (args.seed, i)) for i, req in enumerate(wl.requests)]
    failed, problems = 0, []
    for p in measured:
        for i, req in enumerate(wl.requests):
            reason = p["errors"][i] or (checks[i].errors and "; ".join(checks[i].errors))
            if not reason and p["digests"][i] != final["digests"][i]:
                reason = "output differs between passes"
            if reason:
                failed += 1
                problems.append(f"{req.label}: {reason}")
    attempted = len(measured) * len(wl.requests)

    mode_hits = [gen.mode_cells(s) for s in wl.census_sources]
    mode_share = sum(h for h, _ in mode_hits) / sum(n for _, n in mode_hits)
    by_request = {r.label: c.mismatches for r, c in zip(wl.requests, checks)}
    nnv_psnr = [v for c in checks for v in c.nnv_psnr]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": f"{environment}; nproc {os.cpu_count()}",
        "inputs": wl.inputs,
        "nnv.mode_cell_share": mode_share,
        "requests_per_pass": len(wl.requests),
        "pass_wall_s": [p["wall_s"] for p in result["passes"]],
        "pass_cpu_s": [p["cpu_s"] for p in result["passes"]],
        "fail_ratio": metric(failed / attempted, "ratio"),
        "exact_mismatch_px": metric(sum(c.mismatches for c in checks), "px"),
        "exact_mismatch_by_request": by_request,
        "problems": problems[:20],
    }
    if nnv_psnr:
        report["psnr_nnv_db"] = metric(statistics.fmean(nnv_psnr), "dB")

    if args.trace:
        # each traced pass against the untraced pass just before it
        ratios = [t["wall_s"] / u["wall_s"] for u, t in zip(result["passes"], result["traced"])]
        metrics = layer_metrics(result["layers"], passes, 100.0 * (statistics.median(ratios) - 1.0), mode_share)
        report["traced_pass_wall_s"] = [p["wall_s"] for p in result["traced"]]
        report["spans_file"] = str(Path(plan["spans_out"]).relative_to(Path.cwd()))
    else:
        walls = [p["wall_s"] for p in result["passes"]]
        latencies = [t for p in result["passes"] for t in p["latency_s"]]
        tail_s, tail_pct = tail(latencies)
        wall_s = statistics.median(walls)
        report["op_tail_percentile"] = tail_pct
        report["op_samples"] = len(latencies)
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "wall_s": metric(wall_s, "s"),
            "out_mpix_s": metric(sum(r.out_px for r in wl.requests) / 1e6 / wall_s, "Mpix/s"),
            "op_p50_ms": metric(1e3 * statistics.median(latencies), "ms"),
            "op_tail_ms": metric(1e3 * tail_s, "ms"),
            "peak_rss_mib": metric(result["peak_rss_mib"], "MiB"),
        }

    for name, m in list(metrics.items()) + [(k, report[k]) for k in ("fail_ratio", "exact_mismatch_px", "psnr_nnv_db") if k in report]:
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print("report " + json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
