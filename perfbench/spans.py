"""Span tracing around the package's public functions, installed from the
benchmark's side by rebinding module attributes for the traced run only.

A span is (name, start, end, parent, request, work, peak_bytes). Spans
stay in memory until the run ends. Self time is a span's duration minus
the part of it covered by its child spans. Allocation peaks come from
tracemalloc, switched on only inside the resampler spans: it slows
allocation-heavy pure-Python code such as the P2 decoder about tenfold,
while the resamplers allocate a few large numpy buffers.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from collections import defaultdict
from dataclasses import dataclass

# (module, function) pairs wrapped in the traced run; the span name is
# "<module>.<function>", except that load_pgm is split by PGM flavour.
TRACED = (
    ("image", "load_pgm"),
    ("image", "save_pgm"),
    ("image", "read_pgm"),
    ("image", "write_pgm"),
    ("image", "block_downsample"),
    ("resample", "resample_nn"),
    ("resample", "resample_bilinear"),
    ("resample", "resample_bicubic"),
    ("nnv", "resample_nnv"),
    ("metrics", "psnr"),
    ("bench", "run_benchmark"),
)
ALLOC_TRACED = {"resample_nn", "resample_bilinear", "resample_bicubic", "resample_nnv"}
PACKAGE = "nnvresize"

MIB = 1 << 20


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: str
    work: int  # output pixels, or input bytes for load_pgm
    peak_bytes: int


def _span_name(module: str, func: str, args) -> str:
    if func == "load_pgm":
        return "image.load_pgm_p2" if bytes(args[0][:2]) == b"P2" else "image.load_pgm_p5"
    return f"{module}.{func}"


def _work(func: str, args, result) -> int:
    if func == "load_pgm":
        return len(args[0])
    if hasattr(result, "width") and hasattr(result, "height"):
        return result.width * result.height
    return 0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.request = ""
        self._open: list[int] = []

    def call(self, module: str, func: str, fn, *args, **kwargs):
        parent = self._open[-1] if self._open else None
        span = Span(_span_name(module, func, args), 0.0, 0.0, parent, self.request, 0, 0)
        self._open.append(len(self.spans))
        self.spans.append(span)
        alloc = func in ALLOC_TRACED and not tracemalloc.is_tracing()
        if alloc:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            if alloc:
                span.peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._open.pop()
        span.work = _work(func, args, result)
        return result

    def install(self):
        """Rebind every reference to a traced function in the package's
        modules, including dict values such as the resampler table;
        returns a callable that restores them."""
        wrappers = {}
        for module, func in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], func)
            wrappers[id(original)] = self._wrap(module, func, original)
        undo = []
        modules = [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    undo.append((mod.__dict__, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            undo.append((value, key, item))
                            value[key] = wrappers[id(item)]

        def uninstall():
            for table, key, original in undo:
                table[key] = original

        return uninstall

    def _wrap(self, module, func, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(module, func, original, *args, **kwargs)

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children[index]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append((span.end - span.start) - covered)
    return result


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy seconds, self seconds, work and peak MiB."""
    totals: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        t = totals.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0, "peak_mib": 0.0})
        t["calls"] += 1
        t["busy_s"] += span.end - span.start
        t["self_s"] += own
        t["work"] += span.work
        t["peak_mib"] = max(t["peak_mib"], span.peak_bytes / MIB)
    return totals
