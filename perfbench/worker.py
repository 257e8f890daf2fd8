"""Workload process: one client sending CLI requests in a closed loop.

Run as `python3 worker.py PLAN.json` with the package's source directory
on PYTHONPATH. The plan lists the requests (argv lists for
`nnvresize.cli.main`), the number of passes over them and whether to
trace. Results go to the JSON file the plan names; nothing is printed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from spans import Tracer, layer_totals


def output_digest(path: str) -> str:
    """Digest of an output's deterministic content. A bench CSV's last
    column is wall time, so it is left out."""
    data = Path(path).read_bytes()
    if path.endswith(".csv"):
        data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.splitlines())
    return hashlib.blake2b(data, digest_size=16).hexdigest()


def run_pass(main, requests, label: str, tracer: Tracer | None = None) -> dict:
    """Send every request once; per-request latency, outcome and digest."""
    latencies, errors = [], []
    cpu = time.process_time()
    start = time.perf_counter()
    for index, request in enumerate(requests):
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if tracer is None:
                    code = main(request["argv"])
                else:
                    tracer.request = f"{label}.{index}"
                    code = tracer.call("cli", "main", main, request["argv"])
            error = None if code == 0 else f"exit {code}: {sink.getvalue().strip()[-300:]}"
        except Exception as exc:  # a request that raises is a failed request, not a crash
            error = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        errors.append(error)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    digests = [None if err else output_digest(r["output"]) for r, err in zip(requests, errors)]
    return {"wall_s": wall, "cpu_s": cpu, "latency_s": latencies, "errors": errors, "digests": digests}


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    from nnvresize import cli

    requests = plan["requests"]
    result = {"warmup": run_pass(cli.main, requests, "warmup"), "passes": [], "traced": []}
    tracer = Tracer()
    for i in range(plan["passes"]):
        result["passes"].append(run_pass(cli.main, requests, f"p{i}"))
        if plan["trace"]:
            # alternating with the untraced passes, so that drift in machine
            # speed does not show up as tracing overhead
            uninstall = tracer.install()
            try:
                result["traced"].append(run_pass(cli.main, requests, f"t{i}", tracer))
            finally:
                uninstall()
    if plan["trace"]:
        result["layers"] = layer_totals(tracer.spans)
        Path(plan["spans_out"]).write_text(
            json.dumps([vars(span) for span in tracer.spans], separators=(",", ":"))
        )
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(plan["result_out"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
