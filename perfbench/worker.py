"""One benchmark process: set up a workload, then run it in a closed loop.

Started by run.py with the checkout's `src` on PYTHONPATH.  Protocol on
stdout: the line `ready` once set-up (imports, inputs, warm-up) is done,
then, unless --setup-only, one JSON line with the runs.  Anything gradflow
prints goes to stderr.  A traced process also writes the spans of its last
traced run to spans-<workload>.json beside its work directory.

The loop is one client: each run of the body starts when the previous run
and its checks have ended, and runs start until --seconds have passed.
With --trace 1 untraced and traced runs alternate, so the per-layer metrics
and the tracing overhead come from one process.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    protocol = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    import gradflow
    if not Path(gradflow.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"gradflow imported from {gradflow.__file__}, "
                         f"not from {ROOT / 'src'}")
    import workloads
    from tracer import Tracer

    spec = workloads.WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    inputs = spec.prepare(args.seed, args.workdir)
    spec.warm_up(inputs)
    print("ready", file=protocol, flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer()
    out = args.workdir / "out"
    accepted: dict = {}
    runs = []
    layers = []
    min_runs = 2 if args.trace else 1
    started = time.perf_counter()
    while len(runs) < min_runs or time.perf_counter() - started < args.seconds:
        traced = bool(args.trace) and len(runs) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        failures: list[str] = []
        wall = None
        try:
            tracer.start_run(len(runs))
            with tracer if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                outcome = spec.body(inputs, out)
                wall = time.perf_counter() - t0
            failures = workloads.check(args.workload, inputs, out, outcome,
                                       accepted)
        except Exception as exc:  # a failed run is counted, not fatal
            failures.append(f"{type(exc).__name__}: {exc}")
        if traced and wall is not None:
            tracer.counts["cli.bytes_out"] += sum(
                f.stat().st_size for d in outcome.cli_dirs for f in d.iterdir())
            layers.append(tracer.layer_metrics())
        runs.append({"wall_s": wall, "traced": traced, "failures": failures})
        if failures:
            print(f"run {len(runs)} failed: {failures}", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)

    result = {"runs": runs,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.trace:
        result["layers"] = {name: statistics.median_low(l[name] for l in layers)
                            for name in layers[0]} if layers else {}
        spans = args.workdir.parent / f"spans-{args.workload}.json"
        spans.write_text(json.dumps(tracer.dump()), encoding="ascii")
    print(json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
