"""gradflow benchmark: one workload, closed loop, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; gradflow is imported from the
checkout's `src`.  Workloads: flow-2d, edi-2d, voronoi, study-1d (see
README.md).  Prints one line per metric, then, as the last line, a JSON
object with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

This process imports neither numpy nor gradflow.  It starts SETUP_PROBES
processes that only set up, then the worker process that sets up and runs
the loop; setup_s is the median, over all of them, of the time from
starting the process to its `ready` line.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".perfbench"
SETUP_PROBES = 2
DEADLINE_S = 170.0


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("GRADFLOW_THREADS", None)   # keep gradflow's thread pool at 1
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads              # BLAS uses at most nproc threads
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Worker:
    """A worker process, killed if it outlives the run's deadline."""

    def __init__(self, argv: list[str], deadline: float):
        started = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(WORKER), *argv],
                                     stdout=subprocess.PIPE, text=True,
                                     env=_worker_env(), cwd=ROOT)
        self.killer = threading.Timer(max(deadline - started, 0.0),
                                      self.proc.kill)
        self.killer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - started
        if line.strip() != "ready":
            self.finish()
            raise RuntimeError("worker did not set up "
                               f"(exit code {self.proc.returncode})")

    def finish(self) -> str:
        """Read the rest of the worker's output and wait for it to end."""
        try:
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.killer.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with {self.proc.returncode}")
        return rest


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "gradflow" / "__init__.py").is_file():
        print(f"error: no gradflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--workdir", str(workdir)]
    setups = []
    try:
        for _ in range(SETUP_PROBES):
            probe = Worker([*common, "--setup-only"], deadline)
            probe.finish()
            setups.append(probe.setup_s)
        worker = Worker(common, deadline)
        setups.append(worker.setup_s)
        result = json.loads(worker.finish().strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = result["runs"]
    failed = sum(1 for r in runs if r["failures"])
    plain = [r["wall_s"] for r in runs if not r["traced"] and r["wall_s"] is not None]
    traced = [r["wall_s"] for r in runs if r["traced"] and r["wall_s"] is not None]
    if not plain or (args.trace and not traced):
        print("error: no run of the body completed", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: {len(runs)} runs in a closed loop, "
          f"one client, {len(traced)} traced")
    if args.trace:
        metrics = {name: _metric(value, "s" if name.endswith("_s") else
                                 "bytes" if name.endswith("bytes_out") else "count")
                   for name, value in result["layers"].items()}
        metrics["trace.overhead_s"] = _metric(
            statistics.median(traced) - statistics.median(plain), "s")
    else:
        metrics = {"wall_s": _metric(statistics.median(plain), "s"),
                   "setup_s": _metric(statistics.median(setups), "s"),
                   "peak_rss_mb": _metric(result["peak_rss_mb"], "MiB")}
        print(f"  wall_s runs: {', '.join(f'{w:.4f}' for w in plain)}")
        print(f"  setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}")
    for name, metric in metrics.items():
        print(f"  {name:30s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'error_rate':30s} {failed / len(runs):.6g} ratio "
          f"({failed} of {len(runs)} runs failed)")
    for i, r in enumerate(runs):
        for failure in r["failures"]:
            print(f"  run {i} failed: {failure}")
    ok = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": ok, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
