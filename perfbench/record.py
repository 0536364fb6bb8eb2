"""Record the outputs the benchmark's checks compare with.

    PYTHONPATH=src python3 perfbench/record.py [WORKLOAD ...]

Runs each workload's body once on DEFAULT_SEED, checks its invariants, and
stores every compared output file xz-compressed under perfbench/expected/.
Record only from a commit whose outputs are the reference: a later commit
must reproduce them byte for byte, or to RTOL where the summation order
changed.
"""
from __future__ import annotations

import lzma
import shutil
import sys
import tempfile
from pathlib import Path

import workloads


def record(name: str) -> None:
    spec = workloads.WORKLOADS[name]
    work = workloads.EXPECTED.parent.parent / ".perfbench"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        tmp = Path(tmp)
        inputs = spec.prepare(workloads.DEFAULT_SEED, tmp)
        out = tmp / "out"
        out.mkdir()
        outcome = spec.body(inputs, out)
        failures = spec.check(inputs, out, outcome)
        if failures:
            raise SystemExit(f"{name}: not recorded, checks failed: {failures}")
        target = workloads.EXPECTED / name
        shutil.rmtree(target, ignore_errors=True)
        for output in spec.outputs:
            path = target / f"{output}.xz"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(lzma.compress((out / output).read_bytes(),
                                           preset=9 | lzma.PRESET_EXTREME))
    print(f"recorded {name}: {', '.join(spec.outputs)}")


if __name__ == "__main__":
    for workload in sys.argv[1:] or list(workloads.WORKLOADS):
        record(workload)
