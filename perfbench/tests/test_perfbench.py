"""The benchmark's own determinism checks.

    python3 -m pytest perfbench/tests -q

Runs every workload's body three times (once untraced, twice traced) on
DEFAULT_SEED and the voronoi body on a second seed: about 70 s on a
2-core x86 machine.
"""
from __future__ import annotations

import json
import lzma
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import gradflow  # noqa: E402
import workloads  # noqa: E402
from tracer import METRICS, Tracer  # noqa: E402

COUNT_METRICS = [name for name, (kind, _) in METRICS.items()
                 if kind in ("count", "spans")]


def _files(out: Path) -> dict[str, bytes]:
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _run(name: str, inputs: dict, out: Path, tracer: Tracer | None = None):
    """One run of the body and its checks; the layer metrics when traced."""
    out.mkdir(parents=True)
    if tracer is None:
        outcome = workloads.WORKLOADS[name].body(inputs, out)
        metrics = None
    else:
        tracer.start_run(0)
        with tracer:
            outcome = workloads.WORKLOADS[name].body(inputs, out)
        metrics = tracer.layer_metrics()
    failures = workloads.check(name, inputs, out, outcome, {})
    assert failures == [], failures
    return metrics


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def three_runs(request, tmp_path_factory):
    name = request.param
    tmp = tmp_path_factory.mktemp(name)
    inputs = workloads.WORKLOADS[name].prepare(workloads.DEFAULT_SEED, tmp)
    _run(name, inputs, tmp / "plain")
    first = _run(name, inputs, tmp / "traced1", Tracer())
    second = _run(name, inputs, tmp / "traced2", Tracer())
    return name, tmp, first, second


def test_traced_counts_repeat_exactly(three_runs):
    name, _, first, second = three_runs
    assert {m: first[m] for m in COUNT_METRICS} == \
        {m: second[m] for m in COUNT_METRICS}
    assert first["mesh.builds"] >= 1


def test_tracing_changes_no_output_byte(three_runs):
    _, tmp, _, _ = three_runs
    plain = _files(tmp / "plain")
    assert plain and plain == _files(tmp / "traced1")


def test_tracer_restores_every_binding():
    def bindings():
        return {(name, key): id(value) for name, module in sys.modules.items()
                if name == "gradflow" or name.startswith("gradflow.")
                for key, value in vars(module).items()}

    before = bindings()
    original, size = gradflow.reference.face_weights, gradflow.Mesh.size
    with Tracer():
        # also installed where cli did `from .reference import face_weights`
        assert gradflow.cli.face_weights is gradflow.reference.face_weights
        assert gradflow.cli.face_weights.__wrapped__ is original
        assert gradflow.Mesh.size is not size
    assert bindings() == before
    assert gradflow.Mesh.size is size


def test_second_seed_moves_the_sites_and_passes(tmp_path):
    seed = workloads.DEFAULT_SEED + 1
    for count in (workloads.MESH_SITES, workloads.DIAGNOSE_SITES):
        assert not np.array_equal(workloads.jittered_sites(count, seed),
                                  workloads.jittered_sites(count, workloads.DEFAULT_SEED))
    inputs = workloads.WORKLOADS["voronoi"].prepare(seed, tmp_path)
    _run("voronoi", inputs, tmp_path / "out")


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == \
        [*METRICS, "trace.overhead_s"]


def test_recording_comparison_tolerates_only_roundoff(tmp_path):
    recorded = lzma.decompress(
        (workloads.EXPECTED / "edi-2d" / "edi.csv.xz").read_bytes()).decode()
    header, row = recorded.splitlines()
    values = [float(v) for v in row.split(",")]

    def compare(first: float) -> list[str]:
        (tmp_path / "summary.json").write_bytes(lzma.decompress(
            (workloads.EXPECTED / "edi-2d" / "summary.json.xz").read_bytes()))
        (tmp_path / "edi.csv").write_text(
            header + "\n" + ",".join(repr(v) for v in [first, *values[1:]]) + "\n")
        return workloads.compare_with_expected("edi-2d", tmp_path, {})

    assert compare(values[0]) == []
    assert compare(values[0] * (1 + 4e-16)) == []
    assert len(compare(values[0] * (1 + 1e-12))) == 1
