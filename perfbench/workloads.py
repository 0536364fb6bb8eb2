"""The four benchmark workloads: inputs, warm-up, timed body and output checks.

Each workload runs gradflow in-process, through `gradflow.cli.main` or the
library, and writes its output files into a fresh directory.  The checks
read those files back: invariants on every run, and a comparison with the
outputs recorded under `expected/` where the inputs are the recorded ones
(always for the fixed-input workloads, on DEFAULT_SEED for `voronoi`).
A recorded file matches when it is byte-identical or, where only the
summation order changed, every number agrees to RTOL relative.

Site jitter is the only input drawn from the seed.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import lzma
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# Module attributes, not `from` imports, so the tracer's wrappers are seen.
from gradflow import cli, diagnostics, dynamics, mesh as meshes, reference
from gradflow.mesh import Domain, Mesh

DEFAULT_SEED = 42
EXPECTED = Path(__file__).resolve().parent / "expected"
RTOL = 1e-14
JITTER = 0.35
MESH_SITES = 196
DIAGNOSE_SITES = 100

FLOW_ARGS = ["solve", "--kind", "cartesian", "--n", "96",
             "--potential", "quadratic", "--m0", "projected:cosine",
             "--T", "0.1", "--M", "32", "--scheme", "implicit_euler"]
FLOW_CELLS = 96 * 96
FLOW_NODES = 33
EDI_ARGS = ["edi", "--kind", "cartesian", "--n", "20", "--M", "256", "--check"]
STUDY_ARGS = ["converge", "--family", "uniform1d:16..256",
              "--potential", "quadratic", "--rho0", "cosine", "--T", "0.1",
              "--check"]


@dataclass
class Outcome:
    """What a timed body leaves for its checks besides the files it wrote."""

    exit_codes: list[int]
    cli_dirs: list[Path]            # directories gradflow's CLI wrote into
    meshes: tuple[Mesh, ...] = ()   # meshes built in-process, to validate


@dataclass(frozen=True)
class Workload:
    fixed_inputs: bool
    outputs: tuple[str, ...]        # files compared with expected/<name>/
    prepare: Callable[[int, Path], dict]
    warm_up: Callable[[dict], None]
    body: Callable[[dict, Path], Outcome]
    check: Callable[[dict, Path, Outcome], list[str]]


# -- inputs ----------------------------------------------------------------------


def jittered_sites(count: int, seed: int) -> np.ndarray:
    """Sites on a g x g grid (g^2 = count), each moved by up to JITTER/2 cells."""
    g = math.isqrt(count)
    if g * g != count:
        raise ValueError("site count must be a square")
    rng = np.random.default_rng([seed, g])
    ii, jj = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
    base = np.column_stack([(ii.ravel() + 0.5) / g, (jj.ravel() + 0.5) / g])
    return base + (rng.random((count, 2)) - 0.5) * (JITTER / g)


def _no_inputs(seed: int, workdir: Path) -> dict:
    return {}


def _voronoi_inputs(seed: int, workdir: Path) -> dict:
    sites_csv = workdir / "sites.csv"
    mesh_sites = jittered_sites(MESH_SITES, seed)
    sites_csv.write_text("x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n"
                                           for x, y in mesh_sites),
                         encoding="ascii")
    return {"seed": seed, "sites_csv": sites_csv,
            "diagnose_sites": jittered_sites(DIAGNOSE_SITES, seed)}


# -- warm-up at each workload's own size -------------------------------------------
# The first call into a LAPACK or SuperLU routine can cost far more than the
# next (0.88 s against 0.026 s for a 400 x 400 eigh in a fresh process on a
# 2-core x86 VM), and a smaller problem does not absorb it.  These calls exercise the same library
# routines at the sizes the body uses, so that cost lands in setup_s.


def _symmetric(n: int) -> np.ndarray:
    a = np.random.default_rng(n).random((n, n))
    return a + a.T


def _warm_sparse_solve(n: int) -> None:
    side = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    lap = sp.kron(eye, side) + sp.kron(side, eye)
    system = (sp.identity(n * n, format="csc") + 1e-3 * lap).tocsc()
    spla.spsolve(system, np.ones(n * n))


def _warm_flow(inputs: dict) -> None:
    _warm_sparse_solve(96)


def _warm_edi(inputs: dict) -> None:
    np.linalg.eigh(_symmetric(400))


def _warm_voronoi(inputs: dict) -> None:
    """Nothing to warm: the body is pure-Python geometry on small arrays."""


def _warm_study(inputs: dict) -> None:
    for n in (16, 32, 64, 128, 256, 512, 1024):
        np.linalg.eigh(_symmetric(n))


# -- timed bodies ------------------------------------------------------------------


def _cli(argv: list[str], out: Path) -> int:
    out.mkdir(parents=True, exist_ok=True)
    return cli.main([*argv, "--out", str(out)])


def _flow_body(inputs: dict, out: Path) -> Outcome:
    return Outcome([_cli(FLOW_ARGS, out)], [out])


def _edi_body(inputs: dict, out: Path) -> Outcome:
    return Outcome([_cli(EDI_ARGS, out)], [out])


def _study_body(inputs: dict, out: Path) -> Outcome:
    return Outcome([_cli(STUDY_ARGS, out)], [out])


def _voronoi_body(inputs: dict, out: Path) -> Outcome:
    # the `gradflow mesh` path: build, regularity, isotropy, mesh.txt
    code = _cli(["mesh", "--kind", "voronoi",
                 "--sites", str(inputs["sites_csv"])], out / "mesh")
    # the `gradflow diagnose` path through the library, with the initial
    # blend projected at quad_order=3 (the CLI has no --quad-order flag)
    mesh = meshes.build_voronoi_mesh(inputs["diagnose_sites"],
                                     Domain.rectangle(0.0, 0.0, 1.0, 1.0))
    potential = reference.potential_from_token("zero", 2)
    pi = reference.discretize_reference(mesh, potential)
    weights = reference.face_weights(mesh, potential)
    dynamics.assemble_generator(mesh, weights, pi)
    m0 = reference.initial_measure_from_token("blend:cosine:0.9", mesh, pi,
                                              quad_order=3)
    report = diagnostics.condition_report(mesh, m0, pi,
                                          cube_centers=[mesh.sites[0]],
                                          eps_list=[0.2, 0.1, 0.05])
    constants = diagnostics.path_constants(mesh)
    hol = diagnostics.l2_holder_modulus(
        mesh, np.asarray(m0.masses) / pi.masses,
        np.full(mesh.dim, 0.5 * mesh.size()), m0, pi)
    diag = out / "diagnose"
    diag.mkdir(parents=True, exist_ok=True)
    report.to_csv(diag / "condition.csv")
    (diag / "paths.csv").write_text(
        "c_count,c_length,pairs\n"
        f"{constants.c_count!r},{constants.c_length!r},{constants.n_pairs}\n",
        encoding="ascii")
    (diag / "holder.csv").write_text(
        f"value,bound,ratio\n{hol.value!r},{hol.bound!r},{hol.ratio!r}\n",
        encoding="ascii")
    return Outcome([code], [out / "mesh"], (mesh,))


# -- checks ------------------------------------------------------------------------


def _csv_row(path: Path, header: str) -> np.ndarray:
    lines = path.read_text(encoding="ascii").splitlines()
    if len(lines) != 2 or lines[0] != header:
        raise ValueError(f"{path.name}: expected '{header}' and one row")
    return np.array([float(v) for v in lines[1].split(",")])


def _summary(path: Path) -> dict:
    return json.loads(path.read_text(encoding="ascii"))


def _check_exit(outcome: Outcome) -> list[str]:
    return [f"exit code {c}" for c in outcome.exit_codes if c != 0]


def _flow_check(inputs: dict, out: Path, outcome: Outcome) -> list[str]:
    # one node at a time, so the check does not raise the peak RSS of the run
    failures = _check_exit(outcome)
    times = np.linspace(0.0, 0.1, FLOW_NODES)
    cells = np.arange(FLOW_CELLS)
    with open(out / "trajectory.csv", encoding="ascii") as fh:
        if fh.readline() != "t,cell,mass\n":
            return failures + ["trajectory.csv has the wrong header"]
        for t in times:
            rows = "".join(itertools.islice(fh, FLOW_CELLS)).replace("\n", ",")
            node = np.fromstring(rows, sep=",") if rows else np.zeros(0)
            if node.size != 3 * FLOW_CELLS:
                return failures + ["trajectory.csv has too few rows"]
            node = node.reshape(FLOW_CELLS, 3)
            if not (np.all(node[:, 0] == t) and np.array_equal(node[:, 1], cells)):
                return failures + [f"trajectory.csv node t={float(t)!r}: wrong time "
                                   "or cell column"]
            if not np.all(node[:, 2] >= 0.0):
                failures.append(f"negative mass at t={float(t)!r}")
            if abs(float(node[:, 2].sum()) - 1.0) > 1e-12:
                failures.append(f"mass at t={float(t)!r} is not 1 within 1e-12")
        if fh.read(1):
            failures.append("trajectory.csv has too many rows")
    if _summary(out / "summary.json").get("steps") != 32:
        failures.append("summary.json does not report 32 steps")
    return failures


def _passed_check(inputs: dict, out: Path, outcome: Outcome) -> list[str]:
    failures = _check_exit(outcome)
    if _summary(out / "summary.json").get("pass") is not True:
        failures.append("summary.json does not report pass")
    return failures


def _edi_check(inputs: dict, out: Path, outcome: Outcome) -> list[str]:
    failures = _passed_check(inputs, out, outcome)
    row = _csv_row(out / "edi.csv", "H0,HT,action_integral,fisher_integral,"
                                    "residual,tol")
    if not np.all(np.isfinite(row)):
        failures.append("edi.csv has a non-finite value")
    return failures


def _study_check(inputs: dict, out: Path, outcome: Outcome) -> list[str]:
    failures = _passed_check(inputs, out, outcome)
    if len(_summary(out / "summary.json").get("rows", [])) != 5:
        failures.append("converge summary does not have 5 rows")
    return failures


def _voronoi_check(inputs: dict, out: Path, outcome: Outcome) -> list[str]:
    failures = _check_exit(outcome)
    meshes = [Mesh.read(out / "mesh" / "mesh.txt"), *outcome.meshes]
    for mesh, cells in zip(meshes, (MESH_SITES, DIAGNOSE_SITES)):
        mesh.validate()
        if mesh.n_cells != cells:
            failures.append(f"mesh has {mesh.n_cells} cells, expected {cells}")
    regularity = _csv_row(out / "mesh" / "regularity.csv",
                          "zeta_inner,zeta_area,zeta,mesh_size,cells,faces")
    paths = _csv_row(out / "diagnose" / "paths.csv", "c_count,c_length,pairs")
    holder = _csv_row(out / "diagnose" / "holder.csv", "value,bound,ratio")
    for name, values in (("regularity", regularity), ("c_count", paths[:1]),
                         ("c_length", paths[1:2]), ("holder ratio", holder[2:])):
        if not np.all(np.isfinite(values)):
            failures.append(f"{name} is not finite")
    if paths[2] != DIAGNOSE_SITES * (DIAGNOSE_SITES - 1) // 2:
        failures.append(f"path constants over {paths[2]} pairs")
    return failures


# -- comparison with the recorded outputs ----------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _digest(fh) -> bytes:
    return hashlib.file_digest(fh, "sha256").digest()


def _compare_numbers(actual: Path, recorded: Path) -> int | str:
    """Numbers further than RTOL apart, or where the layouts differ.

    Streams both files line by line, so a comparison does not raise the peak
    RSS of the run.
    """
    bad = 0
    with open(actual, encoding="ascii") as got_fh, \
            lzma.open(recorded, "rt", encoding="ascii") as want_fh:
        for number, (got, want) in enumerate(
                itertools.zip_longest(got_fh, want_fh), start=1):
            if got == want:
                continue
            if got is None or want is None:
                return "a different number of lines"
            if _NUMBER.split(got) != _NUMBER.split(want):
                return f"a different layout at line {number}"
            for a, b in zip(map(float, _NUMBER.findall(got)),
                            map(float, _NUMBER.findall(want))):
                if not (a == b or (math.isnan(a) and math.isnan(b))
                        or abs(a - b) <= RTOL * max(abs(a), abs(b))):
                    bad += 1
    return bad


def compare_with_expected(workload: str, out: Path,
                          accepted: dict[str, set]) -> list[str]:
    """Compare each output with its recording under expected/.

    `accepted` maps each output to the digests already found to match, the
    recording's first, so that identical outputs are compared once.
    """
    failures = []
    for name in WORKLOADS[workload].outputs:
        recorded = EXPECTED / workload / f"{name}.xz"
        known = accepted.setdefault(name, set())
        if not known:
            with lzma.open(recorded) as fh:
                known.add(_digest(fh))
        with open(out / name, "rb") as fh:
            digest = _digest(fh)
        if digest in known:
            continue
        verdict = _compare_numbers(out / name, recorded)
        if verdict == 0:
            known.add(digest)
        elif isinstance(verdict, str):
            failures.append(f"{name} differs from its recording: {verdict}")
        else:
            failures.append(f"{name}: {verdict} numbers differ from their "
                            f"recording by more than {RTOL} relative")
    return failures


WORKLOADS = {
    "flow-2d": Workload(True, ("trajectory.csv", "summary.json"),
                        _no_inputs, _warm_flow, _flow_body, _flow_check),
    "edi-2d": Workload(True, ("edi.csv", "summary.json"),
                       _no_inputs, _warm_edi, _edi_body, _edi_check),
    "voronoi": Workload(False,
                        ("mesh/mesh.txt", "mesh/regularity.csv",
                         "mesh/isotropy.csv", "mesh/summary.json",
                         "diagnose/condition.csv", "diagnose/paths.csv",
                         "diagnose/holder.csv"),
                        _voronoi_inputs, _warm_voronoi, _voronoi_body,
                        _voronoi_check),
    "study-1d": Workload(True, ("converge.csv", "summary.json"),
                         _no_inputs, _warm_study, _study_body, _study_check),
}


def check(workload: str, inputs: dict, out: Path, outcome: Outcome,
          accepted: dict[str, set]) -> list[str]:
    """Every failed check of one run of the workload's body."""
    spec = WORKLOADS[workload]
    failures = spec.check(inputs, out, outcome)
    if spec.fixed_inputs or inputs.get("seed") == DEFAULT_SEED:
        failures += compare_with_expected(workload, out, accepted)
    return failures
