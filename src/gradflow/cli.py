"""Command-line front end: reproducible runs with CSV/JSON outputs.

Exit codes: 0 success, 2 invalid input or solver failure, 3 failed acceptance
check (--check).  A command does all of its work first; `main` then creates
--out, writes every output to a temp file and renames each into place, so a
run that exits 2 before its writes creates no --out, and a failed write
leaves --out as it found it.

A run reads every option it is given: each mesh source, gamma --mode and
family is an entry of `_MESH_SOURCES`, `_GAMMA_MODES` or `experiments.FAMILIES`
naming the options it reads, and `_read_options` refuses any other with exit 2
before any mesh.  `reference.numbers` reads every number an argument or a
--sites or file: CSV carries; `reference.csv_rows` splits CSV lines on commas
or whitespace, skipping blank and '#' lines and a leading all-text header.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile

import numpy as np

from . import diagnostics, experiments, functionals, reference
from .dual_action import ConjugateGradientError
from .dynamics import SCHEMES, build_generator, solve_trajectory
from .experiments import csv_text
from .mesh import (Mesh, build_cartesian_mesh, build_interval_mesh,
                   build_voronoi_mesh, Domain, isotropy_defect, regularity_report)
from .reference import (PointFunction, discretize_reference, face_weights,
                        initial_measure_from_token, potential_from_token)


def _write_outputs(out: str, outputs: dict) -> None:
    """Write each output (a callback write(path), a dict as indented,
    key-sorted JSON, or text) into a temporary directory in out, then
    rename each into place.  A file of the same name is kept there by a
    hard link until every rename is done.  If a write or a rename fails,
    each output renamed into place is removed or its earlier file renamed
    back, and the directories this call created are removed, so a failed
    run leaves out as it found it."""
    made = []   # the directories this call creates, out first
    head = os.path.abspath(out)
    while not os.path.isdir(head):
        made.append(head)
        head = os.path.dirname(head)
    stage, placed = None, []   # placed: (path, its earlier file or None)
    try:
        os.makedirs(out, exist_ok=True)
        stage = tempfile.mkdtemp(dir=out, prefix=".gradflow-")
        os.mkdir(os.path.join(stage, "new"))
        os.mkdir(os.path.join(stage, "old"))
        for name, content in outputs.items():
            new = os.path.join(stage, "new", name)
            if isinstance(content, dict):
                content = json.dumps(content, indent=2, sort_keys=True) + "\n"
            if isinstance(content, str):
                with open(new, "w", encoding="ascii") as fh:
                    fh.write(content)
            else:
                content(new)
        for name in outputs:
            path, old = os.path.join(out, name), None
            if os.path.lexists(path):
                old = os.path.join(stage, "old", name)
                os.link(path, old, follow_symlinks=False)
            os.replace(os.path.join(stage, "new", name), path)
            placed.append((path, old))
    except BaseException:
        for path, old in reversed(placed):
            if old is None:
                os.unlink(path)
            else:
                os.replace(old, path)
        if stage is not None:
            shutil.rmtree(stage)
        for directory in made:
            if os.path.isdir(directory):
                os.rmdir(directory)
        raise
    shutil.rmtree(stage)


def _voronoi_mesh(sites: str | None):
    """The dimension of a CSV file's sites, and the build of their Voronoi
    mesh on the unit interval or square."""
    if not sites:
        raise ValueError("voronoi meshes need --sites FILE")
    rows = reference.csv_rows(sites)
    if not rows:
        raise ValueError(f"no sites found in {sites}")
    points = np.array([reference.numbers(",".join(fields), f"{sites}, line "
                                         f"{number}", len(rows[0][1]))
                       for number, fields in rows])
    domain = (Domain.rectangle(0.0, 0.0, 1.0, 1.0) if points.shape[1] == 2
              else Domain.interval(0.0, 1.0))
    return points.shape[1], lambda: build_voronoi_mesh(points, domain)


def _read_options(args, reads: dict, options, run: str) -> dict:
    """Each option in reads at its given value, else its default; a default
    (X, d) is option X's value, else d, and reads X.  The first option of
    options that is given but not read raises ValueError(run reads no --X)."""
    values, read = {}, set(reads)
    for name, default in reads.items():
        value = getattr(args, name)
        if value is None and isinstance(default, tuple):
            read.add(default[0])
            value, default = getattr(args, default[0]), default[1]
        values[name] = default if value is None else value
    for name in options:
        if name not in read and getattr(args, name) is not None:
            raise ValueError(f"{run} reads no --{name}")
    return values


# mesh sources: --mesh or a --kind -> (source of the options it reads, those
# options with their defaults); a source gives the mesh dimension and a call
# that builds the mesh, which looks its builder up as a global; a mesh file
# is read for its dimension
_MESH_SOURCES = {
    "--mesh": (lambda mesh: ((read := Mesh.read(mesh)).dim, lambda: read), {"mesh": None}),
    "uniform1d": (lambda n: (1, lambda: build_interval_mesh(n)), {"n": 16}),
    "cartesian": (lambda nx, ny: (2, lambda: build_cartesian_mesh(nx, ny)),
                  {"nx": ("n", 16), "ny": ("n", 16)}),
    "voronoi": (_voronoi_mesh, {"sites": None}),
}


def _mesh_from_args(args):
    """The mesh of the source args name and the --potential on it, which is
    read before the mesh is built."""
    by_file = args.mesh is not None
    source = "--mesh" if by_file else args.kind
    if source is None:
        raise ValueError("specify --mesh FILE or --kind with its parameters")
    source_of, reads = _MESH_SOURCES[source]
    dim, build = source_of(**_read_options(
        args, reads, ("kind",) * by_file + ("n", "nx", "ny", "sites"),
        f"{args.command} {source if by_file else '--kind ' + source}"))
    potential = potential_from_token(args.potential, dim)
    return build(), potential


def cmd_mesh(args) -> tuple[int, dict]:
    mesh, potential = _mesh_from_args(args)
    report = regularity_report(mesh)
    if args.zeta_min is not None and report.zeta < args.zeta_min:
        # quality shortfall is reported, never a construction error
        print(f"warning: zeta = {report.zeta:.6g} below the requested "
              f"threshold {args.zeta_min:.6g}", file=sys.stderr)
    weights = face_weights(mesh, potential, args.mean)
    defects = isotropy_defect(mesh, weights, weights.pi)
    print(f"mesh: {mesh.n_cells} cells, {mesh.n_faces} faces, "
          f"zeta={report.zeta:.6g}, [T]={report.mesh_size:.6g}")
    return 0, {
        "mesh.txt": mesh.write,
        "regularity.csv": csv_text("zeta_inner,zeta_area,zeta,mesh_size,cells,faces",
                                   (report.zeta_inner, report.zeta_area, report.zeta,
                                    report.mesh_size, mesh.n_cells, mesh.n_faces)),
        "isotropy.csv": csv_text("cell,isotropy_defect", *enumerate(defects)),
        "summary.json": {"command": "mesh", "cells": mesh.n_cells, "faces": mesh.n_faces,
                         "zeta": report.zeta, "mesh_size": report.mesh_size,
                         "sup_isotropy_defect": float(defects.max())}}


def cmd_solve(args) -> tuple[int, dict]:
    mesh, potential = _mesh_from_args(args)
    generator = build_generator(mesh, potential, args.mean)
    m0 = initial_measure_from_token(args.m0, mesh, generator.pi)
    trajectory = solve_trajectory(m0, args.T, args.M, generator,
                                  scheme=args.scheme)
    print(f"solve: {trajectory.scheme}, {args.M} steps to T={args.T}")
    return 0, {"trajectory.csv": trajectory.export_csv,
               "summary.json": {"command": "solve", "scheme": trajectory.scheme,
                                "T": args.T, "steps": args.M,
                                "cells": mesh.n_cells}}


def cmd_edi(args) -> tuple[int, dict]:
    experiments.check_edi_steps(args.M)
    mesh, potential = _mesh_from_args(args)
    generator = build_generator(mesh, potential, args.mean)
    m0 = initial_measure_from_token(args.m0, mesh, generator.pi)
    audit = experiments.edi_audit(generator, m0, args.T, args.M)
    tol = max(abs(audit.control_residual - audit.residual) / 7.5,
              64.0 * np.finfo(float).eps * max(audit.entropy_start, 1.0))
    passed = (audit.residual >= -tol) and (abs(audit.residual) <= tol)
    print(f"edi: residual={audit.residual:.3e} (tol {tol:.3e}) "
          f"H0={audit.entropy_start:.6g}")
    return 3 if args.check and not passed else 0, {
        "edi.csv": csv_text("H0,HT,action_integral,fisher_integral,residual,tol",
                            (audit.entropy_start, audit.entropy_end,
                             audit.action_integral, audit.fisher_integral,
                             audit.residual, tol)),
        "summary.json": {"command": "edi", **audit.summary(), "tol": tol,
                         "pass": bool(passed)}}


def _phi_from_token(token: str, dim: int):
    """Test function phi and its gradient, both over (N, d) points."""
    name, _, arg = token.partition(":")
    if name == "coordinate":
        axis = reference.numbers(arg or "0", "coordinate axis", 1, int)[0]
        if not 0 <= axis < dim:
            raise ValueError(f"coordinate axis must lie in 0..{dim - 1} for "
                             f"a {dim}d family, got {axis}")
        e = np.eye(dim)[axis]
        return (PointFunction(lambda p: p[:, axis]),
                PointFunction(lambda p: np.broadcast_to(e, p.shape)))
    if name == "cosine":
        k = reference.numbers(arg or "1", "cosine frequency", 1)[0] * math.pi

        def grad(p):
            g = np.zeros(p.shape)
            g[:, 0] = -k * np.sin(k * p[:, 0])
            return g

        return PointFunction(lambda p: np.cos(k * p[:, 0])), PointFunction(grad)
    raise ValueError(f"unknown test function {token!r}")


def _energy_study(family, potential: str, phi: str):
    potential = potential_from_token(potential, family.dim)
    phi, grad = _phi_from_token(phi, family.dim)
    return experiments.gamma_energy_study(family, phi, potential, grad=grad)


def _affine_study(family, z, xi, eps: float):
    dim = family.dim
    z = (reference.numbers(z, f"--z for a {dim}d family", dim) if z
         else [0.5] * dim)
    xi = (reference.numbers(xi, f"--xi for a {dim}d family", dim) if xi
          else [1.0] * dim)
    return experiments.gamma_affine_minimization_study(family, z, xi, eps)


# gamma's modes: name -> (study of the family and the options the mode reads,
# --check rule, those options with their defaults); the others are refused
_GAMMA_MODES = {
    "energy": (_energy_study,
               lambda study: bool(np.all(np.diff(study.column("error")) < 0.0)),
               {"potential": "zero", "phi": "cosine"}),
    "affine": (_affine_study,
               lambda study: all(r.error <= r.extras["boundary_layer"] + 1e-12
                                 and r.extras["harmonicity_residual"] <= 1e-11
                                 for r in study.rows),
               {"z": None, "xi": None, "eps": 0.5}),
}


def cmd_gamma(args) -> tuple[int, dict]:
    study_of, check, reads = _GAMMA_MODES[args.mode]
    family = args.family.partition(":")[0]
    family_reads = experiments.FAMILIES.get(family, (None, ()))[1]
    options = _read_options(
        args, {**reads, **dict.fromkeys(family_reads)},
        [name for table in (_GAMMA_MODES, experiments.FAMILIES)
         for *_, names in table.values() for name in names],
        f"gamma --mode {args.mode} on a {family} family")
    family = experiments.family_from_token(   # builds no mesh
        args.family, **{name: options.pop(name) for name in family_reads})
    study = study_of(family, **options)
    checks = check(study)
    print(f"gamma[{args.mode}]: {len(study.rows)} rows, "
          f"final error {study.rows[-1].error:.3e}")
    return 3 if args.check and not checks else 0, {
        "gamma.csv": study.to_csv,
        "summary.json": {"command": "gamma", **study.summary(), "pass": bool(checks)}}


def cmd_converge(args) -> tuple[int, dict]:
    family = experiments.family_from_token(args.family)
    potential = potential_from_token(args.potential, family.dim)
    study = experiments.evolutionary_convergence_study(
        family, potential, args.rho0, args.T, mean_kind=args.mean)
    errors = study.column("error")
    orders = study.column("order")[1:]
    passed = bool(np.all(np.diff(errors) < 0.0) and np.all(orders >= 1.0))
    print(f"converge: final sup error {study.rows[-1].error:.3e}, "
          f"orders {np.array2string(orders, precision=2)}")
    return 3 if args.check and not passed else 0, {
        "converge.csv": study.to_csv,
        "summary.json": {"command": "converge", **study.summary(), "pass": passed}}


def cmd_diagnose(args) -> tuple[int, dict]:
    mesh, potential = _mesh_from_args(args)
    pi = discretize_reference(mesh, potential)
    # the degree-5 rule: the degree-1 default misses unit mass by more than
    # 1e-8 on jittered Voronoi cells
    m0 = initial_measure_from_token(args.m0, mesh, pi,
                                    quad_order=3 if mesh.dim == 2 else None)
    report = diagnostics.condition_report(
        mesh, m0, pi,
        cube_centers=[mesh.sites[0]],
        eps_list=[0.2, 0.1, 0.05])
    constants = diagnostics.path_constants(mesh)
    hol = diagnostics.l2_holder_modulus(
        mesh, np.asarray(m0.masses) / pi.masses,
        np.full(mesh.dim, 0.5 * mesh.size()), m0, pi, kind=args.mean)
    print(f"diagnose: k in [{report.k_lower:.4g}, {report.k_upper:.4g}], "
          f"osc={report.neighbour_osc:.4g}, paths ({constants.c_count:.3g}, "
          f"{constants.c_length:.3g})")
    return 0, {
        "condition.csv": report.to_csv,
        "paths.csv": csv_text("c_count,c_length,pairs", (
            constants.c_count, constants.c_length, constants.n_pairs)),
        "holder.csv": csv_text("value,bound,ratio", (hol.value, hol.bound, hol.ratio)),
        "summary.json": {"command": "diagnose", "k_lower": report.k_lower,
                         "k_upper": report.k_upper, "neighbour_osc": report.neighbour_osc,
                         "c_count": constants.c_count, "c_length": constants.c_length,
                         "holder_ratio": hol.ratio}}


def _add_mesh_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mesh", help="mesh file to load")
    p.add_argument("--kind",
                   choices=[s for s in _MESH_SOURCES if s != "--mesh"])
    p.add_argument("--n", type=_positive("n", int))
    p.add_argument("--nx", type=_positive("nx", int))
    p.add_argument("--ny", type=_positive("ny", int))
    p.add_argument("--sites", help="CSV of site coordinates (voronoi)")


def _add_common(p: argparse.ArgumentParser, means=reference.S_MEAN_KINDS,
                check: bool = False) -> None:
    """--potential and --out, plus the shared options the command reads."""
    p.add_argument("--potential", default="zero")
    p.add_argument("--out", default="gradflow-out")
    if means:
        p.add_argument("--mean", default="logarithmic", choices=means)
    if check:
        p.add_argument("--check", action="store_true",
                       help="exit 3 when the acceptance rule fails")


def _positive(option: str, cast=float):
    """An argparse type: one positive value by reference.numbers."""

    def parse(text: str):
        try:
            return reference.numbers(text, option, 1, cast, positive=True)[0]
        except ValueError as exc:
            cast(text)      # on text cast refuses, argparse names cast
            raise argparse.ArgumentTypeError(str(exc)) from None

    parse.__name__ = cast.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gradflow")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="build a mesh and report its quality")
    _add_mesh_options(p)
    _add_common(p)
    p.add_argument("--zeta-min", dest="zeta_min", type=_positive("zeta-min"),
                   help="warn (never fail) when the measured zeta drops below")
    p.set_defaults(fn=cmd_mesh)

    p = sub.add_parser("solve", help="integrate the flow, export trajectory")
    _add_mesh_options(p)
    _add_common(p)
    p.add_argument("--m0", default="stationary")
    p.add_argument("--T", type=_positive("T"), default=0.5)
    p.add_argument("--M", type=_positive("M", int), default=256)
    p.add_argument("--scheme", default="auto", choices=["auto", *SCHEMES])
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("edi", help="audit the entropy balance")
    _add_mesh_options(p)
    _add_common(p, check=True)
    p.add_argument("--m0", default="blend:cosine:0.9")
    p.add_argument("--T", type=_positive("T"), default=0.5)
    p.add_argument("--M", type=int, default=256)
    p.set_defaults(fn=cmd_edi)

    p = sub.add_parser("gamma", help="energy or affine minimization study")
    _add_common(p, means=(), check=True)
    p.add_argument("--family", default="uniform1d:16..256")
    p.add_argument("--mode", default="energy", choices=list(_GAMMA_MODES))
    p.add_argument("--seed", type=int)
    p.add_argument("--phi")
    p.add_argument("--z")
    p.add_argument("--xi")
    p.add_argument("--eps", type=_positive("eps"))
    p.set_defaults(fn=cmd_gamma, potential=None)

    p = sub.add_parser("converge", help="evolutionary convergence study")
    _add_common(p, check=True)
    p.add_argument("--family", default="uniform1d:16..256")
    p.add_argument("--rho0", default="cosine")
    p.add_argument("--T", type=_positive("T"), default=0.1)
    p.set_defaults(fn=cmd_converge)

    p = sub.add_parser("diagnose", help="condition, path, and Holder reports")
    _add_mesh_options(p)
    _add_common(p, means=functionals.KERNEL_KINDS)
    p.add_argument("--m0", default="blend:cosine:0.9")
    p.set_defaults(fn=cmd_diagnose)

    return parser


_PARSER = build_parser()    # one per process: a parser is a web of reference cycles


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code, outputs = args.fn(args)
        _write_outputs(args.out, outputs)
        return code
    except (ValueError, ConjugateGradientError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
