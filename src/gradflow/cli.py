"""Command-line front end: reproducible runs with CSV/JSON outputs.

Exit codes: 0 success, 2 invalid input or solver failure, 3 failed acceptance
check (--check).  A command does all of its work first; `main` then creates
--out, writes every output to a temp file and renames each into place, so a
run that exits 2 before its writes creates no --out, and a failed write
leaves --out as it found it.
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


def _csv(header: str, *rows) -> str:
    """CSV text: Python ints as they are, every other value repr(float(v))."""
    return header + "\n" + "".join(
        ",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row)
        + "\n" for row in rows)


def _load_sites(path: str) -> np.ndarray:
    rows = []
    with open(path, encoding="ascii") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#") or line.startswith("x"):
                continue
            rows.append([float(v) for v in line.replace(",", " ").split()])
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{path}, line {number}: {len(rows[-1])} "
                                 f"values, expected {len(rows[0])} per site")
    if not rows:
        raise ValueError(f"no sites found in {path}")
    return np.asarray(rows, dtype=float)


def _mesh_from_args(args) -> Mesh:
    if getattr(args, "mesh", None):
        return Mesh.read(args.mesh)
    kind = getattr(args, "kind", None)
    if kind == "uniform1d":
        return build_interval_mesh(args.n)
    if kind == "cartesian":
        return build_cartesian_mesh(args.nx or args.n, args.ny or args.n)
    if kind == "voronoi":
        if not args.sites:
            raise ValueError("voronoi meshes need --sites FILE")
        sites = _load_sites(args.sites)
        domain = (Domain.rectangle(0.0, 0.0, 1.0, 1.0) if sites.ndim == 2
                  and sites.shape[1] == 2 else Domain.interval(0.0, 1.0))
        return build_voronoi_mesh(sites, domain)
    raise ValueError("specify --mesh FILE or --kind with its parameters")


def cmd_mesh(args) -> tuple[int, dict]:
    mesh = _mesh_from_args(args)
    report = regularity_report(mesh)
    if args.zeta_min is not None and report.zeta < args.zeta_min:
        # quality shortfall is reported, never a construction error
        print(f"warning: zeta = {report.zeta:.6g} below the requested "
              f"threshold {args.zeta_min:.6g}", file=sys.stderr)
    potential = potential_from_token(args.potential, mesh.dim)
    weights = face_weights(mesh, potential, args.mean)
    defects = isotropy_defect(mesh, weights, weights.pi)
    print(f"mesh: {mesh.n_cells} cells, {mesh.n_faces} faces, "
          f"zeta={report.zeta:.6g}, [T]={report.mesh_size:.6g}")
    return 0, {
        "mesh.txt": mesh.write,
        "regularity.csv": _csv("zeta_inner,zeta_area,zeta,mesh_size,cells,faces",
                               (report.zeta_inner, report.zeta_area, report.zeta,
                                report.mesh_size, mesh.n_cells, mesh.n_faces)),
        "isotropy.csv": _csv("cell,isotropy_defect", *enumerate(defects)),
        "summary.json": {"command": "mesh", "cells": mesh.n_cells, "faces": mesh.n_faces,
                         "zeta": report.zeta, "mesh_size": report.mesh_size,
                         "sup_isotropy_defect": float(defects.max())}}


def cmd_solve(args) -> tuple[int, dict]:
    mesh = _mesh_from_args(args)
    generator = build_generator(
        mesh, potential_from_token(args.potential, mesh.dim), args.mean)
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
    mesh = _mesh_from_args(args)
    generator = build_generator(
        mesh, potential_from_token(args.potential, mesh.dim), args.mean)
    m0 = initial_measure_from_token(args.m0, mesh, generator.pi)
    audit = experiments.edi_audit(generator, m0, args.T, args.M)
    tol = max(abs(audit.control_residual - audit.residual) / 7.5,
              64.0 * np.finfo(float).eps * max(audit.entropy_start, 1.0))
    passed = (audit.residual >= -tol) and (abs(audit.residual) <= tol)
    print(f"edi: residual={audit.residual:.3e} (tol {tol:.3e}) "
          f"H0={audit.entropy_start:.6g}")
    return 3 if args.check and not passed else 0, {
        "edi.csv": _csv("H0,HT,action_integral,fisher_integral,residual,tol",
                        (audit.entropy_start, audit.entropy_end,
                         audit.action_integral, audit.fisher_integral,
                         audit.residual, tol)),
        "summary.json": {"command": "edi", **audit.summary(), "tol": tol,
                         "pass": bool(passed)}}


def _phi_from_token(token: str, dim: int):
    """Test function phi and its gradient, both over (N, d) points."""
    name, _, arg = token.partition(":")
    if name == "coordinate":
        axis = int(arg) if arg else 0
        if not 0 <= axis < dim:
            raise ValueError(f"coordinate axis must lie in 0..{dim - 1} for "
                             f"a {dim}d family, got {axis}")
        e = np.eye(dim)[axis]
        return (PointFunction(lambda p: p[:, axis]),
                PointFunction(lambda p: np.broadcast_to(e, p.shape)))
    if name == "cosine":
        k = (float(arg) if arg else 1.0) * math.pi

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
    z = [float(v) for v in z.split(",")] if z else [0.5] * dim
    xi = [float(v) for v in xi.split(",")] if xi else [1.0] * dim
    if len(z) != dim or len(xi) != dim:
        raise ValueError(f"--z and --xi need {dim} values each for a "
                         f"{dim}d family")
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
    family = experiments.family_from_token(   # builds no mesh
        args.family, seed=42 if args.seed is None else args.seed)
    study_of, check, reads = _GAMMA_MODES[args.mode]
    unread = [name for *_, options in _GAMMA_MODES.values() for name in options
              if name not in reads] + ["seed"] * (family.name != "voronoi")
    given = [name for name in unread if getattr(args, name) is not None]
    if given:
        raise ValueError(f"gamma --mode {args.mode} on a {family.name} "
                         f"family reads no --{given[0]}")
    study = study_of(family, **{
        name: default if getattr(args, name) is None else getattr(args, name)
        for name, default in reads.items()})
    checks = check(study)
    print(f"gamma[{args.mode}]: {len(study.rows)} rows, "
          f"final error {study.rows[-1].error:.3e}")
    return 3 if args.check and not checks else 0, {
        "gamma.csv": study.to_csv,
        "summary.json": {"command": "gamma", **study.summary(), "pass": bool(checks)}}


def cmd_converge(args) -> tuple[int, dict]:
    family = experiments.family_from_token(args.family)
    dim = family.dim
    potential = potential_from_token(args.potential, dim)
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
    mesh = _mesh_from_args(args)
    pi = discretize_reference(mesh,
                              potential_from_token(args.potential, mesh.dim))
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
        "paths.csv": _csv("c_count,c_length,pairs", (
            constants.c_count, constants.c_length, constants.n_pairs)),
        "holder.csv": _csv("value,bound,ratio", (hol.value, hol.bound, hol.ratio)),
        "summary.json": {"command": "diagnose", "k_lower": report.k_lower,
                         "k_upper": report.k_upper, "neighbour_osc": report.neighbour_osc,
                         "c_count": constants.c_count, "c_length": constants.c_length,
                         "holder_ratio": hol.ratio}}


def _add_mesh_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mesh", help="mesh file to load")
    p.add_argument("--kind", choices=["uniform1d", "cartesian", "voronoi"])
    p.add_argument("--n", type=_positive("n", int), default=16)
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
    """An argparse type: `option` parsed by cast (float or int), finite and
    positive, so a bad value exits 2 before any work."""
    rule = "a positive integer" if cast is int else "finite and positive"

    def parse(text: str):
        value = cast(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"{option} must be {rule}, "
                                             f"got {text!r}")
        return value

    parse.__name__ = cast.__name__      # argparse: "invalid int value: ..."
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gradflow")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="build a mesh and report its quality")
    _add_mesh_options(p)
    _add_common(p)
    p.add_argument("--zeta-min", dest="zeta_min", type=float,
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
