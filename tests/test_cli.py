import json
import math
import multiprocessing
import os
import stat
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from gradflow import cli, dynamics, experiments
from gradflow.cli import main
from gradflow.mesh import Mesh
from test_dynamics import _assert_no_child_process


def run(args, tmp_path, name="out"):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out


class TestMeshCommand:
    def test_uniform_1d(self, tmp_path):
        code, out = run(["mesh", "--kind", "uniform1d", "--n", "16"], tmp_path)
        assert code == 0
        assert (out / "mesh.txt").exists()
        text = (out / "regularity.csv").read_text().splitlines()
        assert text[0].startswith("zeta_inner")
        assert (out / "summary.json").exists()

    def test_cartesian_isotropy_column(self, tmp_path):
        code, out = run(["mesh", "--kind", "cartesian", "--n", "8"], tmp_path)
        assert code == 0
        rows = (out / "isotropy.csv").read_text().splitlines()[1:]
        assert len(rows) == 64
        defects = [float(r.split(",")[1]) for r in rows]
        assert max(defects) <= 1e-12

    def test_duplicate_voronoi_sites_exit_2(self, tmp_path):
        sites = tmp_path / "sites.csv"
        sites.write_text("0.5,0.5\n0.5,0.5\n")
        code, _ = run(["mesh", "--kind", "voronoi", "--sites", str(sites)],
                      tmp_path)
        assert code == 2

    def test_missing_file_exit_2(self, tmp_path):
        code, _ = run(["mesh", "--mesh", str(tmp_path / "absent.txt")], tmp_path)
        assert code == 2

    def test_ragged_sites_row_exit_2(self, tmp_path, capsys):
        sites = tmp_path / "sites.csv"
        sites.write_text("x,y\n0.2,0.3\n0.7\n0.45,0.8\n")
        code, out = run(["mesh", "--kind", "voronoi", "--sites", str(sites)],
                        tmp_path)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {sites}, line 3: 1 values, expected 2 per site"]
        assert not out.exists()

    def test_zeta_warning_reports_not_fails(self, tmp_path, capsys):
        code, _ = run(["mesh", "--kind", "uniform1d", "--n", "16",
                       "--zeta-min", "0.9"], tmp_path)
        assert code == 0  # below-threshold quality warns, never errors
        assert "warning" in capsys.readouterr().err

    def test_failed_mesh_write_leaves_no_file(self, tmp_path, capsys,
                                              monkeypatch):
        def partial_write(self, path):
            with open(path, "w", encoding="ascii") as fh:
                fh.write("gradflow-mesh 1\ndim 2\n")
            raise OSError("disk full")

        monkeypatch.setattr(Mesh, "write", partial_write)
        code, out = run(["mesh", "--kind", "cartesian", "--n", "3"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["error: disk full"]
        assert not (out / "mesh.txt").exists()
        assert not list(out.glob(".gradflow-*"))

    def test_round_trip_through_cli_file(self, tmp_path):
        code, out = run(["mesh", "--kind", "cartesian", "--n", "3"], tmp_path)
        assert code == 0
        code2, out2 = run(["mesh", "--mesh", str(out / "mesh.txt")], tmp_path,
                          name="out2")
        assert code2 == 0
        assert (out / "regularity.csv").read_text() \
            == (out2 / "regularity.csv").read_text()


class TestSolveCommand:
    def test_stationary_constant_trajectory(self, tmp_path):
        code, out = run(["solve", "--kind", "uniform1d", "--n", "8",
                         "--m0", "stationary", "--T", "0.2", "--M", "4"],
                        tmp_path)
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()[1:]
        masses = np.array([float(l.split(",")[2]) for l in lines])
        assert np.abs(masses - 0.125).max() <= 1e-12

    def test_nan_mass_file_exit_2(self, tmp_path, capsys):
        measure = tmp_path / "m.csv"
        measure.write_text("cell,mass\n0,nan\n1,0.5\n2,0.5\n")
        code, out = run(["solve", "--kind", "uniform1d", "--n", "3",
                         "--m0", f"file:{measure}", "--M", "4"], tmp_path)
        assert code == 2
        assert "finite" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_deterministic_outputs(self, tmp_path):
        args = ["solve", "--kind", "uniform1d", "--n", "8",
                "--m0", "projected:cosine", "--T", "0.1", "--M", "8"]
        _, a = run(args, tmp_path, name="a")
        _, b = run(args, tmp_path, name="b")
        assert (a / "trajectory.csv").read_bytes() \
            == (b / "trajectory.csv").read_bytes()

    def test_failed_trajectory_writer_leaves_nothing(self, tmp_path, capsys,
                                                     monkeypatch):
        # two CPUs: the caller writes nodes 0-2, a child nodes 3-4 and fails
        parent, write_node = os.getpid(), dynamics._write_node

        def full_in_the_child(out, cells, t, row):
            if os.getpid() != parent:
                raise OSError("disk full")
            write_node(out, cells, t, row)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(dynamics, "_write_node", full_in_the_child)
        fds = len(os.listdir("/proc/self/fd"))
        code, out = run(["solve", "--kind", "uniform1d", "--n", "8",
                         "--T", "0.1", "--M", "4"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["error: disk full"]
        assert not out.exists()
        assert len(os.listdir("/proc/self/fd")) == fds
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("before", [
        None, {"notes.txt": "kept\n"},
        {"trajectory.csv": "earlier\n", "summary.json": "{}\n"}])
    def test_failed_summary_write_removes_the_trajectory(
            self, tmp_path, capsys, monkeypatch, before):
        # trajectory.csv is renamed into place before summary.json fails:
        # it is removed, or the earlier run's file put back, and --out too
        # unless it was there before the run
        out = tmp_path / "out"
        if before is not None:
            out.mkdir()
            for name, text in before.items():
                (out / name).write_text(text)
        replace = os.replace

        def full_at_summary(src, dst):
            if str(dst).endswith("summary.json"):
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", full_at_summary)
        code, _ = run(["solve", "--kind", "uniform1d", "--n", "8",
                       "--T", "0.1", "--M", "4"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["error: disk full"]
        if before is None:
            assert not out.exists()
        else:
            assert {f.name: f.read_text() for f in out.iterdir()} == before

    def test_failed_write_removes_the_directories_it_made(
            self, tmp_path, capsys, monkeypatch):
        def full(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", full)
        code = main(["solve", "--kind", "uniform1d", "--n", "8", "--T", "0.1",
                     "--M", "4", "--out", str(tmp_path / "a" / "b" / "out")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == ["error: disk full"]
        assert os.listdir(tmp_path) == []

    def test_second_run_replaces_the_first(self, tmp_path):
        args = ["solve", "--kind", "uniform1d", "--n", "8", "--T", "0.1"]
        _, out = run(args + ["--M", "4"], tmp_path)
        (out / "notes.txt").write_text("kept\n")
        code, _ = run(args + ["--M", "8"], tmp_path)
        _, fresh = run(args + ["--M", "8"], tmp_path, name="fresh")
        assert code == 0
        assert sorted(os.listdir(out)) == ["notes.txt", "summary.json",
                                           "trajectory.csv"]
        for name in ("summary.json", "trajectory.csv"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)])
    def test_outputs_take_the_umask_mode(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            code, out = run(["solve", "--kind", "uniform1d", "--n", "8",
                             "--T", "0.1", "--M", "4"], tmp_path)
        finally:
            os.umask(previous)
        assert code == 0
        assert {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()} \
            == {"trajectory.csv": mode, "summary.json": mode}

    @pytest.mark.parametrize("mesh_args, face, edited, message", [
        (["--kind", "uniform1d", "--n", "4"], "2 3 ", "2 2 ",
         "error: face 2 joins cell 2 to itself"),
        (["--kind", "uniform1d", "--n", "4"], "2 3 ", "2 -1 ",
         "error: face 2 joins cells 2 and -1, but the mesh has cells 0 to 3"),
        (["--kind", "cartesian", "--n", "3"], "0 3 ", "0 9 ",
         "error: face 1 joins cells 0 and 9, but the mesh has cells 0 to 8"),
    ])
    def test_bad_face_in_mesh_file_exit_2(self, tmp_path, capsys, mesh_args,
                                          face, edited, message):
        code, meshdir = run(["mesh", *mesh_args], tmp_path, name="meshdir")
        assert code == 0
        head, faces = (meshdir / "mesh.txt").read_text().split("\nfaces ")
        lines = faces.split("\n")
        row = next(i for i, line in enumerate(lines) if line.startswith(face))
        lines[row] = edited + lines[row][len(face):]
        bad = tmp_path / "bad.txt"
        bad.write_text(head + "\nfaces " + "\n".join(lines))
        capsys.readouterr()
        code, out = run(["solve", "--mesh", str(bad), "--T", "0.01", "--M", "2"],
                        tmp_path)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    @pytest.mark.parametrize("command, section, column, message", [
        ("solve", "faces", 2, "error: face_areas[5] is nan; it must be finite"),
        ("diagnose", "cells", 3, "error: volumes[5] is nan; it must be finite"),
    ])
    def test_non_finite_mesh_file_exit_2_before_set_up(
            self, tmp_path, capsys, monkeypatch, command, section, column,
            message):
        code, meshdir = run(["mesh", "--kind", "cartesian", "--n", "4"],
                            tmp_path, name="meshdir")
        assert code == 0
        lines = (meshdir / "mesh.txt").read_text().split("\n")
        start = next(i for i, line in enumerate(lines)
                     if line.startswith(section + " "))
        fields = lines[start + 6].split()
        fields[column] = "nan"
        lines[start + 6] = " ".join(fields)
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines))

        def no_set_up(*args, **kwargs):
            raise AssertionError("set-up reached with a non-finite mesh")

        monkeypatch.setattr(cli, "build_generator", no_set_up)
        monkeypatch.setattr(cli, "discretize_reference", no_set_up)
        capsys.readouterr()
        extra = ["--T", "0.01", "--M", "2"] if command == "solve" else []
        code, out = run([command, "--mesh", str(bad), *extra], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    @pytest.mark.parametrize("vertices", ["0", "1 0.5 0.5",
                                          "2 0.4 0.4 0.6 0.4"])
    def test_cell_with_too_few_vertices_exit_2(self, tmp_path, capsys,
                                               vertices):
        code, meshdir = run(["mesh", "--kind", "cartesian", "--n", "3"],
                            tmp_path, name="meshdir")
        assert code == 0
        lines = (meshdir / "mesh.txt").read_text().split("\n")
        row = next(i for i, line in enumerate(lines) if line.startswith("4 "))
        lines[row] = " ".join(lines[row].split()[:4]) + " " + vertices
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines))
        capsys.readouterr()
        code, out = run(["solve", "--mesh", str(bad), "--T", "0.01", "--M", "2"],
                        tmp_path)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: cell 4 has {vertices[0]} vertices; a 2d cell needs at "
            f"least 3"]
        assert not out.exists()


class TestEdiCommand:
    def test_check_passes(self, tmp_path):
        code, out = run(["edi", "--kind", "uniform1d", "--n", "8",
                         "--m0", "blend:cosine:0.9", "--T", "0.5",
                         "--M", "128", "--check"], tmp_path)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is True
        assert abs(summary["residual"]) <= 1e-5 * summary["H0"]

    def test_mesh_file_input(self, tmp_path):
        code, meshdir = run(["mesh", "--kind", "uniform1d", "--n", "8"],
                            tmp_path, name="meshdir")
        assert code == 0
        code, out = run(["edi", "--mesh", str(meshdir / "mesh.txt"),
                         "--m0", "blend:cosine:0.9", "--T", "0.25",
                         "--M", "64"], tmp_path)
        assert code == 0
        assert (out / "edi.csv").exists()

    def test_unknown_potential_exit_2(self, tmp_path):
        code, _ = run(["edi", "--kind", "uniform1d", "--n", "8",
                       "--potential", "whirl", "--T", "0.1", "--M", "16"],
                      tmp_path)
        assert code == 2

    def test_floor_tolerance_written_as_a_float(self, tmp_path):
        # m0 = pi: the residual is rounding, so the 64 eps floor (a numpy
        # scalar) sets the tolerance
        code, out = run(["edi", "--kind", "uniform1d", "--n", "8", "--M", "8",
                         "--m0", "stationary"], tmp_path)
        assert code == 0
        header, row = (out / "edi.csv").read_text().splitlines()
        summary = json.loads((out / "summary.json").read_text())
        values = dict(zip(header.split(","), map(float, row.split(","))))
        assert values == {key: summary[key] for key in values}
        assert values["tol"] == 64.0 * np.finfo(float).eps

    @pytest.mark.parametrize("command", ["solve", "edi"])
    def test_single_cell_exit_0(self, tmp_path, command):
        # one cell has no off-diagonal to hand to dstevd: its 1 x 1
        # generator takes the dense route
        code, out = run([command, "--kind", "uniform1d", "--n", "1",
                         "--T", "0.1", "--M", "4"], tmp_path)
        assert code == 0
        if command == "edi":
            assert json.loads((out / "summary.json").read_text())[
                "residual"] == 0.0
        else:
            rows = (out / "trajectory.csv").read_text().splitlines()[1:]
            assert [row.split(",")[2] for row in rows] == ["1.0"] * 5

    def test_one_eigendecomposition_and_two_passes(self, tmp_path,
                                                   monkeypatch):
        from gradflow import reference

        eighs, passes = [], []
        eigh, integrals = np.linalg.eigh, reference.cell_integrals
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a: eighs.append(1) or eigh(*a))
        monkeypatch.setattr(reference, "cell_integrals",
                            lambda *a: passes.append(1) or integrals(*a))
        code, _ = run(["edi", "--kind", "cartesian", "--n", "4",
                       "--potential", "quadratic", "--M", "16"], tmp_path)
        assert code == 0
        assert len(eighs) == 1
        # pi with the face weights, then the initial blend's projected density
        assert len(passes) == 2

    def test_piped_stdout_printed_once(self, tmp_path):
        # the forked control chain leaves with os._exit: a line buffered
        # before the fork is not flushed by the child as well
        code = textwrap.dedent(f"""
            import os, sys
            os.sched_getaffinity = lambda pid: {{0, 1}}
            from gradflow.cli import main
            print("before the fork")
            sys.exit(main(["edi", "--kind", "cartesian", "--n", "4",
                           "--M", "16", "--out", {str(tmp_path / "out")!r}]))
            """)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("PYTHONUNBUFFERED", None)   # stdout block-buffered on a pipe
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              stdout=subprocess.PIPE, text=True, timeout=120)
        assert done.returncode == 0
        lines = done.stdout.splitlines()
        assert lines[0] == "before the fork"
        assert len(lines) == 2 and lines[1].startswith("edi: residual=")

    @pytest.mark.parametrize("args", [
        ["--kind", "cartesian", "--n", "20", "--M", "16", "--T", "10"],
        ["--kind", "uniform1d", "--n", "64", "--M", "16", "--T", "5",
         "--potential", "quadratic"]])
    def test_stalled_warm_start_past_equilibration_exit_0(
            self, tmp_path, monkeypatch, args):
        # near pi a solve warm-started from the previous node stalled at the
        # iteration cap (exit 2); it is retried from zero and converges.
        # One CPU, so every retry runs in this process
        module = sys.modules["gradflow.dual_action"]
        solve_cg, cold = module._solve_cg, []

        def counting(operator, b, x0, counts):
            cold.append(x0 is None)
            return solve_cg(operator, b, x0, counts)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(module, "_solve_cg", counting)
        code, out = run(["edi", *args], tmp_path)
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["nodes"] == 17
        # both blocks start from zero in one lockstep stack, so every
        # _solve_cg call from zero is a retry
        assert sum(cold) > 0

    @pytest.mark.parametrize("steps", ["258", "6", "0", "-4"])
    def test_steps_not_multiple_of_four_exit_2(self, tmp_path, capsys, steps):
        # checked before the mesh is read: the named mesh file is absent
        code, out = run(["edi", "--mesh", str(tmp_path / "absent.txt"),
                         "--M", steps], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: edi steps M must be a positive multiple of 4 (an even "
            f"number of Simpson steps at M and M/2), got {steps}"]
        assert not out.exists()


class TestGammaCommand:
    @pytest.mark.parametrize("argv, rows", [
        (["--family", "uniform1d:8..64", "--phi", "cosine"], 4),
        (["--family", "cartesian:4..8", "--potential", "quadratic"], 2)])
    def test_energy_check(self, tmp_path, argv, rows):
        code, out = run(["gamma", *argv, "--check"], tmp_path)
        assert code == 0
        lines = (out / "gamma.csv").read_text().splitlines()
        assert len(lines) == 1 + rows

    def test_affine_check(self, tmp_path):
        code, out = run(["gamma", "--family", "uniform1d:8..32",
                         "--mode", "affine", "--eps", "0.5", "--check"],
                        tmp_path)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is True


    @pytest.mark.parametrize("argv,message", [
        (["--phi", "coordinate:5"], "axis must lie in 0..1"),
        (["--phi", "coordinate:-1"], "axis must lie in 0..1"),
        (["--mode", "affine", "--xi", "1,2,3"], "--z and --xi need 2"),
        (["--mode", "affine", "--z", "0.5"], "--z and --xi need 2"),
    ])
    def test_arguments_checked_against_2d_family(self, tmp_path, capsys,
                                                 monkeypatch, argv, message):
        monkeypatch.setattr(experiments.MeshFamily, "build", None)
        code, out = run(["gamma", "--family", "cartesian:4..8", *argv],
                        tmp_path)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("dim, token", [
        (1, "coordinate"), (1, "cosine"), (1, "cosine:2.5"), (2, "coordinate"),
        (2, "coordinate:1"), (2, "cosine"), (2, "cosine:2.5")])
    def test_phi_matches_old_scalar_forms(self, dim, token):
        name, _, arg = token.partition(":")
        # reference copies of the former point forms
        if name == "coordinate":
            e = np.eye(dim)[int(arg or 0)]
            old_phi = lambda x: float(np.atleast_1d(x) @ e)
            old_grad = lambda x: e
        else:
            k = float(arg or 1.0) * math.pi
            old_phi = lambda x: math.cos(k * float(np.atleast_1d(x)[0]))
            old_grad = lambda x: np.array(
                [-k * math.sin(k * float(np.atleast_1d(x)[0]))] + [0.0] * (dim - 1))
        phi, grad = cli._phi_from_token(token, dim)
        points = np.random.default_rng(dim).uniform(-0.5, 1.5, (500, dim))
        values = phi.batch(points)
        grads = np.reshape(grad.batch(points), (500, dim))
        old_values = np.array([old_phi(x) for x in points])
        old_grads = np.array([old_grad(x) for x in points])
        # np.cos and np.sin may round differently from math.cos and math.sin
        assert np.allclose(values, old_values, rtol=1e-15, atol=1e-15)
        assert np.allclose(grads, old_grads, rtol=1e-15, atol=1e-14)
        assert np.array_equal([phi(x) for x in points], values)
        assert np.array_equal([grad(x) for x in points], grads)
        if name == "coordinate":
            assert np.array_equal(values, old_values)
            assert np.array_equal(grads, old_grads)

    def test_axis_checked_against_1d_family(self, tmp_path, capsys):
        code, _ = run(["gamma", "--family", "uniform1d:8..16",
                       "--phi", "coordinate:1"], tmp_path)
        assert code == 2
        assert "axis must lie in 0..0" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["uniform1d:0..16", "cartesian:-2..8",
                                        "cartesian:64..16"])
    def test_bad_size_range_exit_2(self, tmp_path, capsys, family):
        code, _ = run(["gamma", "--family", family], tmp_path)
        assert code == 2
        assert "a..b needs 0 < a <= b" in capsys.readouterr().err


class TestConvergeCommand:
    def test_small_family(self, tmp_path):
        code, out = run(["converge", "--family", "uniform1d:16..64",
                         "--rho0", "cosine", "--T", "0.1", "--check"],
                        tmp_path)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is True
        assert len(summary["rows"]) == 3

    def test_two_dimensional_family(self, tmp_path):
        code, out = run(["converge", "--family", "cartesian:4..8",
                         "--rho0", "cosine", "--T", "0.05", "--check"],
                        tmp_path)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["pass"] is True

    @pytest.mark.parametrize("family", ["voronoi:16..64", "flattened:16..32"])
    def test_non_cartesian_2d_family_exit_2(self, tmp_path, capsys, family):
        code, out = run(["converge", "--family", family], tmp_path)
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "needs a cartesian family" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("family, message", [
        ("voronoi:16..1024", "error: 2d evolutionary convergence needs a "
                             "cartesian family, got 'voronoi'"),
        ("cartesian:3,4", "error: 2d family sizes must divide the reference "
                          "grid")])
    def test_family_rejected_before_any_mesh(self, tmp_path, capsys,
                                             monkeypatch, family, message):
        def no_build(self):
            raise AssertionError("a mesh was built before the family was "
                                 "checked")

        monkeypatch.setattr(experiments.MeshFamily, "build", no_build)
        code, out = run(["converge", "--family", family], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()

    def test_richardson_reference_past_the_dense_cap_exit_2(
            self, tmp_path, capsys, monkeypatch):
        # the reference solves on 4 x 512 = 2048 cells, past
        # EXACT_DENSE_LIMIT: refused before any mesh is built, where a
        # reference capped at 1024 cells once let the 512-cell member be
        # measured against the 512-cell solve its own extrapolation used
        def no_build(self):
            raise AssertionError("a mesh was built before the family was "
                                 "checked")

        monkeypatch.setattr(experiments.MeshFamily, "build", no_build)
        code, out = run(["converge", "--family", "uniform1d:32..512",
                         "--potential", "quadratic", "--check"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: the 1d Richardson reference needs 4 x 512 = 2048 cells, "
            f"beyond the dense spectral oracle's {dynamics.EXACT_DENSE_LIMIT}: "
            f"uniform1d sizes must be at most "
            f"{dynamics.EXACT_DENSE_LIMIT // 4}"]
        assert not out.exists()

    def test_solver_failure_exit_2(self, tmp_path, capsys, monkeypatch):
        # a CG allowed no iteration stalls from a warm start and from zero
        # alike, so the retry from zero stalls too, with residual exactly 1
        module = sys.modules["gradflow.dual_action"]
        parent, dual_action = os.getpid(), experiments.dual_action

        def stalled_in_child(*args, **kwargs):
            if os.getpid() != parent:   # gone with the child's os._exit
                module.MAX_ITER_FACTOR = 0
            return dual_action(*args, **kwargs)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        # every dual solve of converge stalls; of edi, only the control
        # chain's block, in its forked child
        for args in (["converge", "--family", "uniform1d:16"],
                     ["edi", "--kind", "cartesian", "--n", "4", "--M", "16"]):
            with monkeypatch.context() as patch:
                if args[0] == "converge":
                    patch.setattr(module, "MAX_ITER_FACTOR", 0)
                else:
                    patch.setattr(experiments, "dual_action", stalled_in_child)
                code, out = run(args, tmp_path, name=args[0])
            assert code == 2
            assert capsys.readouterr().err.splitlines() == [
                "error: no convergence in 0 iterations, "
                "relative residual 1.000e+00"]
            assert not out.exists()
            _assert_no_child_process()

    def test_tridiagonal_eigensolver_only(self, tmp_path, monkeypatch):
        # the benchmark's study-1d arguments: the 1024- and 512-cell
        # Richardson references and the 5 members, all in the caller
        calls = []
        eigh, dstevd = np.linalg.eigh, dynamics.lapack.dstevd
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a: calls.append("eigh") or eigh(*a))
        monkeypatch.setattr(dynamics.lapack, "dstevd",
                            lambda d, e, **k: calls.append(len(d))
                            or dstevd(d, e, **k))
        code, _ = run(["converge", "--family", "uniform1d:16..256",
                       "--potential", "quadratic", "--rho0", "cosine",
                       "--T", "0.1", "--check"], tmp_path)
        assert code == 0
        assert calls == [1024, 512, 16, 32, 64, 128, 256]

    def test_eigensolver_failure_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dynamics.lapack, "dstevd",
                            lambda d, e, compute_v: (d, np.eye(len(d)), 2))
        code, out = run(["converge", "--family", "uniform1d:16..32",
                         "--potential", "quadratic"], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: the tridiagonal eigensolver (LAPACK dstevd) failed with "
            "info 2"]
        assert not out.exists()
        _assert_no_child_process()


class TestDiagnoseCommand:
    def test_reports_written(self, tmp_path):
        code, out = run(["diagnose", "--kind", "cartesian", "--n", "4",
                         "--m0", "blend:cosine:0.9"], tmp_path)
        assert code == 0
        for name in ("condition.csv", "paths.csv", "holder.csv",
                     "summary.json"):
            assert (out / name).exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["c_count"] <= 20.0
        assert summary["c_length"] <= 5.0

    def test_jittered_voronoi_sites(self, tmp_path):
        # the 1-point rule misses unit mass by 1.8e-6 on these cells
        sites = experiments._jittered_sites(10, 0.35, 42)
        csv = tmp_path / "sites.csv"
        csv.write_text("x,y\n" + "".join(f"{float(x)!r},{float(y)!r}\n"
                                         for x, y in sites))
        code, out = run(["diagnose", "--kind", "voronoi", "--sites", str(csv)],
                        tmp_path)
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert 0.0 < summary["k_lower"] <= 1.0 <= summary["k_upper"]
        assert (out / "holder.csv").exists()

    def test_mesh_file_without_faces_exit_2(self, tmp_path, capsys):
        code, meshdir = run(["mesh", "--kind", "cartesian", "--nx", "2",
                             "--ny", "1"], tmp_path, name="meshdir")
        assert code == 0
        head, faces = (meshdir / "mesh.txt").read_text().split("\nfaces ")
        assert faces.splitlines()[0] == "1"
        bad = tmp_path / "no-faces.txt"
        bad.write_text(head + "\nfaces 0\n")
        capsys.readouterr()
        code, out = run(["diagnose", "--mesh", str(bad)], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: mesh graph is disconnected"]
        assert not out.exists()


class TestOutputs:
    @pytest.mark.parametrize("argv, message", [
        (["mesh", "--kind", "cartesian", "--n", "4", "--potential", "bogus"],
         "unknown potential 'bogus'"),
        (["diagnose", "--kind", "cartesian", "--n", "2", "--m0", "file:{zero}"],
         "density lower bound must be positive"),
        (["solve", "--kind", "uniform1d", "--n", "4", "--m0",
          "projected:bogus"], "unknown density 'bogus'"),
        (["edi", "--kind", "uniform1d", "--n", "4", "--M", "4", "--m0",
          "blend:bogus"], "unknown density 'bogus'"),
        (["converge", "--family", "uniform1d:8..16", "--rho0", "bogus"],
         "unknown density 'bogus'"),
        (["gamma", "--family", "uniform1d:8..16", "--phi", "bogus"],
         "unknown test function 'bogus'"),
    ], ids=["mesh", "diagnose", "solve", "edi", "converge", "gamma"])
    def test_failed_command_creates_no_out(self, tmp_path, capsys, argv,
                                           message):
        # cells 2 and 3 get no mass: the Holder bound, the last report,
        # needs a positive density
        zero = tmp_path / "zero.csv"
        zero.write_text("cell,mass\n0,0.5\n1,0.5\n2,0\n3,0\n")
        code, out = run([a.format(zero=zero) for a in argv], tmp_path)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not out.exists()


class TestArguments:
    @pytest.mark.parametrize("argv", [
        ["solve", "--kind", "uniform1d", "--T", "nan"],
        ["solve", "--kind", "uniform1d", "--scheme", "crank_nicolson",
         "--T", "inf"],
        ["solve", "--kind", "uniform1d", "--T", "0"],
        ["edi", "--kind", "uniform1d", "--T", "nan"],
        ["edi", "--kind", "uniform1d", "--T=-inf"],
        ["converge", "--family", "uniform1d:16", "--T", "nan"],
        ["converge", "--family", "uniform1d:16", "--T", "-0.1"],
    ])
    def test_bad_time_horizon_exit_2_before_any_mesh(self, tmp_path, capsys,
                                                     monkeypatch, argv):
        def no_mesh(*args, **kwargs):
            raise AssertionError("a mesh was built before --T was checked")

        monkeypatch.setattr(cli, "_mesh_from_args", no_mesh)
        monkeypatch.setattr(experiments, "family_from_token", no_mesh)
        code, out = run(argv, tmp_path)
        assert code == 2
        assert "T must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--kind", "cartesian", "--n", "96", "--potential",
          "quadratic", "--M", "0"],
         "argument --M: M must be a positive integer, got '0'"),
        (["solve", "--kind", "uniform1d", "--M=-3"],
         "argument --M: M must be a positive integer, got '-3'"),
        (["solve", "--kind", "uniform1d", "--M", "2.5"],
         "argument --M: invalid int value: '2.5'"),
        (["gamma", "--mode", "affine", "--eps", "nan"],
         "argument --eps: eps must be finite and positive, got 'nan'"),
        (["gamma", "--mode", "affine", "--eps", "inf"],
         "argument --eps: eps must be finite and positive, got 'inf'"),
        (["gamma", "--mode", "affine", "--eps", "0"],
         "argument --eps: eps must be finite and positive, got '0'"),
    ])
    def test_bad_steps_or_eps_exit_2_before_any_mesh(self, tmp_path, capsys,
                                                     monkeypatch, argv,
                                                     message):
        def no_mesh(*args, **kwargs):
            raise AssertionError("a mesh was built before the option was "
                                 "checked")

        monkeypatch.setattr(cli, "_mesh_from_args", no_mesh)
        monkeypatch.setattr(experiments, "family_from_token", no_mesh)
        code, out = run(argv, tmp_path)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["mesh", "--mesh"], ["solve", "--mesh"], ["edi", "--mesh"],
        ["diagnose", "--mesh"], ["converge", "--family", "cartesian:16..128"]])
    def test_bad_mean_exit_2_at_parse_time(self, tmp_path, capsys, argv):
        # checked before the mesh is read: the named mesh file is absent
        if argv[-1] == "--mesh":
            argv = [*argv, str(tmp_path / "absent.txt")]
        code, out = run([*argv, "--mean", "bogus"], tmp_path)
        assert code == 2
        assert "argument --mean: invalid choice: 'bogus'" \
            in capsys.readouterr().err
        assert not out.exists()

    def test_mean_choices_follow_their_use(self):
        # diagnose feeds --mean to the Dirichlet kernel, the others to the
        # face weights' S mean, which has no square-root logarithmic kind
        parser = cli.build_parser()
        args = parser.parse_args(["diagnose", "--mean", "sqrt_logarithmic"])
        assert args.mean == "sqrt_logarithmic"
        for command in ("mesh", "solve", "edi", "converge"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--mean", "sqrt_logarithmic"])

    @pytest.mark.parametrize("command, option", [
        ("mesh", ["--check"]), ("mesh", ["--seed", "9"]),
        ("solve", ["--check"]), ("solve", ["--seed", "9"]),
        ("diagnose", ["--check"]), ("diagnose", ["--seed", "9"]),
        ("edi", ["--seed", "9"]), ("gamma", ["--mean", "harmonic"]),
    ])
    def test_unread_option_rejected(self, tmp_path, capsys, command, option):
        code, out = run([command, *option], tmp_path)
        assert code == 2
        assert f"unrecognized arguments: {' '.join(option)}" \
            in capsys.readouterr().err
        assert not out.exists()


def test_unknown_command_exit_2(tmp_path):
    assert main(["frobnicate"]) == 2


class TestKnownFailures:
    """Runs that fail today and should exit 0.  Strict: the change that
    fixes one flips it from xfail to a failure, and must unmark it."""

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "exit 2: the 256-cell dual chain's CG stops with no convergence "
        "in 2560 iterations, relative residual 2.099e-11"))
    def test_double_well_converge_check(self, tmp_path):
        code, _ = run(["converge", "--family", "uniform1d:16..256",
                       "--potential", "double-well", "--rho0", "cosine",
                       "--T", "0.1", "--check"], tmp_path)
        assert code == 0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "exit 3: residual -1.227e-06 against a tolerance of 7.813e-07"))
    def test_quadratic_edi_check(self, tmp_path):
        code, _ = run(["edi", "--kind", "cartesian", "--n", "20", "--M", "256",
                       "--potential", "quadratic", "--check"], tmp_path)
        assert code == 0

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "exit 2: density has mass 1.0000886617933284, expected 1 to 1e-8"))
    def test_voronoi_edi_check(self, tmp_path):
        sites = tmp_path / "sites.csv"
        sites.write_text("x,y\n" + "".join(
            f"{x!r},{y!r}\n"
            for x, y in np.random.default_rng(3).random((150, 2)).tolist()))
        code, _ = run(["edi", "--kind", "voronoi", "--sites", str(sites),
                       "--check"], tmp_path)
        assert code == 0
