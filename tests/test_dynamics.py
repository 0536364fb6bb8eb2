import math
import multiprocessing
import os

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import gradflow as gf
from gradflow import dynamics, reference
from gradflow import experiments as ex
from gradflow.dynamics import (AUTO_DENSE_LIMIT, EXACT_DENSE_LIMIT,
                               NEGATIVE_CLIP, step_crank_nicolson)
from gradflow.mesh import Mesh
from gradflow.reference import DiscreteMeasure


class TestGenerator:
    def test_two_cell_rate(self, two_cell):
        mesh, _, pi, weights = two_cell
        gen = gf.assemble_generator(mesh, weights, pi)
        out = gen.matrix @ np.array([0.75, 0.25])
        # dm1/dt = 4 (m2 - m1) = -2 here; the rate pairs with the gap of 8
        assert np.allclose(out, [-2.0, 2.0], atol=1e-14)

    def test_two_cell_spectral_gap(self, two_cell):
        mesh, _, pi, weights = two_cell
        gen = gf.assemble_generator(mesh, weights, pi)
        assert gen.spectral_gap() == pytest.approx(8.0, abs=1e-10)

    def test_stationarity_random_potential(self):
        mesh = gf.build_cartesian_mesh(3, 3)
        pot = gf.quadratic_potential([0.2, 0.8])
        pi = gf.discretize_reference(mesh, pot)
        weights = gf.face_weights(mesh, pot)
        gen = gf.assemble_generator(mesh, weights, pi)
        assert np.abs(gen.matrix @ pi.masses).max() <= 1e-13

    def test_mass_conservation_random(self, grid4):
        mesh, _, pi, weights = grid4
        gen = gf.assemble_generator(mesh, weights, pi)
        rng = np.random.default_rng(1)
        for _ in range(5):
            m = rng.uniform(0.0, 1.0, mesh.n_cells)
            assert abs((gen.matrix @ m).sum()) <= 1e-13 * np.abs(gen.matrix @ m).max()

    def test_column_sums_vanish(self, chain10):
        mesh, _, pi, weights = chain10
        gen = gf.assemble_generator(mesh, weights, pi)
        cols = np.asarray(gen.matrix.sum(axis=0)).ravel()
        assert np.abs(cols).max() <= 1e-13 * np.abs(gen.matrix.data).max()

    def test_reversibility(self):
        mesh = gf.build_interval_mesh(6)
        pot = gf.linear_potential(1.5)
        pi = gf.discretize_reference(mesh, pot)
        weights = gf.face_weights(mesh, pot)
        gen = gf.assemble_generator(mesh, weights, pi)
        rng = np.random.default_rng(3)
        m = rng.uniform(0.1, 1.0, 6)
        n = rng.uniform(0.1, 1.0, 6)
        lhs = float((gen.matrix @ m) @ (n / pi.masses))
        rhs = float((m / pi.masses) @ (gen.matrix @ n))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestImplicitEuler:
    def test_two_cell_closed_form(self, two_cell):
        mesh, _, pi, weights = two_cell
        gen = gf.assemble_generator(mesh, weights, pi)
        out = gf.step_implicit_euler(np.array([1.0, 0.0]), 0.125, gen)
        assert np.allclose(out.masses, [0.75, 0.25], atol=1e-14)

    def test_stationary_fixed_point(self, grid4):
        mesh, _, pi, weights = grid4
        gen = gf.assemble_generator(mesh, weights, pi)
        for dt in (0.01, 1.0, 100.0):
            out = gf.step_implicit_euler(pi, dt, gen)
            assert np.allclose(out.masses, pi.masses, atol=1e-12)

    def test_small_step_consistency(self, chain10):
        mesh, _, pi, weights = chain10
        gen = gf.assemble_generator(mesh, weights, pi)
        m = gf.project_measure(mesh, lambda x: 1.0 + 0.5 * math.cos(math.pi * x))
        dt = 1e-6
        out = gf.step_implicit_euler(m, dt, gen)
        rate = (out.masses - m.masses) / dt
        target = gen.matrix @ m.masses
        assert np.abs(rate - target).max() <= 1e-4 * np.abs(target).max()

    def test_positivity_any_dt(self, chain10):
        mesh, _, pi, weights = chain10
        gen = gf.assemble_generator(mesh, weights, pi)
        rng = np.random.default_rng(4)
        for dt in (1e-4, 0.1, 10.0):
            m = DiscreteMeasure.normalized(rng.uniform(0.0, 1.0, mesh.n_cells))
            out = gf.step_implicit_euler(m, dt, gen)
            assert np.all(out.masses >= 0.0)
            assert out.masses.sum() == pytest.approx(1.0, abs=1e-14)

    def test_bad_dt_rejected(self, two_cell):
        mesh, _, pi, weights = two_cell
        gen = gf.assemble_generator(mesh, weights, pi)
        with pytest.raises(ValueError):
            gf.step_implicit_euler(pi, 0.0, gen)


class TestCrankNicolson:
    def test_second_order_on_two_cell(self, two_cell):
        mesh, _, pi, weights = two_cell
        gen = gf.assemble_generator(mesh, weights, pi)
        m = DiscreteMeasure(np.array([0.8, 0.2]))
        dt = 0.01
        out = step_crank_nicolson(m, dt, gen)
        exact = 0.5 + (0.8 - 0.5) * math.exp(-8.0 * dt)
        # one trapezoidal step carries an O(dt^3) defect, about 1.2e-5 here
        assert out.masses[0] == pytest.approx(exact, abs=5e-5)

    def test_large_negative_rejected(self):
        mesh = gf.build_interval_mesh(8)
        pot = gf.zero_potential()
        pi = gf.discretize_reference(mesh, pot)
        weights = gf.face_weights(mesh, pot)
        gen = gf.assemble_generator(mesh, weights, pi)
        spike = np.zeros(8)
        spike[4] = 1.0
        with pytest.raises(ValueError, match="negative"):
            step_crank_nicolson(DiscreteMeasure(spike), 0.05, gen)


class TestTrajectories:
    def test_two_cell_exact_decay(self, two_cell):
        mesh, _, pi, weights = two_cell
        gen = gf.assemble_generator(mesh, weights, pi)
        traj = gf.solve_trajectory(DiscreteMeasure(np.array([1.0, 0.0])),
                                   0.1, 4, gen, scheme="exact_dense")
        for i, t in enumerate(traj.times):
            assert traj.masses[i, 0] == pytest.approx(
                0.5 + 0.5 * math.exp(-8.0 * t), abs=1e-12)
        assert traj.masses[-1, 0] == pytest.approx(0.724664, abs=1e-6)

    def test_stationary_start_is_constant(self, grid4):
        mesh, _, pi, weights = grid4
        gen = gf.assemble_generator(mesh, weights, pi)
        traj = gf.solve_trajectory(pi, 1.0, 8, gen)
        assert np.abs(traj.masses - pi.masses[None, :]).max() <= 1e-12

    def test_crank_nicolson_second_order_trajectory(self, two_cell):
        mesh, _, pi, weights = two_cell
        gen = gf.assemble_generator(mesh, weights, pi)
        m0 = DiscreteMeasure(np.array([0.8, 0.2]))
        exact = 0.5 + 0.3 * math.exp(-8.0 * 0.5)
        errors = []
        for steps in (32, 64):
            traj = gf.solve_trajectory(m0, 0.5, steps, gen,
                                       scheme="crank_nicolson")
            assert np.diff(traj.times) == pytest.approx(np.full(steps, 0.5 / steps))
            errors.append(abs(traj.masses[-1, 0] - exact))
        assert errors[1] <= errors[0] / 3.5  # second order in the step

    def test_implicit_euler_first_order_error(self, two_cell):
        mesh, _, pi, weights = two_cell
        gen = gf.assemble_generator(mesh, weights, pi)
        m0 = DiscreteMeasure(np.array([1.0, 0.0]))
        approx = gf.solve_trajectory(m0, 0.5, 512, gen, scheme="implicit_euler")
        exact = 0.5 + 0.5 * math.exp(-8.0 * 0.5)
        assert abs(approx.masses[-1, 0] - exact) <= 1e-3

    def test_entropy_monotone_both_schemes(self, chain10):
        mesh, _, pi, weights = chain10
        gen = gf.assemble_generator(mesh, weights, pi)
        m0 = gf.project_measure(mesh, lambda x: 2.0 * x)
        for scheme in ("implicit_euler", "exact_dense"):
            traj = gf.solve_trajectory(m0, 0.2, 32, gen, scheme=scheme)
            ent = [gf.entropy(traj.measure(i), pi) for i in range(len(traj.times))]
            assert all(b <= a + 1e-12 for a, b in zip(ent, ent[1:]))

    def test_maximum_principle_exact_flow(self, grid4):
        mesh, _, pi, weights = grid4
        gen = gf.assemble_generator(mesh, weights, pi)
        rng = np.random.default_rng(5)
        m0 = DiscreteMeasure.normalized(rng.uniform(0.2, 1.0, mesh.n_cells))
        r0 = m0.masses / pi.masses
        traj = gf.solve_trajectory(m0, 0.3, 16, gen, scheme="exact_dense")
        for i in range(len(traj.times)):
            r = traj.masses[i] / pi.masses
            assert r.min() >= r0.min() - 1e-10
            assert r.max() <= r0.max() + 1e-10

    def test_exponential_decay_rate(self, chain10):
        mesh, _, pi, weights = chain10
        gen = gf.assemble_generator(mesh, weights, pi)
        gap = gen.spectral_gap()
        m0 = gf.project_measure(mesh, lambda x: 1.0 + 0.5 * math.cos(math.pi * x))
        traj = gf.solve_trajectory(m0, 0.4, 4, gen, scheme="exact_dense")
        norms = [np.abs(traj.masses[i] - pi.masses).sum() for i in range(5)]
        # after burn-in the 1-norm contracts at least at the spectral rate
        for a, b in zip(norms[1:], norms[2:]):
            assert b <= a * math.exp(-gap * 0.1) * (1.0 + 1e-6)

    def test_nodes_are_valid_measures(self, grid4):
        mesh, _, pi, weights = grid4
        gen = gf.assemble_generator(mesh, weights, pi)
        rng = np.random.default_rng(6)
        m0 = DiscreteMeasure.normalized(rng.uniform(0.0, 1.0, mesh.n_cells))
        traj = gf.solve_trajectory(m0, 0.2, 10, gen)
        for i in range(len(traj.times)):
            node = traj.measure(i)  # construction re-checks the invariants
            assert node.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_unknown_scheme_rejected(self, two_cell):
        mesh, _, pi, weights = two_cell
        gen = gf.assemble_generator(mesh, weights, pi)
        with pytest.raises(ValueError, match="scheme"):
            gf.solve_trajectory(pi, 0.1, 2, gen, scheme="leapfrog")

    def test_single_cell_gap_is_zero(self):
        mesh = gf.build_interval_mesh(1)
        pot = gf.zero_potential()
        pi = gf.discretize_reference(mesh, pot)
        gen = gf.assemble_generator(mesh, gf.face_weights(mesh, pot), pi)
        assert gen.spectral_gap() == 0.0

    def test_dense_oracle_cell_cap(self):
        mesh = gf.build_interval_mesh(2001)
        pot = gf.zero_potential()
        pi = gf.discretize_reference(mesh, pot)
        gen = gf.assemble_generator(mesh, gf.face_weights(mesh, pot), pi)
        with pytest.raises(ValueError, match="dense"):
            gf.solve_trajectory(pi, 0.1, 2, gen, scheme="exact_dense")

    def test_export_csv(self, two_cell, tmp_path):
        mesh, _, pi, weights = two_cell
        gen = gf.assemble_generator(mesh, weights, pi)
        traj = gf.solve_trajectory(pi, 0.1, 2, gen)
        path = tmp_path / "traj.csv"
        traj.export_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,cell,mass"
        assert len(lines) == 1 + 3 * 2


    def test_export_csv_matches_row_writer(self, tmp_path):
        traj = _oracle_trajectory(4)
        new, old = tmp_path / "new.csv", tmp_path / "old.csv"
        traj.export_csv(new)
        _row_writer_export(traj, old)
        assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("nodes", [2, 3, 33])
    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_split_export_matches_row_writer(self, tmp_path, monkeypatch,
                                             cpus, nodes):
        # more CPUs than nodes, and ranges of uneven length
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        traj = _oracle_trajectory(nodes)
        (tmp_path / "new").mkdir()
        new, old = tmp_path / "new" / "trajectory.csv", tmp_path / "old.csv"
        traj.export_csv(new)
        _row_writer_export(traj, old)
        assert new.read_bytes() == old.read_bytes()
        assert len(forks) == min(cpus, nodes) - 1
        assert os.listdir(tmp_path / "new") == ["trajectory.csv"]
        _assert_no_child_process()

    @pytest.mark.parametrize("failing, how, message", [
        ("later", "raise", "disk full"),
        ("later", "exit", "the writer of trajectory node 3 through the "
                          "writer of trajectory node 5 exited with status 3"),
        ("first", "raise", "disk full"),
    ])
    def test_failed_range_joins_every_writer(self, tmp_path, monkeypatch,
                                             failing, how, message):
        # three CPUs: the caller writes nodes 0-2, children 3-5 and 6-8;
        # "later" fails in both children, "first" at node 0, in the caller
        parent, write_node = os.getpid(), dynamics._write_node

        def flaky(out, cells, t, row):
            if (os.getpid() != parent if failing == "later" else t == 0.0):
                if how == "exit":
                    os._exit(3)
                raise OSError("disk full")
            write_node(out, cells, t, row)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        monkeypatch.setattr(dynamics, "_write_node", flaky)
        path = tmp_path / "trajectory.csv"
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match=f"^{message}$"):
            _oracle_trajectory(9).export_csv(path)
        assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]
        assert len(os.listdir("/proc/self/fd")) == fds
        _assert_no_child_process()

    def test_failed_fork_joins_the_forked_writers(self, tmp_path, monkeypatch):
        forks = []
        fork = os.fork

        def second_fork_fails():
            forks.append(1)
            if len(forks) == 2:
                raise BlockingIOError("Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        monkeypatch.setattr(os, "fork", second_fork_fails)
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            _oracle_trajectory(9).export_csv(tmp_path / "trajectory.csv")
        # the header went in before the fork; the children's temporary files
        # are anonymous, so nothing else is left
        assert [p.name for p in tmp_path.iterdir()] == ["trajectory.csv"]
        assert (tmp_path / "trajectory.csv").read_bytes() == b"t,cell,mass\n"
        assert len(os.listdir("/proc/self/fd")) == fds
        _assert_no_child_process()


def _oracle_trajectory(nodes):
    rng = np.random.default_rng(3)
    masses = rng.random((nodes, 13))
    masses[1, :8] = [-0.0, 0.0, 5e-324, 1e-300, 1.0, 2.0, 1e16, 1 / 3]
    return dynamics.Trajectory(np.linspace(0.0, 0.3, nodes), masses,
                               "implicit_euler")


def _row_writer_export(traj, path):
    # a reference copy of the former writer: one write per row
    with open(path, "w", encoding="ascii") as fh:
        fh.write("t,cell,mass\n")
        for i, t in enumerate(traj.times):
            for k, mass in enumerate(traj.masses[i]):
                fh.write(f"{float(t)!r},{k},{float(mass)!r}\n")


def _assert_no_child_process():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# -- the theta-method stepper against the per-step spsolve steppers it replaced --


def _clip_measure(values):
    worst = float(values.min()) if len(values) else 0.0
    if worst < -NEGATIVE_CLIP:
        raise ValueError(f"negative mass {worst!r} beyond the clip threshold")
    clipped = np.maximum(values, 0.0)
    return DiscreteMeasure(clipped / clipped.sum())


def _spsolve_implicit_euler(m, dt, generator):
    arr = np.asarray(getattr(m, "masses", m), dtype=float)
    system = sp.identity(generator.n, format="csc") - dt * generator.matrix
    return _clip_measure(spla.spsolve(system, arr))


def _spsolve_crank_nicolson(m, dt, generator):
    arr = np.asarray(getattr(m, "masses", m), dtype=float)
    half = 0.5 * dt * generator.matrix
    rhs = arr + half @ arr
    system = sp.identity(generator.n, format="csc") - half
    return _clip_measure(spla.spsolve(system, rhs))


def _jittered_voronoi_64():
    return gf.build_voronoi_mesh(ex._jittered_sites(8, 0.35, 42),
                                 gf.Domain.rectangle(0.0, 0.0, 1.0, 1.0))


_MESHES = {
    "interval-64": lambda: gf.build_interval_mesh(64),
    "cartesian-24": lambda: gf.build_cartesian_mesh(24, 24),
    "voronoi-64": _jittered_voronoi_64,
}
_STEPPERS = {
    "implicit_euler": (gf.step_implicit_euler, _spsolve_implicit_euler),
    "crank_nicolson": (gf.step_crank_nicolson, _spsolve_crank_nicolson),
}


def _outcome(call):
    """The masses a step or solve returns, or the message it raises."""
    try:
        return call()
    except ValueError as exc:
        return str(exc)


def _same(a, b):
    return (a == b if isinstance(a, str) or isinstance(b, str)
            else np.array_equal(a, b))


@pytest.fixture(scope="module", params=sorted(_MESHES))
def flow_setup(request):
    mesh = _MESHES[request.param]()
    pot = gf.quadratic_potential([0.3] * mesh.dim)
    weights = gf.face_weights(mesh, pot)
    gen = gf.assemble_generator(mesh, weights, weights.pi)
    rng = np.random.default_rng(mesh.n_cells)
    m0 = DiscreteMeasure.normalized(rng.uniform(0.0, 1.0, mesh.n_cells))
    return gen, m0


class TestThetaStepper:
    @pytest.mark.parametrize("scheme", sorted(_STEPPERS))
    @pytest.mark.parametrize("dt", [1e-7, 1e-3, 0.1, 10.0])
    def test_single_step_bit_identical(self, flow_setup, scheme, dt):
        gen, m0 = flow_setup
        step, reference = _STEPPERS[scheme]
        for m in (m0, m0.masses):
            # Crank-Nicolson raises on large steps from rough data: so must both
            assert _same(_outcome(lambda: step(m, dt, gen).masses),
                         _outcome(lambda: reference(m, dt, gen).masses))

    @pytest.mark.parametrize("scheme", sorted(_STEPPERS))
    @pytest.mark.parametrize("T, steps", [(0.05, 7), (0.3, 33), (40.0, 4)])
    def test_trajectory_bit_identical(self, flow_setup, scheme, T, steps):
        gen, m0 = flow_setup
        _, reference = _STEPPERS[scheme]

        def by_reference():
            current, nodes = m0, [m0.masses]
            for _ in range(steps):
                current = reference(current, T / steps, gen)
                nodes.append(current.masses)
            return np.array(nodes)

        assert _same(_outcome(lambda: gf.solve_trajectory(
            m0, T, steps, gen, scheme=scheme).masses), _outcome(by_reference))

    @pytest.mark.parametrize("scheme", sorted(_STEPPERS))
    @pytest.mark.parametrize("steps", [1, 5, 17])
    def test_one_factorisation_per_solve(self, grid4, monkeypatch, scheme,
                                         steps):
        mesh, _, pi, weights = grid4
        gen = gf.assemble_generator(mesh, weights, pi)
        calls = []
        splu = dynamics.spla.splu
        monkeypatch.setattr(dynamics.spla, "splu",
                            lambda *a, **k: calls.append(1) or splu(*a, **k))
        gf.solve_trajectory(pi, 0.2, steps, gen, scheme=scheme)
        assert len(calls) == 1

    @pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_bad_dt_rejected(self, two_cell, dt):
        mesh, _, pi, weights = two_cell
        gen = gf.assemble_generator(mesh, weights, pi)
        for step in (gf.step_implicit_euler, gf.step_crank_nicolson):
            with pytest.raises(ValueError, match="dt must be finite"):
                step(pi, dt, gen)

    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, 0.0])
    @pytest.mark.parametrize("scheme", ["implicit_euler", "crank_nicolson",
                                        "exact_dense", "auto"])
    def test_non_finite_horizon_rejected(self, two_cell, T, scheme):
        mesh, _, pi, weights = two_cell
        gen = gf.assemble_generator(mesh, weights, pi)
        with pytest.raises(ValueError, match="finite T"):
            gf.solve_trajectory(pi, T, 4, gen, scheme=scheme)


class TestDenseOracleLimit:
    def test_one_message_before_eigh(self, monkeypatch):
        mesh = gf.build_interval_mesh(EXACT_DENSE_LIMIT + 1)
        gen = gf.build_generator(mesh, gf.zero_potential())

        def no_eigh(*args):
            raise AssertionError("eigh called above the dense limit")

        def no_quadrature(*args):
            raise AssertionError("quadrature inside the audit")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        monkeypatch.setattr(dynamics.lapack, "dstevd", no_eigh)
        monkeypatch.setattr(reference, "cell_integrals", no_quadrature)
        messages = []
        for call in (
                lambda: gf.solve_trajectory(gen.pi, 0.1, 2, gen,
                                            scheme="exact_dense"),
                gen.symmetric_eig,
                lambda: ex.edi_audit(gen, gen.pi, T=0.1, steps=8)):
            with pytest.raises(ValueError) as info:
                call()
            messages.append(str(info.value))
        assert messages == [f"the dense spectral oracle is limited to "
                            f"{EXACT_DENSE_LIMIT} cells, got "
                            f"{EXACT_DENSE_LIMIT + 1}"] * 3

    def test_auto_switches_at_auto_limit(self, monkeypatch):
        picked = []
        for n in (AUTO_DENSE_LIMIT, AUTO_DENSE_LIMIT + 1):
            mesh = gf.build_interval_mesh(n)
            weights = gf.face_weights(mesh, gf.zero_potential())
            gen = gf.assemble_generator(mesh, weights, weights.pi)
            picked.append(gf.solve_trajectory(weights.pi, 0.1, 1, gen).scheme)
        assert picked == ["exact_dense", "implicit_euler"]


# -- the eigendecomposition against the dense route every generator once took --


def _dense_route(generator):
    # a transcription of the former Generator.symmetric_eig
    sqrt_pi = np.sqrt(generator.pi.masses)
    sym = generator.matrix.toarray() * (sqrt_pi[None, :] / sqrt_pi[:, None])
    sym = 0.5 * (sym + sym.T)
    evals, evecs = np.linalg.eigh(sym)
    return sym, (evals, evecs, sqrt_pi)


def _dense_route_masses(generator, m0, T, steps):
    # solve_trajectory's exact_dense nodes on the transcribed decomposition
    _, (evals, evecs, sqrt_pi) = _dense_route(generator)
    coeff = evecs.T @ (m0 / sqrt_pi)
    masses = [m0]
    for t in np.linspace(0.0, T, steps + 1)[1:]:
        vals = sqrt_pi * (evecs @ (np.exp(evals * t) * coeff))
        masses.append(_clip_measure(vals).masses)
    return np.array(masses)


def _faceless_interval(n):
    # n cells of [0, 1] with no face between them: a generator of zeros
    mesh = gf.build_interval_mesh(n)
    return Mesh(1, mesh.domain, mesh.sites, mesh.volumes,
                cell_bounds=mesh.cell_bounds)


_SITES_1D = np.random.default_rng(0).random((50, 1))
_POTENTIALS_1D = {"zero": gf.zero_potential, "quadratic": gf.quadratic_potential,
                  "double-well": gf.double_well_potential}
# name -> (mesh, potential, the LAPACK route it takes); uniform1d crosses
# dstedc's SMLSIZ = 25 switch to divide and conquer
_EIG_CASES = {
    **{f"uniform1d-{n}-{v}": (lambda n=n: gf.build_interval_mesh(n),
                              _POTENTIALS_1D[v],
                              "eigh" if n == 1 else "dstevd")
       for n in (1, 2, 3, 25, 26, 33, 129, 512, 1024, 2000)
       for v in _POTENTIALS_1D},
    "voronoi1d-sorted": (
        lambda: gf.build_voronoi_mesh(np.sort(_SITES_1D, axis=0),
                                      gf.Domain.interval(0.0, 1.0)),
        gf.quadratic_potential, "dstevd"),
    "cartesian-9x1": (lambda: gf.build_cartesian_mesh(9, 1),
                      lambda: gf.quadratic_potential([0.3, 0.3]), "dstevd"),
    "faceless-3": (lambda: _faceless_interval(3), gf.quadratic_potential,
                   "dstevd"),
    "voronoi1d-unsorted": (
        lambda: gf.build_voronoi_mesh(_SITES_1D, gf.Domain.interval(0.0, 1.0)),
        gf.quadratic_potential, "eigh"),
    "cartesian-20x20": (lambda: gf.build_cartesian_mesh(20, 20),
                        lambda: gf.quadratic_potential([0.3, 0.3]), "eigh"),
    "voronoi-100": (
        lambda: gf.build_voronoi_mesh(ex._jittered_sites(10, 0.35, 42),
                                      gf.Domain.rectangle(0.0, 0.0, 1.0, 1.0)),
        lambda: gf.quadratic_potential([0.3, 0.3]), "eigh"),
}


class TestSymmetricEig:
    """Both LAPACK routes give the former dense route's bytes.  This pins
    that numpy's LAPACK (dsyevd) and scipy's (dstevd) agree bit for bit on
    tridiagonal matrices; they are separate OpenBLAS builds."""

    @pytest.mark.parametrize("case", sorted(_EIG_CASES))
    def test_same_bytes_as_the_dense_route(self, monkeypatch, case):
        build, potential, route = _EIG_CASES[case]
        gen = gf.build_generator(build(), potential())
        routes = []
        eigh, dstevd = np.linalg.eigh, dynamics.lapack.dstevd
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a: routes.append("eigh") or eigh(*a))
        monkeypatch.setattr(dynamics.lapack, "dstevd",
                            lambda *a, **k: routes.append("dstevd")
                            or dstevd(*a, **k))
        decomposition = gen.symmetric_eig()
        assert routes == [route]
        sym, expected = _dense_route(gen)
        assert gen.symmetrized().toarray().tobytes() == sym.tobytes()
        for got, want in zip(decomposition, expected):
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()
        assert decomposition[1].flags.c_contiguous
        rng = np.random.default_rng(gen.n)
        m0 = DiscreteMeasure.normalized(rng.uniform(0.1, 1.0, gen.n))
        traj = gf.solve_trajectory(m0, 0.1, 4, gen, scheme="exact_dense")
        assert traj.masses.tobytes() == _dense_route_masses(
            gen, m0.masses, 0.1, 4).tobytes()

    def test_lapack_failure_raises(self, monkeypatch):
        gen = gf.build_generator(gf.build_interval_mesh(8),
                                 gf.quadratic_potential())
        monkeypatch.setattr(dynamics.lapack, "dstevd",
                            lambda d, e, compute_v: (d, np.eye(len(d)), 3))
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"LAPACK dstevd\) failed with info 3$"):
            gen.symmetric_eig()
        assert gen._sym is None
