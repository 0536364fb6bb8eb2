import io
import math
import os
from types import SimpleNamespace

import numpy as np
import pytest

import gradflow as gf
from gradflow import experiments as ex
from gradflow.cli import main
from gradflow.dual_action import ConjugateGradientError
from gradflow.dynamics import EXACT_DENSE_LIMIT, Generator
from gradflow.forked import run_jobs
from gradflow.experiments import Density1D, wasserstein_1d
from gradflow.geometry import Box
from gradflow.mesh import cells_inside
from gradflow.reference import (DiscreteMeasure, PointFunction, _pointwise,
                                initial_measure_from_token,
                                potential_from_token)
from test_dynamics import _assert_no_child_process


class TestWasserstein1D:
    def test_identical_densities(self):
        p = Density1D(np.linspace(0, 1, 5), np.full(4, 1.0))
        assert wasserstein_1d(p, p) == 0.0

    def test_linear_against_uniform(self):
        # quantile gap u - sqrt(u): integral 1/30
        # exact cell averages of 1 and 2x on 4096 cells
        edges = np.linspace(0.0, 1.0, 4097)
        p = Density1D(edges, np.ones(4096))
        q = Density1D(edges, edges[:-1] + edges[1:])
        assert wasserstein_1d(p, q) == pytest.approx(math.sqrt(1.0 / 30.0),
                                                     abs=5e-4)

    def test_half_interval_translation(self):
        edges = np.linspace(0.0, 1.0, 5)
        p = Density1D(edges, np.array([2.0, 2.0, 0.0, 0.0]))
        q = Density1D(edges, np.array([0.0, 0.0, 2.0, 2.0]))
        assert wasserstein_1d(p, q) == pytest.approx(0.5, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        edges = np.linspace(0, 1, 9)
        p = Density1D(edges, rng.uniform(0.1, 1.0, 8) * 0 + _normed(rng, 8))
        q = Density1D(edges, _normed(rng, 8))
        assert wasserstein_1d(p, q) == pytest.approx(wasserstein_1d(q, p),
                                                     abs=1e-14)

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(4)
        edges = np.linspace(0, 1, 13)
        for _ in range(25):
            p = Density1D(edges, _normed(rng, 12))
            q = Density1D(edges, _normed(rng, 12))
            r = Density1D(edges, _normed(rng, 12))
            assert wasserstein_1d(p, r) <= wasserstein_1d(p, q) \
                + wasserstein_1d(q, r) + 1e-10

    def test_mass_mismatch_rejected(self):
        edges = np.linspace(0, 1, 3)
        p = Density1D(edges, np.array([1.0, 1.0]))
        bad = Density1D(edges, np.array([1.0, 1.5]))
        with pytest.raises(ValueError, match="mass"):
            wasserstein_1d(p, bad)

    def test_zero_density_cells_are_jumps(self):
        edges = np.linspace(0, 1, 5)
        p = Density1D(edges, np.array([2.0, 0.0, 0.0, 2.0]))
        q = Density1D(edges, np.array([0.0, 2.0, 2.0, 0.0]))
        assert wasserstein_1d(p, q) == pytest.approx(0.25, abs=1e-13)


def _normed(rng, n):
    v = rng.uniform(0.05, 1.0, n)
    return v / (v.sum() / n)


class TestFamilies:
    def test_sizes_strictly_decreasing(self):
        for fam in (ex.uniform_interval_family((8, 16, 32)),
                    ex.cartesian_family((2, 4, 8)),
                    ex.jittered_voronoi_family((16, 36, 64)),
                    ex.flattened_voronoi_family((16, 32, 64))):
            sizes = [m.size() for m in fam.build()]
            assert all(b < a for a, b in zip(sizes, sizes[1:]))

    def test_token_parsing(self):
        fam = ex.family_from_token("uniform1d:16..64")
        assert fam.labels == [16, 32, 64]
        fam = ex.family_from_token("cartesian:3,5")
        assert fam.labels == [3, 5]
        with pytest.raises(ValueError):
            ex.family_from_token("fractal:1..2")

    def test_token_without_sizes_takes_the_family_defaults(self):
        assert ex.family_from_token("uniform1d").labels == [16, 32, 64, 128, 256]
        assert ex.family_from_token("cartesian").labels == [4, 8, 16, 32]
        assert ex.family_from_token("voronoi").labels == [16, 36, 64, 144]
        assert ex.family_from_token("flattened").labels == [16, 32, 64, 128]
        with pytest.raises(ValueError, match="unknown family"):
            ex.family_from_token("anisotropic")

    @pytest.mark.parametrize("token", ["uniform1d:0..16", "cartesian:-4..16",
                                       "cartesian:64..16"])
    def test_bad_size_range_rejected(self, token):
        with pytest.raises(ValueError, match="a..b"):
            ex.family_from_token(token)

    @pytest.mark.parametrize("token, dim", [
        ("uniform1d:8..16", 1), ("cartesian:2..4", 2), ("voronoi:16", 2),
        ("flattened:16", 2)])
    def test_family_knows_its_dimension(self, token, dim):
        fam = ex.family_from_token(token)
        assert fam.dim == dim
        assert all(mesh.dim == dim for mesh in fam.build())

    def test_deterministic_jitter(self):
        a = ex.jittered_voronoi_family((36,)).build()[0]
        b = ex.jittered_voronoi_family((36,)).build()[0]
        assert np.array_equal(a.sites, b.sites)


class TestGammaEnergyStudy:
    def test_coordinate_exact_sequence(self):
        fam = ex.uniform_interval_family((16, 32, 64, 128, 256))
        study = ex.gamma_energy_study(fam, lambda x: x, gf.zero_potential(),
                                      grad=lambda x: 1.0)
        for row, n in zip(study.rows, fam.labels):
            assert row.value == pytest.approx(0.5 * (1 - 1 / n), abs=1e-12)
            assert row.error == pytest.approx(0.5 / n, abs=1e-12)
        orders = study.column("order")[1:]
        assert np.allclose(orders, 1.0, atol=1e-6)

    def test_constant_zero_rows(self):
        fam = ex.uniform_interval_family((8, 16))
        study = ex.gamma_energy_study(fam, lambda x: 1.0, gf.zero_potential(),
                                      grad=lambda x: 0.0)
        assert all(row.value == 0.0 for row in study.rows)

    def test_cosine_second_order(self):
        fam = ex.uniform_interval_family((16, 32, 64, 128))
        study = ex.gamma_energy_study(
            fam, lambda x: math.cos(math.pi * x), gf.zero_potential(),
            grad=lambda x: -math.pi * math.sin(math.pi * x))
        assert study.rows[0].reference == pytest.approx(math.pi ** 2 / 4,
                                                        abs=1e-10)
        errors = study.column("error")
        assert np.all(np.diff(errors) < 0.0)
        assert np.all(study.column("order")[1:] >= 1.5)

    def test_projected_rule(self):
        fam = ex.uniform_interval_family((16, 32))
        study = ex.gamma_energy_study(
            fam, lambda x: x, gf.zero_potential(), m_rule="projected",
            mu=lambda x: 1.0 + 0.5 * math.cos(math.pi * x),
            grad=lambda x: 1.0)
        # limit is the mu-weighted energy, here 1/2 (cosine integrates out)
        assert study.rows[0].reference == pytest.approx(0.5, abs=1e-9)
        assert study.rows[-1].error < study.rows[0].error


class TestGammaAffineStudy:
    def test_zero_direction(self):
        fam = ex.uniform_interval_family((16, 32))
        study = ex.gamma_affine_minimization_study(fam, 0.5, 0.0, 0.5)
        assert all(row.value == 0.0 for row in study.rows)

    def test_uniform_1d_cube(self):
        fam = ex.uniform_interval_family((16, 32, 64, 128, 256))
        study = ex.gamma_affine_minimization_study(fam, 0.5, 1.0, 0.5)
        for row in study.rows:
            assert row.reference == pytest.approx(0.5)
            assert row.error <= row.extras["boundary_layer"] + 1e-12
            assert row.extras["harmonicity_residual"] <= 1e-11
        assert study.rows[-1].error < study.rows[0].error

    def test_cartesian_diagonal_direction(self):
        fam = ex.cartesian_family((8, 16))
        study = ex.gamma_affine_minimization_study(fam, (0.5, 0.5), (1.0, 1.0),
                                                   0.5)
        for row in study.rows:
            assert row.reference == pytest.approx(0.5)
            assert row.error <= row.extras["boundary_layer"] + 1e-12
            assert row.extras["harmonicity_residual"] <= 1e-11

    @pytest.mark.parametrize("family", [
        ex.jittered_voronoi_family((64, 144)),
        ex.flattened_voronoi_family((64, 128)),
        ex.uniform_interval_family((16, 32))])
    def test_harmonicity_residual_as_the_face_loop(self, family):
        # the per-cell loop over the list-of-tuples adjacency that the
        # padded face graph replaces: same faces, same order, same bits
        dim = family.build()[0].dim
        z, xi = ([0.5], [1.0]) if dim == 1 else ([0.5, 0.5], [1.0, 0.3])
        study = ex.gamma_affine_minimization_study(family, z, xi, 0.6)
        for mesh, row in zip(family.build(), study.rows):
            f = (mesh.sites - np.array(z)[None, :]) @ np.array(xi)
            trans = mesh.transmissibilities()
            adjacency = mesh.adjacency()
            residual = 0.0
            box = Box.from_center(np.array(z), 0.6)
            for k in np.flatnonzero(cells_inside(mesh, box)):
                acc = 0.0
                for face, nb in adjacency[int(k)]:
                    acc += trans[face] * (f[nb] - f[int(k)])
                residual = max(residual, abs(acc))
            assert row.extras["interior_cells"] > 0
            assert row.extras["harmonicity_residual"] == residual

    @pytest.mark.parametrize("eps", [-0.5, 0.0, math.inf, math.nan])
    def test_side_not_finite_and_positive_rejected(self, eps):
        fam = ex.uniform_interval_family((16, 32))
        with pytest.raises(ValueError, match="finite and positive"):
            ex.gamma_affine_minimization_study(fam, 0.5, 1.0, eps)

    def test_cube_outside_rejected(self):
        fam = ex.uniform_interval_family((8,))
        with pytest.raises(ValueError, match="cube"):
            ex.gamma_affine_minimization_study(fam, 0.9, 1.0, 0.5)


class TestEdiAudit:
    def test_stationary_all_zero(self, grid4):
        mesh, pot, pi, _ = grid4
        audit = ex.edi_audit(gf.build_generator(mesh, pot), pi, T=0.25,
                             steps=16)
        assert audit.entropy_start == 0.0
        assert abs(audit.residual) <= 1e-12
        assert abs(audit.action_integral) <= 1e-12

    def test_two_cell_closed_form_balance(self, two_cell):
        mesh, pot, pi, _ = two_cell
        m0 = DiscreteMeasure(np.array([0.9, 0.1]))

        def exact_entropy(t):
            m1 = 0.5 + 0.4 * math.exp(-8.0 * t)
            return m1 * math.log(2 * m1) + (1 - m1) * math.log(2 * (1 - m1))

        gen = gf.build_generator(mesh, pot)
        audit = ex.edi_audit(gen, m0, T=0.5, steps=64)
        assert audit.entropy_start == pytest.approx(exact_entropy(0.0), abs=1e-13)
        assert audit.entropy_end == pytest.approx(exact_entropy(0.5), abs=1e-13)
        coarse = ex.edi_audit(gen, m0, T=0.5, steps=32)
        assert abs(audit.residual) <= abs(coarse.residual) / 4.0

    def test_identity_split(self, two_cell):
        mesh, pot, pi, _ = two_cell
        audit = ex.edi_audit(gf.build_generator(mesh, pot),
                             DiscreteMeasure(np.array([0.8, 0.2])),
                             T=0.5, steps=64)
        assert audit.action_integral == pytest.approx(audit.fisher_integral,
                                                      rel=1e-8)

    def test_zero_mass_start_rejected(self, two_cell):
        mesh, pot, pi, _ = two_cell
        with pytest.raises(ValueError, match="positive"):
            ex.edi_audit(gf.build_generator(mesh, pot),
                         DiscreteMeasure(np.array([1.0, 0.0])), T=0.1, steps=8)

    def test_odd_steps_rejected(self, two_cell):
        mesh, pot, pi, _ = two_cell
        with pytest.raises(ValueError, match="even"):
            ex.edi_audit(gf.build_generator(mesh, pot), pi, T=0.1, steps=7)

    @pytest.mark.parametrize("steps", [6, 10, 0, -4])
    def test_steps_not_multiple_of_four_rejected(self, two_cell, steps):
        mesh, pot, pi, _ = two_cell
        with pytest.raises(ValueError, match="multiple of 4"):
            ex.edi_audit(gf.build_generator(mesh, pot), pi, T=0.1,
                         steps=steps)

    def test_control_equals_half_step_audit_1d(self):
        mesh = gf.build_interval_mesh(8)
        pot = gf.linear_potential(1.0)
        gen = gf.build_generator(mesh, pot)
        m0 = initial_measure_from_token("blend:cosine:0.9", mesh, gen.pi)
        audit = ex.edi_audit(gen, m0, T=0.5, steps=64)
        half = ex.edi_audit(gen, m0, T=0.5, steps=32)
        assert audit.control_residual == half.residual
        assert audit.control_residual != audit.residual

    def test_control_chain_across_block_edges_equals_half_step_audit(self):
        # the control chain's 65 nodes are cut into blocks at nodes 32 and
        # 64, as the half-step audit's main chain is: each block's first
        # solve starts from zero in both
        mesh = gf.build_interval_mesh(8)
        gen = gf.build_generator(mesh, gf.linear_potential(1.0))
        m0 = initial_measure_from_token("blend:cosine:0.9", mesh, gen.pi)
        audit = ex.edi_audit(gen, m0, T=0.5, steps=128)
        half = ex.edi_audit(gen, m0, T=0.5, steps=64)
        assert len(half.times) > 2 * ex._CHAIN_BLOCK
        assert audit.control_residual == half.residual
        assert audit.control_residual != audit.residual

    def test_control_equals_half_step_audit_2d(self):
        mesh = gf.build_cartesian_mesh(6, 6)
        pot = gf.quadratic_potential([0.4, 0.6])
        gen = gf.build_generator(mesh, pot)
        m0 = initial_measure_from_token("blend:cosine:0.9", mesh, gen.pi)
        audit = ex.edi_audit(gen, m0, T=0.25, steps=32)
        half = ex.edi_audit(gen, m0, T=0.25, steps=16)
        assert audit.control_residual == half.residual
        assert np.array_equal(audit.fisher_nodes[::2], half.fisher_nodes)

    def test_audits_share_one_generator(self, monkeypatch):
        # audits at steps and steps // 2 on one set-up decompose it once and
        # agree, field for field, with audits on separately built set-ups
        mesh = gf.build_cartesian_mesh(5, 5)
        pot = gf.quadratic_potential([0.4, 0.6])

        def audits(shared):
            gen = gf.build_generator(mesh, pot)
            m0 = initial_measure_from_token("blend:cosine:0.9", mesh, gen.pi)
            second = gen if shared else gf.build_generator(mesh, pot)
            return (ex.edi_audit(gen, m0, T=0.25, steps=32),
                    ex.edi_audit(second, m0, T=0.25, steps=16))

        separate = audits(shared=False)
        eighs, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *a: eighs.append(1) or eigh(*a))
        shared = audits(shared=True)
        assert len(eighs) == 1
        for one, other in zip(shared, separate):
            for name, value in vars(one).items():
                assert (np.asarray(value).tobytes()
                        == np.asarray(getattr(other, name)).tobytes()), name

    def test_cell_cap_rejected(self):
        mesh = gf.build_interval_mesh(EXACT_DENSE_LIMIT + 1)
        gen = gf.build_generator(mesh, gf.zero_potential())
        with pytest.raises(ValueError, match=str(EXACT_DENSE_LIMIT)):
            ex.edi_audit(gen, gen.pi, T=0.1, steps=8)


def _cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)


def _audit_5x5(steps=32):
    mesh = gf.build_cartesian_mesh(5, 5)
    gen = gf.build_generator(mesh, gf.quadratic_potential([0.4, 0.6]))
    m0 = initial_measure_from_token("blend:cosine:0.9", mesh, gen.pi)
    return ex.edi_audit(gen, m0, T=0.25, steps=steps)


def _assert_same_audit(one, other):
    for name, value in vars(one).items():
        assert (np.asarray(value).tobytes()
                == np.asarray(getattr(other, name)).tobytes()), name


class TestForkedControlChain:
    """The control chain runs in a forked child when two CPUs are allowed."""

    STALL = "no convergence in 250 iterations, relative residual 1.017e-11"

    def _stall_control_chain(self, monkeypatch, stall):
        dual_blocks = ex._dual_blocks

        def stalled(generator, pattern, blocks):
            # the control chain is one block of 17 nodes
            if any(len(block) == 17 for block in blocks):
                stall()
            return dual_blocks(generator, pattern, blocks)

        monkeypatch.setattr(ex, "_dual_blocks", stalled)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_audit_bytes_on_any_cpu_count(self, monkeypatch, cpus):
        _cpus(monkeypatch, 1)
        serial = _audit_5x5()
        _cpus(monkeypatch, cpus)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        _assert_same_audit(_audit_5x5(), serial)
        # three blocks: main chain nodes 0-31 and 32, control chain 0-16
        assert len(forks) == min(cpus, 3) - 1
        _assert_no_child_process()

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_audit_bytes_with_more_blocks_than_cpus(self, monkeypatch, cpus):
        # 14 blocks: nine of the 257-node main chain, five of the 129-node
        # control chain
        _cpus(monkeypatch, 1)
        serial = _audit_5x5(steps=256)
        _cpus(monkeypatch, cpus)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        _assert_same_audit(_audit_5x5(steps=256), serial)
        assert len(forks) == cpus - 1
        _assert_no_child_process()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_control_chain_stall_raises_its_error(self, monkeypatch, cpus):
        def stall():
            raise ConjugateGradientError(self.STALL)

        _cpus(monkeypatch, cpus)
        self._stall_control_chain(monkeypatch, stall)
        with pytest.raises(ConjugateGradientError, match=f"^{self.STALL}$"):
            _audit_5x5()
        _assert_no_child_process()

    def test_control_chain_exit_names_the_chain(self, monkeypatch):
        _cpus(monkeypatch, 2)
        self._stall_control_chain(monkeypatch, lambda: os._exit(3))
        # of 50 nodes the caller runs the main chain's first 32, the child
        # its last, one-node block and the control chain's one block
        with pytest.raises(OSError, match="^nodes 32-32 of the EDI main chain "
                                          "through nodes 0-16 of the EDI "
                                          "control chain exited with status 3$"):
            _audit_5x5()
        _assert_no_child_process()

    def test_failed_fork_leaks_nothing(self, monkeypatch):
        def no_fork():
            raise BlockingIOError("Resource temporarily unavailable")

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", no_fork)
        fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError):
            _audit_5x5()
        assert len(os.listdir("/proc/self/fd")) == fds
        _assert_no_child_process()

    def test_forked_chain_after_threaded_eigh(self, monkeypatch):
        # OpenBLAS shuts its thread pool down before a fork, so a child may
        # run threaded BLAS and LAPACK after the parent did
        _cpus(monkeypatch, 1)
        serial = _audit_5x5()
        a = np.random.default_rng(5).random((400, 400))
        a += a.T
        evals = np.linalg.eigh(a)[0]
        _cpus(monkeypatch, 2)
        _assert_same_audit(_audit_5x5(), serial)
        def eigh(out):
            out.write(np.linalg.eigh(a)[0].tobytes())

        out = io.BytesIO()
        run_jobs([("the parent's eigh", 1, eigh), ("a child's eigh", 1, eigh)],
                 out)
        assert out.getvalue() == evals.tobytes() * 2
        _assert_no_child_process()

    def test_unpicklable_child_error_comes_back_as_text(self, monkeypatch):
        class Local(Exception):   # a local class does not pickle
            pass

        def fail(out):
            raise Local("the chain broke")

        _cpus(monkeypatch, 2)
        with pytest.raises(OSError, match="^the chain broke$"):
            run_jobs([("the caller's job", 1, lambda out: None),
                      ("a failing job", 1, fail)], io.BytesIO())
        _assert_no_child_process()


def _study_1d_csv(tmp_path, sizes=(16, 32, 64, 128)):
    study = ex.evolutionary_convergence_study(
        ex.uniform_interval_family(sizes), gf.quadratic_potential(), "cosine",
        T=0.1)
    path = tmp_path / "converge.csv"
    study.to_csv(path)
    return path.read_bytes()


class TestForkedStudyChains:
    """The 1D study's member chains run on every allowed CPU, through the
    cut the EDI audit shares (forked.run_jobs)."""

    STALL = "no convergence in 160 iterations, relative residual 1.017e-11"

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_study_bytes_on_any_cpu_count(self, tmp_path, monkeypatch, cpus):
        _cpus(monkeypatch, 1)
        serial = _study_1d_csv(tmp_path)
        _cpus(monkeypatch, cpus)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        assert _study_1d_csv(tmp_path) == serial
        assert len(forks) == min(cpus, 4) - 1     # one group per chain at most
        _assert_no_child_process()

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_largest_chain_in_the_caller_arrays_in_input_order(
            self, monkeypatch, cpus):
        parent = os.getpid()

        def nodes(generator, pattern, blocks):   # [ran in the caller, n, ...]
            out = [np.full(len(block), float(generator.n)) for block in blocks]
            for values in out:
                values[0] = os.getpid() == parent
            return out

        monkeypatch.setattr(ex, "_dual_blocks", nodes)
        _cpus(monkeypatch, cpus)
        # the 70-node chain is cut into blocks of 32, 32 and 6 nodes; of
        # 7488 cells x nodes, the caller's 2496 (three CPUs) or 3744 (two)
        # hold the midpoints of the first two chains, the 256-cell one's
        # at 2464, so the largest chain runs in the caller
        cells, lengths = [32, 256, 16, 128, 64], [9, 17, 70, 5, 17]
        no_faces = SimpleNamespace(face_cells=np.empty((0, 2), dtype=int))
        chains = [(f"the chain on {n} cells",
                   SimpleNamespace(n=n, weights=no_faces), np.zeros((k, n)))
                  for n, k in zip(cells, lengths)]
        result = ex._dual_chains(chains)
        assert [len(a) for a in result] == lengths
        for a, n in zip(result, cells):
            starts = np.arange(0, len(a), ex._CHAIN_BLOCK)
            assert a[starts].tolist() == [n in (32, 256)] * len(starts)
            assert np.delete(a, starts).tolist() == [float(n)] * (
                len(a) - len(starts))
        _assert_no_child_process()

    def test_member_stall_comes_back_from_the_child(self, tmp_path, capsys,
                                                     monkeypatch):
        parent, dual_blocks = os.getpid(), ex._dual_blocks

        def stalled(generator, pattern, blocks):  # the smallest chain, in
            if generator.n == 16:                 # the child
                assert os.getpid() != parent
                raise ConjugateGradientError(self.STALL)
            return dual_blocks(generator, pattern, blocks)

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(ex, "_dual_blocks", stalled)
        with pytest.raises(ConjugateGradientError, match=f"^{self.STALL}$"):
            _study_1d_csv(tmp_path, sizes=(16, 32))
        _assert_no_child_process()
        out = tmp_path / "converge"
        assert main(["converge", "--family", "uniform1d:16..64", "--potential",
                     "quadratic", "--out", str(out)]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {self.STALL}"]
        assert not out.exists()
        _assert_no_child_process()

    def test_no_dense_eigh_in_a_forked_job(self, tmp_path, monkeypatch):
        parent, symmetric_eig = os.getpid(), Generator.symmetric_eig

        def in_the_caller(self):
            if os.getpid() != parent:
                raise AssertionError("a dense eigh ran in a forked job")
            return symmetric_eig(self)

        monkeypatch.setattr(Generator, "symmetric_eig", in_the_caller)
        _cpus(monkeypatch, 2)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        _study_1d_csv(tmp_path, sizes=(16, 32, 64))
        _audit_5x5()
        assert len(forks) == 2
        _assert_no_child_process()


def test_density1d_shape_validation():
    with pytest.raises(ValueError, match="shapes"):
        Density1D(np.linspace(0, 1, 5), np.ones(5))


class TestEdiOnAnisotropicMesh:
    def test_balance_and_identity_hold_off_grid(self):
        # end to end on a skewed Voronoi mesh with a curved potential; the
        # coarse centroid rule cannot pass the 1e-8 projection mass check on
        # skewed cells, so the projection selects the degree-5 rule
        from gradflow.reference import density_from_token

        mesh = ex.flattened_voronoi_family((36,)).build()[0]
        gen = gf.build_generator(mesh, gf.quadratic_potential([0.4, 0.6]))
        proj = gf.project_measure(mesh, density_from_token("cosine", 2),
                                  quad_order=3)
        m0 = DiscreteMeasure(0.9 * proj.masses + 0.1 * gen.pi.masses)
        fine = ex.edi_audit(gen, m0, T=0.1, steps=128)
        coarse = ex.edi_audit(gen, m0, T=0.1, steps=64)
        assert abs(fine.residual) <= 1e-5 * fine.entropy_start
        assert abs(fine.residual) <= abs(coarse.residual) / 4.0
        gap = np.abs(fine.dual_nodes - fine.fisher_nodes)
        assert np.all(gap <= 1e-8 * (1.0 + 2.0 * fine.fisher_nodes))

    def test_coarse_quadrature_mass_check_rejects(self):
        from gradflow.reference import density_from_token

        mesh = ex.flattened_voronoi_family((36,)).build()[0]
        with pytest.raises(ValueError, match="mass"):
            gf.project_measure(mesh, density_from_token("cosine", 2))


class TestEvolutionaryStudy:
    def test_stationary_initial_data_zero_error(self, monkeypatch):
        monkeypatch.setattr(ex, "T_NODES", 5)
        fam = ex.uniform_interval_family((8, 16))
        study = ex.evolutionary_convergence_study(fam, gf.zero_potential(),
                                                  "uniform", T=0.05)
        assert study.params["t_nodes"] == 5
        assert all(row.error <= 1e-9 for row in study.rows)

    def test_cosine_reference_amplitude(self):
        ref = ex._cosine_density_1d_exact(0.1, 4096)
        amp = 0.5 * math.exp(-0.1 * math.pi ** 2)
        assert amp == pytest.approx(0.18636, abs=1e-5)
        assert ref.values.max() == pytest.approx(1.0 + amp, abs=1e-6)
        assert ref.mass() == pytest.approx(1.0, abs=1e-13)

    def test_errors_decrease_with_order_one(self):
        fam = ex.uniform_interval_family((16, 32, 64))
        study = ex.evolutionary_convergence_study(fam, gf.zero_potential(),
                                                  "cosine", T=0.1)
        errors = study.column("error")
        assert np.all(np.diff(errors) < 0.0)
        assert np.all(study.column("order")[1:] >= 1.0)
        for row in study.rows:
            assert row.extras["dual_integral"] == pytest.approx(
                row.extras["fisher_integral"], rel=1e-6)

    def test_richardson_route_for_nonzero_potential(self, monkeypatch):
        monkeypatch.setattr(ex, "T_NODES", 9)
        fam = ex.uniform_interval_family((16, 32))
        study = ex.evolutionary_convergence_study(
            fam, gf.linear_potential(1.0), "cosine", T=0.05)
        errors = study.column("error")
        assert errors[1] < errors[0]

    def test_richardson_grid_built_once(self, monkeypatch):
        pot = gf.linear_potential(1.0)
        refs, pi = ex._richardson_reference_1d(
            pot, lambda x: 1.0 + 0.5 * math.cos(math.pi * x), 0.05, 5, 32,
            "logarithmic")
        assert len(refs) == 5 and len(refs[0].values) == 16
        # face_weights(...).pi is discretize_reference on that grid, exactly
        assert np.array_equal(pi.masses, gf.discretize_reference(
            gf.build_interval_mesh(16), pot).masses)
        built, build = [], ex.build_interval_mesh
        monkeypatch.setattr(ex, "build_interval_mesh",
                            lambda n, **kw: built.append(n) or build(n, **kw))
        monkeypatch.setattr(ex, "T_NODES", 9)
        ex.evolutionary_convergence_study(ex.uniform_interval_family((16, 32)),
                                          pot, "cosine", T=0.05)
        assert sorted(n for n in built if n > 32) == [64, 128]

    @pytest.mark.parametrize("potential", ["zero", "quadratic"])
    def test_non_unit_interval_rejected_before_any_reference(
            self, monkeypatch, potential):
        # both references live on [0, 1]: on [0, 2] the study died inside
        # the Richardson reference with "density has mass 2.0", whatever V
        work = []
        monkeypatch.setattr(ex, "_richardson_reference_1d",
                            lambda *a: work.append("reference"))
        monkeypatch.setattr(ex, "_cosine_density_1d_exact",
                            lambda *a: work.append("closed form"))
        monkeypatch.setattr(Generator, "symmetric_eig",
                            lambda self: work.append("eig"))
        family = ex.MeshFamily("uniform1d", 1, [16, 32], lambda n:
                               gf.build_interval_mesh(n, interval=(0.0, 2.0)))
        with pytest.raises(ValueError, match=r"live on \[0, 1\], not on the "
                                             r"family's interval \[0\.0, "
                                             r"2\.0\]$"):
            ex.evolutionary_convergence_study(
                family, potential_from_token(potential, 1), "cosine", T=0.1)
        assert work == []

    def test_cartesian_l1_route(self, monkeypatch):
        monkeypatch.setattr(ex, "T_NODES", 5)
        fam = ex.cartesian_family((4, 8))
        study = ex.evolutionary_convergence_study(fam, gf.zero_potential(),
                                                  "cosine", T=0.05)
        errors = study.column("error")
        assert errors[1] < errors[0]

    def test_cartesian_family_built_once(self, monkeypatch):
        monkeypatch.setattr(ex, "T_NODES", 5)
        fam = ex.cartesian_family((4, 8))
        built = []
        make = fam.make
        fam.make = lambda n: built.append(n) or make(n)
        ex.evolutionary_convergence_study(fam, gf.zero_potential(), "cosine",
                                          T=0.05)
        assert built == [4, 8]


class TestLowerBoundTrend:
    def test_stationary_data_all_zero(self):
        fam = ex.uniform_interval_family((8, 16))
        study = ex.lower_bound_trend_study(fam, lambda x: 1.0,
                                           lambda x: math.cos(math.pi * x))
        for row in study.rows:
            assert row.value == pytest.approx(0.0, abs=1e-13)
            assert row.reference == pytest.approx(0.0, abs=1e-12)
            assert row.extras["fisher_value"] == pytest.approx(0.0, abs=1e-12)

    def test_linear_density_entropy_reference(self):
        fam = ex.uniform_interval_family((8, 16, 32))
        study = ex.lower_bound_trend_study(fam, lambda x: 2.0 * x,
                                           lambda x: math.cos(math.pi * x))
        target = math.log(2.0) - 0.5
        assert study.rows[0].reference == pytest.approx(target, abs=1e-10)
        for row in study.rows:
            assert row.value <= target + 1e-13  # projected entropy sits below
        deficits = [-row.error for row in study.rows]
        assert deficits[-1] < deficits[0]

    def test_dual_reference_closed_form(self):
        # eta = cos(pi x) against the uniform measure: dual is 1/(4 pi^2)
        domain = gf.Domain.interval(0.0, 1.0)
        value = ex.continuum_dual(lambda x: 1.0,
                                  lambda x: math.cos(math.pi * x),
                                  gf.zero_potential(), domain)
        assert value == pytest.approx(1.0 / (4.0 * math.pi ** 2), abs=1e-8)

    def test_tilted_reference_measure_trend(self):
        fam = ex.uniform_interval_family((16, 32, 64))
        mu = lambda x: 1.0 + 0.5 * math.cos(math.pi * x)
        eta = lambda x: math.sin(math.pi * x)
        study = ex.lower_bound_trend_study(fam, mu, eta,
                                           potential=gf.linear_potential(1.0))
        entropy_gap = np.abs(study.column("error"))
        fisher_gap = np.abs(study.column("fisher_deficit"))
        dual_gap = np.abs(study.column("dual_deficit"))
        for gaps in (entropy_gap, fisher_gap, dual_gap):
            assert gaps[-1] < gaps[1] < gaps[0]
        # the entropy sits below its limit (projection averages densities)
        assert np.all(study.column("error") <= 1e-12)

    def test_smooth_positive_density_trend(self):
        fam = ex.uniform_interval_family((16, 32, 64))
        mu = lambda x: 1.0 + 0.5 * math.cos(math.pi * x)
        eta = lambda x: math.cos(math.pi * x)
        study = ex.lower_bound_trend_study(fam, mu, eta)
        gaps = np.abs(study.column("error"))
        assert gaps[-1] < gaps[0]
        fisher_gap = np.abs(study.column("fisher_deficit"))
        assert fisher_gap[-1] < fisher_gap[0]
        dual_gap = np.abs(study.column("dual_deficit"))
        assert dual_gap[-1] < dual_gap[0]


class TestIsotropyStudy:
    def test_cartesian_flat(self):
        study = ex.isotropy_study(ex.cartesian_family((4, 8)))
        assert all(row.value <= 1e-12 for row in study.rows)

    def test_flattened_bounded_away_from_zero(self):
        study = ex.isotropy_study(ex.flattened_voronoi_family((16, 32, 64)))
        coarsest = study.rows[0].value
        assert coarsest >= 0.05
        for row in study.rows:
            assert row.value >= 0.5 * coarsest


class TestAnisotropicRecording:
    def test_gamma_energy_recorded_without_order_claim(self):
        # anisotropy does not break the energy limit; values are recorded
        fam = ex.flattened_voronoi_family((16, 32, 64))
        study = ex.gamma_energy_study(
            fam, lambda p: float(p[0]), gf.zero_potential(),
            grad=lambda p: np.array([1.0, 0.0]))
        assert study.rows[0].reference == pytest.approx(0.5, abs=1e-9)
        for row in study.rows:
            assert math.isfinite(row.value)
        assert study.rows[-1].error <= study.rows[0].error


class TestStudyResult:
    def test_csv_reproducible(self, tmp_path):
        fam = ex.uniform_interval_family((8, 16, 32))
        a = ex.gamma_energy_study(fam, lambda x: x, gf.zero_potential(),
                                  grad=lambda x: 1.0)
        b = ex.gamma_energy_study(fam, lambda x: x, gf.zero_potential(),
                                  grad=lambda x: 1.0)
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        a.to_csv(pa)
        b.to_csv(pb)
        assert pa.read_bytes() == pb.read_bytes()
        header = pa.read_text().splitlines()[0]
        assert header.startswith("mesh_size,value,reference,error,order")

    def test_summary_shape(self):
        fam = ex.uniform_interval_family((8, 16))
        study = ex.gamma_energy_study(fam, lambda x: x, gf.zero_potential(),
                                      grad=lambda x: 1.0)
        summary = study.summary()
        assert summary["study"] == "gamma_energy"
        assert len(summary["rows"]) == 2


class TestStationaryDensity:
    def test_triangle_normalised_over_the_domain(self):
        triangle = gf.Domain.polygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        sigma = ex.stationary_density(gf.zero_potential(), triangle)
        assert sigma(np.array([0.2, 0.2])) == pytest.approx(2.0, rel=1e-2)

    def test_rectangle_matches_exact_sum(self):
        pot = gf.quadratic_potential([0.3, 0.6])
        sigma = ex.stationary_density(pot, gf.Domain.rectangle(0.0, 0.0, 2.0, 1.0))
        # the midpoint rule on the 512^2 grid, summed exactly, as a reference copy
        xs = (np.arange(512) + 0.5) * 2.0 / 512
        ys = (np.arange(512) + 0.5) * 1.0 / 512
        cell = 2.0 / (512 * 512)
        z = math.fsum(cell * math.exp(-pot(np.array([xv, yv])))
                      for yv in ys for xv in xs)
        for p in ([0.7, 0.2], [1.9, 0.95], [0.3, 0.6]):
            p = np.array(p)
            assert sigma(p) == pytest.approx(math.exp(-pot(p)) / z, rel=1e-15)


class _Counted:
    """An array form that records the rows of each call; a call at one
    point fails, so any per-point loop over it shows."""

    def __init__(self, batch):
        self._batch = batch
        self.rows = []

    def batch(self, points):
        self.rows.append(len(points))
        return self._batch(points)

    def __call__(self, x):
        raise AssertionError("evaluated point by point")


def _old_gauss_rule(a, b, cells, points=4):
    """Reference copy of the former composite Gauss-Legendre builder."""
    gx, gw = np.polynomial.legendre.leggauss(points)
    edges = np.linspace(a, b, cells + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return ((mid[:, None] + half[:, None] * gx[None, :]).ravel(),
            (half[:, None] * gw[None, :]).ravel())


def _old_continuum_fisher(mu, potential, domain, resolution):
    """Reference copy of the former 1D Fisher reference: its own central
    difference of sqrt(mu/sigma) at x -+ h."""
    sigma = ex.stationary_density(potential, domain, resolution)
    x, w = ex._reference_rule(domain, resolution)
    h = 1e-6
    left = np.sqrt(_pointwise(mu, x - h) / _pointwise(sigma, x - h))
    right = np.sqrt(_pointwise(mu, x + h) / _pointwise(sigma, x + h))
    return 4.0 * float(np.sum(w * ((right - left) / (2 * h)) ** 2
                              * _pointwise(sigma, x)))


def _old_continuum_entropy(mu, potential, resolution):
    """Reference copy of the former per-point entropy loop on [0, 1]."""
    x, w = _old_gauss_rule(0.0, 1.0, resolution)
    z = float(np.sum(w * np.array([math.exp(-potential(xi)) for xi in x])))
    total = 0.0
    for xi, wi in zip(x, w):
        rho = float(mu(xi))
        if rho > 0.0:
            total += wi * rho * math.log(rho / (math.exp(-potential(xi)) / z))
    return total


class TestContinuumReferences:
    @pytest.mark.parametrize("a, b, cells", [(0.0, 1.0, 512), (0.0, 1.0, 4096),
                                             (-1.0, 2.5, 512)])
    def test_interval_rule_matches_old_builder(self, a, b, cells):
        x, w = ex._reference_rule(gf.Domain.interval(a, b), cells)
        old_x, old_w = _old_gauss_rule(a, b, cells)
        assert x.shape == (4 * cells, 1)
        assert np.array_equal(x[:, 0], old_x) and np.array_equal(w, old_w)

    @pytest.mark.parametrize("domain, rows", [
        (gf.Domain.interval(0.0, 1.0), 4 * 4096),
        (gf.Domain.rectangle(0.0, 0.0, 2.0, 1.0), 512 * 512)])
    def test_stationary_density_one_batch(self, domain, rows):
        v = _Counted(gf.quadratic_potential([0.3] * domain.dim).batch)
        sigma = ex.stationary_density(gf.Potential("counted", batch=v.batch),
                                      domain)
        assert v.rows == [rows]
        points, weights = ex._reference_rule(domain, 4096 if domain.dim == 1 else 512)
        assert float(np.sum(weights * sigma.batch(points))) == pytest.approx(1.0, rel=1e-15)
        assert sigma(points[7]) == sigma.batch(points[7:8])[0]

    def test_references_evaluate_each_function_in_one_batch(self):
        domain = gf.Domain.interval(0.0, 1.0)
        v = _Counted(gf.quadratic_potential().batch)
        potential = gf.Potential("counted", batch=v.batch)
        mu = _Counted(lambda p: 1.0 + 0.5 * np.cos(np.pi * p[:, 0]))
        eta = _Counted(lambda p: np.sin(np.pi * p[:, 0]))
        ex.continuum_entropy(mu, potential, domain, 256)
        ex.continuum_fisher(mu, potential, domain, 256)
        ex.continuum_dual(mu, eta, potential, domain, 256)
        # entropy: mu once; fisher: mu at x - h and x + h; dual: mu once
        assert mu.rows == [1024, 1024, 1024, 256]
        assert eta.rows == [256]
        # Z once per reference, then sigma once (entropy, dual) or 3 times
        assert v.rows == [1024] * 2 + [1024] * 4 + [1024, 256]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_dirichlet_one_batch_per_function(self, dim):
        domain = (gf.Domain.interval(0.0, 1.0) if dim == 1
                  else gf.Domain.rectangle(0.0, 0.0, 1.0, 1.0))
        phi = _Counted(lambda p: np.cos(np.pi * p[:, 0]))
        grad = _Counted(lambda p: np.column_stack(
            [-np.pi * np.sin(np.pi * p[:, 0])] + [np.zeros(len(p))] * (dim - 1)))
        density = _Counted(lambda p: np.ones(len(p)))
        exact = gf.continuous_dirichlet(phi, density, domain, grad=grad,
                                        resolution=64)
        numeric = gf.continuous_dirichlet(phi, density, domain, resolution=64)
        rows = 4 * 64 if dim == 1 else 64 * 64
        assert grad.rows == [rows] and phi.rows == [rows] * 2 * dim
        assert density.rows == [rows, rows]
        assert exact == pytest.approx(math.pi ** 2 / 4.0, rel=1e-3)
        assert numeric == pytest.approx(exact, rel=1e-8)

    @pytest.mark.parametrize("potential", ["zero", "quadratic", "double-well"])
    def test_entropy_matches_old_loop(self, potential):
        pot = gf.reference.potential_from_token(potential, 1)
        mu = ex.heat_cosine_density(0.05)
        old = _old_continuum_entropy(lambda x: 1.0 + 0.5 * math.exp(
            -math.pi ** 2 * 0.05) * math.cos(math.pi * x), pot, 512)
        value = ex.continuum_entropy(mu, pot, gf.Domain.interval(0.0, 1.0), 512)
        assert value == pytest.approx(old, rel=1e-13)

    @pytest.mark.parametrize("resolution", [256, 4096])
    @pytest.mark.parametrize("potential", ["zero", "linear", "quadratic",
                                           "double-well"])
    def test_fisher_1d_matches_the_former_difference_bits(self, potential,
                                                          resolution):
        pot = gf.reference.potential_from_token(potential, 1)
        domain = gf.Domain.interval(0.0, 1.0)
        for mu in (ex.heat_cosine_density(0.02),
                   lambda x: 1.0 + 0.3 * math.sin(math.pi * (x - 0.5))):
            value = ex.continuum_fisher(mu, pot, domain, resolution)
            assert value == _old_continuum_fisher(mu, pot, domain, resolution)

    def test_fisher_2d_product_cosine_closed_form(self):
        # mu = (1 + a cos pi x)(1 + a cos pi y), V = 0: 4 int |grad sqrt mu|^2
        # = 2 pi^2 (1 - sqrt(1 - a^2)); a derivative along (1, 1) gives 4.64
        a = 0.5
        mu = PointFunction(lambda p: np.prod(1.0 + a * np.cos(np.pi * p), axis=1))
        value = ex.continuum_fisher(mu, gf.zero_potential(),
                                    gf.Domain.rectangle(0.0, 0.0, 1.0, 1.0), 256)
        exact = 2.0 * math.pi ** 2 * (1.0 - math.sqrt(1.0 - a * a))
        assert value == pytest.approx(exact, rel=1e-9)

    def test_square_dirichlet_matches_old_loop(self):
        pot = gf.quadratic_potential([0.3, 0.6])
        domain = gf.Domain.rectangle(0.0, 0.0, 1.0, 1.0)
        sigma = ex.stationary_density(pot, domain)
        from gradflow.cli import _phi_from_token

        phi, grad = _phi_from_token("cosine", 2)
        # the former loop: a sequential midpoint sum at 128^2
        xs = (np.arange(128) + 0.5) / 128
        total = 0.0
        for yv in xs:
            for xv in xs:
                p = np.array([xv, yv])
                gv = np.array([-math.pi * math.sin(math.pi * xv), 0.0])
                total += float(gv @ gv) * sigma(p)
        old = 0.5 * total / 128 ** 2
        value = gf.continuous_dirichlet(phi, sigma, domain, grad=grad,
                                        resolution=128)
        assert value == pytest.approx(old, rel=1e-13)
