import math
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph
from scipy.sparse._sparsetools import csr_matvec
from scipy.sparse.linalg import splu

import gradflow as gf
from gradflow import experiments
from gradflow.dual_action import (MAX_ITER_FACTOR, ConjugateGradientError,
                                  OnsagerOperator, _solve_cg, assemble_onsager,
                                  dual_action, onsager_operators, onsager_pattern)
from gradflow.functionals import mean_value
from gradflow.reference import DiscreteMeasure, initial_measure_from_token


class TestAssembleOnsager:
    def test_two_cell_matrix(self, two_cell):
        mesh, _, pi, weights = two_cell
        op = assemble_onsager(mesh, weights, pi, pi)
        assert np.allclose(op.matrix.toarray(), [[2.0, -2.0], [-2.0, 2.0]])

    def test_quadratic_form_is_twice_action(self, grid4):
        mesh, _, pi, weights = grid4
        rng = np.random.default_rng(2)
        m = DiscreteMeasure.normalized(rng.uniform(0.1, 1.0, mesh.n_cells))
        op = assemble_onsager(mesh, weights, m, pi)
        for _ in range(5):
            f = rng.standard_normal(mesh.n_cells)
            assert float(f @ (op.matrix @ f)) == pytest.approx(
                2.0 * gf.action(m, f, weights, pi), rel=1e-12)

    def test_constants_in_kernel(self, chain10):
        mesh, _, pi, weights = chain10
        op = assemble_onsager(mesh, weights, pi, pi)
        assert np.abs(op.matrix @ np.full(mesh.n_cells, 3.0)).max() <= 1e-13

    def test_symmetry_and_psd(self, grid4):
        mesh, _, pi, weights = grid4
        rng = np.random.default_rng(3)
        m = DiscreteMeasure.normalized(rng.uniform(0.05, 1.0, mesh.n_cells))
        op = assemble_onsager(mesh, weights, m, pi)
        dense = op.matrix.toarray()
        assert np.abs(dense - dense.T).max() <= 1e-13
        for _ in range(5):
            f = rng.standard_normal(mesh.n_cells)
            assert float(f @ (op.matrix @ f)) >= -1e-13

    def test_zero_mass_cell_gives_zero_row(self, chain10):
        mesh, _, pi, weights = chain10
        masses = np.full(mesh.n_cells, 1.0 / (mesh.n_cells - 1))
        masses[0] = 0.0
        op = assemble_onsager(mesh, weights, DiscreteMeasure(masses), pi)
        assert np.abs(op.matrix.toarray()[0]).max() == 0.0
        assert op.n_components == 2  # isolated zero cell plus the rest


class TestDualAction:
    def test_zero_sigma(self, two_cell):
        mesh, _, pi, weights = two_cell
        assert dual_action(pi, np.zeros(2), weights, pi, mesh=mesh) == 0.0

    def test_two_cell_closed_form(self, two_cell):
        mesh, _, pi, weights = two_cell
        m = DiscreteMeasure(np.array([0.75, 0.25]))
        value = dual_action(m, np.array([0.1, -0.1]), weights, pi, mesh=mesh)
        assert value == pytest.approx(0.0025 * math.log(3.0), abs=1e-12)

    def test_round_trip_equals_action(self, grid4):
        mesh, _, pi, weights = grid4
        rng = np.random.default_rng(5)
        for _ in range(10):
            m = DiscreteMeasure.normalized(rng.uniform(0.1, 1.0, mesh.n_cells))
            f = rng.standard_normal(mesh.n_cells)
            op = assemble_onsager(mesh, weights, m, pi)
            sigma = op.matrix @ f
            value = dual_action(m, sigma, weights, pi, operator=op)
            assert value == pytest.approx(gf.action(m, f, weights, pi), rel=1e-9)

    def test_quadratic_scaling(self, chain10):
        mesh, _, pi, weights = chain10
        rng = np.random.default_rng(6)
        m = DiscreteMeasure.normalized(rng.uniform(0.2, 1.0, mesh.n_cells))
        sigma = rng.standard_normal(mesh.n_cells)
        sigma -= sigma.mean()
        base = dual_action(m, sigma, weights, pi, mesh=mesh)
        for lam in (0.5, 2.0, -3.0):
            scaled = dual_action(m, lam * sigma, weights, pi, mesh=mesh)
            assert scaled == pytest.approx(lam * lam * base, rel=1e-10)

    def test_fenchel_young(self, chain10):
        mesh, _, pi, weights = chain10
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = DiscreteMeasure.normalized(rng.uniform(0.1, 1.0, mesh.n_cells))
            f = rng.standard_normal(mesh.n_cells)
            sigma = rng.standard_normal(mesh.n_cells)
            sigma -= sigma.mean()
            lhs = float(sigma @ f)
            rhs = gf.action(m, f, weights, pi) \
                + dual_action(m, sigma, weights, pi, mesh=mesh)
            assert lhs <= rhs + 1e-9

    def test_fenchel_young_equality_at_optimum(self, two_cell):
        mesh, _, pi, weights = two_cell
        m = DiscreteMeasure(np.array([0.6, 0.4]))
        f = np.array([1.0, -0.5])
        op = assemble_onsager(mesh, weights, m, pi)
        sigma = op.matrix @ f
        lhs = float(sigma @ f)
        rhs = gf.action(m, f, weights, pi) \
            + dual_action(m, sigma, weights, pi, operator=op)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_convexity_in_m(self, chain10):
        mesh, _, pi, weights = chain10
        rng = np.random.default_rng(8)
        m0 = DiscreteMeasure.normalized(rng.uniform(0.1, 1.0, mesh.n_cells))
        m1 = DiscreteMeasure.normalized(rng.uniform(0.1, 1.0, mesh.n_cells))
        sigma = rng.standard_normal(mesh.n_cells)
        sigma -= sigma.mean()
        d0 = dual_action(m0, sigma, weights, pi, mesh=mesh)
        d1 = dual_action(m1, sigma, weights, pi, mesh=mesh)
        for t in (0.25, 0.5, 0.75):
            blend = DiscreteMeasure(t * m0.masses + (1 - t) * m1.masses)
            mixed = dual_action(blend, sigma, weights, pi, mesh=mesh)
            assert mixed <= t * d0 + (1 - t) * d1 + 1e-9

    def test_unbalanced_sigma_is_infinite(self, two_cell):
        mesh, _, pi, weights = two_cell
        with pytest.warns(UserWarning, match="unbalanced"):
            value = dual_action(pi, np.array([0.2, 0.1]), weights, pi,
                                mesh=mesh)
        assert value == math.inf

    def test_off_range_component_is_infinite(self):
        mesh = gf.build_interval_mesh(3)
        pot = gf.zero_potential()
        pi = gf.discretize_reference(mesh, pot)
        weights = gf.face_weights(mesh, pot)
        m = DiscreteMeasure(np.array([0.5, 0.5, 0.0]))
        # globally balanced but charged on the zero-mass component
        sigma = np.array([0.1, 0.1, -0.2])
        assert dual_action(m, sigma, weights, pi, mesh=mesh) == math.inf
        # balanced within the positive component: finite
        sigma_ok = np.array([0.1, -0.1, 0.0])
        assert math.isfinite(dual_action(m, sigma_ok, weights, pi, mesh=mesh))

    def test_split_support_decomposes(self):
        # two positive blocks isolated by a zero cell: the dual is the sum
        # of the independent two-cell closed forms
        mesh = gf.build_interval_mesh(5)
        pot = gf.zero_potential()
        pi = gf.discretize_reference(mesh, pot)
        weights = gf.face_weights(mesh, pot)
        m = DiscreteMeasure(np.array([0.3, 0.2, 0.0, 0.1, 0.4]))
        r = m.masses / pi.masses
        theta01 = gf.log_mean(r[0], r[1])
        theta34 = gf.log_mean(r[3], r[4])
        s, t = 0.05, -0.02
        sigma = np.array([s, -s, 0.0, t, -t])
        expected = s * s / (2.0 * theta01 * weights.w[0]) \
            + t * t / (2.0 * theta34 * weights.w[3])
        value = dual_action(m, sigma, weights, pi, mesh=mesh)
        assert value == pytest.approx(expected, rel=1e-10)

    def test_gradient_flow_identity(self, chain10):
        mesh, _, pi, weights = chain10
        generator = gf.assemble_generator(mesh, weights, pi)
        m = gf.project_measure(mesh, lambda x: 1.0 + 0.5 * math.cos(math.pi * x))
        blend = DiscreteMeasure(0.9 * m.masses + 0.1 * pi.masses)
        mdot = generator.matrix @ blend.masses
        half_fisher = 0.5 * gf.fisher(blend, weights, pi)
        value = dual_action(blend, mdot, weights, pi, mesh=mesh)
        assert value == pytest.approx(half_fisher, abs=1e-8 * (1 + half_fisher))

    def test_solution_return_and_warm_start(self, chain10):
        mesh, _, pi, weights = chain10
        rng = np.random.default_rng(9)
        m = DiscreteMeasure.normalized(rng.uniform(0.3, 1.0, mesh.n_cells))
        sigma = rng.standard_normal(mesh.n_cells)
        sigma -= sigma.mean()
        op = assemble_onsager(mesh, weights, m, pi)
        value, f = dual_action(m, sigma, weights, pi, operator=op,
                               return_solution=True)
        assert np.linalg.norm(op.matrix @ f - sigma) <= 1e-10 * np.linalg.norm(sigma)
        warm = dual_action(m, sigma, weights, pi, operator=op, initial_guess=f)
        assert warm == pytest.approx(value, rel=1e-12)


def conductance(weights, m, pi):
    """theta(r_K, r_L) w_KL per face, r = m/pi, theta the logarithmic mean."""
    r = m.masses / pi.masses
    fc = weights.face_cells
    return mean_value("logarithmic", r[fc[:, 0]], r[fc[:, 1]]) * weights.w


def coo_onsager(weights, m, pi, n):
    """Reference for the pattern assembly: B by a COO -> CSR build of the face
    conductances, labels from the connected components of the live faces."""
    c, fc = conductance(weights, m, pi), weights.face_cells
    k, l = fc[:, 0], fc[:, 1]
    matrix = sp.coo_matrix((np.concatenate([c, c, -c, -c]),
                            (np.concatenate([k, l, k, l]),
                             np.concatenate([k, l, l, k]))),
                           shape=(n, n)).tocsr()
    live = c > 0.0
    adjacency = sp.coo_matrix((c[live], (k[live], l[live])), shape=(n, n))
    n_comp, labels = csgraph.connected_components(adjacency, directed=False)
    return matrix, n_comp, labels


def reference_cg(operator, b, x0):
    """Reference for _solve_cg's in-place form: Jacobi-CG with new arrays for
    every update, np.linalg.norm at every check, a fresh projection per call."""
    labels, n_comp = operator.component, operator.n_components

    def project(v):
        sums = np.bincount(labels, weights=v, minlength=n_comp)
        counts = np.bincount(labels, minlength=n_comp)
        return v - (sums / counts)[labels]

    matrix = operator.matrix
    diag = np.asarray(matrix.diagonal())
    inv_diag = np.where(diag > 0.0, 1.0 / np.where(diag > 0.0, diag, 1.0), 0.0)
    x = np.zeros(operator.n) if x0 is None else project(np.asarray(x0, dtype=float))
    b_norm = float(np.linalg.norm(b))
    r = b - matrix @ x
    z = project(inv_diag * r)
    p = z.copy()
    rz = float(r @ z)
    for _ in range(10 * operator.n):
        if float(np.linalg.norm(r)) <= 1e-12 * b_norm:
            return x
        ap = matrix @ p
        alpha = rz / float(p @ ap)
        x = x + alpha * p
        r = r - alpha * ap
        if float(np.linalg.norm(r)) <= 1e-12 * b_norm:
            return x
        z = project(inv_diag * r)
        rz_next = float(r @ z)
        p = z + (rz_next / rz) * p
        rz = rz_next
    raise AssertionError("the reference CG did not converge")


def flat_weights(mesh):
    pot = gf.zero_potential()
    weights = gf.face_weights(mesh, pot)
    return weights, weights.pi


class TestOnsagerPattern:
    @pytest.mark.parametrize("mesh", [gf.build_cartesian_mesh(20, 20),
                                      gf.build_interval_mesh(64)],
                             ids=["cartesian20", "interval64"])
    def test_byte_equal_to_coo_build(self, mesh):
        weights, pi = flat_weights(mesh)
        pattern = onsager_pattern(weights.face_cells, mesh.n_cells)
        rng = np.random.default_rng(11)
        for _ in range(3):
            m = DiscreteMeasure.normalized(rng.uniform(0.05, 1.0, mesh.n_cells))
            for op in (assemble_onsager(mesh, weights, m, pi),
                       onsager_operators(pattern, weights, m.masses[None], pi)[0]):
                ref, n_comp, labels = coo_onsager(weights, m, pi, mesh.n_cells)
                for name in ("data", "indices", "indptr"):
                    got, want = getattr(op.matrix, name), getattr(ref, name)
                    assert got.dtype == want.dtype
                    assert got.tobytes() == want.tobytes(), name
                assert op.n_components == n_comp == 1
                assert op.component.tobytes() == labels.tobytes()

    def test_high_degree_rows_sum_in_face_order(self):
        # random sites give cells with 9 and 10 faces, where scipy's COO
        # conversion sums duplicate diagonal entries in sort order
        mesh = gf.build_voronoi_mesh(np.random.default_rng(3).random((150, 2)),
                                     gf.Domain.rectangle(0, 0, 1, 1))
        degree = np.bincount(mesh.face_cells.ravel(), minlength=mesh.n_cells)
        assert degree.max() >= 9
        weights, pi = flat_weights(mesh)
        rng = np.random.default_rng(12)
        m = DiscreteMeasure.normalized(rng.uniform(0.1, 1.0, mesh.n_cells))
        op = assemble_onsager(mesh, weights, m, pi)
        ref, _, labels = coo_onsager(weights, m, pi, mesh.n_cells)
        assert np.array_equal(op.matrix.indptr, ref.indptr)
        assert np.array_equal(op.matrix.indices, ref.indices)
        off = op.matrix.indices != np.repeat(np.arange(mesh.n_cells),
                                             np.diff(op.matrix.indptr))
        assert op.matrix.data[off].tobytes() == ref.data[off].tobytes()
        diag, ref_diag = op.matrix.diagonal(), ref.diagonal()
        assert np.abs(diag - ref_diag).max() <= 1e-15 * np.abs(ref_diag).max()
        # each diagonal entry is its faces' conductances summed in face order
        fc, c = weights.face_cells, conductance(weights, m, pi)
        for cell in np.flatnonzero(degree >= 9):
            total = 0.0
            for face in np.flatnonzero(fc[:, 0] == cell):
                total += c[face]
            for face in np.flatnonzero(fc[:, 1] == cell):
                total += c[face]
            assert diag[cell] == total
        assert op.component.tobytes() == labels.tobytes()

    def test_symmetric_zero_row_sums_and_kernel(self, grid4):
        mesh, _, pi, weights = grid4
        pattern = onsager_pattern(weights.face_cells, mesh.n_cells)
        masses = np.random.default_rng(13).uniform(0.1, 1.0, mesh.n_cells)
        fc = weights.face_cells
        masses[fc[(fc == 0).any(axis=1)].ravel()] = 0.0
        masses[0] = 1.0  # cell 0 keeps mass, cut off from the rest
        op = onsager_operators(pattern, weights,
                               DiscreteMeasure.normalized(masses).masses[None], pi)[0]
        dense = op.matrix.toarray()
        assert np.array_equal(dense, dense.T)
        scale = np.abs(dense).max()
        assert np.abs(dense.sum(axis=1)).max() <= 4 * np.finfo(float).eps * scale
        assert op.n_components > 1
        for label in range(op.n_components):
            constant = (op.component == label).astype(float)
            assert np.abs(op.matrix @ constant).max() <= 4 * np.finfo(float).eps * scale

    def test_zero_mass_cells_take_labels_from_live_faces(self, chain10):
        mesh, _, pi, weights = chain10
        pattern = onsager_pattern(weights.face_cells, mesh.n_cells)
        assert pattern.n_components == 1
        masses = np.full(mesh.n_cells, 1.0 / (mesh.n_cells - 1))
        masses[3] = 0.0
        m = DiscreteMeasure(masses)
        op = onsager_operators(pattern, weights, m.masses[None], pi)[0]
        _, n_comp, labels = coo_onsager(weights, m, pi, mesh.n_cells)
        assert op.n_components == n_comp == 3
        assert op.component.tobytes() == labels.tobytes()
        assert list(op.component) == [0, 0, 0, 1, 2, 2, 2, 2, 2, 2]

    def test_pattern_of_another_graph_is_rejected(self, chain10, grid4):
        mesh, _, pi, weights = chain10
        other = grid4[3]
        with pytest.raises(ValueError, match="another face graph"):
            onsager_operators(onsager_pattern(other.face_cells, 16), weights,
                              pi.masses[None], pi)


class TestWarmStartedChain:
    def test_initial_guess_is_neither_mutated_nor_aliased(self, chain10):
        mesh, _, pi, weights = chain10
        rng = np.random.default_rng(14)
        m = DiscreteMeasure.normalized(rng.uniform(0.3, 1.0, mesh.n_cells))
        sigma = rng.standard_normal(mesh.n_cells)
        sigma -= sigma.mean()
        guess = rng.standard_normal(mesh.n_cells)
        before = guess.tobytes()
        _, f = dual_action(m, sigma, weights, pi, mesh=mesh,
                           initial_guess=guess, return_solution=True)
        assert guess.tobytes() == before
        assert not np.shares_memory(f, guess)

    @staticmethod
    def _system(grid4):
        mesh, _, pi, weights = grid4
        rng = np.random.default_rng(18)
        m = DiscreteMeasure.normalized(rng.uniform(0.2, 1.0, mesh.n_cells))
        op = assemble_onsager(mesh, weights, m, pi)
        sigma = op.matrix @ rng.standard_normal(mesh.n_cells)
        counts = np.bincount(op.component, minlength=op.n_components)
        return op, sigma - sigma.mean(), counts, rng.standard_normal(mesh.n_cells)

    def test_stalled_warm_start_retries_from_zero(self, grid4, monkeypatch):
        # no iteration at all: the warm start stalls at once; the retry, the
        # only call through the module attribute, gets the iteration cap back
        op, sigma, counts, guess = self._system(grid4)
        module = sys.modules["gradflow.dual_action"]
        cold, retries = _solve_cg(op, sigma, None, counts), []

        def retry(operator, b, x0, counts):
            retries.append(x0)
            monkeypatch.setattr(module, "MAX_ITER_FACTOR", MAX_ITER_FACTOR)
            return _solve_cg(operator, b, x0, counts)

        monkeypatch.setattr(module, "_solve_cg", retry)
        monkeypatch.setattr(module, "MAX_ITER_FACTOR", 0)
        assert _solve_cg(op, sigma, guess, counts).tobytes() == cold.tobytes()
        assert retries == [None]

    def test_stall_from_zero_raises(self, grid4, monkeypatch):
        # the warm start and its retry from zero both stall: the retry's
        # error, whose residual from x = 0 is exactly 1
        op, sigma, counts, guess = self._system(grid4)
        monkeypatch.setattr(sys.modules["gradflow.dual_action"],
                            "MAX_ITER_FACTOR", 0)
        for x0 in (guess, None):
            with pytest.raises(ConjugateGradientError,
                               match="^no convergence in 0 iterations, "
                                     r"relative residual 1\.000e\+00$"):
                _solve_cg(op, sigma, x0, counts)

    @pytest.mark.parametrize("zero_cells", [(), (5, 6, 9)])
    def test_solves_match_the_reference_cg_bytes(self, grid4, zero_cells):
        mesh, _, pi, weights = grid4
        pattern = onsager_pattern(weights.face_cells, mesh.n_cells)
        rng = np.random.default_rng(15)
        guess = None
        for _ in range(4):
            masses = rng.uniform(0.2, 1.0, mesh.n_cells)
            masses[list(zero_cells)] = 0.0
            m = DiscreteMeasure.normalized(masses)
            op = onsager_operators(pattern, weights, m.masses[None], pi)[0]
            assert op.n_components == 1 + len(zero_cells)
            sigma = op.matrix @ rng.standard_normal(mesh.n_cells)
            counts = np.bincount(op.component, minlength=op.n_components)
            for x0 in (None, guess):
                got = _solve_cg(op, sigma, x0, counts)
                assert got.tobytes() == reference_cg(op, sigma, x0).tobytes()
            guess = got

    def test_chain_is_deterministic(self, grid4):
        mesh, _, pi, weights = grid4
        generator = gf.assemble_generator(mesh, weights, pi)
        m0 = gf.project_measure(mesh, lambda p: 1.0 + 0.5 * math.cos(math.pi * p[0]))
        blend = DiscreteMeasure(0.9 * m0.masses + 0.1 * pi.masses)
        masses = gf.solve_trajectory(blend, 0.1, 8, generator,
                                     scheme="exact_dense").masses
        chains = [("the chain", generator, masses)]
        first = experiments._dual_chains(chains)[0]
        assert first.tobytes() == experiments._dual_chains(chains)[0].tobytes()

    def test_one_component_search_per_chain(self, grid4, monkeypatch):
        # 40 nodes, two blocks, one pattern: no zero conductance, so no
        # other search; one CPU, so every search runs in this process
        mesh, _, pi, weights = grid4
        generator = gf.assemble_generator(mesh, weights, pi)
        masses = np.array([DiscreteMeasure.normalized(
            np.random.default_rng(seed).uniform(0.2, 1.0, mesh.n_cells)).masses
            for seed in range(40)])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        # gradflow.dual_action is the function; the module is in sys.modules
        module = sys.modules["gradflow.dual_action"]
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return csgraph.connected_components(*args, **kwargs)

        monkeypatch.setattr(module, "csgraph",
                            SimpleNamespace(connected_components=counting))
        nodes = experiments._dual_chains([("the chain", generator, masses)])[0]
        assert np.all(np.isfinite(nodes))
        assert len(calls) == 1


# -- the CG dual against a grounded direct solve ---------------------------------------


def grounded_dual(weights, m, pi, sigma):
    """<sigma, f>/2 with B(m) f = sigma solved by sparse LU after grounding
    the first cell of each component (f = 0 there); B is the COO reference."""
    n = len(sigma)
    matrix, _, labels = coo_onsager(weights, m, pi, n)
    keep = np.ones(n, dtype=bool)
    keep[np.unique(labels, return_index=True)[1]] = False
    f = np.zeros(n)
    if keep.any():
        reduced = matrix.tocsc()[keep][:, keep].tocsc()
        f[keep] = splu(reduced).solve(sigma[keep])
    return 0.5 * float(sigma @ f)


def _flow_chain(mesh, potential, m0_token, T, steps, quad_order=None):
    """The generator and exact-flow nodes of an edi or converge run."""
    generator = gf.build_generator(mesh, potential)
    m0 = initial_measure_from_token(m0_token, mesh, generator.pi, quad_order)
    trajectory = gf.solve_trajectory(m0, T, steps, generator, scheme="exact_dense")
    return generator, trajectory.masses


_CHAINS = {
    # converge uniform1d:16..256 --potential quadratic --rho0 cosine: the
    # 256-cell mesh on the study's 17 time nodes
    "study-1d-256": lambda: _flow_chain(
        gf.build_interval_mesh(256), gf.quadratic_potential(0.5),
        "projected:cosine", 0.1, 16),
    # edi --kind cartesian --n 20 --M 256: 257 nodes
    "edi-2d": lambda: _flow_chain(
        gf.build_cartesian_mesh(20, 20), gf.zero_potential(),
        "blend:cosine:0.9", 0.5, 256),
    # the degree-5 rule: the degree-1 one misses unit mass on these cells
    "voronoi-100-quadratic": lambda: _flow_chain(
        gf.build_voronoi_mesh(experiments._jittered_sites(10, 0.35, 42),
                              gf.Domain.rectangle(0.0, 0.0, 1.0, 1.0)),
        gf.quadratic_potential([0.5, 0.5]), "blend:cosine:0.9", 0.1, 16,
        quad_order=3),
}


class TestGroundedDirectSolve:
    @pytest.mark.parametrize("name", sorted(_CHAINS))
    def test_warm_started_chain_matches_direct_solves(self, name):
        generator, masses = _CHAINS[name]()
        weights, pi = generator.weights, generator.pi
        nodes = experiments._dual_chains([(name, generator, masses)])[0]
        for value, m_i in zip(nodes, masses):
            m = DiscreteMeasure(m_i)
            direct = grounded_dual(weights, m, pi, generator.matrix @ m_i)
            assert abs(value - direct) <= 1e-10 * abs(direct)

    def test_zero_mass_split_graph(self):
        # a zero cell cuts the 40-cell chain into three components
        mesh = gf.build_interval_mesh(40)
        weights = gf.face_weights(mesh, gf.quadratic_potential(0.3))
        pi = weights.pi
        rng = np.random.default_rng(16)
        masses = rng.uniform(0.2, 1.0, mesh.n_cells)
        masses[20] = 0.0
        m = DiscreteMeasure.normalized(masses)
        op = assemble_onsager(mesh, weights, m, pi)
        assert op.n_components == 3
        for _ in range(4):
            sigma = op.matrix @ rng.standard_normal(mesh.n_cells)
            direct = grounded_dual(weights, m, pi, sigma)
            value = dual_action(m, sigma, weights, pi, operator=op)
            assert abs(value - direct) <= 1e-10 * abs(direct)


# -- the batched chain against the per-node one, byte for byte ---------------------------


def add_at_operator(weights, m, pi, pattern):
    """Reference for onsager_operators: the per-node assembly it replaced, with
    np.add.at over the (k,k), then the (l,l), slots and a component search
    unless every face conducts."""
    r = m / pi.masses
    fc = weights.face_cells
    cond = mean_value("logarithmic", r[fc[:, 0]], r[fc[:, 1]]) * weights.w
    data = np.zeros(len(pattern.indices))
    data[pattern.slots[2:]] = -cond
    np.add.at(data, pattern.slots[0], cond)
    np.add.at(data, pattern.slots[1], cond)
    live = cond > 0.0
    if live.all():
        n_comp, labels = pattern.n_components, pattern.component
    else:
        n = len(m)
        adjacency = sp.coo_matrix((cond[live], (fc[live, 0], fc[live, 1])),
                                  shape=(n, n))
        n_comp, labels = csgraph.connected_components(adjacency, directed=False)
    return OnsagerOperator(data, pattern, labels, int(n_comp))


def per_node_chain(generator, masses):
    """Reference for one block of experiments._dual_nodes: one
    add_at_operator per node, each dual_action solve warm-started from the
    previous node's solution."""
    weights, pi = generator.weights, generator.pi
    pattern = onsager_pattern(weights.face_cells, generator.n)
    nodes, guess = np.empty(len(masses)), None
    for i, m_i in enumerate(masses):
        operator = add_at_operator(weights, m_i, pi, pattern)
        nodes[i], guess = dual_action(m_i, generator.matrix @ m_i, weights, pi,
                                      operator=operator, initial_guess=guess,
                                      return_solution=True)
    return nodes


def per_block_chain(generator, masses):
    """Reference for one chain of experiments._dual_chains: per_node_chain
    over each block of _CHAIN_BLOCK consecutive nodes from node 0."""
    block = experiments._CHAIN_BLOCK
    return np.concatenate([per_node_chain(generator, masses[lo:lo + block])
                           for lo in range(0, len(masses), block)])


def assert_same_operator(got, want):
    assert got.data.tobytes() == want.data.tobytes()
    assert got.n_components == want.n_components
    assert got.component.tobytes() == want.component.tobytes()


# the zero-mass nodes of zero_mass_chain: every third node, and the last node
# of the first block and the first node of the second
_SPECIAL_NODES = sorted({*range(0, 41, 3), experiments._CHAIN_BLOCK - 1,
                         experiments._CHAIN_BLOCK})


def zero_mass_chain():
    """A 40-cell quadratic-V chain of 41 random nodes, _SPECIAL_NODES with
    three zero-mass cells: those nodes take their own labels, and their duals
    are +inf (sigma = L m charges the zero cells), so the next solve starts
    cold."""
    mesh = gf.build_interval_mesh(40)
    generator = gf.build_generator(mesh, gf.quadratic_potential(0.3))
    rng = np.random.default_rng(17)
    masses = rng.uniform(0.2, 1.0, (41, mesh.n_cells))
    masses[_SPECIAL_NODES, 19:22] = 0.0
    return generator, masses / masses.sum(axis=1, keepdims=True)


def stationary_chain():
    """The exact flow toward pi on cartesian 8x8 with V = 0, 41 nodes, four
    of them replaced by pi itself, the last node of the first block and the
    first node of the second among them: there L pi = 0 exactly, so sigma =
    0, the dual is 0 and the next solve starts from zero."""
    mesh = gf.build_cartesian_mesh(8, 8)
    generator, masses = _flow_chain(mesh, gf.zero_potential(),
                                    "blend:cosine:0.9", 0.2, 40)
    masses = masses.copy()
    masses[[5, 6, experiments._CHAIN_BLOCK - 1,
            experiments._CHAIN_BLOCK]] = generator.pi.masses
    return generator, masses


class TestBatchedChain:
    @pytest.mark.parametrize("name", sorted(_CHAINS) + ["zero-mass", "stationary"])
    def test_chain_matches_the_per_node_chain_bytes(self, name):
        make = {"zero-mass": zero_mass_chain, "stationary": stationary_chain,
                **_CHAINS}[name]
        generator, masses = make()
        nodes = experiments._dual_chains([(name, generator, masses)])[0]
        assert nodes.tobytes() == per_block_chain(generator, masses).tobytes()
        if name == "edi-2d":   # crosses block edges
            assert len(masses) > 2 * experiments._CHAIN_BLOCK
        if name == "zero-mass":
            assert np.flatnonzero(np.isinf(nodes)).tolist() == _SPECIAL_NODES
            assert np.isfinite(np.delete(nodes, _SPECIAL_NODES)).all()
        if name == "stationary":
            assert not np.any(generator.matrix @ generator.pi.masses)
            assert np.count_nonzero(nodes == 0.0) == 4

    def test_zero_mass_nodes_take_their_own_labels(self):
        generator, masses = zero_mass_chain()
        weights, pi = generator.weights, generator.pi
        pattern = onsager_pattern(weights.face_cells, generator.n)
        operators = onsager_operators(pattern, weights, masses, pi)
        for m_i, got in zip(masses, operators):
            assert_same_operator(got, add_at_operator(weights, m_i, pi, pattern))
        assert [op.n_components for op in operators[:3]] == [5, 1, 1]

    def test_high_degree_rows_match_the_add_at_assembly(self):
        # the mesh of test_high_degree_rows_sum_in_face_order: cells with 9
        # and 10 faces, so each diagonal entry sums up to 10 conductances
        mesh = gf.build_voronoi_mesh(np.random.default_rng(3).random((150, 2)),
                                     gf.Domain.rectangle(0, 0, 1, 1))
        weights, pi = flat_weights(mesh)
        pattern = onsager_pattern(weights.face_cells, mesh.n_cells)
        rng = np.random.default_rng(18)
        masses = rng.uniform(0.1, 1.0, (5, mesh.n_cells))
        masses /= masses.sum(axis=1, keepdims=True)
        for m_i, got in zip(masses, onsager_operators(pattern, weights, masses, pi)):
            want = add_at_operator(weights, m_i, pi, pattern)
            assert_same_operator(got, want)
            assert_same_operator(assemble_onsager(mesh, weights, m_i, pi), want)


# -- the lockstep stack against per-node sequential solves, byte for byte ---------------


# 14 blocks of unequal length: 61 nodes
_LOCKSTEP_LENGTHS = [5, 3, 8, 1, 6, 2, 7, 4, 5, 3, 8, 1, 6, 2]


def lockstep_blocks(count, masses):
    """The first count blocks of _LOCKSTEP_LENGTHS consecutive nodes."""
    ends = np.cumsum(_LOCKSTEP_LENGTHS[:count])
    return [masses[end - length:end]
            for end, length in zip(ends, _LOCKSTEP_LENGTHS[:count])]


def counted_lockstep(monkeypatch):
    """Record the stack height of every _solve_cg_lockstep call."""
    module = sys.modules["gradflow.dual_action"]
    lockstep, heights = module._solve_cg_lockstep, []

    def counting(operators, b, guesses):
        heights.append(len(b))
        return lockstep(operators, b, guesses)

    monkeypatch.setattr(module, "_solve_cg_lockstep", counting)
    return heights


def assert_blocks_match_the_per_node_chains(generator, blocks):
    pattern = onsager_pattern(generator.weights.face_cells, generator.n)
    got = experiments._dual_blocks(generator, pattern, blocks)
    assert len(got) == len(blocks)
    for values, block in zip(got, blocks):
        assert values.tobytes() == per_node_chain(generator, block).tobytes()
    return got


class TestLockstep:
    @pytest.mark.parametrize("count", [1, 2, 7, 14])
    def test_stacks_match_the_per_node_chains_bytes(self, monkeypatch, count):
        generator, masses = _flow_chain(
            gf.build_cartesian_mesh(8, 8), gf.quadratic_potential([0.4, 0.6]),
            "blend:cosine:0.9", 0.2, sum(_LOCKSTEP_LENGTHS) - 1)
        heights = counted_lockstep(monkeypatch)
        assert_blocks_match_the_per_node_chains(
            generator, lockstep_blocks(count, masses))
        # round j stacks node j of every block that has one; a lone column
        # is its plain _solve_cg
        want = [h for h in (sum(j < n for n in _LOCKSTEP_LENGTHS[:count])
                            for j in range(8)) if h > 1]
        assert heights == want

    def test_column_at_pi_has_zero_sigma(self, monkeypatch):
        # V = 0 on 8x8: L pi = 0 exactly, so node 1 of the second block has
        # sigma = 0, dual 0, and its block's node 2 starts from zero
        generator, masses = _flow_chain(
            gf.build_cartesian_mesh(8, 8), gf.zero_potential(),
            "blend:cosine:0.9", 0.2, 40)
        blocks = [block.copy() for block in lockstep_blocks(7, masses)]
        blocks[1][1] = generator.pi.masses
        heights = counted_lockstep(monkeypatch)
        got = assert_blocks_match_the_per_node_chains(generator, blocks)
        assert got[1][1] == 0.0 and np.count_nonzero(np.concatenate(got)) == 31
        # six blocks have a node 1; the one at pi needs no solve
        assert heights[:2] == [7, 5]

    def test_zero_mass_columns_leave_the_stack(self, monkeypatch):
        # blocks of zero_mass_chain: nodes with three zero cells have +inf
        # duals and split the graph, and the next node of a block starts cold
        generator, masses = zero_mass_chain()
        blocks = [masses[:experiments._CHAIN_BLOCK],
                  masses[experiments._CHAIN_BLOCK:], masses[13:20]]
        heights = counted_lockstep(monkeypatch)
        assert_blocks_match_the_per_node_chains(generator, blocks)
        # round j holds nodes j, 32 + j and 13 + j: two of round 0's and one
        # of each later round's are zero-mass nodes, but none of round 8's
        # two, and round 7 keeps one column only
        assert heights == [2] * 7

    def test_split_graph_column_is_solved_alone(self, monkeypatch):
        # sigma in range(B) on a zero-mass cell that splits the graph: a
        # finite dual, solved alone by _solve_cg within the stack
        mesh = gf.build_interval_mesh(40)
        weights = gf.face_weights(mesh, gf.quadratic_potential(0.3))
        pi = weights.pi
        rng = np.random.default_rng(21)
        masses = rng.uniform(0.2, 1.0, (4, mesh.n_cells))
        masses[2, 20] = 0.0
        masses /= masses.sum(axis=1, keepdims=True)
        pattern = onsager_pattern(weights.face_cells, mesh.n_cells)
        operators = onsager_operators(pattern, weights, masses, pi)
        assert [op.n_components for op in operators] == [1, 1, 3, 1]
        sigmas = np.array([op.matrix @ rng.standard_normal(mesh.n_cells)
                           for op in operators])
        guesses = [None, rng.standard_normal(mesh.n_cells), None,
                   rng.standard_normal(mesh.n_cells)]
        heights = counted_lockstep(monkeypatch)
        values, solutions = dual_action(masses, sigmas, operator=operators,
                                        initial_guess=guesses,
                                        return_solution=True)
        assert heights == [3]
        assert np.isfinite(values).all()
        for i, op in enumerate(operators):
            value, f = dual_action(masses[i], sigmas[i], operator=op,
                                   initial_guess=guesses[i],
                                   return_solution=True)
            assert values[i].tobytes() == np.float64(value).tobytes()
            assert solutions[i].tobytes() == f.tobytes()
        with pytest.raises(ValueError, match="a list of them for a stack"):
            dual_action(masses, sigmas, weights, pi)

    def test_stalled_warm_start_past_equilibration(self, monkeypatch):
        # edi --kind cartesian --n 20 --M 16 --T 10: near pi a warm-started
        # column stalls at the iteration cap in the lockstep; it is solved
        # again alone from the same warm start, stalls again, and its retry
        # from zero converges
        generator, masses = _flow_chain(
            gf.build_cartesian_mesh(20, 20), gf.zero_potential(),
            "blend:cosine:0.9", 10.0, 16)
        module = sys.modules["gradflow.dual_action"]
        solve_cg, calls = module._solve_cg, []

        def counting(operator, b, x0, counts):
            calls.append(x0 is None)
            return solve_cg(operator, b, x0, counts)

        monkeypatch.setattr(module, "_solve_cg", counting)
        heights = counted_lockstep(monkeypatch)
        pattern = onsager_pattern(generator.weights.face_cells, generator.n)
        got = experiments._dual_blocks(generator, pattern,
                                       [masses, masses[::2]])
        assert heights == [2] * 9
        assert sum(calls) > 0     # retries from zero, after the stalls
        monkeypatch.setattr(module, "_solve_cg", solve_cg)
        for values, block in zip(got, [masses, masses[::2]]):
            assert values.tobytes() == per_node_chain(generator, block).tobytes()

    def test_breakdown_raises_as_the_single_solve(self):
        # -B is negative definite: pAp <= 0 breaks the column out of the
        # lockstep, and its solve alone fails as a single call does
        mesh = gf.build_interval_mesh(12)
        weights, pi = flat_weights(mesh)
        rng = np.random.default_rng(22)
        masses = rng.uniform(0.2, 1.0, (3, mesh.n_cells))
        masses /= masses.sum(axis=1, keepdims=True)
        pattern = onsager_pattern(weights.face_cells, mesh.n_cells)
        operators = onsager_operators(pattern, weights, masses, pi)
        sigmas = np.array([op.matrix @ rng.standard_normal(mesh.n_cells)
                           for op in operators])
        operators[1] = OnsagerOperator(-operators[1].data, pattern,
                                       operators[1].component, 1)
        with pytest.raises(ConjugateGradientError) as single:
            dual_action(masses[1], sigmas[1], operator=operators[1])
        with pytest.raises(ConjugateGradientError,
                           match=f"^{single.value}$".replace("+", r"\+")):
            dual_action(masses, sigmas, operator=operators)

    def test_stack_on_two_patterns_is_rejected(self, chain10, grid4):
        ops = [assemble_onsager(mesh, weights, pi, pi)
               for mesh, _, pi, weights in (chain10, chain10)]
        sigmas = np.zeros((2, ops[0].n))
        with pytest.raises(ValueError, match="one Onsager pattern"):
            dual_action(None, sigmas, operator=ops)


# -- the private scipy kernel behind OnsagerOperator.matvec ----------------------------


def split_operator():
    """40 cells, a zero-mass cell at 20: three components."""
    mesh = gf.build_interval_mesh(40)
    weights = gf.face_weights(mesh, gf.quadratic_potential(0.3))
    masses = np.random.default_rng(19).uniform(0.2, 1.0, mesh.n_cells)
    masses[20] = 0.0
    op = assemble_onsager(mesh, weights, DiscreteMeasure.normalized(masses),
                          weights.pi)
    assert op.n_components == 3
    return op


def chain_operator(name):
    generator, masses = _CHAINS[name]()
    return assemble_onsager(None, generator.weights, masses[len(masses) // 2],
                            generator.pi)


class TestCsrKernel:
    """OnsagerOperator.matvec calls scipy.sparse._sparsetools.csr_matvec, a
    private entry point: if a scipy release moves or changes it, these fail."""

    @pytest.mark.parametrize("make, row_entries", [
        (lambda: chain_operator("edi-2d"), 5),
        (lambda: chain_operator("voronoi-100-quadratic"), 9),
        (split_operator, 3)], ids=["edi-2d", "voronoi-100", "split"])
    def test_matvec_is_the_matrix_product_bytes(self, make, row_entries):
        op = make()
        assert np.diff(op.pattern.indptr).max() == row_entries
        assert op.diagonal().tobytes() == op.matrix.diagonal().tobytes()
        rng = np.random.default_rng(20)
        for _ in range(3):
            v = rng.standard_normal(op.n)
            out = np.full(op.n, np.nan)   # matvec must clear what it adds into
            got = op.matvec(v, out)
            assert got is out
            assert got.tobytes() == (op.matrix @ v).tobytes(), (
                "scipy.sparse._sparsetools.csr_matvec no longer computes "
                "csr_matrix @ v bit for bit; OnsagerOperator.matvec relies on it")

    def test_rows_of_ones_sum_as_bincount(self):
        # _solve_cg_lockstep's projection sums each row by csr_matvec over a
        # CSR of ones; _solve_cg sums its one row by bincount
        rng = np.random.default_rng(21)
        for k, n in [(1, 1), (2, 7), (6, 400), (14, 400)]:
            v = rng.standard_normal((k, n)) * np.exp(8.0 * rng.standard_normal((k, n)))
            sums = np.zeros(k)
            csr_matvec(k, k * n, np.arange(k + 1, dtype=np.int32) * n,
                       np.arange(k * n, dtype=np.int32), np.ones(k * n), v, sums)
            want = np.bincount(np.repeat(np.arange(k), n), weights=v.ravel(),
                               minlength=k)
            assert sums.tobytes() == want.tobytes()
