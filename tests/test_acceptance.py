"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""
import math
import time

import numpy as np
import pytest

import gradflow as gf
from gradflow import experiments as ex
from gradflow.diagnostics import good_path, path_constants
from gradflow.dual_action import assemble_onsager, dual_action
from gradflow.experiments import Density1D, wasserstein_1d
from gradflow.functionals import mean_value, KERNEL_KINDS
from gradflow.reference import DiscreteMeasure


def _report(num: int, detail: str) -> None:
    print(f"[acceptance] criterion {num:02d}: PASS  ({detail})")


def _graded_interval(n=16, power=1.5):
    pts = (np.arange(n + 1) / n) ** power
    return gf.build_interval_mesh(n, breakpoints=pts)


# -- criterion 1: two-cell closed forms ------------------------------------------


def test_criterion_01_two_cell_closed_forms():
    start = time.perf_counter()
    mesh = gf.build_interval_mesh(2)
    pot = gf.zero_potential()
    pi = gf.discretize_reference(mesh, pot)
    weights = gf.face_weights(mesh, pot)
    m = DiscreteMeasure(np.array([0.75, 0.25]))

    entropy = gf.entropy(m, pi)
    assert abs(entropy - (0.75 * math.log(1.5) + 0.25 * math.log(0.5))) <= 1e-10

    fisher = gf.fisher(m, weights, pi)
    assert abs(fisher - 2.0 * math.log(3.0)) <= 1e-10

    dual = dual_action(m, np.array([0.1, -0.1]), weights, pi, mesh=mesh)
    assert abs(dual - 0.0025 * math.log(3.0)) <= 1e-10

    gen = gf.assemble_generator(mesh, weights, pi)
    step = gf.step_implicit_euler(np.array([1.0, 0.0]), 0.125, gen)
    assert abs(step.masses[0] - 0.75) <= 1e-10

    assert abs(gen.spectral_gap() - 8.0) <= 1e-10

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"entropy/fisher/dual/euler/gap in {elapsed:.3f}s")


# -- criterion 2: duality identity over a random mesh corpus ----------------------


def test_criterion_02_duality_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    pot = gf.zero_potential()
    meshes = []
    for _ in range(20):
        meshes.append(gf.build_interval_mesh(int(rng.integers(2, 129))))
    for _ in range(15):
        nx = int(rng.integers(2, 17))
        ny = int(rng.integers(1, min(16, 256 // nx) + 1))
        meshes.append(gf.build_cartesian_mesh(nx, ny))
    for _ in range(15):
        g = int(rng.integers(3, 13))
        sites = ex._jittered_sites(g, 0.3, int(rng.integers(0, 10 ** 6)))
        meshes.append(gf.build_voronoi_mesh(sites,
                                            gf.Domain.rectangle(0, 0, 1, 1)))
    assert len(meshes) == 50
    worst = 0.0
    for mesh in meshes:
        pi = gf.discretize_reference(mesh, pot)
        weights = gf.face_weights(mesh, pot)
        m = DiscreteMeasure.normalized(rng.uniform(0.1, 1.0, mesh.n_cells))
        f = rng.standard_normal(mesh.n_cells)
        op = assemble_onsager(mesh, weights, m, pi)
        sigma = op.matrix @ f
        act = gf.action(m, f, weights, pi)
        dual = dual_action(m, sigma, weights, pi, operator=op)
        rel = abs(dual - act) / act
        worst = max(worst, rel)
        assert rel <= 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, f"50 meshes, worst relative gap {worst:.2e}, {elapsed:.1f}s")


# -- criteria 3 and 4: EDI audit and the gradient-flow identity -------------------


@pytest.fixture(scope="module")
def edi_audits():
    start = time.perf_counter()
    cases = []
    for mesh, dim in ((gf.build_interval_mesh(8), 1),
                      (gf.build_interval_mesh(32), 1),
                      (gf.build_cartesian_mesh(8, 8), 2)):
        for pot in (gf.zero_potential(),
                    gf.linear_potential([1.0, 0.5][:dim])):
            gen = gf.build_generator(mesh, pot)
            pi = gen.pi
            from gradflow.reference import density_from_token
            projected = gf.project_measure(mesh, density_from_token("cosine", dim))
            m0 = DiscreteMeasure(0.9 * projected.masses + 0.1 * pi.masses)
            # T = 0.1 keeps the projection-aliasing layer at t=0 resolved by
            # the M=512 grid; the layer's rate scales like the squared cell
            # count, so longer horizons starve the early nodes
            fine = ex.edi_audit(gen, m0, T=0.1, steps=512)
            coarse = ex.edi_audit(gen, m0, T=0.1, steps=256)
            cases.append((mesh, pot, fine, coarse))
    return cases, time.perf_counter() - start


def test_criterion_03_edi_equality_audit(edi_audits):
    cases, elapsed = edi_audits
    worst_rel = 0.0
    worst_shrink = math.inf
    for mesh, pot, fine, coarse in cases:
        rel = abs(fine.residual) / (1e-5 * fine.entropy_start)
        assert abs(fine.residual) <= 1e-5 * fine.entropy_start, \
            (mesh.n_cells, pot.name, fine.residual, fine.entropy_start)
        shrink = abs(coarse.residual) / abs(fine.residual)
        assert shrink >= 4.0, (mesh.n_cells, pot.name, shrink)
        worst_rel = max(worst_rel, rel)
        worst_shrink = min(worst_shrink, shrink)
    assert elapsed < 60.0
    _report(3, f"6 audits in {elapsed:.1f}s, residual at {worst_rel:.2e} of "
               f"budget, worst shrink x{worst_shrink:.1f}")


def test_criterion_04_gradient_flow_identity(edi_audits):
    worst = 0.0
    for _, _, fine, _ in edi_audits[0]:
        fisher_nodes = 2.0 * fine.fisher_nodes
        gap = np.abs(fine.dual_nodes - fine.fisher_nodes)
        budget = 1e-8 * (1.0 + fisher_nodes)
        assert np.all(gap <= budget)
        worst = max(worst, float((gap / budget).max()))
    _report(4, f"nodewise dual vs half-Fisher, worst {worst:.2e} of budget")


# -- criterion 5: Fisher-Dirichlet gap bound ---------------------------------------


def test_criterion_05_fisher_dirichlet_gap():
    rng = np.random.default_rng(1234)
    pot = gf.zero_potential()
    corpus = [gf.build_interval_mesh(16), _graded_interval(24),
              gf.build_cartesian_mesh(6, 6),
              ex.jittered_voronoi_family((36,)).build()[0]]
    checked = 0
    for mesh in corpus:
        pi = gf.discretize_reference(mesh, pot)
        weights = gf.face_weights(mesh, pot)
        for _ in range(50):
            m = DiscreteMeasure.normalized(rng.uniform(0.02, 1.0, mesh.n_cells))
            gap = gf.fisher_sqrt_gap(m, weights, pi)
            assert gap.gap <= gap.bound * (1.0 + 1e-12) + 1e-15
            checked += 1
    assert checked == 200
    _report(5, "200 random positive fields, zero violations")


# -- criterion 6: Gamma-energy convergence and the affine study --------------------


def test_criterion_06_gamma_energy_and_affine():
    start = time.perf_counter()
    fam = ex.uniform_interval_family((16, 32, 64, 128, 256))

    cosine = ex.gamma_energy_study(
        fam, lambda x: math.cos(math.pi * x), gf.zero_potential(),
        grad=lambda x: -math.pi * math.sin(math.pi * x))
    errors = cosine.column("error")
    assert np.all(np.diff(errors) < 0.0)
    assert np.all(cosine.column("order")[1:] >= 1.5)
    assert cosine.rows[0].reference == pytest.approx(math.pi ** 2 / 4,
                                                     abs=1e-9)

    coordinate = ex.gamma_energy_study(fam, lambda x: x, gf.zero_potential(),
                                       grad=lambda x: 1.0)
    for row, n in zip(coordinate.rows, fam.labels):
        assert abs(row.value - 0.5 * (1.0 - 1.0 / n)) <= 1e-12

    affine_1d = ex.gamma_affine_minimization_study(fam, 0.5, 1.0, 0.5)
    affine_2d = ex.gamma_affine_minimization_study(
        ex.cartesian_family((8, 16, 32)), (0.5, 0.5), (1.0, 1.0), 0.5)
    for study in (affine_1d, affine_2d):
        for row in study.rows:
            assert row.extras["harmonicity_residual"] <= 1e-11
            assert row.error <= row.extras["boundary_layer"]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, f"orders {np.round(cosine.column('order')[1:], 2).tolist()}, "
               f"affine within boundary layer, {elapsed:.1f}s")


# -- criterion 7: evolutionary convergence ------------------------------------------


def test_criterion_07_evolutionary_convergence():
    start = time.perf_counter()
    fam = ex.uniform_interval_family((16, 32, 64, 128, 256))
    study = ex.evolutionary_convergence_study(fam, gf.zero_potential(),
                                              "cosine", T=0.1)
    errors = study.column("error")
    orders = study.column("order")[1:]
    assert np.all(np.diff(errors) < 0.0)
    assert np.all(orders >= 1.0)
    excess = study.column("entropy_excess")
    first = max(excess[0], 0.0)
    last = max(excess[-1], 0.0)
    if first > 1e-8:
        assert last <= 0.5 * first
    else:
        assert np.all(np.maximum(excess, 0.0) <= 1e-8)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(7, f"sup-W2 orders {np.round(orders, 2).tolist()}, "
               f"entropy excess {first:.2e} -> {last:.2e}, {elapsed:.1f}s")


# -- criterion 8: structural property suite (1000 seeded cases) ---------------------


def test_criterion_08_structure_invariants():
    rng = np.random.default_rng(2024)
    mesh = gf.build_interval_mesh(12)
    pot = gf.zero_potential()
    pi = gf.discretize_reference(mesh, pot)
    weights = gf.face_weights(mesh, pot)
    gen = gf.assemble_generator(mesh, weights, pi)
    cases = 0

    for _ in range(250):  # mass conservation and positivity per step
        m = DiscreteMeasure.normalized(rng.uniform(0.0, 1.0, mesh.n_cells))
        dt = float(rng.uniform(1e-4, 5.0))
        out = gf.step_implicit_euler(m, dt, gen)
        assert np.all(out.masses >= 0.0)
        assert abs(out.masses.sum() - 1.0) <= 1e-13
        cases += 1

    for _ in range(200):  # entropy monotone along implicit Euler
        m = DiscreteMeasure.normalized(rng.uniform(1e-3, 1.0, mesh.n_cells))
        dt = float(rng.uniform(1e-3, 1.0))
        out = gf.step_implicit_euler(m, dt, gen)
        assert gf.entropy(out, pi) <= gf.entropy(m, pi) + 1e-12
        cases += 1

    for _ in range(200):  # gauge invariance, exact on dyadic inputs
        f = rng.integers(-2 ** 16, 2 ** 16, mesh.n_cells) / 256.0
        c = float(rng.integers(-2 ** 16, 2 ** 16)) / 256.0
        m = DiscreteMeasure.normalized(rng.uniform(0.1, 1.0, mesh.n_cells))
        assert gf.action(m, f + c, weights, pi) == gf.action(m, f, weights, pi)
        cases += 1

    for _ in range(200):  # kernel sandwich on random positives
        a, b = rng.uniform(1e-6, 10.0, 2)
        for kind in KERNEL_KINDS:
            val = float(mean_value(kind, a, b))
            assert min(a, b) - 1e-12 * max(a, b) <= val <= max(a, b) * (1 + 1e-12)
        cases += 1

    edges = np.linspace(0.0, 1.0, 9)
    for _ in range(150):  # Wasserstein triangle inequality
        def draw():
            v = rng.uniform(0.02, 1.0, 8)
            return Density1D(edges, v / (v.sum() / 8.0))

        p, q, r = draw(), draw(), draw()
        assert wasserstein_1d(p, r) <= wasserstein_1d(p, q) \
            + wasserstein_1d(q, r) + 1e-10
        cases += 1

    assert cases == 1000
    _report(8, "1000 cases: mass, positivity, entropy, gauge, sandwich, triangle")


# -- criterion 9: isotropy contrast ---------------------------------------------------


def test_criterion_09_isotropy_contrast():
    cart = ex.isotropy_study(ex.cartesian_family((4, 8, 16)))
    assert all(row.value <= 1e-12 for row in cart.rows)
    flat = ex.isotropy_study(ex.flattened_voronoi_family((16, 32, 64, 128)))
    values = [row.value for row in flat.rows]
    coarsest = values[0]
    assert all(v >= 0.05 for v in values)
    assert all(v >= 0.5 * coarsest for v in values)
    _report(9, f"cartesian flat, anisotropic defects "
               f"{[round(v, 3) for v in values]}")


# -- criterion 10: good paths across the corpus ----------------------------------------


def test_criterion_10_good_paths():
    uniform = gf.build_interval_mesh(32)
    corpus = [uniform, _graded_interval(16),
              gf.build_cartesian_mesh(8, 8), gf.build_cartesian_mesh(12, 12),
              ex.jittered_voronoi_family((64,)).build()[0],
              ex.flattened_voronoi_family((36,)).build()[0]]
    recorded = []
    for mesh in corpus:
        adjacency = mesh.adjacency()
        rng = np.random.default_rng(7)
        pairs = [(int(i), int(j)) for i, j in
                 rng.integers(0, mesh.n_cells, size=(60, 2)) if i != j]
        for i, j in pairs:
            path = good_path(mesh, i, j)
            assert path.cells[0] == i and path.cells[-1] == j
            assert path.n < mesh.n_cells
            for a, b in zip(path.cells, path.cells[1:]):
                assert any(nb == b for _, nb in adjacency[a])
        pc = path_constants(mesh)
        recorded.append((mesh.n_cells, round(pc.c_count, 3),
                         round(pc.c_length, 3)))
        assert pc.c_count <= 20.0
        assert pc.c_length <= 5.0
    exact = path_constants(uniform)
    assert exact.c_count == pytest.approx(1.0, abs=1e-12)
    assert exact.c_length == pytest.approx(1.0, abs=1e-12)
    _report(10, f"(cells, C_count, C_length) = {recorded}")
