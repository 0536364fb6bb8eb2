"""Independent-oracle cross checks: brute force against the fast paths."""
import math

import numpy as np
import pytest

import gradflow as gf
from gradflow import experiments as ex
from gradflow.diagnostics import l2_holder_modulus
from gradflow.experiments import Density1D, wasserstein_1d
from gradflow.reference import DiscreteMeasure


def test_edi_integrals_match_closed_form_quadrature(two_cell):
    # two-cell dissipation in closed form: m1(t) = 1/2 + delta e^{-8t},
    # I(t) = 2 log(m1/m2) (r1 - r2) with r = 2 m; integrate by fine Gauss
    mesh, pot, pi, _ = two_cell
    delta = 0.4
    m0 = DiscreteMeasure(np.array([0.5 + delta, 0.5 - delta]))
    T = 0.5

    def dissipation(t):
        m1 = 0.5 + delta * math.exp(-8.0 * t)
        return 2.0 * math.log(m1 / (1.0 - m1)) * 2.0 * (2.0 * m1 - 1.0)

    gx, gw = np.polynomial.legendre.leggauss(64)
    nodes = 0.5 * T * (gx + 1.0)
    weights = 0.5 * T * gw
    oracle = float(np.sum(weights * [dissipation(t) for t in nodes]))

    gen = gf.build_generator(mesh, pot)
    coarse = ex.edi_audit(gen, m0, T=T, steps=256)
    fine = ex.edi_audit(gen, m0, T=T, steps=512)
    assert 2.0 * coarse.fisher_integral == pytest.approx(oracle, rel=1e-6)
    assert coarse.action_integral + coarse.fisher_integral \
        == pytest.approx(oracle, rel=1e-6)
    # node doubling closes in on the independent value at fourth order
    gap_coarse = abs(2.0 * coarse.fisher_integral - oracle)
    gap_fine = abs(2.0 * fine.fisher_integral - oracle)
    assert gap_fine <= gap_coarse / 10.0


def test_wasserstein_matches_dense_midpoint_quadrature():
    rng = np.random.default_rng(11)
    edges = np.linspace(0.0, 1.0, 9)

    def draw():
        v = rng.uniform(0.05, 1.0, 8)
        return Density1D(edges, v / (v.sum() / 8.0))

    def quantile(dens, u):
        masses = dens.values * np.diff(dens.edges)
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        cum /= cum[-1]
        idx = np.clip(np.searchsorted(cum, u, side="right") - 1, 0,
                      len(dens.values) - 1)
        slope = np.diff(dens.edges)[idx] / (cum[idx + 1] - cum[idx])
        return dens.edges[idx] + (u - cum[idx]) * slope

    for _ in range(5):
        p, q = draw(), draw()
        u = (np.arange(200_000) + 0.5) / 200_000
        brute = math.sqrt(float(np.mean((quantile(p, u) - quantile(q, u)) ** 2)))
        assert wasserstein_1d(p, q) == pytest.approx(brute, abs=2e-5)


def test_holder_overlap_matches_rasterization():
    rng = np.random.default_rng(23)
    mesh = gf.build_voronoi_mesh(rng.uniform(0.15, 0.85, size=(7, 2)),
                                 gf.Domain.rectangle(0, 0, 1, 1))
    pi = gf.discretize_reference(mesh, gf.zero_potential())
    f = rng.standard_normal(mesh.n_cells)
    h = np.array([0.13, -0.07])
    out = l2_holder_modulus(mesh, f, h, pi, pi)

    def labels_for(points):
        lab = np.full(len(points), -1, dtype=np.int64)
        for k, poly in enumerate(mesh.cell_polygons):
            a = poly
            b = np.roll(poly, -1, axis=0)
            inside = np.ones(len(points), dtype=bool)
            for (ax, ay), (bx, by) in zip(a, b):
                cross = (bx - ax) * (points[:, 1] - ay) \
                    - (by - ay) * (points[:, 0] - ax)
                inside &= cross >= -1e-12
            lab[inside & (lab < 0)] = k
        return lab

    n = 600
    xs = (np.arange(n) + 0.5) / n
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    points = np.column_stack([gx.ravel(), gy.ravel()])
    shifted = points - h
    valid = np.all((shifted > 0.0) & (shifted < 1.0), axis=1)
    lab = labels_for(points[valid])
    lab_shift = labels_for(shifted[valid])
    ok = (lab >= 0) & (lab_shift >= 0)
    diffs = f[lab_shift[ok]] - f[lab[ok]]
    total = float(np.sum(diffs * diffs)) / (n * n)
    assert out.value == pytest.approx(total, rel=0.02)


def test_projection_inverts_embedding_on_voronoi():
    rng = np.random.default_rng(31)
    mesh = gf.build_voronoi_mesh(rng.uniform(0.1, 0.9, size=(9, 2)),
                                 gf.Domain.rectangle(0, 0, 1, 1))
    m = DiscreteMeasure.normalized(rng.uniform(0.2, 1.0, mesh.n_cells))
    # the piecewise density m(K)/|K|: a Voronoi cell is the set of points
    # nearest to its site
    density = m.masses / mesh.volumes
    back = gf.project_measure(mesh, lambda p: float(
        density[np.argmin(np.sum((mesh.sites - p) ** 2, axis=1))]))
    assert np.allclose(back.masses, m.masses, atol=1e-12)


def test_dual_action_against_dense_pseudoinverse(chain10):
    mesh, _, pi, weights = chain10
    rng = np.random.default_rng(41)
    from gradflow.dual_action import assemble_onsager, dual_action

    m = DiscreteMeasure.normalized(rng.uniform(0.1, 1.0, mesh.n_cells))
    sigma = rng.standard_normal(mesh.n_cells)
    sigma -= sigma.mean()
    op = assemble_onsager(mesh, weights, m, pi)
    dense = op.matrix.toarray()
    f = np.linalg.pinv(dense) @ sigma
    oracle = 0.5 * float(sigma @ f)
    assert dual_action(m, sigma, weights, pi, operator=op) \
        == pytest.approx(oracle, rel=1e-10)
