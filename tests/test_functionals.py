import math

import numpy as np
import pytest

import gradflow as gf
from gradflow.functionals import log_mean, mean_value, KERNEL_KINDS
from gradflow.geometry import Box
from gradflow.reference import S_MEAN_KINDS, DiscreteMeasure, potential_from_token


class TestLogMean:
    def test_equal_arguments(self):
        assert log_mean(0.7, 0.7) == 0.7
        assert log_mean(3.0, 3.0) == 3.0

    def test_closed_forms(self):
        assert log_mean(math.e, 1.0) == pytest.approx(math.e - 1.0, abs=1e-14)
        assert log_mean(4.0, 1.0) == pytest.approx(3.0 / math.log(4.0), abs=1e-12)
        assert log_mean(4.0, 1.0) == pytest.approx(2.164042561, abs=1e-9)

    def test_zero_edge(self):
        assert log_mean(0.0, 5.0) == 0.0
        assert log_mean(0.0, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_mean(-1.0, 2.0)

    def test_series_branch_matches_direct_formula(self):
        # straddle the branch switch: compare against the direct quotient
        # evaluated in extended precision via the symmetric identity
        for delta in (1e-9, 1e-6, 2e-4, 1e-3):
            a, b = 1.0, 1.0 + delta
            direct = (a - b) / (math.log(a) - math.log(b))
            assert log_mean(a, b) == pytest.approx(direct, rel=1e-11)

    def test_vectorized(self):
        a = np.array([1.0, 2.0, 0.0, 3.0])
        b = np.array([1.0, 8.0, 4.0, 3.0 + 1e-9])
        out = log_mean(a, b)
        assert out.shape == (4,)
        assert out[0] == 1.0 and out[2] == 0.0


class TestKernelSandwich:
    def test_all_kinds_random(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(1e-8, 10.0, 500)
        b = rng.uniform(1e-8, 10.0, 500)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        for kind in KERNEL_KINDS:
            vals = mean_value(kind, a, b)
            assert np.all(vals >= lo - 1e-12 * hi)
            assert np.all(vals <= hi + 1e-12 * hi)


    def test_kinds_in_their_order(self):
        # diagnose --mean lists them in this order
        assert KERNEL_KINDS == ("logarithmic", "sqrt_logarithmic", "arithmetic",
                                "geometric", "harmonic", "min", "max")
        with pytest.raises(ValueError, match="^unknown mean kind 'bogus'$"):
            mean_value("bogus", 1.0, 2.0)


class TestEntropy:
    def test_stationary_is_zero(self, two_cell):
        _, _, pi, _ = two_cell
        assert gf.entropy(pi, pi) == 0.0

    def test_point_mass(self, two_cell):
        _, _, pi, _ = two_cell
        m = DiscreteMeasure(np.array([1.0, 0.0]))
        assert gf.entropy(m, pi) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_three_quarters(self, two_cell):
        _, _, pi, _ = two_cell
        m = DiscreteMeasure(np.array([0.75, 0.25]))
        expected = 0.75 * math.log(1.5) + 0.25 * math.log(0.5)
        assert gf.entropy(m, pi) == pytest.approx(expected, abs=1e-15)
        assert gf.entropy(m, pi) == pytest.approx(0.130812, abs=1e-6)

    def test_zero_reference_rejected(self, two_cell):
        m = DiscreteMeasure(np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            gf.entropy(m, np.array([1.0, 0.0]))

    def test_nonnegative_random(self, chain10):
        mesh, _, pi, _ = chain10
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = DiscreteMeasure.normalized(rng.uniform(0.0, 1.0, mesh.n_cells))
            assert gf.entropy(m, pi) >= 0.0

    def test_jensen_side_for_projected_density(self):
        # H(P mu) <= continuum entropy of rho = 2x (= log 2 - 1/2)
        continuum = math.log(2.0) - 0.5
        for n in (4, 16, 64):
            mesh = gf.build_interval_mesh(n)
            pi = gf.discretize_reference(mesh, gf.zero_potential())
            m = gf.project_measure(mesh, lambda x: 2.0 * x)
            assert gf.entropy(m, pi) <= continuum + 1e-14


class TestAction:
    def test_constant_field_zero(self, chain10):
        mesh, _, pi, weights = chain10
        assert gf.action(pi, np.full(mesh.n_cells, 4.2), weights, pi) == 0.0

    def test_two_cell_unit(self, two_cell):
        _, _, pi, weights = two_cell
        assert gf.action(pi, np.array([0.0, 1.0]), weights, pi) \
            == pytest.approx(1.0, abs=1e-14)

    def test_two_cell_logarithmic_kernel(self, two_cell):
        _, _, pi, weights = two_cell
        m = DiscreteMeasure(np.array([0.75, 0.25]))
        expected = 1.0 / math.log(3.0)  # 1/2 * theta_log(1.5, 0.5) * w
        value = gf.action(m, np.array([1.0, 0.0]), weights, pi)
        assert value == pytest.approx(expected, abs=1e-13)
        assert value == pytest.approx(0.910239, abs=1e-6)

    def test_gauge_invariance_dyadic_exact(self, chain10):
        mesh, _, pi, weights = chain10
        rng = np.random.default_rng(12)
        f = rng.integers(-512, 512, mesh.n_cells) / 256.0
        m = DiscreteMeasure.normalized(rng.uniform(0.2, 1.0, mesh.n_cells))
        for c in (1.0, -2.5, 64.0):
            assert gf.action(m, f + c, weights, pi) == gf.action(m, f, weights, pi)


class TestFisher:
    def test_stationary_zero(self, two_cell):
        _, _, pi, weights = two_cell
        assert gf.fisher(pi, weights, pi) == 0.0

    def test_two_cell_closed_form(self, two_cell):
        _, _, pi, weights = two_cell
        m = DiscreteMeasure(np.array([0.75, 0.25]))
        assert gf.fisher(m, weights, pi) == pytest.approx(2.0 * math.log(3.0),
                                                          abs=1e-12)

    def test_matches_action_route(self, chain10):
        mesh, _, pi, weights = chain10
        rng = np.random.default_rng(4)
        m = DiscreteMeasure.normalized(rng.uniform(0.1, 1.0, mesh.n_cells))
        r = m.masses / pi.masses
        via_action = 2.0 * gf.action(m, -np.log(r), weights, pi)
        assert gf.fisher(m, weights, pi) == pytest.approx(via_action, rel=1e-12)
        # face-sum form with nonnegative terms
        fc = weights.face_cells
        terms = weights.w * (np.log(r[fc[:, 0]]) - np.log(r[fc[:, 1]])) \
            * (r[fc[:, 0]] - r[fc[:, 1]])
        assert np.all(terms >= 0.0)
        assert gf.fisher(m, weights, pi) == pytest.approx(float(terms.sum()),
                                                          rel=1e-12)

    def test_nonnegative_and_termwise(self, grid4):
        mesh, _, pi, weights = grid4
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = DiscreteMeasure.normalized(rng.uniform(0.05, 1.0, mesh.n_cells))
            assert gf.fisher(m, weights, pi) >= 0.0

    def test_zero_positive_interface_is_infinite(self, two_cell):
        _, _, pi, weights = two_cell
        m = DiscreteMeasure(np.array([1.0, 0.0]))
        assert gf.fisher(m, weights, pi) == math.inf


class TestFisherSqrtGap:
    def test_stationary_all_zero(self, two_cell):
        _, _, pi, weights = two_cell
        gap = gf.fisher_sqrt_gap(pi, weights, pi)
        assert gap.fisher_half == 0.0
        assert gap.dirichlet_sqrt == 0.0
        assert gap.gap == 0.0

    def test_two_cell_frozen_values(self, two_cell):
        _, _, pi, weights = two_cell
        m = DiscreteMeasure(np.array([0.75, 0.25]))
        gap = gf.fisher_sqrt_gap(m, weights, pi)
        assert gap.fisher_half == pytest.approx(math.log(3.0), abs=1e-12)
        four_e = 4.0 * (math.sqrt(1.5) - math.sqrt(0.5)) ** 2
        assert gap.dirichlet_sqrt == pytest.approx(four_e, abs=1e-12)
        assert gap.gap == pytest.approx(abs(math.log(3.0) - four_e), abs=1e-12)
        assert gap.bound == pytest.approx(8.0 * four_e / 4.0, abs=1e-12)
        assert gap.gap <= gap.bound

    def test_random_positive_fields(self, chain10):
        mesh, _, pi, weights = chain10
        rng = np.random.default_rng(21)
        for _ in range(25):
            m = DiscreteMeasure.normalized(rng.uniform(0.05, 1.0, mesh.n_cells))
            gap = gf.fisher_sqrt_gap(m, weights, pi)
            assert gap.gap <= gap.bound * (1.0 + 1e-12) + 1e-15

    def test_sqrt_kernel_identity(self, grid4):
        # the energy with the sqrt-log kernel at (m, -log r) equals
        # 4 E_pi(sqrt r); with V = 0, r is the Lebesgue density of m and the
        # face weights are the transmissibilities
        mesh, _, pi, weights = grid4
        rng = np.random.default_rng(13)
        m = DiscreteMeasure.normalized(rng.uniform(0.1, 1.0, mesh.n_cells))
        r = m.masses / pi.masses
        lhs = gf.dirichlet_energy(mesh, -np.log(r), m, kind="sqrt_logarithmic")
        rhs = 4.0 * gf.action(pi, np.sqrt(r), weights, pi)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestDirichletEnergy:
    def test_uniform_coordinate_closed_form(self):
        for n in (4, 10, 64):
            mesh = gf.build_interval_mesh(n)
            pi = gf.discretize_reference(mesh, gf.zero_potential())
            f = gf.project_function(mesh, lambda x: x)
            value = gf.dirichlet_energy(mesh, f, pi)
            assert value == pytest.approx(0.5 * (n - 1) / n, abs=1e-13)
        # the n = 10 row is the frozen example
        mesh = gf.build_interval_mesh(10)
        pi = gf.discretize_reference(mesh, gf.zero_potential())
        f = gf.project_function(mesh, lambda x: x)
        assert gf.dirichlet_energy(mesh, f, pi) == pytest.approx(0.45, abs=1e-14)

    def test_localized_selection(self):
        mesh = gf.build_interval_mesh(4)
        pi = gf.discretize_reference(mesh, gf.zero_potential())
        f = gf.project_function(mesh, lambda x: x)
        # cells 0 and 1 selected, the single face between them contributes
        value = gf.dirichlet_energy(mesh, f, pi,
                                    region=Box(np.array([0.0]), np.array([0.5])))
        h = 0.25
        assert value == pytest.approx(0.5 * h * h / h, abs=1e-15)

    def test_constant_zero_any_region(self, grid4):
        mesh, _, pi, _ = grid4
        f = np.ones(mesh.n_cells)
        assert gf.dirichlet_energy(mesh, f, pi) == 0.0
        box = Box(np.array([0.1, 0.1]), np.array([0.6, 0.7]))
        assert gf.dirichlet_energy(mesh, f, pi, region=box) == 0.0


class TestContinuousDirichlet:
    def test_constant(self):
        domain = gf.Domain.interval(0.0, 1.0)
        assert gf.continuous_dirichlet(lambda x: 2.0, lambda x: 1.0, domain,
                                       grad=lambda x: 0.0) == 0.0

    def test_coordinate(self):
        domain = gf.Domain.interval(0.0, 1.0)
        value = gf.continuous_dirichlet(lambda x: x, lambda x: 1.0, domain)
        assert value == pytest.approx(0.5, abs=1e-9)

    def test_cosine_quarter_pi_squared(self):
        domain = gf.Domain.interval(0.0, 1.0)
        value = gf.continuous_dirichlet(
            lambda x: math.cos(math.pi * x), lambda x: 1.0, domain,
            grad=lambda x: -math.pi * math.sin(math.pi * x))
        assert value == pytest.approx(math.pi ** 2 / 4.0, abs=1e-12)
        numeric = gf.continuous_dirichlet(
            lambda x: math.cos(math.pi * x), lambda x: 1.0, domain)
        assert numeric == pytest.approx(math.pi ** 2 / 4.0, abs=5e-9)

    def test_square_coordinate(self):
        domain = gf.Domain.rectangle(0.0, 0.0, 1.0, 1.0)
        value = gf.continuous_dirichlet(
            lambda p: float(p[0]), lambda p: 1.0, domain,
            grad=lambda p: np.array([1.0, 0.0]), resolution=64)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_masked_triangle_domain(self):
        # non-rectangular domains rasterize the indicator: O(1/resolution)
        domain = gf.Domain.polygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        value = gf.continuous_dirichlet(
            lambda p: float(p[0]), lambda p: 1.0, domain,
            grad=lambda p: np.array([1.0, 0.0]), resolution=512)
        assert value == pytest.approx(0.25, rel=5e-3)


_NO_FACE_MESHES = {
    "interval-1": lambda: gf.build_interval_mesh(1),
    "voronoi-1": lambda: gf.build_voronoi_mesh([[0.3, 0.6]],
                                               gf.Domain.rectangle(0, 0, 1, 1)),
    "cartesian-1x1": lambda: gf.build_cartesian_mesh(1, 1),
}


@pytest.mark.parametrize("potential", ["zero", "quadratic"])
@pytest.mark.parametrize("name", sorted(_NO_FACE_MESHES))
def test_every_functional_on_a_mesh_without_faces(name, potential):
    mesh = _NO_FACE_MESHES[name]()
    assert mesh.n_faces == 0
    pot = potential_from_token(potential, mesh.dim)
    pi = gf.discretize_reference(mesh, pot)
    assert pi.masses.tolist() == [1.0]
    for kind in S_MEAN_KINDS:
        weights = gf.face_weights(mesh, pot, kind)
        assert weights.w.shape == (0,) and weights.face_cells.shape == (0, 2)
        assert weights.pi.masses.tolist() == [1.0]
    f = np.array([2.5])
    assert gf.entropy(pi, pi) == 0.0
    assert gf.action(pi, f, weights, pi) == 0.0
    assert gf.fisher(pi, weights, pi) == 0.0
    gap = gf.fisher_sqrt_gap(pi, weights, pi)
    assert (gap.fisher_half, gap.dirichlet_sqrt, gap.gap, gap.bound) == (0.0,) * 4
    for region in (None, Box.from_center(mesh.sites[0], 0.5)):
        assert gf.dirichlet_energy(mesh, f, pi, region=region) == 0.0
    op = gf.assemble_onsager(mesh, weights, pi, pi)
    assert op.matrix.toarray().tolist() == [[0.0]]
    assert (op.n_components, op.component.tolist()) == (1, [0])
    assert gf.dual_action(pi, np.zeros(1), weights, pi, operator=op) == 0.0
    assert gf.dual_action(pi, np.zeros(1), weights, pi, mesh=mesh) == 0.0
    with pytest.warns(UserWarning, match="unbalanced"):
        assert gf.dual_action(pi, np.array([0.1]), weights, pi, mesh=mesh) == math.inf
