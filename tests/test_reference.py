import math

import numpy as np
import pytest

import gradflow as gf
from gradflow import experiments as ex
from gradflow import reference
from gradflow.reference import (DiscreteMeasure, cell_integrals,
                                density_from_token,
                                initial_measure_from_token,
                                potential_from_token)


class TestDiscretizeReference:
    def test_flat_potential_gives_volumes(self):
        mesh = gf.build_interval_mesh(5, breakpoints=[0, 0.1, 0.3, 0.55, 0.8, 1.0])
        pi = gf.discretize_reference(mesh, gf.zero_potential())
        assert np.allclose(pi.masses, mesh.volumes, atol=1e-14)

    def test_linear_potential_closed_form(self):
        # int_0^(1/2) e^-x = 1 - e^(-1/2); total 1 - e^(-1)
        mesh = gf.build_interval_mesh(2)
        pi = gf.discretize_reference(mesh, gf.linear_potential(1.0))
        z = 1.0 - math.exp(-1.0)
        expected = np.array([(1.0 - math.exp(-0.5)) / z,
                             (math.exp(-0.5) - math.exp(-1.0)) / z])
        assert np.allclose(pi.masses, expected, atol=1e-12)
        assert pi.masses[0] == pytest.approx(0.6225, abs=5e-5)

    def test_random_potential_normalized(self, grid4):
        mesh = grid4[0]
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(3)

        def v(p):
            return (coeffs[0] * p[:, 0] + coeffs[1] * p[:, 1]
                    + coeffs[2] * p[:, 0] * p[:, 1])

        pi = gf.discretize_reference(mesh, gf.Potential("random", batch=v))
        assert pi.masses.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(pi.masses > 0.0)


class TestCellQuadrature:
    def test_interval_gauss_degree(self):
        from gradflow.reference import cell_integrals

        mesh = gf.build_interval_mesh(3, breakpoints=[0.0, 0.2, 0.7, 1.0])
        # 5-point Gauss integrates degree 9 exactly
        vals = cell_integrals(mesh, lambda x: x ** 9)
        edges = mesh.cell_bounds
        exact = (edges[:, 1] ** 10 - edges[:, 0] ** 10) / 10.0
        assert np.allclose(vals, exact, rtol=1e-13)

    @pytest.mark.parametrize("order,degree", [(1, 1), (3, 5)])
    def test_polygon_rules_polynomial_exactness(self, order, degree):
        from gradflow.reference import cell_integrals

        mesh = gf.build_voronoi_mesh(
            [[0.3, 0.4], [0.7, 0.6], [0.45, 0.85]],
            gf.Domain.rectangle(0, 0, 1, 1))

        def poly(p):
            return (1.0 + p[0]) ** degree + (0.5 + p[1]) ** degree

        vals = cell_integrals(mesh, poly, order=order)
        oracle = cell_integrals(mesh, poly, order=3)
        if order == 3:
            # degree-5 rule against a dense midpoint rasterization
            n = 800
            xs = (np.arange(n) + 0.5) / n
            gx, gy = np.meshgrid(xs, xs, indexing="ij")
            total = sum(vals)
            dense = np.mean([(1.0 + gx) ** degree + (0.5 + gy) ** degree]) \
                * 1.0
            assert total == pytest.approx(float(dense), rel=1e-5)
        else:
            assert np.allclose(vals, oracle, rtol=1e-12)


def _site_sigma(mesh, pot):
    """sigma(x_K) = exp(-V(x_K))/Z per site, Z by the mesh's default rule: the
    site values face_weights takes its means of."""
    boltzmann = reference._boltzmann(pot)
    return boltzmann.batch(mesh.sites) / float(cell_integrals(mesh, boltzmann).sum())


class TestFaceWeights:
    def test_flat_two_cell(self, two_cell):
        _, _, _, weights = two_cell
        assert weights.w[0] == pytest.approx(2.0, abs=1e-12)

    def test_equal_arguments_all_means_agree(self):
        mesh = gf.build_interval_mesh(3)
        pot = gf.zero_potential()
        w_min = gf.face_weights(mesh, pot, "min").w
        w_max = gf.face_weights(mesh, pot, "max").w
        assert np.array_equal(w_min, w_max)

    def test_geometric_mean_identity(self):
        from gradflow.reference import cell_integrals

        mesh = gf.build_interval_mesh(4)
        pot = gf.linear_potential(2.0)
        weights = gf.face_weights(mesh, pot, "geometric")
        z = float(cell_integrals(mesh, lambda x: np.exp(-pot(x))).sum())
        trans = mesh.transmissibilities()
        for f, (k, l) in enumerate(mesh.face_cells):
            vk = 2.0 * mesh.sites[k, 0]
            vl = 2.0 * mesh.sites[l, 0]
            expected = math.exp(-(vk + vl) / 2.0) / z
            assert weights.w[f] == pytest.approx(trans[f] * expected, rel=1e-13)

    def test_sandwich_every_kind(self):
        mesh = gf.build_cartesian_mesh(3, 3)
        pot = gf.quadratic_potential([0.3, 0.7])
        for kind in ("min", "max", "arithmetic", "geometric", "harmonic",
                     "logarithmic"):
            weights = gf.face_weights(mesh, pot, kind)
            sig = _site_sigma(mesh, pot)
            k, l = mesh.face_cells[:, 0], mesh.face_cells[:, 1]
            lo = np.minimum(sig[k], sig[l])
            hi = np.maximum(sig[k], sig[l])
            s = weights.w / mesh.transmissibilities()
            assert np.all(s >= lo - 1e-15)
            assert np.all(s <= hi + 1e-15)
            assert np.all(weights.w > 0.0)

    def test_unknown_kind_rejected(self, two_cell):
        mesh, pot = two_cell[0], two_cell[1]
        with pytest.raises(ValueError):
            gf.face_weights(mesh, pot, "median")


def _two_pass_face_weights(mesh, pot, mean_kind):
    """Reference copy of the former face weights: Z from a second pass."""
    from gradflow.functionals import mean_value
    from gradflow.reference import cell_integrals

    z = float(cell_integrals(mesh, lambda x: np.exp(-pot(x))).sum())
    if mesh.dim == 1:
        sigma = np.array([np.exp(-pot(float(x[0]))) for x in mesh.sites]) / z
    else:
        sigma = np.array([np.exp(-pot(x)) for x in mesh.sites]) / z
    fc = mesh.face_cells
    s = mean_value(mean_kind, sigma[fc[:, 0]], sigma[fc[:, 1]])
    return mesh.transmissibilities() * s


_ONE_PASS_MESHES = {
    "interval": lambda: gf.build_interval_mesh(
        5, breakpoints=[0.0, 0.1, 0.35, 0.5, 0.8, 1.0]),
    "cartesian": lambda: gf.build_cartesian_mesh(5, 4),
    "voronoi": lambda: ex.jittered_voronoi_family((36,)).build()[0],
}


class TestOnePassSetup:
    @pytest.mark.parametrize("potential", ["zero", "linear", "quadratic",
                                           "double-well"])
    @pytest.mark.parametrize("kind", sorted(_ONE_PASS_MESHES))
    def test_pi_and_weights_match_two_pass(self, kind, potential):
        mesh = _ONE_PASS_MESHES[kind]()
        pot = potential_from_token(potential, mesh.dim)
        weights = gf.face_weights(mesh, pot, "logarithmic")
        pi = gf.discretize_reference(mesh, pot)
        assert np.array_equal(weights.pi.masses, pi.masses)
        assert np.array_equal(weights.w,
                              _two_pass_face_weights(mesh, pot, "logarithmic"))

    def test_one_quadrature_pass(self, monkeypatch):
        from gradflow import reference

        calls = []
        original = reference.cell_integrals
        monkeypatch.setattr(reference, "cell_integrals",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        mesh = gf.build_cartesian_mesh(4, 4)
        gf.face_weights(mesh, gf.quadratic_potential([0.3, 0.7]))
        assert len(calls) == 1


# -- the batched quadrature against the per-point loop it replaced -------------

_OLD_TRI_RULES = {
    1: (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0])),
    2: (np.array([[2 / 3, 1 / 6, 1 / 6],
                  [1 / 6, 2 / 3, 1 / 6],
                  [1 / 6, 1 / 6, 2 / 3]]), np.full(3, 1 / 3)),
    3: (np.array([[1 / 3, 1 / 3, 1 / 3],
                  [0.797426985353087, 0.101286507323456, 0.101286507323456],
                  [0.101286507323456, 0.797426985353087, 0.101286507323456],
                  [0.101286507323456, 0.101286507323456, 0.797426985353087],
                  [0.059715871789770, 0.470142064105115, 0.470142064105115],
                  [0.470142064105115, 0.059715871789770, 0.470142064105115],
                  [0.470142064105115, 0.470142064105115, 0.059715871789770]]),
        np.array([0.225,
                  0.125939180544827, 0.125939180544827, 0.125939180544827,
                  0.132394152788506, 0.132394152788506, 0.132394152788506])),
}


def _old_polygon_centroid(verts):
    x, y = verts[:, 0], verts[:, 1]
    cross = x * np.roll(y, -1) - np.roll(x, -1) * y
    a = 0.5 * np.sum(cross)
    if abs(a) < 1e-300:
        return verts.mean(axis=0)
    cx = float(np.sum((x + np.roll(x, -1)) * cross)) / (6.0 * a)
    cy = float(np.sum((y + np.roll(y, -1)) * cross)) / (6.0 * a)
    return np.array([cx, cy])


def _old_cell_quadrature(mesh, k, order=None):
    """Reference copy of the former per-cell rule."""
    if mesh.dim == 1:
        points = 5 if order is None else max(int(order), 1)
        gx, gw = np.polynomial.legendre.leggauss(points)
        lo, hi = mesh.cell_bounds[k]
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return (mid + half * gx)[:, None], half * gw
    bary, bw = _OLD_TRI_RULES[min(max(order or 1, 1), 3)]
    poly = mesh.cell_polygons[k]
    center = _old_polygon_centroid(poly)
    nodes, weights = [], []
    m = len(poly)
    for i in range(m):
        a, b = poly[i], poly[(i + 1) % m]
        tri = np.array([center, a, b])
        area = 0.5 * abs((a[0] - center[0]) * (b[1] - center[1])
                         - (b[0] - center[0]) * (a[1] - center[1]))
        if area == 0.0:
            continue
        nodes.append(bary @ tri)
        weights.append(area * bw)
    return np.vstack(nodes), np.concatenate(weights)


def _table_rows(mesh, k, order=None):
    """Cell k's nodes and weights: its rows of the mesh's table."""
    table = mesh.quadrature(order)
    lo, hi = table.offsets[k], table.offsets[k + 1]
    return table.nodes[lo:hi], table.weights[lo:hi]


def _old_point_form(token, dim):
    """Reference copy of the former scalar form of a built-in potential or
    named density (a 'density:' prefix selects the densities)."""
    density = token.startswith("density:")
    name, _, arg = token.removeprefix("density:").partition(":")

    def vec(x):
        return np.atleast_1d(np.asarray(x, dtype=float))

    if density:
        if name == "uniform":
            return lambda x: 1.0
        if name == "cosine":
            amp = float(arg) if arg else 0.5
            return lambda x: float(np.prod(1.0 + amp * np.cos(np.pi * vec(x))))
        return lambda x: 2.0 * float(np.atleast_1d(x)[0])         # linear
    if name == "zero":
        return lambda x: 0.0
    if name == "linear":
        a = np.array([float(v) for v in arg.split(",")] if arg
                     else [1.0] + [0.0] * (dim - 1))
        return lambda x: float(a @ vec(x))
    if name == "quadratic":
        c = np.full(dim, 0.5)

        def quadratic(x):
            d = vec(x) - c
            return 0.5 * float(d @ d)

        return quadratic
    h, c, w = (float(arg) if arg else 2.0), 0.5, 0.25             # double-well
    return lambda x: float(np.sum(h * ((vec(x) - c) ** 2 - w * w) ** 2 / w ** 4))


def _old_pointwise(mesh, g, points):
    if mesh.dim == 1:
        return np.array([g(float(x[0])) for x in points], dtype=float)
    return np.array([g(x) for x in points], dtype=float)


def _old_cell_integrals(mesh, g, order=None):
    """Reference copy of the former loop: one dot product per cell."""
    out = np.empty(mesh.n_cells)
    for k in range(mesh.n_cells):
        nodes, weights = _old_cell_quadrature(mesh, k, order)
        out[k] = float(weights @ _old_pointwise(mesh, g, nodes))
    return out


def _outcome(call):
    try:
        return call().masses
    except ValueError as exc:
        return str(exc)


def _same(a, b):
    return a == b if isinstance(a, str) or isinstance(b, str) \
        else np.array_equal(a, b)


_BATCH_MESHES = {
    "interval": (1, lambda: gf.build_interval_mesh(16)),
    "breakpoints": (1, lambda: gf.build_interval_mesh(
        5, breakpoints=[0.0, 0.1, 0.35, 0.5, 0.8, 1.0])),
    "graded": (1, lambda: gf.build_interval_mesh(
        12, breakpoints=-1.0 + 3.0 * (np.arange(13) / 12.0) ** 2,
        interval=(-1.0, 2.0))),
    "voronoi1d": (1, lambda: gf.build_voronoi_mesh(
        np.array([[0.9], [0.1], [0.55], [0.3], [0.72]]),
        gf.Domain.interval(0.0, 1.0))),
    "cartesian": (2, lambda: gf.build_cartesian_mesh(6, 5)),
    "cartesian-offset": (2, lambda: gf.build_cartesian_mesh(
        4, 3, rect=(-0.5, 0.25, 1.5, 0.75))),
    "voronoi": (2, lambda: ex.jittered_voronoi_family((49,)).build()[0]),
    "voronoi-4": (2, lambda: gf.build_voronoi_mesh(
        np.array([[0.2, 0.3], [0.7, 0.4], [0.45, 0.8], [0.85, 0.85]]),
        gf.Domain.rectangle(0.0, 0.0, 1.0, 1.0))),
    "flattened": (2, lambda: ex.flattened_voronoi_family((32,)).build()[0]),
}
# the orders each mesh takes: the one 1D rule, the 2D rules
_ORDERS = {1: [None], 2: [None, 1, 3]}
_BATCH_CASES = [(kind, order) for kind in sorted(_BATCH_MESHES)
                for order in _ORDERS[_BATCH_MESHES[kind][0]]]


@pytest.fixture(scope="module", params=sorted(_BATCH_MESHES))
def batch_mesh(request):
    return _BATCH_MESHES[request.param][1]()


@pytest.fixture(scope="module", params=_BATCH_CASES,
                ids=[f"{kind}-{order}" for kind, order in _BATCH_CASES])
def batch_case(request):
    """A mesh and one quadrature order it takes."""
    kind, order = request.param
    return _BATCH_MESHES[kind][1](), order


def _top_order(mesh):
    """The highest-degree rule of the mesh: 5-point Gauss in 1D, degree 5 in 2D."""
    return None if mesh.dim == 1 else 3


class TestBatchedQuadrature:
    def test_table_rows_match_per_cell_rule(self, batch_case):
        batch_mesh, order = batch_case
        for k in range(batch_mesh.n_cells):
            nodes, weights = _table_rows(batch_mesh, k, order)
            old_nodes, old_weights = _old_cell_quadrature(batch_mesh, k, order)
            assert np.array_equal(nodes, old_nodes)
            assert np.array_equal(weights, old_weights)

    def test_centroids_match_one_polygon_at_a_time(self):
        from gradflow import geometry

        rng = np.random.default_rng(7)
        for m in range(3, 13):
            polys = rng.uniform(-2.0, 3.0, (20, m, 2))
            polys[0] = 0.25                                # zero area
            polys[1, :, 1] = 0.5                           # collinear
            batch = geometry.polygon_centroids(polys)
            for poly, center in zip(polys, batch):
                assert np.array_equal(center, _old_polygon_centroid(poly))

    @pytest.mark.parametrize("potential", ["zero", "linear", "quadratic",
                                           "double-well"])
    def test_reference_and_weights_match_loop(self, batch_case, potential):
        from gradflow.functionals import mean_value

        mesh, order = batch_case
        pot = potential_from_token(potential, mesh.dim)

        def boltzmann(x):
            return np.exp(-pot(x))

        vals = _old_cell_integrals(mesh, boltzmann, order)
        assert np.array_equal(cell_integrals(mesh, boltzmann, order), vals)
        if order is not None:
            return          # pi and the weights take the mesh's default rule
        pi = DiscreteMeasure.normalized(vals)
        assert np.array_equal(gf.discretize_reference(mesh, pot).masses,
                              pi.masses)
        sigma = _old_pointwise(mesh, boltzmann, mesh.sites) / float(vals.sum())
        s = mean_value("logarithmic", sigma[mesh.face_cells[:, 0]],
                       sigma[mesh.face_cells[:, 1]])
        weights = gf.face_weights(mesh, pot, "logarithmic")
        assert np.array_equal(weights.pi.masses, pi.masses)
        assert np.array_equal(weights.w, mesh.transmissibilities() * s)

    @pytest.mark.parametrize("density", ["uniform", "cosine", "cosine:-0.3",
                                         "linear"])
    def test_projection_matches_loop(self, batch_case, density, monkeypatch):
        mesh, order = batch_case
        if density == "linear" and mesh.dim == 2:
            pytest.skip("the linear density is one-dimensional")
        rho = density_from_token(density, mesh.dim)
        old_rho = _old_point_form("density:" + density, mesh.dim)
        vals = _old_cell_integrals(mesh, old_rho, order)
        assert np.array_equal(cell_integrals(mesh, rho, order), vals)
        # the former pipeline: the old loop on the point form; low orders
        # miss unit mass on some meshes, and then both raise alike
        with monkeypatch.context() as patch:
            patch.setattr(reference, "cell_integrals", _old_cell_integrals)
            expected = _outcome(lambda: gf.project_measure(mesh, old_rho, order))
        assert _same(_outcome(lambda: gf.project_measure(mesh, rho, order)),
                     expected)
        assert np.array_equal(gf.project_function(mesh, rho),
                              _old_pointwise(mesh, old_rho, mesh.sites))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_array_and_point_forms_match_old_scalar_forms(self, dim):
        # points inside and outside the unit cube, as rows
        points = np.random.default_rng(dim).uniform(-0.5, 1.5, (500, dim))
        tokens = ["zero", "linear", "linear:0.3" + ",-1.7" * (dim - 1),
                  "quadratic", "double-well", "double-well:0.5"]
        functions = [(potential_from_token(t, dim), t) for t in tokens]
        densities = ["uniform", "cosine", "cosine:0.9", "cosine:-0.3"]
        densities += ["linear"] if dim == 1 else []
        functions += [(density_from_token(t, dim), "density:" + t)
                      for t in densities]
        mesh = gf.build_interval_mesh(2) if dim == 1 else gf.build_cartesian_mesh(2, 2)
        for g, token in functions:
            expected = _old_pointwise(mesh, _old_point_form(token, dim), points)
            assert np.array_equal(g.batch(points), expected), token
            # the point form is the array form on one row
            assert np.array_equal(_old_pointwise(mesh, g, points), expected), token
            assert np.array_equal([g(x) for x in points], expected), token
            assert all(type(g(x)) is float for x in points[:3])

    def test_potential_is_its_array_form(self):
        user = gf.Potential("user", lambda p: 2.0 * p[:, 0])
        assert user(0.25) == 0.5
        assert np.array_equal(reference._pointwise(user, np.array([[0.25], [1.0]])),
                              [0.5, 2.0])

    def test_scalar_callable_evaluated_per_point(self, batch_case):
        mesh, order = batch_case
        calls = []

        def g(x):
            calls.append(1)
            return float(np.sum(np.atleast_1d(x) ** 3)) + 0.25

        vals = cell_integrals(mesh, g, order)
        assert len(calls) == len(mesh.quadrature(order).nodes)
        assert np.array_equal(vals, _old_cell_integrals(mesh, g, order))

    def test_table_built_once_per_rule(self, monkeypatch):
        from gradflow import mesh as mesh_module

        builds = []
        original = mesh_module._polygon_table
        monkeypatch.setattr(mesh_module, "_polygon_table",
                            lambda *a: builds.append(1) or original(*a))
        mesh = gf.build_cartesian_mesh(4, 3)
        pot = gf.quadratic_potential([0.3, 0.7])
        rho = density_from_token("cosine", 2)
        gf.discretize_reference(mesh, pot)
        gf.face_weights(mesh, pot)
        for order in (None, 1):             # both resolve to the degree-1 rule
            gf.project_measure(mesh, rho, order)
        assert len(builds) == 1
        assert mesh.quadrature(None) is mesh.quadrature(1)
        gf.project_measure(mesh, rho, 3)
        gf.project_measure(mesh, rho, 3)
        assert len(builds) == 2
        other = gf.build_cartesian_mesh(4, 3)
        assert other.quadrature(3) is not mesh.quadrature(3)
        assert len(builds) == 3

    def test_interval_mesh_has_one_rule(self):
        mesh = gf.build_interval_mesh(4)
        assert mesh.quadrature(None) is mesh.quadrature()
        assert len(mesh.quadrature().nodes) == 20      # 5 points per cell
        for order in (0, 1, 3, 5):
            with pytest.raises(ValueError, match="on a 1d mesh: use None$"):
                mesh.quadrature(order)

    def test_table_is_read_only(self, batch_mesh):
        import dataclasses

        order = _top_order(batch_mesh)
        table = batch_mesh.quadrature(order)
        arrays = [table.nodes, table.weights, table.offsets]
        arrays += [cells for _, cells in table.groups]
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.nodes = np.zeros(1)
        nodes, weights = _table_rows(batch_mesh, 0, order)
        assert not nodes.flags.writeable and not weights.flags.writeable

    def test_table_layout(self, batch_mesh):
        table = batch_mesh.quadrature(_top_order(batch_mesh))
        counts = np.diff(table.offsets)
        assert table.offsets[0] == 0 and table.offsets[-1] == len(table.nodes)
        assert len(table.weights) == len(table.nodes)
        grouped = np.concatenate([cells for _, cells in table.groups])
        assert np.array_equal(np.sort(grouped), np.arange(batch_mesh.n_cells))
        for n, cells in table.groups:
            assert np.all(counts[cells] == n)
            assert np.all(np.diff(cells) > 0)
        sums = np.add.reduceat(table.weights, table.offsets[:-1])
        assert np.allclose(sums, batch_mesh.volumes, rtol=1e-13)


class TestProjection:
    def test_uniform_density(self):
        mesh = gf.build_interval_mesh(4, breakpoints=[0, 0.2, 0.5, 0.7, 1.0])
        m = gf.project_measure(mesh, lambda x: 1.0)
        assert np.allclose(m.masses, mesh.volumes, atol=1e-14)

    def test_linear_density(self):
        mesh = gf.build_interval_mesh(2)
        m = gf.project_measure(mesh, lambda x: 2.0 * x)
        assert np.allclose(m.masses, [0.25, 0.75], atol=1e-13)

    def test_projection_inverts_embedding(self, chain10):
        mesh = chain10[0]
        rng = np.random.default_rng(1)
        m = DiscreteMeasure.normalized(rng.uniform(0.2, 1.0, mesh.n_cells))
        # the piecewise density m(K)/|K|, read from the cell holding x
        density = m.masses / mesh.volumes
        lo, hi = mesh.cell_bounds[:, 0], mesh.cell_bounds[:, 1]
        back = gf.project_measure(
            mesh, lambda x: float(density[np.flatnonzero((lo <= x) & (x < hi))[0]]))
        assert np.allclose(back.masses, m.masses, atol=1e-13)

    def test_mass_mismatch_rejected(self, two_cell):
        with pytest.raises(ValueError, match="mass"):
            gf.project_measure(two_cell[0], lambda x: 2.0)

    def test_negative_density_rejected(self, two_cell):
        with pytest.raises(ValueError):
            gf.project_measure(two_cell[0], lambda x: 2.0 - 3.0 * x)


class TestFunctionOperators:
    def test_constant_at_sites(self, grid4):
        mesh = grid4[0]
        f = gf.project_function(mesh, lambda x: 3.5)
        assert np.all(f == 3.5)

    def test_coordinate_sites(self):
        mesh = gf.build_interval_mesh(2)
        f = gf.project_function(mesh, lambda x: x)
        assert np.allclose(f, [0.25, 0.75])


class TestRefinementConsistency:
    def test_site_density_error_decreases(self):
        pot = gf.linear_potential(1.0)
        errors = []
        for n in (8, 16, 32, 64):
            mesh = gf.build_interval_mesh(n)
            pi = gf.discretize_reference(mesh, pot)
            err = np.abs(pi.masses / mesh.volumes - _site_sigma(mesh, pot)).max()
            errors.append(err)
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] <= errors[0] / 4.0


class TestNumbers:
    @pytest.mark.parametrize("text, args, values", [
        ("0.5", (), [0.5]), ("1,-2.5", (2,), [1.0, -2.5]),
        ("3", (1, int, True), [3]), ("4,8,16", (None, int, True), [4, 8, 16]),
        ("1e-3", (1, float, True), [1e-3])])
    def test_values(self, text, args, values):
        read = reference.numbers(text, "x", *args)
        assert read == values
        assert [type(v) for v in read] == [type(v) for v in values]

    @pytest.mark.parametrize("text, args, message", [
        ("nan", (), "a must be comma-separated values, each a finite number, "
                    "got 'nan'"),
        ("1,inf", (2,), "a must be 2 values, each a finite number, "
                        "got '1,inf'"),
        ("1", (2,), "a must be 2 values, each a finite number, got '1'"),
        ("-inf", (1,), "a must be a finite number, got '-inf'"),
        ("x", (1,), "a must be a finite number, got 'x'"),
        ("", (1,), "a must be a finite number, got ''"),
        ("0", (1, float, True), "a must be finite and positive, got '0'"),
        ("1.5", (1, int), "a must be an integer, got '1.5'"),
        ("-2", (1, int, True), "a must be a positive integer, got '-2'"),
        ("4,0", (None, int, True), "a must be comma-separated values, each "
                                   "a positive integer, got '4,0'"),
        # an int past the float range is not finite
        ("1" + "0" * 400, (1, int, True), "a must be a positive integer, got "
                                          f"'1{'0' * 400}'")])
    def test_refused_text_names_the_argument(self, text, args, message):
        with pytest.raises(ValueError) as info:
            reference.numbers(text, "a", *args)
        assert str(info.value) == message

    @pytest.mark.parametrize("token", [
        "linear", "linear:2.0", "quadratic:0.25", "double-well:3"])
    def test_token_values_as_before(self, token):
        # a token's numbers read as float() reads them
        name, _, arg = token.partition(":")
        make = {"linear": gf.linear_potential,
                "quadratic": gf.quadratic_potential,
                "double-well": gf.double_well_potential}[name]
        points = np.linspace(0.0, 1.0, 9)[:, None]
        assert np.array_equal(potential_from_token(token, 1).batch(points),
                              make(float(arg or 1.0)).batch(points))


class TestTokens:
    def test_potential_tokens(self):
        assert potential_from_token("zero", 1)(0.3) == 0.0
        assert potential_from_token("linear:2.0", 1)(0.5) == pytest.approx(1.0)
        v = potential_from_token("quadratic:0.0,0.0", 2)(np.array([1.0, 1.0]))
        assert v == pytest.approx(1.0)
        assert potential_from_token("double-well", 1)(0.5) > 0.0
        for token in ("cubic", "double_well"):
            with pytest.raises(ValueError, match="unknown potential"):
                potential_from_token(token, 1)

    def test_density_tokens(self):
        rho = density_from_token("cosine", 1)
        assert rho(0.0) == pytest.approx(1.5)
        assert density_from_token("uniform", 2)(np.array([0.5, 0.5])) == 1.0
        with pytest.raises(ValueError):
            density_from_token("linear", 2)

    def test_initial_measure_tokens(self, two_cell):
        mesh, _, pi, _ = two_cell
        assert initial_measure_from_token("stationary", mesh, pi) is pi
        m = initial_measure_from_token("blend:cosine:0.9", mesh, pi)
        expected = 0.9 * gf.project_measure(mesh, density_from_token("cosine", 1)).masses \
            + 0.1 * pi.masses
        assert np.allclose(m.masses, expected, atol=1e-15)
        with pytest.raises(ValueError):
            initial_measure_from_token("bogus", mesh, pi)


def _write_measure(path, masses):
    """The file: format: a cell,mass header, then one row per cell."""
    path.write_text("cell,mass\n" + "".join(f"{k},{float(v)!r}\n"
                                             for k, v in enumerate(masses)))


class TestMeasureCsv:
    def test_round_trip(self, chain10, tmp_path):
        mesh, _, pi, _ = chain10
        rng = np.random.default_rng(5)
        m = DiscreteMeasure.normalized(rng.uniform(0.1, 1.0, mesh.n_cells))
        path = tmp_path / "m.csv"
        _write_measure(path, m.masses)
        back = gf.read_measure_csv(path)
        assert np.array_equal(back.masses, m.masses)
        assert path.read_text().startswith("cell,mass")

    def test_file_token(self, two_cell, tmp_path):
        mesh, _, pi, _ = two_cell
        m = DiscreteMeasure(np.array([0.3, 0.7]))
        path = tmp_path / "m.csv"
        _write_measure(path, m.masses)
        loaded = initial_measure_from_token(f"file:{path}", mesh, pi)
        assert np.array_equal(loaded.masses, m.masses)

    def test_repeated_cell_rejected(self, tmp_path):
        # rows 0, 1, 1, 2: every id appears, one of them twice
        path = tmp_path / "m.csv"
        path.write_text("cell,mass\n0,0.25\n1,0.25\n1,0.25\n2,0.5\n")
        with pytest.raises(ValueError, match="^measure CSV lists cell 1 twice$"):
            gf.read_measure_csv(path)

    def test_row_not_cell_mass_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("cell,mass\n0,0.5,1\n1,0.5\n")
        with pytest.raises(ValueError) as info:
            gf.read_measure_csv(path)
        assert str(info.value) == (f"{path}, line 2 must be 2 values, each a "
                                   f"finite number, got '0,0.5,1'")

    def test_wrong_size_rejected(self, chain10, tmp_path):
        mesh, _, pi, _ = chain10
        path = tmp_path / "m.csv"
        _write_measure(path, [0.5, 0.5])
        with pytest.raises(ValueError, match="mesh size"):
            initial_measure_from_token(f"file:{path}", mesh, pi)


class TestDiscreteMeasureInvariants:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_mass_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure(np.array([bad, 1.0]))

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([1.2, -0.2]))

    def test_bad_total_rejected(self):
        with pytest.raises(ValueError):
            DiscreteMeasure(np.array([0.6, 0.6]))

    def test_normalized_accepts_roundoff(self):
        m = DiscreteMeasure.normalized(np.array([0.5, 0.5 + 1e-13]))
        assert m.masses.sum() == pytest.approx(1.0, abs=1e-15)
