"""One definition per mesh primitive, against the copies it replaced.

Site distances (`geometry.distances`), domain containment
(`Domain.contains`) and the 1D cell builder each used to exist more than
once.  The earlier forms are kept below as reference copies: the
preselect-then-recheck loops for duplicate sites and face pairs, the inline
containment tests, the two 1D mesh assemblies and the per-pair norm list.
The single forms must reproduce them byte for byte, and name the same site
in their error messages.
"""
import numpy as np
import pytest

import gradflow as gf
from gradflow import diagnostics, geometry
from gradflow import experiments as ex
from gradflow.experiments import _jittered_sites
from gradflow.geometry import Box
from gradflow.mesh import FACE_DROP_FACTOR, Domain, Mesh, MeshError
from test_voronoi_equivalence import _reference_line_section

UNIT_SQUARE = Domain.rectangle(0.0, 0.0, 1.0, 1.0)


def _bits(arr):
    return np.asarray(arr).tobytes()


def _site_tol(domain):
    return 1e-12 * max(domain.diameter, 1.0)


def _build_error(sites, domain):
    try:
        gf.build_voronoi_mesh(sites, domain)
    except MeshError as err:
        return str(err)
    return None


# -- reference copies ---------------------------------------------------------------


def _reference_row_gaps(pts, i):
    d = pts[i + 1:] - pts[i]
    return np.sqrt(np.einsum("ij,ij->i", d, d))


def _reference_duplicate_error(pts, site_tol):
    for i in range(len(pts) - 1):
        near = np.flatnonzero(_reference_row_gaps(pts, i) <= site_tol * (1.0 + 1e-9))
        for j in (near + i + 1).tolist():
            if np.linalg.norm(pts[i] - pts[j]) <= site_tol:
                return f"duplicate sites {i} and {j}"
    return None


def _reference_outside(pts, domain, site_tol):
    if domain.dim == 1:
        lo, hi = domain.bounds
        return ~((lo - site_tol <= pts[:, 0]) & (pts[:, 0] <= hi + site_tol))
    dist = geometry.signed_edge_distances(domain.vertices, pts.T[:, :, None])
    return ~np.all(dist >= -site_tol, axis=1)


def _reference_faces(pts, polys, mesh_size, site_tol):
    drop = FACE_DROP_FACTOR * mesh_size
    fc, fa, fd, fe = [], [], [], []
    for i in range(len(pts) - 1):
        near = np.flatnonzero(_reference_row_gaps(pts, i)
                              <= 2.0 * mesh_size * (1.0 + 1e-9))
        for j in (near + i + 1).tolist():
            gap = float(np.linalg.norm(pts[i] - pts[j]))
            if gap > 2.0 * mesh_size:
                continue
            normal = pts[j] - pts[i]
            offset = 0.5 * float(normal @ (pts[i] + pts[j]))
            seg = _reference_line_section(polys[i], normal, offset, site_tol)
            if seg is None:
                continue
            length = float(np.hypot(*(seg[1] - seg[0])))
            if length < drop:
                continue
            fc.append((i, j))
            fa.append(length)
            fd.append(gap)
            fe.append([seg[0], seg[1]])
    return (np.array(fc, dtype=np.int64).reshape(-1, 2), np.array(fa, dtype=float),
            np.array(fd, dtype=float), np.array(fe, dtype=float).reshape(-1, 2, 2))


def _reference_voronoi_1d(pts, domain):
    n = len(pts)
    order = np.argsort(pts[:, 0], kind="stable")
    xs = pts[order, 0]
    cuts = np.concatenate([[domain.bounds[0]], 0.5 * (xs[:-1] + xs[1:]),
                           [domain.bounds[1]]])
    bounds = np.empty((n, 2))
    bounds[order, 0] = cuts[:-1]
    bounds[order, 1] = cuts[1:]
    volumes = bounds[:, 1] - bounds[:, 0]
    fc = np.column_stack([order[:-1], order[1:]])
    fd = xs[1:] - xs[:-1]
    return Mesh(1, domain, pts, volumes, cell_bounds=bounds,
                face_cells=fc, face_areas=np.ones(max(n - 1, 0)), face_dists=fd)


def _reference_interval_mesh(pts):
    n = len(pts) - 1
    domain = Domain.interval(pts[0], pts[-1])
    sites = 0.5 * (pts[:-1] + pts[1:])
    volumes = np.diff(pts)
    bounds = np.column_stack([pts[:-1], pts[1:]])
    face_cells = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    face_areas = np.ones(max(n - 1, 0))
    face_dists = sites[1:] - sites[:-1]
    return Mesh(1, domain, sites[:, None], volumes, cell_bounds=bounds,
                face_cells=face_cells, face_areas=face_areas, face_dists=face_dists)


def _reference_norms(a, b):
    return np.array([float(np.linalg.norm(d)) for d in a - b])


def _mesh_arrays(mesh):
    arrays = [mesh.sites, mesh.volumes, mesh.face_cells, mesh.face_areas,
              mesh.face_dists]
    if mesh.dim == 1:
        arrays += [mesh.cell_bounds, mesh.domain.bounds]
    return [(a.dtype.str, a.shape, _bits(a)) for a in arrays]


# -- site distances -------------------------------------------------------------------


def test_distances_are_the_per_row_norms():
    rng = np.random.default_rng(11)
    scale = 10.0 ** rng.uniform(-3.0, 3.0, size=(100_000, 1))
    a = rng.standard_normal((100_000, 2)) * scale
    b = rng.standard_normal((100_000, 2)) * scale
    assert _bits(geometry.distances(a, b)) == _bits(_reference_norms(a, b))
    column = rng.standard_normal((1000, 1)) * scale[:1000]
    assert _bits(geometry.distances(column, column[::-1])) \
        == _bits(_reference_norms(column, column[::-1]))
    # one row against every row, as the builders call it
    assert _bits(geometry.distances(a[1:50], a[0])) \
        == _bits(_reference_norms(a[1:50], a[0]))


SITE_SETS = {
    "jittered-196": lambda: _jittered_sites(14, 0.35, 42),
    "jittered-100": lambda: _jittered_sites(10, 0.35, 42),
    "flattened-64": lambda: ex._staggered_sites(4, 16),
    "random-150": lambda: np.random.default_rng(3).random((150, 2)),
}


_BUILT = {}


def _voronoi(name):
    if name not in _BUILT:
        sites = SITE_SETS[name]()
        _BUILT[name] = sites, gf.build_voronoi_mesh(sites, UNIT_SQUARE)
    return _BUILT[name]


@pytest.mark.parametrize("name", list(SITE_SETS))
def test_face_pairs_match_the_preselect_and_recheck_loop(name):
    sites, mesh = _voronoi(name)
    want = _reference_faces(sites, mesh.cell_polygons, mesh.size(),
                            _site_tol(UNIT_SQUARE))
    got = (mesh.face_cells, mesh.face_areas, mesh.face_dists, mesh.face_endpoints())
    assert [_bits(g) for g in got] == [_bits(w) for w in want]


@pytest.mark.parametrize("name", ["jittered-100", "flattened-64"])
def test_path_constants_keep_the_per_pair_norm_bits(name, monkeypatch):
    _, mesh = _voronoi(name)
    new = diagnostics.path_constants(mesh)
    monkeypatch.setattr(geometry, "distances", _reference_norms)
    old = diagnostics.path_constants(mesh)
    assert (_bits(new.c_count), _bits(new.c_length), new.n_pairs) \
        == (_bits(old.c_count), _bits(old.c_length), old.n_pairs)


def test_path_constants_1d_keep_the_per_pair_norm_bits(monkeypatch):
    mesh = gf.build_interval_mesh(
        60, breakpoints=np.linspace(0.0, 1.0, 61) ** 1.5)
    new = diagnostics.path_constants(mesh)
    monkeypatch.setattr(geometry, "distances", _reference_norms)
    old = diagnostics.path_constants(mesh)
    assert (_bits(new.c_count), _bits(new.c_length)) \
        == (_bits(old.c_count), _bits(old.c_length))


# -- duplicate sites and sites outside the domain ----------------------------------------


def _duplicate_cases():
    tol_1d = _site_tol(Domain.interval(0.0, 1.0))
    tol_2d = _site_tol(UNIT_SQUARE)
    one = Domain.interval(0.0, 1.0)
    return [
        # exactly site_tol apart, and one step farther
        (np.array([[0.0], [tol_1d], [0.5]]), one),
        (np.array([[0.0], [np.nextafter(tol_1d, 1.0)], [0.5]]), one),
        (np.array([[0.0, 0.0], [tol_2d, 0.0], [0.5, 0.5]]), UNIT_SQUARE),
        (np.array([[0.0, 0.0], [np.nextafter(tol_2d, 1.0), 0.0], [0.5, 0.5]]),
         UNIT_SQUARE),
        # several duplicates: the first pair (i, j) is named
        (np.array([[0.2, 0.3], [0.7, 0.4], [0.2, 0.3], [0.7, 0.4]]), UNIT_SQUARE),
        (np.array([[0.2, 0.3], [0.7, 0.4], [0.7, 0.4], [0.2, 0.3]]), UNIT_SQUARE),
        (np.array([[0.9], [0.1], [0.55], [0.3], [0.1]]), one),
    ]


@pytest.mark.parametrize("case", range(len(_duplicate_cases())))
def test_duplicate_sites_match_the_preselect_and_recheck_loop(case):
    sites, domain = _duplicate_cases()[case]
    want = _reference_duplicate_error(sites, _site_tol(domain))
    got = _build_error(sites, domain)
    if want is None:
        assert got is None or not got.startswith("duplicate")
    else:
        assert got == want


def test_duplicate_site_tolerance_is_inclusive():
    tol = _site_tol(UNIT_SQUARE)
    assert _build_error(np.array([[0.0, 0.0], [tol, 0.0], [0.5, 0.5]]),
                        UNIT_SQUARE) == "duplicate sites 0 and 1"
    assert _build_error(np.array([[0.0], [1e-12], [0.5]]),
                        Domain.interval(0.0, 1.0)) == "duplicate sites 0 and 1"
    assert _build_error(np.array([[0.0], [np.nextafter(1e-12, 1.0)], [0.5]]),
                        Domain.interval(0.0, 1.0)) is None


def _outside_cases():
    one = Domain.interval(0.0, 1.0)
    tol_1d, tol_2d = _site_tol(one), _site_tol(UNIT_SQUARE)
    hi = 1.0 + tol_1d
    triangle = Domain.polygon([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    return [
        (np.array([[0.5], [-tol_1d], [hi]]), one),
        (np.array([[0.5], [np.nextafter(-tol_1d, -1.0)], [hi]]), one),
        (np.array([[0.5], [-tol_1d], [np.nextafter(hi, 2.0)]]), one),
        (np.array([[0.5, 0.5], [-tol_2d, 0.5], [0.5, 1.0 + tol_2d]]), UNIT_SQUARE),
        (np.array([[0.5, 0.5], [np.nextafter(-tol_2d, -1.0), 0.5]]), UNIT_SQUARE),
        (np.array([[0.5, 0.5], [0.5, np.nextafter(1.0 + tol_2d, 2.0)]]), UNIT_SQUARE),
        (np.array([[0.2, 0.2], [1.0, 0.5], [1.0, 0.6], [3.0, 0.0]]), triangle),
        (np.random.default_rng(5).uniform(-0.1, 1.1, (40, 2)), UNIT_SQUARE),
    ]


@pytest.mark.parametrize("case", range(len(_outside_cases())))
def test_containment_matches_the_inline_tests(case):
    sites, domain = _outside_cases()[case]
    tol = _site_tol(domain)
    want = _reference_outside(sites, domain, tol)
    assert _bits(~domain.contains(sites, tol=tol)) == _bits(want)
    got = _build_error(sites, domain)
    if want.any():
        assert got == f"site {int(want.argmax())} lies outside the domain"
    else:
        assert got is None or "outside the domain" not in got


def test_reference_rule_keeps_the_points_of_the_inline_test():
    others = [Domain.polygon([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0]]),
              Domain.polygon([[0.5, 0.0], [1.0, 0.3], [0.8, 1.0],
                              [0.1, 0.9], [0.0, 0.2]])]
    rectangles = [Domain.rectangle(0.0, 0.0, 1.0, 1.0),
                  Domain.rectangle(-0.3, 0.2, 1.7, 0.45),
                  Domain.polygon([[2.0, 1.0], [2.0, 3.0], [-1.0, 3.0], [-1.0, 1.0]])]
    for domain, rectangle in ([(d, False) for d in others]
                              + [(d, True) for d in rectangles]):
        points, weights = ex._reference_rule(domain, 64)
        verts = domain.vertices
        x0, y0 = verts.min(axis=0)
        x1, y1 = verts.max(axis=0)
        xs = x0 + (np.arange(64) + 0.5) * (x1 - x0) / 64
        ys = y0 + (np.arange(64) + 0.5) * (y1 - y0) / 64
        gx, gy = np.meshgrid(xs, ys)
        grid = np.column_stack([gx.ravel(), gy.ravel()])
        dist = geometry.signed_edge_distances(verts, grid.T[:, :, None])
        want = grid[np.all(dist >= 0.0, axis=1)]
        assert _bits(points) == _bits(want)
        assert len(weights) == len(want)
        if rectangle:                       # every midpoint of the grid
            assert _bits(points) == _bits(grid)


def _reference_cube_inside(domain, box, margin):
    corners = [box.lo, box.hi] if domain.dim == 1 else list(box.as_polygon())
    for corner in corners:
        probe = np.atleast_1d(corner)
        if domain.dim == 1:
            inside = domain.bounds[0] + margin < probe[0] < domain.bounds[1] - margin
        else:
            inside = bool(np.all(geometry.signed_edge_distances(
                domain.vertices, probe) >= margin))
        if not inside:
            return False
    return True


@pytest.mark.parametrize("family, domain", [
    (lambda: ex.uniform_interval_family((4, 8)), Domain.interval(0.0, 1.0)),
    (lambda: ex.cartesian_family((2, 4)), UNIT_SQUARE),
])
def test_affine_cube_check_matches_the_corner_loop(family, domain):
    margin = 1e-9 * max(domain.diameter, 1.0)
    for center in (0.1, 0.25, 0.5, 0.7, 0.9, 1.0):
        for eps in (0.2, 0.5, 0.999, 1.0, 2.0):
            z = np.full(domain.dim, center)
            box = Box.from_center(z, eps)
            want = _reference_cube_inside(domain, box, margin)
            try:
                ex.gamma_affine_minimization_study(family(), z, np.ones(domain.dim), eps)
                got = True
            except ValueError as err:
                assert str(err) == "the cube must be compactly contained in the domain"
                got = False
            assert got == want, (center, eps)


def test_contains_with_negative_tolerance_is_inclusive_in_1d():
    # the corner test now reads lo + margin <= x, as in 2D
    one = Domain.interval(0.0, 1.0)
    margin = 1e-9
    edge = np.array([[margin], [1.0 - margin]])
    assert one.contains(edge, tol=-margin).tolist() == [True, True]
    beyond = np.array([[np.nextafter(margin, 0.0)], [np.nextafter(1.0 - margin, 2.0)]])
    assert one.contains(beyond, tol=-margin).tolist() == [False, False]


# -- 1D cells -----------------------------------------------------------------------------


@pytest.mark.parametrize("sites", [
    np.array([0.9, 0.1, 0.55, 0.3]),
    np.random.default_rng(7).random(40),
    np.array([0.5]),
    np.array([0.0, 1.0, 0.25, 0.75, 0.5]),
])
def test_voronoi_1d_matches_its_own_assembly(sites):
    domain = Domain.interval(0.0, 1.0)
    pts = sites[:, None]
    mesh = gf.build_voronoi_mesh(pts, domain)
    assert _mesh_arrays(mesh) == _mesh_arrays(_reference_voronoi_1d(pts, domain))


@pytest.mark.parametrize("n, breakpoints", [
    (1, None),
    (7, None),
    (30, np.linspace(0.0, 1.0, 31) ** 2),
    (12, np.cumsum(np.concatenate([[-1.0], np.random.default_rng(2).random(12)]))),
])
def test_interval_mesh_matches_its_own_assembly(n, breakpoints):
    pts = np.linspace(0.0, 1.0, n + 1) if breakpoints is None else breakpoints
    mesh = gf.build_interval_mesh(n, breakpoints=breakpoints,
                                  interval=(pts[0], pts[-1]))
    assert _mesh_arrays(mesh) == _mesh_arrays(_reference_interval_mesh(pts))
