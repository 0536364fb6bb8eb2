"""Batched mesh checks and the cartesian builder against their loop originals.

`Mesh.validate` checks every cell in one batch per vertex count,
`build_cartesian_mesh` builds its arrays from the grid lines and
`isotropy_defect` takes every cell's eigenvalues in one call; they must
make the decisions, raise the messages and produce the bytes of the
cell-by-cell code kept below as reference copies.
"""
import numpy as np
import pytest

import gradflow as gf
from gradflow import experiments as ex
from gradflow import mesh as mesh_module
from gradflow.mesh import ORTHOGONALITY_TOL, VOLUME_RTOL, Domain, Mesh, MeshError


# -- reference copies of the cell-by-cell code ----------------------------------


def _reference_signed_edge_distances(verts, p):
    a = verts
    b = np.roll(verts, -1, axis=0)
    ex_, ey = b[:, 0] - a[:, 0], b[:, 1] - a[:, 1]
    ln = np.hypot(ex_, ey)
    ln[ln == 0.0] = 1.0
    return (ex_ * (p[1] - a[:, 1]) - ey * (p[0] - a[:, 0])) / ln


def _reference_site_in_cell(mesh, k, tol=1e-9):
    if mesh.dim == 1:
        lo, hi = mesh.cell_bounds[k]
        return lo - tol <= mesh.sites[k, 0] <= hi + tol
    return bool(np.all(_reference_signed_edge_distances(
        mesh.cell_polygons[k], mesh.sites[k]) >= -tol))


def _reference_validate(mesh):
    vol = float(mesh.volumes.sum())
    if abs(vol - mesh.domain.volume) > VOLUME_RTOL * max(abs(mesh.domain.volume), 1e-300):
        raise MeshError(f"cell volumes sum to {vol!r}, domain volume is "
                        f"{mesh.domain.volume!r}")
    if np.any(mesh.volumes <= 0.0):
        raise MeshError("nonpositive cell volume")
    if mesh.n_faces:
        if np.any(mesh.face_dists <= 0.0):
            raise MeshError("coincident sites across a face")
        if np.any(mesh.face_areas <= 0.0):
            raise MeshError("nonpositive face area")
        pairs = {tuple(sorted(pair)) for pair in map(tuple, mesh.face_cells)}
        if len(pairs) != mesh.n_faces:
            raise MeshError("duplicate face pair")
    for k in range(mesh.n_cells):
        if not _reference_site_in_cell(mesh, k):
            raise MeshError(f"site of cell {k} lies outside its cell")
    if mesh.dim == 2 and mesh.n_faces:
        tau = mesh.face_tau()
        ends = mesh.face_endpoints()
        tangent = ends[:, 1] - ends[:, 0]
        tangent /= np.linalg.norm(tangent, axis=1)[:, None]
        dots = np.abs(np.einsum("fi,fi->f", tau, tangent))
        worst = int(np.argmax(dots))
        if dots[worst] > ORTHOGONALITY_TOL:
            raise MeshError(f"face {worst} violates orthogonality: |tau.t| = "
                            f"{dots[worst]:.3e}")


def _reference_build_cartesian_mesh(nx, ny, rect=(0.0, 0.0, 1.0, 1.0)):
    x0, y0, x1, y1 = (float(v) for v in rect)
    domain = Domain.rectangle(x0, y0, x1, y1)
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny

    def cell_id(i, j):
        return j * nx + i

    sites = np.empty((nx * ny, 2))
    polys = []
    for j in range(ny):
        for i in range(nx):
            sites[cell_id(i, j)] = [0.5 * (xs[i] + xs[i + 1]), 0.5 * (ys[j] + ys[j + 1])]
            polys.append(np.array([[xs[i], ys[j]], [xs[i + 1], ys[j]],
                                   [xs[i + 1], ys[j + 1]], [xs[i], ys[j + 1]]]))
    volumes = np.full(nx * ny, hx * hy)
    fc, fa, fd, fe = [], [], [], []
    for j in range(ny):
        for i in range(nx):
            if i + 1 < nx:
                fc.append((cell_id(i, j), cell_id(i + 1, j)))
                fa.append(hy)
                fd.append(hx)
                fe.append([[xs[i + 1], ys[j]], [xs[i + 1], ys[j + 1]]])
            if j + 1 < ny:
                fc.append((cell_id(i, j), cell_id(i, j + 1)))
                fa.append(hx)
                fd.append(hy)
                fe.append([[xs[i], ys[j + 1]], [xs[i + 1], ys[j + 1]]])
    mesh = Mesh(2, domain, sites, volumes, cell_polygons=polys,
                face_cells=np.array(fc, dtype=np.int64).reshape(-1, 2),
                face_areas=fa, face_dists=fd,
                face_endpoints=np.array(fe).reshape(-1, 2, 2))
    _reference_validate(mesh)
    return mesh


def _outcome(fn):
    try:
        fn()
    except Exception as exc:               # compared, never swallowed
        return type(exc), str(exc)
    return None


# -- the cartesian builder -------------------------------------------------------


def _assert_same_array(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


@pytest.mark.parametrize("rect", [(0.0, 0.0, 1.0, 1.0), (-1.0, 0.5, 2.0, 3.25)])
@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (5, 3), (96, 96)])
def test_cartesian_build_matches_loop(shape, rect, tmp_path):
    new = gf.build_cartesian_mesh(*shape, rect=rect)
    old = _reference_build_cartesian_mesh(*shape, rect=rect)
    for name in ("sites", "volumes", "face_cells", "face_areas", "face_dists"):
        _assert_same_array(getattr(new, name), getattr(old, name))
    _assert_same_array(new.face_endpoints(), old.face_endpoints())
    assert len(new.cell_polygons) == len(old.cell_polygons)
    for got, want in zip(new.cell_polygons, old.cell_polygons):
        _assert_same_array(got, want)
    new.write(tmp_path / "new.txt")
    old.write(tmp_path / "old.txt")
    assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


# -- validate: every decision and message of the loop ------------------------------


def _jittered_voronoi():
    return gf.build_voronoi_mesh(ex._jittered_sites(6, 0.35, 3),
                                 Domain.rectangle(0.0, 0.0, 1.0, 1.0))


MESHES = {
    "interval": lambda: gf.build_interval_mesh(
        9, breakpoints=np.cumsum([0.0, 1, 2, 1, 3, 1, 1, 2, 1, 3]) / 15.0),
    "cartesian": lambda: gf.build_cartesian_mesh(5, 4),
    "voronoi": _jittered_voronoi,
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def valid_mesh(request):
    return MESHES[request.param]()


def _variant(mesh, **changes):
    fields = dict(sites=mesh.sites, volumes=mesh.volumes,
                  cell_bounds=mesh.cell_bounds, cell_polygons=mesh.cell_polygons,
                  face_cells=mesh.face_cells, face_areas=mesh.face_areas,
                  face_dists=mesh.face_dists,
                  face_endpoints=mesh.face_endpoints() if mesh.dim == 2 else None)
    fields.update(changes)
    return Mesh(mesh.dim, mesh.domain, **fields)


def _with_extra_face(mesh, pair):
    fields = dict(face_cells=np.vstack([mesh.face_cells, [pair]]),
                  face_areas=np.append(mesh.face_areas, mesh.face_areas[0]),
                  face_dists=np.append(mesh.face_dists, mesh.face_dists[0]))
    if mesh.dim == 2:
        fields["face_endpoints"] = np.concatenate([mesh.face_endpoints(),
                                                   mesh.face_endpoints()[:1]])
    return _variant(mesh, **fields)


def _scaled_volumes(mesh):
    return _variant(mesh, volumes=mesh.volumes * 1.01)


def _negative_volume(mesh):
    v = mesh.volumes.copy()
    v[1] += 2.0 * v[0]                      # the sum is kept
    v[0] = -v[0]
    return _variant(mesh, volumes=v)


def _coincident_sites(mesh):
    d = mesh.face_dists.copy()
    d[2] = 0.0
    return _variant(mesh, face_dists=d)


def _negative_face_area(mesh):
    a = mesh.face_areas.copy()
    a[1] = -a[1]
    return _variant(mesh, face_areas=a)


def _outside_cells(mesh):
    if mesh.dim == 1 or len(mesh.polygon_groups) == 1:
        return [3, mesh.n_cells - 1]
    # the lowest bad cell sits in the last vertex-count group, a higher one
    # in the first: the lowest is reported, not the first one met
    first, last = mesh.polygon_groups[0][0], mesh.polygon_groups[-1][0]
    assert last[0] < first[-1]
    return sorted({int(last[0]), int(first[-1]), mesh.n_cells - 1})


def _sites_outside(mesh):
    sites = mesh.sites.copy()
    sites[_outside_cells(mesh)] += 3.0 * mesh.size()
    return _variant(mesh, sites=sites)


def _off_orthogonal(mesh):
    # a small tangential shift keeps the site inside its cell
    sites = mesh.sites.copy()
    sites[4, 0] += 0.05 * float(mesh.face_dists.min())
    return _variant(mesh, sites=sites)


DEFECTS = {
    "volume-sum": _scaled_volumes,
    "nonpositive-volume": _negative_volume,
    "coincident-sites": _coincident_sites,
    "nonpositive-face-area": _negative_face_area,
    "duplicate-pair": lambda m: _with_extra_face(m, m.face_cells[0]),
    "duplicate-pair-reversed": lambda m: _with_extra_face(m, m.face_cells[0, ::-1]),
    "sites-outside": _sites_outside,
    "orthogonality": _off_orthogonal,
}


def test_voronoi_mesh_mixes_vertex_counts():
    groups = _jittered_voronoi().polygon_groups
    assert len(groups) >= 3
    assert [stack.shape[1] for _, stack in groups] == \
        sorted(stack.shape[1] for _, stack in groups)


def test_valid_meshes_pass_both(valid_mesh):
    assert _outcome(valid_mesh.validate) is None
    assert _outcome(lambda: _reference_validate(valid_mesh)) is None


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_defect_raises_as_the_loop(valid_mesh, defect):
    if defect == "orthogonality" and valid_mesh.dim == 1:
        pytest.skip("orthogonality is a two-dimensional check")
    mesh = DEFECTS[defect](valid_mesh)
    want = _outcome(lambda: _reference_validate(mesh))
    assert want is not None and want[0] is MeshError
    assert _outcome(mesh.validate) == want


def test_sites_outside_names_the_lowest_cell(valid_mesh):
    lowest = _outside_cells(valid_mesh)[0]
    assert _outcome(_sites_outside(valid_mesh).validate) == \
        (MeshError, f"site of cell {lowest} lies outside its cell")


@pytest.mark.parametrize("gap, passes", [(5e-10, True), (2e-9, False)])
def test_site_tolerance_as_the_loop(gap, passes):
    # sites beyond their cell by less than the tolerance pass, beyond it fail
    interval = gf.build_interval_mesh(4)
    sites = interval.sites.copy()
    sites[1:, 0] = interval.cell_bounds[1:, 1] + gap
    column = gf.build_cartesian_mesh(1, 3)
    shifted = column.sites.copy()
    shifted[:, 0] = -gap                    # one shift keeps the faces orthogonal
    for mesh in (_variant(interval, sites=sites), _variant(column, sites=shifted)):
        want = _outcome(lambda: _reference_validate(mesh))
        assert (want is None) == passes
        assert _outcome(mesh.validate) == want


def test_nan_site_rejected_as_the_loop():
    mesh = gf.build_cartesian_mesh(3, 2)
    sites = mesh.sites.copy()
    sites[4, 1] = np.nan
    bad = _variant(mesh, sites=sites)
    assert _outcome(bad.validate) == _outcome(lambda: _reference_validate(bad)) \
        == (MeshError, "site of cell 4 lies outside its cell")


# -- face cells: out of range or a cell to itself ------------------------------------


@pytest.mark.parametrize("pair, message", [
    ((2, 2), "face 1 joins cell 2 to itself"),
    ((2, -1), "face 1 joins cells 2 and -1, but the mesh has cells 0 to 3"),
    ((4, 0), "face 1 joins cells 4 and 0, but the mesh has cells 0 to 3"),
])
def test_bad_face_cells_named(pair, message):
    mesh = gf.build_interval_mesh(4)
    fc = mesh.face_cells.copy()
    fc[1] = pair
    fc[2] = (3, 3)                          # a later bad face is not named
    with pytest.raises(MeshError) as err:
        _variant(mesh, face_cells=fc).validate()
    assert str(err.value) == message


def test_bad_face_cells_checked_before_the_face_data():
    # face 0 points past the last cell and also has a zero distance
    mesh = gf.build_cartesian_mesh(3, 3)
    fc = mesh.face_cells.copy()
    fc[0] = (0, 9)
    d = mesh.face_dists.copy()
    d[0] = 0.0
    with pytest.raises(MeshError, match="face 0 joins cells 0 and 9"):
        _variant(mesh, face_cells=fc, face_dists=d).validate()


# -- the polygon groups ---------------------------------------------------------------


def test_polygon_groups_built_once_and_shared(monkeypatch):
    groupings, tables = [], []
    group, table = mesh_module._group_polygons, mesh_module._polygon_table
    monkeypatch.setattr(mesh_module, "_group_polygons",
                        lambda *a: groupings.append(1) or group(*a))
    monkeypatch.setattr(mesh_module, "_polygon_table",
                        lambda *a: tables.append(a[0]) or table(*a))
    mesh = gf.build_cartesian_mesh(4, 3)
    mesh.validate()
    mesh.quadrature(1)
    mesh.quadrature(3)
    mesh.quadrature(3)
    assert len(groupings) == 1
    assert len(tables) == 2 and all(t is mesh.polygon_groups for t in tables)


def test_cell_polygons_are_read_only_views_of_the_groups():
    mesh = _jittered_voronoi()
    seen = []
    for cells, stack in mesh.polygon_groups:
        assert not cells.flags.writeable and not stack.flags.writeable
        assert np.all(np.diff(cells) > 0)
        for k, poly in zip(cells.tolist(), stack):
            assert np.shares_memory(mesh.cell_polygons[k], stack)
            assert np.array_equal(mesh.cell_polygons[k], poly)
            assert not mesh.cell_polygons[k].flags.writeable
            seen.append(k)
    assert sorted(seen) == list(range(mesh.n_cells))


# -- the builders' own per-item checks --------------------------------------------------


@pytest.mark.parametrize("breakpoints, index", [
    ([0.0, 0.5, 0.4, 0.6, 0.6, 1.0], 2),
    ([0.0, 0.3, np.nan, 0.7, 0.8, 1.0], 2),
    ([0.0, 0.2, 0.4, 0.6, 0.6, 1.0], 4),
])
def test_non_monotone_breakpoints_name_the_first_index(breakpoints, index):
    with pytest.raises(MeshError, match=f"at index {index}$"):
        gf.build_interval_mesh(5, breakpoints=breakpoints)


@pytest.mark.parametrize("sites, domain", [
    (np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.9], [1.3, 0.5], [0.4, 0.1],
               [-0.2, 0.5]]), Domain.rectangle(0.0, 0.0, 1.0, 1.0)),
    (np.array([[0.5], [0.2], [0.9], [1.3], [0.4], [-0.2]]), Domain.interval(0.0, 1.0)),
])
def test_sites_outside_the_domain_name_the_first(sites, domain):
    pts = np.asarray(sites, dtype=float)
    site_tol = 1e-12 * max(domain.diameter, 1.0)
    first = next(i for i in range(len(pts))
                 if not domain.contains(pts[i:i + 1], tol=site_tol)[0])
    with pytest.raises(MeshError, match=f"^site {first} lies outside the domain$"):
        gf.build_voronoi_mesh(sites, domain)


@pytest.mark.parametrize("sites, message", [
    ([0.2, 0.5, 0.9], "only dimensions 1 and 2 are supported"),
    ([0.3, 0.7], "site dimension does not match the domain"),   # one 2D site
])
def test_flat_1d_sites_rejected(sites, message):
    with pytest.raises(MeshError, match=message):
        gf.build_voronoi_mesh(sites, Domain.interval(0.0, 1.0))


def test_site_within_the_domain_tolerance_accepted():
    domain = Domain.rectangle(0.0, 0.0, 1.0, 1.0)
    sites = np.array([[0.25, 0.5], [1.0 + 5e-13, 0.5]])
    assert domain.contains(sites[1:], tol=1e-12 * domain.diameter)[0]
    assert gf.build_voronoi_mesh(sites, domain).n_cells == 2


def _reference_isotropy_defect(mesh, weights, pi):
    d = mesh.dim
    moments = np.zeros((mesh.n_cells, d, d))
    k, l = mesh.face_cells[:, 0], mesh.face_cells[:, 1]
    diff = mesh.sites[k] - mesh.sites[l]
    outer = 0.5 * weights.w[:, None, None] * diff[:, :, None] * diff[:, None, :]
    np.add.at(moments, k, outer)
    np.add.at(moments, l, outer)
    defects = np.empty(mesh.n_cells)
    for c in range(mesh.n_cells):
        a = moments[c] / pi.masses[c] - np.eye(d)
        lam = float(np.linalg.eigvalsh(a)[-1]) if d == 2 else float(a[0, 0])
        defects[c] = max(lam, 0.0)
    return defects


@pytest.mark.parametrize("potential", ["zero", "quadratic"])
@pytest.mark.parametrize("mesh", [
    *MESHES.values(), lambda: ex.flattened_voronoi_family((64,)).build()[0],
    *(lambda seed=seed: gf.build_voronoi_mesh(
        ex._jittered_sites(14, 0.35, seed), Domain.rectangle(0.0, 0.0, 1.0, 1.0))
      for seed in (42, 1, 7))])
def test_isotropy_defect_matches_loop(mesh, potential):
    mesh = mesh()
    weights = gf.face_weights(
        mesh, gf.reference.potential_from_token(potential, mesh.dim))
    defects = gf.isotropy_defect(mesh, weights, weights.pi)
    expected = _reference_isotropy_defect(mesh, weights, weights.pi)
    assert defects.tobytes() == expected.tobytes()
