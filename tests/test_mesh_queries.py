"""The batched mesh queries against transcriptions of their per-cell forms.

Cell areas, diameters and inradii are computed once per vertex-count group,
box overlaps for all cells in one call, and 1D good paths by the same block
search as in 2D.  The `_reference_*` copies below are the per-cell and
per-pair code they replaced; the batched forms must give the same bits.
"""
import numpy as np
import pytest

import gradflow as gf
from gradflow import diagnostics, geometry
from gradflow.experiments import (_boundary_layer_measure, _jittered_sites,
                                  flattened_voronoi_family)
from gradflow.geometry import Box
from gradflow.mesh import OVERLAP_SHARE, cell_box_overlaps, cells_inside, cells_meeting


# -- reference copies of the per-cell and per-pair code -------------------------


def _reference_area(verts):
    x, y = verts[:, 0], verts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _reference_diameter(verts):
    d = verts[:, None, :] - verts[None, :, :]
    return float(np.sqrt((d * d).sum(-1)).max())


def _reference_inradius(verts, p):
    return max(float(geometry.signed_edge_distances(verts, p).min()), 0.0)


def _reference_clip_halfplane(verts, normal, offset, merge_tol=1e-12):
    if len(verts) == 0:
        return verts
    s = (verts @ normal - offset).tolist()
    pts = verts.tolist()
    out = []
    k = len(pts)
    for i in range(k):
        j = (i + 1) % k
        si, sj = s[i], s[j]
        if si <= 0.0:
            out.append(pts[i])
        if (si <= 0.0) != (sj <= 0.0):
            t = si / (si - sj)
            (xi, yi), (xj, yj) = pts[i], pts[j]
            out.append([xi + t * (xj - xi), yi + t * (yj - yi)])
    if not out:
        return np.empty((0, 2))
    kept = [out[0]]
    for v in out[1:]:
        if np.hypot(v[0] - kept[-1][0], v[1] - kept[-1][1]) > merge_tol:
            kept.append(v)
    if len(kept) > 1 and not np.hypot(kept[0][0] - kept[-1][0],
                                      kept[0][1] - kept[-1][1]) > merge_tol:
        kept.pop()
    return np.asarray(kept, dtype=float)


def _reference_clip_convex(subject, clipper):
    out = subject
    k = len(clipper)
    for i in range(k):
        if len(out) == 0:
            break
        a = clipper[i]
        e = clipper[(i + 1) % k] - a
        normal = np.array([e[1], -e[0]])
        out = _reference_clip_halfplane(out, normal, float(normal @ a))
    return out


def _reference_cell_box_overlap(mesh, k, box):
    if mesh.dim == 1:
        lo, hi = mesh.cell_bounds[k]
        return max(0.0, min(hi, box.hi[0]) - max(lo, box.lo[0]))
    clipped = _reference_clip_convex(mesh.cell_polygons[k], box.as_polygon())
    if len(clipped) < 3:
        return 0.0
    return max(_reference_area(clipped), 0.0)


def _reference_cells_inside(mesh, box):
    mask = np.zeros(mesh.n_cells, dtype=bool)
    for k in range(mesh.n_cells):
        if mesh.dim == 1:
            lo, hi = mesh.cell_bounds[k]
            pts = np.array([[lo], [hi]])
        else:
            pts = mesh.cell_polygons[k]
        mask[k] = bool(np.all(pts > box.lo) and np.all(pts < box.hi))
    return mask


def _reference_chain_1d(mesh, start, goal):
    order = np.argsort(mesh.cell_bounds[:, 0], kind="stable")
    pos = np.empty(mesh.n_cells, dtype=np.int64)
    pos[order] = np.arange(mesh.n_cells)
    step = 1 if pos[goal] > pos[start] else -1
    cells = [int(order[p]) for p in range(pos[start], pos[goal] + step, step)]
    length = float(sum(abs(mesh.sites[cells[i + 1], 0] - mesh.sites[cells[i], 0])
                       for i in range(len(cells) - 1)))
    return tuple(cells), length


def _reference_boundary_layer(domain, box, width):
    outer = box.expanded(width)
    inner = box.expanded(-width)
    if domain.dim == 1:
        a, b = float(domain.bounds[0]), float(domain.bounds[1])

        def clip_len(bx):
            return max(0.0, min(b, float(bx.hi[0])) - max(a, float(bx.lo[0])))

        inner_len = clip_len(inner) if np.all(inner.hi > inner.lo) else 0.0
        return clip_len(outer) - inner_len

    def clip_area(bx):
        if np.any(bx.hi <= bx.lo):
            return 0.0
        clipped = _reference_clip_convex(np.asarray(domain.vertices), bx.as_polygon())
        return max(_reference_area(clipped), 0.0) if len(clipped) >= 3 else 0.0

    return clip_area(outer) - clip_area(inner)


# -- meshes ------------------------------------------------------------------------


def _unsorted_voronoi_1d():
    sites = np.random.default_rng(5).permutation(np.linspace(0.02, 0.97, 40)
                                                 + 0.01 * np.sin(np.arange(40)))
    return gf.build_voronoi_mesh(sites[:, None], gf.Domain.interval(0.0, 1.0))


MESHES_1D = {
    "uniform-40": lambda: gf.build_interval_mesh(40),
    "graded-40": lambda: gf.build_interval_mesh(40, (np.arange(41) / 40) ** 2),
    "voronoi1d-unsorted-40": _unsorted_voronoi_1d,
}
MESHES_2D = {
    "cartesian-8": lambda: gf.build_cartesian_mesh(8, 8),
    "cartesian-7x5": lambda: gf.build_cartesian_mesh(7, 5, rect=(-1.0, 0.5, 2.0, 1.25)),
    "jittered-64": lambda: gf.build_voronoi_mesh(_jittered_sites(8, 0.35, 42),
                                                 gf.Domain.rectangle(0, 0, 1, 1)),
    "jittered-100": lambda: gf.build_voronoi_mesh(_jittered_sites(10, 0.35, 7),
                                                  gf.Domain.rectangle(0, 0, 1, 1)),
    "flattened-64": lambda: flattened_voronoi_family(sizes=(64,)).build()[0],
}
MESHES = {**MESHES_1D, **MESHES_2D}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return MESHES[request.param]()


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _boxes(mesh):
    """The site-0 cubes of `condition_report`, which reach outside the
    domain, and boxes with edges on the cartesian grid lines and one ulp
    to either side of them."""
    boxes = [Box.from_center(mesh.sites[0], eps) for eps in (0.2, 0.1, 0.05)]
    if mesh.dim == 1:
        return boxes + [Box(np.array([0.25]), np.array([0.75])),
                        Box(np.array([-1.0]), np.array([2.0]))]
    lo, hi = np.full(2, 0.25), np.full(2, 0.75)
    return boxes + [Box(lo, hi), Box(np.nextafter(lo, 0.0), np.nextafter(hi, 0.0)),
                    Box(np.nextafter(lo, 1.0), np.nextafter(hi, 1.0)),
                    Box(np.array([0.0, 0.0]), np.array([0.5, 1.0])),
                    Box(np.full(2, -1.0), np.full(2, 2.0))]


# -- per-cell geometry --------------------------------------------------------------


@pytest.mark.parametrize("m", range(3, 40))
def test_stacked_area_and_diameter_are_the_scalar_forms(m):
    rng = np.random.default_rng(m)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=(25, m)), axis=1)
    radii = rng.uniform(0.5, 2.0, size=(25, 1))
    stack = np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=-1)
    stack += rng.uniform(-3.0, 3.0, size=(25, 1, 2))
    assert _bits(geometry.polygon_area(stack)) == _bits(
        [_reference_area(p) for p in stack])
    assert _bits(geometry.polygon_diameter(stack)) == _bits(
        [_reference_diameter(p) for p in stack])
    assert isinstance(geometry.polygon_area(stack[0]), float)
    assert isinstance(geometry.polygon_diameter(stack[0]), float)


def test_volumes_diameters_and_inradii_are_the_per_cell_forms(mesh):
    size = mesh.size()
    report = gf.regularity_report(mesh)
    if mesh.dim == 1:
        want = mesh.cell_bounds[:, 1] - mesh.cell_bounds[:, 0]
        assert _bits(mesh.cell_diameters()) == _bits(want)
        return
    polys = mesh.cell_polygons
    areas = np.empty(mesh.n_cells)
    for cells, stack in mesh.polygon_groups:
        areas[cells] = geometry.polygon_area(stack)
    assert _bits(areas) == _bits([_reference_area(p) for p in polys])
    assert _bits(mesh.cell_diameters()) == _bits([_reference_diameter(p) for p in polys])
    assert size == max(_reference_diameter(p) for p in polys)
    inradii = [_reference_inradius(p, s) for p, s in zip(polys, mesh.sites)]
    assert _bits(report.zeta_inner) == _bits(float(np.min(inradii)) / size)


@pytest.mark.parametrize("name", ["jittered-64", "jittered-100", "flattened-64"])
def test_voronoi_volumes_are_the_per_cell_areas(name):
    mesh = MESHES_2D[name]()
    assert _bits(mesh.volumes) == _bits([_reference_area(p) for p in mesh.cell_polygons])


def test_inradius_keeps_a_negative_zero():
    # the site is a vertex; the edge that leaves it up and to the left has
    # signed distance -0.0, the smallest entry, which max(r, 0.0) keeps
    diamond = np.array([[1.0, 0.0], [2.0, 1.0], [1.0, 2.0], [0.0, 1.0]])
    site = diamond[1]
    r = geometry.signed_edge_distances(diamond, site).min()
    assert r == 0.0 and np.signbit(r)
    mesh = gf.Mesh(2, gf.Domain.polygon(diamond), [site], [2.0],
                   cell_polygons=[diamond])
    mesh.validate()
    zeta = gf.regularity_report(mesh).zeta_inner
    assert _bits(zeta) == _bits(_reference_inradius(diamond, site) / 2.0)
    assert np.signbit(zeta)


# -- box overlaps ---------------------------------------------------------------------


def test_box_overlaps_are_the_per_cell_clips(mesh):
    for box in _boxes(mesh):
        want = [_reference_cell_box_overlap(mesh, k, box) for k in range(mesh.n_cells)]
        got = cell_box_overlaps(mesh, box)
        assert _bits(got) == _bits(want)
        meets = [w > OVERLAP_SHARE * float(v) for w, v in zip(want, mesh.volumes)]
        assert cells_meeting(mesh, box).tolist() == meets
        assert (cells_inside(mesh, box).tolist()
                == _reference_cells_inside(mesh, box).tolist())


def _centred_boxes(mesh, count):
    """Boxes at the eps of `condition_report` centred at `count` sites, at
    `count` cell corners and at `count` points of the domain boundary."""
    cells = np.linspace(0, mesh.n_cells - 1, count).astype(int)
    boundary = [(0.5, 0.0), (1.0, 0.37), (0.0, 1.0)][:count]
    centres = [*mesh.sites[cells], *(mesh.cell_polygons[k][0] for k in cells), *boundary]
    return [Box.from_center(c, eps) for c in centres for eps in (0.2, 0.1, 0.05)]


@pytest.mark.parametrize("name, count", [("cartesian-96", 1), ("jittered-196", 3)])
def test_far_cells_skip_the_clip(name, count):
    # cells far from the box, which the batched clip empties, overlap it by
    # +0.0 as the per-cell clip gives
    mesh = (gf.build_cartesian_mesh(96, 96) if name == "cartesian-96" else
            gf.build_voronoi_mesh(_jittered_sites(14, 0.35, 42),
                                  gf.Domain.rectangle(0, 0, 1, 1)))
    for box in _centred_boxes(mesh, count):
        want = [_reference_cell_box_overlap(mesh, k, box) for k in range(mesh.n_cells)]
        assert _bits(cell_box_overlaps(mesh, box)) == _bits(want)


def test_degenerate_box_clips_every_cell():
    # a box of width 0 has edges that clip nothing and an inverted box
    # flips its half-planes
    mesh = gf.build_cartesian_mesh(8, 8)
    for box in (Box(np.array([0.5, 0.2]), np.array([0.5, 0.8])),
                Box(np.array([0.6, 0.2]), np.array([0.4, 0.8]))):
        want = [_reference_cell_box_overlap(mesh, k, box) for k in range(mesh.n_cells)]
        assert _bits(cell_box_overlaps(mesh, box)) == _bits(want)


def test_grid_line_box_on_cartesian_8():
    mesh = gf.build_cartesian_mesh(8, 8)
    box = Box(np.full(2, 0.25), np.full(2, 0.75))
    overlaps = cell_box_overlaps(mesh, box)
    # 4 x 4 cells inside, the 20 cells around them touch it only on an edge
    assert np.count_nonzero(overlaps) == 16
    assert cells_meeting(mesh, box).sum() == 16
    assert cells_inside(mesh, box).sum() == 4


def test_boundary_layer_is_the_old_closure(mesh):
    for box in _boxes(mesh):
        for width in (0.01, 0.1, 0.3, 1.5):
            assert _bits(_boundary_layer_measure(mesh.domain, box, width)) \
                == _bits(_reference_boundary_layer(mesh.domain, box, width))


def _reference_holder_value(mesh, f, h):
    """The shifted-overlap sum of `l2_holder_modulus`, one pair at a time."""
    boxes = np.array([[p.min(axis=0), p.max(axis=0)] for p in mesh.cell_polygons])
    lo_shift, hi_shift = boxes[:, 0] + h, boxes[:, 1] + h
    value = 0.0
    for i in range(mesh.n_cells):
        lo_i, hi_i = boxes[i]
        meets = ((f != f[i]) & ~np.any(lo_shift >= hi_i, axis=1)
                 & ~np.any(hi_shift <= lo_i, axis=1))
        for j in np.flatnonzero(meets):
            clipped = _reference_clip_convex(mesh.cell_polygons[i],
                                             mesh.cell_polygons[j] + h[None, :])
            olap = max(_reference_area(clipped), 0.0) if len(clipped) >= 3 else 0.0
            if olap > 0.0:
                df = float(f[j] - f[i])
                value += olap * df * df
    return value


@pytest.mark.parametrize("name", sorted(MESHES_2D))
def test_holder_overlaps_are_the_per_pair_clips(name):
    mesh = MESHES_2D[name]()
    f = np.sin(7.0 * mesh.sites[:, 0]) + mesh.sites[:, 1] ** 2
    pi = np.asarray(mesh.volumes) / np.sum(mesh.volumes)
    for h in ([0.05, 0.0], [0.03, -0.11], [-0.2, 0.25]):
        h = np.array(h)
        got = diagnostics.l2_holder_modulus(mesh, f, h, pi, pi).value
        assert _bits(got) == _bits(_reference_holder_value(mesh, f, h))


# -- 1D good paths ----------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MESHES_1D))
def test_1d_good_paths_are_the_chain(name):
    mesh = MESHES_1D[name]()
    for i in range(mesh.n_cells):
        for j in range(mesh.n_cells):
            if i == j:
                continue
            path = gf.good_path(mesh, i, j)
            cells, length = _reference_chain_1d(mesh, i, j)
            assert path.cells == cells
            assert _bits(path.length) == _bits(length)


def _reference_path_constants(mesh, start, goal):
    size = mesh.size()
    paths = [_reference_chain_1d(mesh, i, j) for i, j in zip(start, goal)]
    hops = np.array([len(cells) - 1 for cells, _ in paths])
    lengths = np.array([length for _, length in paths])
    dist = np.array([float(np.linalg.norm(d))
                     for d in mesh.sites[start] - mesh.sites[goal]])
    return (float(np.max(hops * size / dist)), float(np.max(lengths / dist)))


@pytest.mark.parametrize("name", sorted(MESHES_1D))
def test_1d_path_constants_are_the_chain(name, monkeypatch):
    mesh = MESHES_1D[name]()
    start, goal = np.triu_indices(mesh.n_cells, k=1)
    want = _reference_path_constants(mesh, start, goal)
    for block in (7, 512):
        monkeypatch.setattr(diagnostics, "_PATH_BLOCK", block)
        got = gf.path_constants(mesh)
        assert (got.c_count, got.c_length, got.n_pairs) == (*want, len(start))


def test_1d_sampled_pairs_above_the_limit(monkeypatch):
    breakpoints = np.cumsum(np.r_[0.0, np.random.default_rng(2).uniform(1.0, 3.0, 240)])
    mesh = gf.build_interval_mesh(240, breakpoints / breakpoints[-1])
    sample = 3000
    rng = np.random.default_rng(11)
    pairs = []
    while len(pairs) < sample:
        i, j = rng.integers(0, mesh.n_cells, size=2)
        if i != j:
            pairs.append((int(i), int(j)))
    start, goal = np.array(pairs).T
    monkeypatch.setattr(diagnostics, "PATH_SAMPLE_COUNT", sample)
    monkeypatch.setattr(diagnostics, "PATH_SEED", 11)
    got = gf.path_constants(mesh)
    assert (got.c_count, got.c_length) == _reference_path_constants(mesh, start, goal)
    assert got.n_pairs == sample
