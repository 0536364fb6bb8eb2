"""The Voronoi build and the clipping kernel against their all-pairs originals.

`build_voronoi_mesh` clips every cell in lockstep, one batched
`clip_halfplane` pass per bisector, on padded stacks, and finds the faces of
a cell with one batched section against all its candidates; it must
reproduce, byte for byte, the straight all-pairs loop of one-polygon clips,
the one-polygon clipping kernel and the general line section of one convex
polygon, kept below as reference copies.
"""
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import gradflow as gf
from gradflow import experiments as ex
from gradflow import geometry
from gradflow.mesh import (FACE_DROP_FACTOR, VERTEX_MERGE_TOL, Domain, Mesh, MeshError,
                           _bisector_sections)


# -- reference copies of the all-pairs build and its clipping kernel -----------


def _reference_merge_close_vertices(verts, tol):
    if len(verts) == 0:
        return verts.reshape(0, 2)
    kept = [verts[0]]
    for v in verts[1:]:
        if np.hypot(v[0] - kept[-1][0], v[1] - kept[-1][1]) > tol:
            kept.append(v)
    if len(kept) > 1 and np.hypot(*(kept[0] - kept[-1])) <= tol:
        kept.pop()
    return np.asarray(kept, dtype=float).reshape(-1, 2)


def _reference_clip_halfplane(verts, normal, offset, merge_tol=1e-12):
    if len(verts) == 0:
        return verts
    s = verts @ normal - offset
    out = []
    k = len(verts)
    for i in range(k):
        j = (i + 1) % k
        if s[i] <= 0.0:
            out.append(verts[i])
        if (s[i] <= 0.0) != (s[j] <= 0.0):
            t = s[i] / (s[i] - s[j])
            out.append(verts[i] + t * (verts[j] - verts[i]))
    return _reference_merge_close_vertices(
        np.asarray(out, dtype=float).reshape(-1, 2), merge_tol)


def _reference_line_section(verts, normal, offset, tol=1e-12):
    """Segment cut out of a convex polygon by the line {normal·x = offset},
    ordered along the line, or None when empty or a single point."""
    nn = float(np.hypot(normal[0], normal[1]))
    if nn == 0.0:
        return None
    unit = normal / nn
    s = verts @ unit - offset / nn
    pts = []
    k = len(verts)
    for i in range(k):
        j = (i + 1) % k
        si, sj = s[i], s[j]
        if abs(si) <= tol:
            pts.append(verts[i])
        elif (si < -tol and sj > tol) or (si > tol and sj < -tol):
            t = si / (si - sj)
            pts.append(verts[i] + t * (verts[j] - verts[i]))
    if len(pts) < 2:
        return None
    direction = np.array([-unit[1], unit[0]])
    proj = np.array([float(p @ direction) for p in pts])
    p0 = pts[int(np.argmin(proj))]
    p1 = pts[int(np.argmax(proj))]
    if np.hypot(p1[0] - p0[0], p1[1] - p0[1]) <= tol:
        return None
    return p0, p1


def _reference_build_voronoi_mesh(sites, domain):
    pts = np.atleast_2d(np.asarray(sites, dtype=float))
    n, dim = pts.shape
    for i in range(n):
        for j in range(i + 1, n):
            if np.linalg.norm(pts[i] - pts[j]) <= 1e-12 * max(domain.diameter, 1.0):
                raise MeshError(f"duplicate sites {i} and {j}")
    merge_tol = VERTEX_MERGE_TOL * max(domain.diameter, 1.0)
    polys = []
    for i in range(n):
        poly = np.asarray(domain.vertices, dtype=float)
        for j in range(n):
            if j == i or len(poly) == 0:
                continue
            normal = pts[j] - pts[i]
            offset = 0.5 * float(normal @ (pts[i] + pts[j]))
            poly = _reference_clip_halfplane(poly, normal, offset, merge_tol)
        if len(poly) < 3 or geometry.polygon_area(poly) <= 0.0:
            raise MeshError(f"site {i} produced a degenerate Voronoi cell")
        polys.append(poly)

    volumes = np.array([geometry.polygon_area(p) for p in polys])
    mesh_size = max(geometry.polygon_diameter(p) for p in polys)
    drop = FACE_DROP_FACTOR * mesh_size
    section_tol = 1e-12 * max(domain.diameter, 1.0)
    fc, fa, fd, fe = [], [], [], []
    for i in range(n):
        for j in range(i + 1, n):
            gap = float(np.linalg.norm(pts[i] - pts[j]))
            if gap > 2.0 * mesh_size:
                continue
            normal = pts[j] - pts[i]
            offset = 0.5 * float(normal @ (pts[i] + pts[j]))
            seg = _reference_line_section(polys[i], normal, offset, section_tol)
            if seg is None:
                continue
            length = float(np.hypot(*(seg[1] - seg[0])))
            if length < drop:
                continue
            fc.append((i, j))
            fa.append(length)
            fd.append(gap)
            fe.append([seg[0], seg[1]])
    return Mesh(2, domain, pts, volumes, cell_polygons=polys,
                face_cells=np.array(fc, dtype=np.int64).reshape(-1, 2),
                face_areas=fa, face_dists=fd,
                face_endpoints=np.array(fe, dtype=float).reshape(-1, 2, 2))


# -- inputs ----------------------------------------------------------------------


def _unit_square():
    return Domain.rectangle(0.0, 0.0, 1.0, 1.0)


def _hexagon():
    angles = np.pi / 3 * np.arange(6)
    return Domain.polygon(np.column_stack([np.cos(angles), np.sin(angles)]))


def _exact_grid(g):
    # co-circular quadruples at every interior grid vertex
    return np.array([[(i + 0.5) / g, (j + 0.5) / g]
                     for j in range(g) for i in range(g)])


def _sites_and_domain(family):
    mesh = family.build()[0]
    return mesh.sites, mesh.domain


CASES = {
    "jittered-196": lambda: (ex._jittered_sites(14, 0.35, 42), _unit_square()),
    "grid-6x6": lambda: (_exact_grid(6), _unit_square()),
    "hexagon": lambda: (np.random.default_rng(9).uniform(-0.4, 0.4, size=(10, 2)),
                        _hexagon()),
    "hexagon-120": lambda: (np.random.default_rng(11).uniform(-0.6, 0.6, size=(120, 2)),
                            _hexagon()),
    "two-sites": lambda: (np.array([[0.25, 0.5], [0.75, 0.5]]), _unit_square()),
    "three-sites": lambda: (np.array([[0.2, 0.3], [0.7, 0.4], [0.45, 0.8]]),
                            _unit_square()),
    "flattened-36": lambda: _sites_and_domain(ex.flattened_voronoi_family((36,))),
    # co-circular sites, whose cells merge vertices in many rows
    "grid-14": lambda: (_exact_grid(14), _unit_square()),
    # cells with 9 and 10 faces
    "random-150": lambda: (np.random.default_rng(3).random((150, 2)), _unit_square()),
    "jittered-400": lambda: (ex._jittered_sites(20, 0.35, 42), _unit_square()),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_mesh_file_byte_identical(case, tmp_path):
    sites, domain = CASES[case]()
    gf.build_voronoi_mesh(sites, domain).write(tmp_path / "new.txt")
    _reference_build_voronoi_mesh(sites, domain).write(tmp_path / "reference.txt")
    assert (tmp_path / "new.txt").read_bytes() == \
        (tmp_path / "reference.txt").read_bytes()


def test_no_vertex_beyond_a_candidate_bisector():
    # the section takes a cell's vertices on each bisector and never
    # interpolates a crossing: every cell was clipped by every bisector
    for case in sorted(CASES):
        sites, domain = CASES[case]()
        mesh = gf.build_voronoi_mesh(sites, domain)
        pts, tol = mesh.sites, 1e-12 * max(domain.diameter, 1.0)
        for i, poly in enumerate(mesh.cell_polygons):
            others = np.delete(pts, i, axis=0)
            others = others[geometry.distances(others, pts[i]) <= 2.0 * mesh.size()]
            normals = others - pts[i]
            nn = np.hypot(normals[:, 0], normals[:, 1])
            past = (poly @ (normals / nn[:, None]).T
                    - 0.5 * geometry.row_dot(normals, pts[i] + others) / nn)
            assert past.max(initial=-np.inf) <= tol, (case, i)


def _sections(poly, site, others):
    ends, apart = _bisector_sections(np.array(poly), np.array(site),
                                     np.array(others, dtype=float).reshape(-1, 2), 1e-12)
    return ends.tolist(), apart.tolist()


def test_bisector_sections():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    triangle = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    # an edge on the bisector x = 1, ordered along it; the line x = 2 misses
    # the polygon and leaves no section
    ends, apart = _sections(square, [0.5, 0.5], [[1.5, 0.5], [3.5, 0.5]])
    assert ends[0] == [[1.0, 0.0], [1.0, 1.0]] and apart == [True, False]
    # the hypotenuse x + y = 1; the line x = 1 through one vertex only
    assert _sections(triangle, [0.0, 0.0], [1.0, 1.0]) == \
        ([[[1.0, 0.0], [0.0, 1.0]]], [True])
    assert _sections(triangle, [0.5, 0.25], [1.5, 0.25]) == \
        ([[[1.0, 0.0], [1.0, 0.0]]], [False])
    # no candidates: the last cell, or a lone site
    ends, apart = _sections(square, [0.5, 0.5], [])
    assert ends == [] and apart == []


def _stack(polys):
    """Zero-padded (c, V, 2) stack and (c,) counts of a list of polygons."""
    counts = np.array([len(p) for p in polys], dtype=np.int64)
    stack = np.zeros((len(polys), int(counts.max(initial=0)), 2))
    for row, poly in zip(stack, polys):
        row[:len(poly)] = poly
    return stack, counts


def _clip_rows(polys, normals, offsets, tol):
    """The kernel on a stack of the polygons: each row as an array."""
    stack, counts = _stack(polys)
    with np.errstate(all="raise"):
        out, left = geometry.clip_halfplane(stack, counts, np.reshape(normals, (-1, 2)),
                                            np.asarray(offsets, dtype=float), tol)
    assert out.shape[1] == left.max(initial=0)
    assert not any(row[m:].any() for row, m in zip(out, left))    # padding is zero
    return [row[:m] for row, m in zip(out, left)]


def _merge(polys, tol):
    """A merge is a clip by the half-plane 0·x <= 1, which keeps every vertex."""
    return _clip_rows(polys, np.zeros((len(polys), 2)), np.ones(len(polys)), tol)


def test_clip_halfplane_bit_identical():
    rng = np.random.default_rng(2024)
    cases = {tol: ([], [], []) for tol in (1e-12, 1e-3, 0.2)}
    for _ in range(2000):
        k = int(rng.integers(3, 9))
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, k))
        poly = np.column_stack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.1, 2.0)
        normal = rng.normal(size=2)
        if rng.random() < 0.3:
            # a line through a vertex: exercises the s == 0 branch
            offset = float(normal @ poly[int(rng.integers(k))])
        else:
            offset = float(rng.uniform(-1.0, 1.0))
        # large merge tolerances make the merge step drop vertices
        tol = float(rng.choice([1e-12, 1e-3, 0.2]))
        for column, value in zip(cases[tol], (poly, normal, offset)):
            column.append(value)
    for tol, (polys, normals, offsets) in cases.items():
        got = _clip_rows(polys, normals, offsets, tol)
        for row, poly, normal, offset in zip(got, polys, normals, offsets):
            want = _reference_clip_halfplane(poly, normal, offset, tol)
            assert row.shape == want.shape
            assert row.tobytes() == want.tobytes()


def test_clip_halfplane_stack_cases():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    hexagon = 0.5 * np.column_stack([np.cos(np.pi / 3 * np.arange(6)),
                                     np.sin(np.pi / 3 * np.arange(6))]) + 0.5
    # the first and last vertices 1e-13 apart: the wrap pair merges
    wrap = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1e-13, 0.0]])
    # a chain of vertices each within the tolerance of the one before
    chain = np.array([[0.0, 0.0], [0.6e-12, 0.0], [1.2e-12, 0.0], [1.0, 0.0],
                      [1.0, 1.0], [0.0, 1.0]])
    empty = np.empty((0, 2))
    lone = np.array([[0.25, 0.75]])
    # a lone vertex on the line as its dot product puts it, which the
    # stacked matmul would put 5.6e-17 outside
    point = np.array([[0.8217701239287258, -1.3812797174167781]])
    through = np.array([0.6404226504432821, 0.10490011715303971])
    cut = ([1.0, 0.0], 0.5)           # x <= 0.5
    keep_all = ([0.0, 0.0], 1.0)
    drop_all = ([1.0, 0.0], -1.0)
    rows = [(square, cut), (empty, cut), (hexagon, cut), (wrap, keep_all),
            (chain, keep_all), (lone, cut), (square, drop_all), (chain, cut),
            (wrap, cut), (empty, keep_all), (point, (through, float(through @ point[0])))]
    polys = [p for p, _ in rows]
    normals = [plane[0] for _, plane in rows]
    offsets = [plane[1] for _, plane in rows]
    got = _clip_rows(polys, normals, offsets, 1e-12)
    for row, poly, normal, offset in zip(got, polys, normals, offsets):
        want = _reference_clip_halfplane(poly, np.array(normal), offset, 1e-12)
        assert row.shape == want.reshape(-1, 2).shape
        assert row.tobytes() == want.tobytes()
    # the chain keeps its third vertex, 1.2e-12 from the first
    assert [len(row) for row in got] == [4, 0, 5, 3, 5, 1, 0, 5, 3, 0, 1]
    # a batch that clips to nothing, one with nothing to clip, and no rows
    for polys in ([square, hexagon], [empty, empty]):
        got = _clip_rows(polys, [drop_all[0]] * 2, [drop_all[1]] * 2, 1e-12)
        assert [len(row) for row in got] == [0, 0]
    assert _clip_rows([], np.empty((0, 2)), [], 1e-12) == []


def test_merge_close_vertices_bit_identical():
    rng = np.random.default_rng(7)
    cases = {tol: [] for tol in (1e-12, 1e-3, 0.5)}
    for _ in range(2000):
        k = int(rng.integers(1, 8))
        verts = np.cumsum(rng.normal(size=(k, 2)) * rng.choice([1e-13, 1e-3, 1.0],
                                                                 size=(k, 1)), axis=0)
        cases[float(rng.choice([1e-12, 1e-3, 0.5]))].append(verts)
    for tol, polys in cases.items():
        for got, verts in zip(_merge(polys, tol), polys):
            assert got.tobytes() == _reference_merge_close_vertices(verts, tol).tobytes()


def test_merge_decided_at_the_tolerance():
    # gaps equal to the tolerance, and one ulp either side, fall where hypot
    # puts them
    tol = 0.1
    polys = [np.array([[0.0, 0.0], [gap, 0.0], [1.0, 0.5], [0.0, 1.0]])
             for gap in (np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0))]
    for got, verts in zip(_merge(polys, tol), polys):
        assert got.tobytes() == _reference_merge_close_vertices(verts, tol).tobytes()


def _degenerate_sites(*pairs):
    """100 jittered sites; each pair (i, x) puts site i 1e-12 below the
    bottom edge at x and site i + 1 2e-12 above it, so that cell i is a
    strip 5e-13 high, which the vertex merge collapses."""
    sites = ex._jittered_sites(10, 0.35, 42).copy()
    for i, x in pairs:
        sites[i] = (x, -1e-12)
        sites[i + 1] = (x, 2e-12)
    return sites


@pytest.mark.parametrize("pairs, site", [(((71, 0.3), (80, 0.7)), 71),
                                         (((80, 0.7),), 80)])
def test_degenerate_cell_named_in_site_order(pairs, site):
    sites = _degenerate_sites(*pairs)
    message = f"site {site} produced a degenerate Voronoi cell"
    with pytest.raises(MeshError, match=message):
        gf.build_voronoi_mesh(sites, _unit_square())
    with pytest.raises(MeshError, match=message):
        _reference_build_voronoi_mesh(sites, _unit_square())


def test_build_starts_no_process_pool():
    # scipy may import concurrent.futures; the build loads neither its
    # process pool nor multiprocessing
    code = """
        import sys
        import gradflow as gf
        from gradflow.experiments import _jittered_sites
        gf.build_voronoi_mesh(_jittered_sites(14, 0.35, 42),
                              gf.Domain.rectangle(0.0, 0.0, 1.0, 1.0))
        print(sorted(m for m in ("multiprocessing", "concurrent.futures.process")
                     if m in sys.modules))
    """
    src = str(Path(gf.__file__).resolve().parent.parent)
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120.0)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


def test_duplicate_sites_name_the_first_pair():
    sites = np.array([[0.1, 0.1], [0.3, 0.7], [0.6, 0.2], [0.6, 0.2],
                      [0.3, 0.7], [0.9, 0.9]])
    with pytest.raises(MeshError, match="duplicate sites 1 and 4"):
        gf.build_voronoi_mesh(sites, _unit_square())
    with pytest.raises(MeshError, match="duplicate sites 1 and 4"):
        _reference_build_voronoi_mesh(sites, _unit_square())
