"""The Voronoi build and the clipping kernel against their all-pairs originals.

`build_voronoi_mesh` skips bisectors that cannot cut, clips the cells of
large site sets in forked workers, and `clip_halfplane` runs on Python
floats; all must reproduce, byte for byte, the straight all-pairs clipping
loop and the array-scalar clipping kernel kept below as reference copies.
"""
import math
import os

import numpy as np
import pytest

import gradflow as gf
from gradflow import experiments as ex
from gradflow import geometry
from gradflow.mesh import (FACE_DROP_FACTOR, PARALLEL_MIN_SITES, VERTEX_MERGE_TOL,
                           Domain, Mesh, MeshError)


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
            seg = geometry.line_section(polys[i], normal, offset, section_tol)
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
}


# built in forked workers wherever fork is available
FORKED_CASES = ("jittered-196", "hexagon-120")


@pytest.mark.parametrize("case", sorted(CASES))
def test_mesh_file_byte_identical(case, tmp_path, monkeypatch):
    # two allowed CPUs, so that the large cases fork on any machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    sites, domain = CASES[case]()
    assert (len(sites) >= PARALLEL_MIN_SITES) == (case in FORKED_CASES)
    gf.build_voronoi_mesh(sites, domain).write(tmp_path / "new.txt")
    _reference_build_voronoi_mesh(sites, domain).write(tmp_path / "reference.txt")
    assert (tmp_path / "new.txt").read_bytes() == \
        (tmp_path / "reference.txt").read_bytes()


def test_clip_halfplane_bit_identical():
    rng = np.random.default_rng(2024)
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
        got = geometry.clip_halfplane(poly, normal, offset, tol)
        want = _reference_clip_halfplane(poly, normal, offset, tol)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_merge_close_vertices_bit_identical():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        k = int(rng.integers(1, 8))
        verts = np.cumsum(rng.normal(size=(k, 2)) * rng.choice([1e-13, 1e-3, 1.0],
                                                                 size=(k, 1)), axis=0)
        tol = float(rng.choice([1e-12, 1e-3, 0.5]))
        got = geometry.merge_close_vertices(verts, tol)
        want = _reference_merge_close_vertices(verts, tol)
        assert got.tobytes() == want.tobytes()


def test_merge_decided_at_the_tolerance():
    # gaps equal to the tolerance, and one ulp either side, fall where hypot
    # puts them
    tol = 0.1
    for gap in (np.nextafter(tol, 0.0), tol, np.nextafter(tol, 1.0)):
        verts = np.array([[0.0, 0.0], [gap, 0.0], [1.0, 0.5], [0.0, 1.0]])
        assert geometry.merge_close_vertices(verts, tol).tobytes() == \
            _reference_merge_close_vertices(verts, tol).tobytes()


def test_duplicate_sites_name_the_first_pair():
    sites = np.array([[0.1, 0.1], [0.3, 0.7], [0.6, 0.2], [0.6, 0.2],
                      [0.3, 0.7], [0.9, 0.9]])
    with pytest.raises(MeshError, match="duplicate sites 1 and 4"):
        gf.build_voronoi_mesh(sites, _unit_square())
    with pytest.raises(MeshError, match="duplicate sites 1 and 4"):
        _reference_build_voronoi_mesh(sites, _unit_square())
