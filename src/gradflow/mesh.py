"""Admissible finite-volume meshes on intervals and convex polygons.

A mesh is a finite partition of a convex domain into convex cells, each
carrying a site, such that the segment between neighbouring sites is
orthogonal to the shared face (the two-point flux consistency condition).
Meshes are immutable after construction: every array is frozen, so they can
be shared freely across concurrent readers.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import Box

ORTHOGONALITY_TOL = 1e-9
VOLUME_RTOL = 1e-10
VERTEX_MERGE_TOL = 1e-12
FACE_DROP_FACTOR = 1e-12
# a cell meets a box when their overlap exceeds this share of the cell volume
OVERLAP_SHARE = 1e-14


class MeshError(ValueError):
    """Raised when construction input or a mesh invariant is invalid."""


def _frozen(arr, dtype=float) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


# Symmetric rules on a triangle by order: barycentric nodes, and weights
# summing to one; exact for degree 1, 2 and 5.
_TRI_RULES = {
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


@dataclass(frozen=True)
class QuadratureTable:
    """Quadrature nodes and weights of every cell, stored cell after cell.

    The nodes of cell k are the rows offsets[k]:offsets[k + 1] of `nodes`
    (n_nodes, d), and their `weights` sum to |K|.  `groups` pairs each node
    count with the ascending cells that have it.
    """

    nodes: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray
    groups: tuple[tuple[int, np.ndarray], ...]


def _table(nodes, weights, counts) -> QuadratureTable:
    offsets = np.concatenate([[0], np.cumsum(counts)])
    groups = tuple((int(n), _frozen(np.flatnonzero(counts == n), np.int64))
                   for n in np.unique(counts))
    return QuadratureTable(_frozen(nodes), _frozen(weights),
                           _frozen(offsets, np.int64), groups)


def _interval_table(cell_bounds: np.ndarray, points: int) -> QuadratureTable:
    """Gauss-Legendre with `points` nodes on every interval cell."""
    gx, gw = np.polynomial.legendre.leggauss(points)
    lo, hi = cell_bounds[:, 0], cell_bounds[:, 1]
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = mid[:, None] + half[:, None] * gx
    return _table(nodes.reshape(-1, 1), (half[:, None] * gw).ravel(),
                  np.full(len(lo), points))


def _group_polygons(polygons) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Polygons grouped by vertex count, fewest vertices first: pairs of
    (ascending cells, frozen (c, m, 2) stack of their polygons)."""
    counts = np.array([len(p) for p in polygons], dtype=np.int64)
    groups = []
    for m in np.unique(counts):
        cells = np.flatnonzero(counts == m)
        groups.append((_frozen(cells, np.int64),
                       _frozen([polygons[k] for k in cells])))
    return tuple(groups)


def _polygon_table(groups, bary: np.ndarray, bw: np.ndarray) -> QuadratureTable:
    """The triangle rule on the fan of each cell around its centroid.

    Cells are batched by vertex count (the mesh's polygon groups); fan
    triangles of zero area are dropped.
    """
    n_cells = sum(len(cells) for cells, _ in groups)
    tri_cells, tris, areas = [], [], []
    for cells, poly in groups:                                     # (c, m, 2)
        m = poly.shape[1]
        nxt = np.roll(poly, -1, axis=1)
        center = geometry.polygon_centroids(poly)
        cx, cy = center[:, :1], center[:, 1:]
        x, y, xn, yn = poly[..., 0], poly[..., 1], nxt[..., 0], nxt[..., 1]
        areas.append(0.5 * np.abs((x - cx) * (yn - cy) - (xn - cx) * (y - cy)))
        tris.append(np.stack([np.broadcast_to(center[:, None], poly.shape),
                              poly, nxt], axis=2))                 # (c, m, 3, 2)
        tri_cells.append(np.repeat(cells, m))
    tri_cells = np.concatenate(tri_cells)
    order = np.argsort(tri_cells, kind="stable")                  # cell, then fan
    area = np.concatenate([part.ravel() for part in areas])[order]
    keep = order[area != 0.0]
    area = area[area != 0.0]
    tri = np.concatenate([t.reshape(-1, 3, 2) for t in tris])[keep]
    nodes = np.matmul(bary, tri)            # bary @ tri, triangle by triangle
    return _table(nodes.reshape(-1, 2), (area[:, None] * bw).ravel(),
                  np.bincount(tri_cells[keep], minlength=n_cells) * len(bw))


@dataclass(frozen=True)
class FaceGraph:
    """The faces of every cell as CSR index arrays, in ascending face order.

    Cell k owns entries indptr[k]:indptr[k + 1] of `faces` (face indices)
    and of `neighbours` (the cell across each of those faces).
    """

    indptr: np.ndarray
    faces: np.ndarray
    neighbours: np.ndarray

    def padded(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, D) faces and neighbours, one row per cell in CSR order; D is
        the largest face count, and -1 pads the shorter rows."""
        counts = np.diff(self.indptr)
        rows = np.repeat(np.arange(len(counts)), counts)
        cols = np.arange(len(self.faces)) - self.indptr[rows]
        faces = np.full((len(counts), int(counts.max(initial=0))), -1, dtype=np.int64)
        neighbours = faces.copy()
        faces[rows, cols] = self.faces
        neighbours[rows, cols] = self.neighbours
        return faces, neighbours


@dataclass(frozen=True)
class Domain:
    """Bounded convex domain: an interval (d=1) or a ccw polygon (d=2)."""

    dim: int
    bounds: np.ndarray | None = None     # (2,) for d=1
    vertices: np.ndarray | None = None   # (k,2) ccw for d=2

    @staticmethod
    def interval(a: float, b: float) -> "Domain":
        if not b > a:
            raise MeshError(f"degenerate interval [{a}, {b}]")
        return Domain(1, bounds=_frozen([a, b]))

    @staticmethod
    def rectangle(x0: float, y0: float, x1: float, y1: float) -> "Domain":
        if not (x1 > x0 and y1 > y0):
            raise MeshError("degenerate rectangle")
        return Domain.polygon([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])

    @staticmethod
    def polygon(vertices) -> "Domain":
        verts = geometry.ensure_ccw(np.asarray(vertices, dtype=float))
        if len(verts) < 3 or geometry.polygon_area(verts) <= 0.0:
            raise MeshError("domain polygon must have positive area")
        return Domain(2, vertices=_frozen(verts))

    @property
    def volume(self) -> float:
        if self.dim == 1:
            return float(self.bounds[1] - self.bounds[0])
        return geometry.polygon_area(self.vertices)

    @property
    def diameter(self) -> float:
        if self.dim == 1:
            return self.volume
        return geometry.polygon_diameter(self.vertices)

    def contains(self, points, tol: float = 1e-9) -> np.ndarray:
        """Boolean mask of the (N, d) points within tol of the domain; a
        negative tol asks for that much room inside."""
        points = np.asarray(points, dtype=float)
        if self.dim == 1:
            lo, hi = self.bounds
            return (lo - tol <= points[:, 0]) & (points[:, 0] <= hi + tol)
        dist = geometry.signed_edge_distances(self.vertices, points.T[:, :, None])
        return np.all(dist >= -tol, axis=1)


class Mesh:
    """Finite-volume mesh: cells with sites and volumes, faces with TPFA data.

    Parameters
    ----------
    dim : 1 or 2
    domain : Domain
    sites : (n, dim) site coordinates, one per cell
    volumes : (n,) cell volumes
    cell_bounds : (n, 2) interval endpoints (d=1 only)
    cell_polygons : list of (k, 2) ccw vertex arrays (d=2 only); stored as
        read-only views into `polygon_groups`, the polygons grouped by
        vertex count as (ascending cells, (c, k, 2) stack) pairs
    face_cells : (F, 2) int cell pairs, each unordered pair at most once
    face_areas : (F,) d-1 dimensional face measures
    face_dists : (F,) site distances |x_K - x_L|
    face_endpoints : optional (F, 2, 2) face segment endpoints (d=2)
    """

    def __init__(self, dim, domain, sites, volumes, cell_bounds=None,
                 cell_polygons=None, face_cells=None, face_areas=None,
                 face_dists=None, face_endpoints=None):
        self.dim = int(dim)
        self.domain = domain
        self.sites = _frozen(np.atleast_2d(np.asarray(sites, dtype=float)))
        self.volumes = _frozen(volumes)
        n = len(self.sites)
        if self.volumes.shape != (n,):
            raise MeshError(f"volumes has shape {self.volumes.shape}, expected "
                            f"({n},): one per site")
        self.cell_bounds = _frozen(cell_bounds) if cell_bounds is not None else None
        if self.dim == 1 and (self.cell_bounds is None or self.cell_bounds.shape != (n, 2)):
            got = None if self.cell_bounds is None else self.cell_bounds.shape
            raise MeshError(f"a 1d mesh needs cell_bounds of shape ({n}, 2), one "
                            f"(lo, hi) row per site; got {got}")
        if self.dim == 2 and (cell_polygons is None or len(cell_polygons) != n):
            got = None if cell_polygons is None else len(cell_polygons)
            raise MeshError(f"a 2d mesh needs cell_polygons, one polygon per site: "
                            f"expected {n}, got {got}")
        self.polygon_groups = None
        self.cell_polygons = None
        if cell_polygons is not None:
            self.polygon_groups = _group_polygons(cell_polygons)
            self.cell_polygons = [None] * len(cell_polygons)
            for cells, stack in self.polygon_groups:
                for k, poly in zip(cells.tolist(), stack):
                    self.cell_polygons[k] = poly
        n_faces = 0 if face_cells is None else len(face_cells)

        def faces(name, values, shape, dtype=float):     # omitted: no faces
            values = np.asarray([] if values is None else values, dtype=dtype)
            if values.size != np.prod(shape):
                raise MeshError(f"{name} has shape {values.shape}, but face_cells "
                                f"lists {n_faces} faces: expected shape {shape}")
            return _frozen(values.reshape(shape), dtype)

        self.face_cells = faces("face_cells", face_cells, (n_faces, 2), np.int64)
        self.face_areas = faces("face_areas", face_areas, (n_faces,))
        self.face_dists = faces("face_dists", face_dists, (n_faces,))
        self._face_endpoints = (faces("face_endpoints", face_endpoints, (n_faces, 2, 2))
                                if face_endpoints is not None else None)
        self._face_graph: FaceGraph | None = None
        self._cell_diameters: np.ndarray | None = None
        self._quadrature: dict[int, QuadratureTable] = {}

    # -- basic queries ----------------------------------------------------

    @property
    def n_cells(self) -> int:
        return len(self.sites)

    @property
    def n_faces(self) -> int:
        return len(self.face_cells)

    def cell_diameters(self) -> np.ndarray:
        """Per-cell diameters, computed on first use and frozen."""
        if self._cell_diameters is None:
            if self.dim == 1:
                diam = self.cell_bounds[:, 1] - self.cell_bounds[:, 0]
            else:
                diam = np.empty(self.n_cells)
                for cells, stack in self.polygon_groups:
                    diam[cells] = geometry.polygon_diameter(stack)
            self._cell_diameters = _frozen(diam)
        return self._cell_diameters

    def quadrature(self, order: int | None = None) -> QuadratureTable:
        """Cell quadrature table of a rule, built on first use and frozen.

        d=1: Gauss-Legendre with `order` points per cell (5 by default).
        d=2: the triangle rule of `order` (1, 2 or 3, default 1) on each
        cell's fan around its centroid.
        """
        if self.dim == 1:
            rule = 5 if order is None else max(int(order), 1)
        elif order in (None, 1, 2, 3):
            rule = order or 1
        else:
            raise ValueError(f"quadrature order {order!r} on a 2d mesh: "
                             "use None, 1, 2 or 3")
        if rule not in self._quadrature:
            self._quadrature[rule] = (
                _interval_table(self.cell_bounds, rule) if self.dim == 1
                else _polygon_table(self.polygon_groups, *_TRI_RULES[rule]))
        return self._quadrature[rule]

    def size(self) -> float:
        """Mesh size: the largest cell diameter."""
        return float(self.cell_diameters().max())

    def face_tau(self) -> np.ndarray:
        """Unit directions (x_K - x_L)/|x_K - x_L| per face."""
        k, l = self.face_cells[:, 0], self.face_cells[:, 1]
        diff = self.sites[k] - self.sites[l]
        return diff / self.face_dists[:, None]

    def transmissibilities(self) -> np.ndarray:
        """TPFA geometric factors |Γ_KL| / d_KL per face."""
        return self.face_areas / self.face_dists

    def face_graph(self) -> FaceGraph:
        """The faces of each cell as CSR arrays, built on first use and frozen."""
        if self._face_graph is None:
            k, l = self.face_cells[:, 0], self.face_cells[:, 1]
            cells = np.concatenate([k, l])
            faces = np.tile(np.arange(self.n_faces, dtype=np.int64), 2)
            order = np.lexsort((faces, cells))
            indptr = np.zeros(self.n_cells + 1, dtype=np.int64)
            np.cumsum(np.bincount(cells, minlength=self.n_cells), out=indptr[1:])
            self._face_graph = FaceGraph(
                _frozen(indptr, np.int64), _frozen(faces[order], np.int64),
                _frozen(np.concatenate([l, k])[order], np.int64))
        return self._face_graph

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per cell: list of (face index, neighbour cell index), in face order."""
        graph = self.face_graph()
        pairs = list(zip(graph.faces.tolist(), graph.neighbours.tolist()))
        ptr = graph.indptr.tolist()
        return [pairs[ptr[k]:ptr[k + 1]] for k in range(self.n_cells)]

    def face_endpoints(self) -> np.ndarray:
        """Face segment endpoints, (F, 2, 2); reconstructed if not stored (d=2)."""
        if self.dim != 2:
            raise MeshError("face endpoints are only defined for d=2")
        if self._face_endpoints is None:
            tol = 1e-9 * max(self.size(), 1e-30)
            ends = np.empty((self.n_faces, 2, 2))
            for f, (k, l) in enumerate(self.face_cells):
                seg = geometry.shared_edge(self.cell_polygons[int(k)],
                                           self.cell_polygons[int(l)], tol)
                if seg is None:
                    raise MeshError(f"cannot reconstruct face {f} between cells {k}, {l}")
                ends[f, 0], ends[f, 1] = seg
            self._face_endpoints = _frozen(ends)
        return self._face_endpoints

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants; raise MeshError on violation."""
        vol = float(self.volumes.sum())
        if abs(vol - self.domain.volume) > VOLUME_RTOL * max(abs(self.domain.volume), 1e-300):
            raise MeshError(f"cell volumes sum to {vol!r}, domain volume is "
                            f"{self.domain.volume!r}")
        if np.any(self.volumes <= 0.0):
            raise MeshError("nonpositive cell volume")
        if self.n_faces:
            # before any check that indexes with the face cells
            k, l = self.face_cells[:, 0], self.face_cells[:, 1]
            bad = np.flatnonzero((np.minimum(k, l) < 0)
                                 | (np.maximum(k, l) >= self.n_cells) | (k == l))
            if len(bad):
                f = int(bad[0])
                if k[f] == l[f] and 0 <= k[f] < self.n_cells:
                    raise MeshError(f"face {f} joins cell {k[f]} to itself")
                raise MeshError(f"face {f} joins cells {k[f]} and {l[f]}, but the "
                                f"mesh has cells 0 to {self.n_cells - 1}")
            if np.any(self.face_dists <= 0.0):
                raise MeshError("coincident sites across a face")
            if np.any(self.face_areas <= 0.0):
                raise MeshError("nonpositive face area")
            # (k, l) and (l, k) are one pair; the cells are in range here
            pairs = np.minimum(k, l) * self.n_cells + np.maximum(k, l)
            if len(np.unique(pairs)) != self.n_faces:
                raise MeshError("duplicate face pair")
        tol = 1e-9                          # how far a site may lie outside
        if self.dim == 1:
            s = self.sites[:, 0]
            lo, hi = self.cell_bounds[:, 0], self.cell_bounds[:, 1]
            outside = [np.flatnonzero(~((lo - tol <= s) & (s <= hi + tol)))]
        else:
            outside = [cells[~np.all(geometry.signed_edge_distances(
                           stack, self.sites[cells].T[:, :, None]) >= -tol, axis=1)]
                       for cells, stack in self.polygon_groups]
        outside = np.concatenate(outside)
        if len(outside):
            raise MeshError(f"site of cell {outside.min()} lies outside its cell")
        if self.dim == 2 and self.n_faces:
            tau = self.face_tau()
            ends = self.face_endpoints()
            tangent = ends[:, 1] - ends[:, 0]
            tangent /= np.linalg.norm(tangent, axis=1)[:, None]
            dots = np.abs(np.einsum("fi,fi->f", tau, tangent))
            worst = int(np.argmax(dots))
            if dots[worst] > ORTHOGONALITY_TOL:
                raise MeshError(f"face {worst} violates orthogonality: |tau.t| = "
                                f"{dots[worst]:.3e}")

    # -- file format ----------------------------------------------------------

    def write(self, path) -> None:
        """Write the structured text format (decimal, round-trip exact)."""
        lines = ["gradflow-mesh 1", f"dim {self.dim}"]
        if self.dim == 1:
            a, b = (float(v) for v in self.domain.bounds)
            lines.append("domain 2")
            lines.append(f"{a!r} {b!r}")
        else:
            dv = self.domain.vertices
            lines.append(f"domain {len(dv)}")
            lines.extend(f"{float(x)!r} {float(y)!r}" for x, y in dv)
        lines.append(f"cells {self.n_cells}")
        for k in range(self.n_cells):
            site = " ".join(repr(float(c)) for c in self.sites[k])
            if self.dim == 1:
                lo, hi = (float(v) for v in self.cell_bounds[k])
                lines.append(f"{k} {site} {float(self.volumes[k])!r} {lo!r} {hi!r}")
            else:
                poly = self.cell_polygons[k]
                coords = " ".join(repr(float(c)) for v in poly for c in v)
                lines.append(f"{k} {site} {float(self.volumes[k])!r} {len(poly)} {coords}")
        lines.append(f"faces {self.n_faces}")
        for f in range(self.n_faces):
            k, l = self.face_cells[f]
            lines.append(f"{k} {l} {float(self.face_areas[f])!r} {float(self.face_dists[f])!r}")
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

    @staticmethod
    def read(path) -> "Mesh":
        with open(path, encoding="ascii") as fh:
            tokens = fh.read().split()
        pos = 0

        def take(n=1):
            nonlocal pos
            out = tokens[pos:pos + n]
            if len(out) != n:
                raise MeshError("truncated mesh file")
            pos += n
            return out

        magic, version = take(2)
        if magic != "gradflow-mesh" or version != "1":
            raise MeshError("not a gradflow mesh file")
        tag, dim = take(2)
        if tag != "dim" or dim not in ("1", "2"):
            raise MeshError("bad dim header")
        dim = int(dim)
        tag, ndv = take(2)
        if tag != "domain":
            raise MeshError("bad domain header")
        ndv = int(ndv)
        if dim == 1:
            a, b = (float(t) for t in take(2))
            domain = Domain.interval(a, b)
        else:
            verts = np.array([[float(x) for x in take(2)] for _ in range(ndv)])
            domain = Domain.polygon(verts)
        tag, nc = take(2)
        if tag != "cells":
            raise MeshError("bad cells header")
        nc = int(nc)
        sites = np.empty((nc, dim))
        volumes = np.empty(nc)
        bounds = np.empty((nc, 2)) if dim == 1 else None
        polys: list[np.ndarray] | None = [] if dim == 2 else None
        for i in range(nc):
            cid = int(take(1)[0])
            if cid != i:
                raise MeshError("cell ids must be consecutive")
            sites[i] = [float(t) for t in take(dim)]
            volumes[i] = float(take(1)[0])
            if dim == 1:
                bounds[i] = [float(t) for t in take(2)]
            else:
                nv = int(take(1)[0])
                if nv < 3:
                    raise MeshError(f"cell {i} has {nv} vertices; a 2d cell "
                                    f"needs at least 3")
                polys.append(np.array([[float(x) for x in take(2)]
                                       for _ in range(nv)]))
        tag, nf = take(2)
        if tag != "faces":
            raise MeshError("bad faces header")
        nf = int(nf)
        fc = np.empty((nf, 2), dtype=np.int64)
        fa = np.empty(nf)
        fd = np.empty(nf)
        for f in range(nf):
            fc[f] = [int(t) for t in take(2)]
            fa[f] = float(take(1)[0])
            fd[f] = float(take(1)[0])
        mesh = Mesh(dim, domain, sites, volumes, cell_bounds=bounds,
                    cell_polygons=polys, face_cells=fc, face_areas=fa,
                    face_dists=fd)
        mesh.validate()
        return mesh


# -- constructors -------------------------------------------------------------


def build_interval_mesh(n: int, breakpoints=None, interval=(0.0, 1.0)) -> Mesh:
    """Partition [a, b] into n cells with sites at the cell midpoints.

    `breakpoints` may be a length n+1 increasing sequence or a callable
    index -> coordinate; by default the grid is uniform.
    """
    if n < 1:
        raise MeshError("n must be a positive integer")
    a, b = float(interval[0]), float(interval[1])
    if breakpoints is None:
        pts = np.linspace(a, b, n + 1)
    elif callable(breakpoints):
        pts = np.array([float(breakpoints(i)) for i in range(n + 1)])
    else:
        pts = np.asarray(breakpoints, dtype=float)
    if pts.shape != (n + 1,):
        raise MeshError(f"expected {n + 1} breakpoints, got {pts.shape}")
    steps = ~(pts[1:] > pts[:-1])
    if steps.any():
        raise MeshError("breakpoints not strictly increasing at index "
                        f"{int(steps.argmax()) + 1}")
    if abs(pts[0] - a) > 1e-12 * max(1.0, abs(a)) or \
       abs(pts[-1] - b) > 1e-12 * max(1.0, abs(b)):
        raise MeshError("breakpoints do not span the requested interval")
    return _interval_cells(Domain.interval(pts[0], pts[-1]),
                           0.5 * (pts[:-1] + pts[1:]), np.arange(n), pts)


def _interval_cells(domain: Domain, sites: np.ndarray, order: np.ndarray,
                    cuts: np.ndarray) -> Mesh:
    """The validated 1D mesh whose cell order[i] is [cuts[i], cuts[i + 1]]
    with site sites[order[i]]; faces join coordinate neighbours."""
    xs = sites[order]
    bounds = np.empty((len(sites), 2))
    bounds[order, 0] = cuts[:-1]
    bounds[order, 1] = cuts[1:]
    mesh = Mesh(1, domain, sites[:, None], bounds[:, 1] - bounds[:, 0],
                cell_bounds=bounds, face_cells=np.column_stack([order[:-1], order[1:]]),
                face_areas=np.ones(len(sites) - 1), face_dists=xs[1:] - xs[:-1])
    mesh.validate()
    return mesh


def build_cartesian_mesh(nx: int, ny: int, rect=(0.0, 0.0, 1.0, 1.0)) -> Mesh:
    """nx-by-ny tensor grid of rectangles with sites at the cell centers."""
    if nx < 1 or ny < 1:
        raise MeshError("nx, ny must be positive integers")
    x0, y0, x1, y1 = (float(v) for v in rect)
    if not (x1 > x0 and y1 > y0):
        raise MeshError("degenerate rectangle")
    domain = Domain.rectangle(x0, y0, x1, y1)
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    hx, hy = (x1 - x0) / nx, (y1 - y0) / ny
    # arrays indexed [j, i] flatten to cell j * nx + i
    corner = np.stack(np.meshgrid(xs, ys), axis=-1)          # (ny + 1, nx + 1, 2)
    lower_left, lower_right = corner[:-1, :-1], corner[:-1, 1:]
    upper_left, upper_right = corner[1:, :-1], corner[1:, 1:]
    polys = np.stack([lower_left, lower_right, upper_right, upper_left],
                     axis=2).reshape(-1, 4, 2)
    sites = np.column_stack([np.tile(0.5 * (xs[:-1] + xs[1:]), ny),
                             np.repeat(0.5 * (ys[:-1] + ys[1:]), nx)])
    volumes = np.full(nx * ny, hx * hy)
    # per cell its +x face, then its +y face; the mask keeps those inside
    cell = np.arange(nx * ny).reshape(ny, nx)
    inside = np.stack(np.broadcast_arrays(np.arange(nx) + 1 < nx,
                                          (np.arange(ny) + 1 < ny)[:, None]), axis=-1)
    fc = np.stack([np.stack([cell, cell + 1], axis=-1),
                   np.stack([cell, cell + nx], axis=-1)], axis=2)
    fe = np.stack([np.stack([lower_right, upper_right], axis=2),
                   np.stack([upper_left, upper_right], axis=2)], axis=2)
    mesh = Mesh(2, domain, sites, volumes, cell_polygons=polys,
                face_cells=fc[inside],
                face_areas=np.broadcast_to([hy, hx], inside.shape)[inside],
                face_dists=np.broadcast_to([hx, hy], inside.shape)[inside],
                face_endpoints=fe[inside])
    mesh.validate()
    return mesh


# clip_halfplane evaluates s = v·n - c with n = x_j - x_i, c = 0.5 (n·a)
# and a = x_i + x_j.  A 2-term dot product rounded in any order, with or
# without FMA, is within gamma_2 of its exact value relative to the sum of
# the absolute products, and the subtraction adds one rounding, so the
# computed s is within gamma_3 (P + Q) of the exact s, where
# P = |v_0 n_0| + |v_1 n_1|, Q = 0.5 (|n_0 a_0| + |n_1 a_1|),
# gamma_k = k u / (1 - k u) and u = 2^-53 (no underflow assumed).  Two
# evaluations thus differ by less than 7u (P + Q).  The batched bound
# s + 16u (P + Q), itself off by a few u (P + Q), is negative only when the
# scalar s is negative too, and then the clip keeps every vertex.
_SKIP_MARGIN = 2.0 ** -49
_FIRST_WINDOW = 8
# a 2D build with fewer sites clips its cells in-process: starting the
# forked workers costs 12-20 ms, about what two of them save on 64
# jittered sites (measured on two CPUs)
PARALLEL_MIN_SITES = 64


def _voronoi_cell(pts: np.ndarray, i: int, domain_vertices: np.ndarray,
                  merge_tol: float) -> np.ndarray:
    """Domain polygon clipped by the bisectors of site i, in site order.

    Bisector j is skipped only when the current polygon lies inside it by
    more than the rounding margin above and merging its vertices drops none:
    clip_halfplane would then return the polygon unchanged, so the result
    is identical to clipping against all n - 1 bisectors.  The test runs
    on a window of the next bisectors, which doubles while none of them
    can cut, so each clip costs O(1) batched work.
    """
    others = np.flatnonzero(np.arange(len(pts)) != i)
    normals = (pts[others] - pts[i]).T.copy()
    mids = (pts[others] + pts[i]).T
    offsets = 0.5 * (normals * mids).sum(axis=0)
    # the margin scaled by a power of two, so the scaling is exact
    margin_normals = _SKIP_MARGIN * np.abs(normals)
    margin_offsets = 0.5 * _SKIP_MARGIN * (np.abs(normals) * np.abs(mids)).sum(axis=0)
    poly = np.asarray(domain_vertices, dtype=float)
    stable = None   # whether merging drops none of poly's vertices
    pos, width = 0, _FIRST_WINDOW
    while pos < len(others) and len(poly):
        end = min(pos + width, len(others))
        upper = (poly @ normals[:, pos:end] - offsets[pos:end]
                 + np.abs(poly) @ margin_normals[:, pos:end] + margin_offsets[pos:end])
        cuts = ~(upper < 0.0).all(axis=0)   # nan counts as a cut
        skip = int(cuts.argmax()) if cuts.any() else end - pos
        if skip:
            if stable is None:
                stable = len(geometry.merge_close_vertices(poly, merge_tol)) == len(poly)
            if stable:
                pos += skip
                if pos == end:
                    width *= 2
                    continue
        j = int(others[pos])
        normal = pts[j] - pts[i]
        offset = 0.5 * float(normal @ (pts[i] + pts[j]))
        poly = geometry.clip_halfplane(poly, normal, offset, merge_tol)
        stable = None
        pos, width = pos + 1, _FIRST_WINDOW
    return poly


def _voronoi_cells(pts: np.ndarray, sites: range, domain_vertices: np.ndarray,
                   merge_tol: float) -> list[np.ndarray]:
    return [_voronoi_cell(pts, i, domain_vertices, merge_tol) for i in sites]


def _voronoi_polygons(pts: np.ndarray, domain_vertices: np.ndarray,
                      merge_tol: float) -> list[np.ndarray]:
    """The cell of every site, in site order.

    From PARALLEL_MIN_SITES sites on, with more than one allowed CPU and a
    `fork` start method, forked workers, one per CPU, each clip a strided
    block of the sites.  A cell is the same clip sequence over the same
    inputs in any process, so the polygons are bit for bit those of the
    in-process loop.  Fork, not spawn: a spawned worker imports numpy,
    scipy and gradflow afresh, which takes longer than the cells it would
    clip; the executor forks its workers before it starts its own threads,
    and they run only numpy and the clipping code.
    """
    n = len(pts)
    workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    if n >= PARALLEL_MIN_SITES and workers > 1:
        import multiprocessing
        if "fork" in multiprocessing.get_all_start_methods():
            from concurrent.futures import ProcessPoolExecutor
            context = multiprocessing.get_context("fork")
            polys: list = [None] * n
            with ProcessPoolExecutor(workers, mp_context=context) as pool:
                blocks = [pool.submit(_voronoi_cells, pts, range(w, n, workers),
                                      domain_vertices, merge_tol)
                          for w in range(workers)]
                for w, block in enumerate(blocks):
                    polys[w::workers] = block.result()
            return polys
    return _voronoi_cells(pts, range(n), domain_vertices, merge_tol)


def build_voronoi_mesh(sites, domain) -> Mesh:
    """Voronoi cells of the given sites, clipped to a convex domain.

    Orthogonality of site segments to faces holds by construction (faces lie
    on perpendicular bisectors).  Faces with measure below
    FACE_DROP_FACTOR * [T]^(d-1) are dropped.
    """
    pts = np.atleast_2d(np.asarray(sites, dtype=float))
    if pts.shape[0] == 1 and pts.shape[1] > 2:
        pts = pts.T
    n, dim = pts.shape
    if dim not in (1, 2):
        raise MeshError("only dimensions 1 and 2 are supported")
    if not isinstance(domain, Domain):
        domain = (Domain.interval(*np.ravel(domain)) if dim == 1
                  else Domain.polygon(domain))
    if domain.dim != dim:
        raise MeshError("site dimension does not match the domain")
    scale = max(domain.diameter, 1.0)
    site_tol = 1e-12 * scale
    for i in range(n - 1):
        near = np.flatnonzero(geometry.distances(pts[i + 1:], pts[i]) <= site_tol)
        if len(near):
            raise MeshError(f"duplicate sites {i} and {int(near[0]) + i + 1}")
    outside = ~domain.contains(pts, tol=site_tol)
    if outside.any():
        raise MeshError(f"site {int(outside.argmax())} lies outside the domain")

    if dim == 1:
        order = np.argsort(pts[:, 0], kind="stable")
        xs = pts[order, 0]
        return _interval_cells(domain, pts[:, 0], order, np.concatenate(
            [[domain.bounds[0]], 0.5 * (xs[:-1] + xs[1:]), [domain.bounds[1]]]))

    polys = _voronoi_polygons(pts, domain.vertices, VERTEX_MERGE_TOL * scale)
    for i, poly in enumerate(polys):
        if len(poly) < 3 or geometry.polygon_area(poly) <= 0.0:
            raise MeshError(f"site {i} produced a degenerate Voronoi cell")

    volumes = np.empty(n)
    mesh_size = 0.0
    for cells, stack in _group_polygons(polys):
        volumes[cells] = geometry.polygon_area(stack)
        mesh_size = max(mesh_size, float(geometry.polygon_diameter(stack).max()))
    drop = FACE_DROP_FACTOR * mesh_size
    fc, fa, fd, fe = [], [], [], []
    for i in range(n - 1):
        gaps = geometry.distances(pts[i + 1:], pts[i])
        near = np.flatnonzero(gaps <= 2.0 * mesh_size)
        for j, gap in zip((near + i + 1).tolist(), gaps[near].tolist()):
            normal = pts[j] - pts[i]
            offset = 0.5 * float(normal @ (pts[i] + pts[j]))
            seg = geometry.line_section(polys[i], normal, offset, site_tol)
            if seg is None:
                continue
            length = float(np.hypot(*(seg[1] - seg[0])))
            if length < drop:
                continue
            fc.append((i, j))
            fa.append(length)
            fd.append(gap)
            fe.append([seg[0], seg[1]])
    mesh = Mesh(2, domain, pts, volumes, cell_polygons=polys,
                face_cells=np.array(fc, dtype=np.int64).reshape(-1, 2),
                face_areas=fa, face_dists=fd,
                face_endpoints=np.array(fe, dtype=float).reshape(-1, 2, 2))
    mesh.validate()
    return mesh


# -- quality reports -----------------------------------------------------------


@dataclass(frozen=True)
class RegularityReport:
    zeta_inner: float
    zeta_area: float
    zeta: float
    mesh_size: float


def regularity_report(mesh: Mesh) -> RegularityReport:
    """Measured mesh-quality constants (reported, never asserted).

    zeta_inner is the worst ratio (inscribed ball radius at the site) / [T];
    zeta_area the worst face measure relative to [T]^(d-1); single-cell meshes
    report zeta_area = 1 by convention.
    """
    size = mesh.size()
    if mesh.dim == 1:
        lo = mesh.sites[:, 0] - mesh.cell_bounds[:, 0]
        hi = mesh.cell_bounds[:, 1] - mesh.sites[:, 0]
        inradii = np.maximum(np.minimum(lo, hi), 0.0)
    else:
        # the distance from the site to the nearest edge line, as
        # max(r, 0.0), which keeps -0.0
        inradii = np.empty(mesh.n_cells)
        for cells, stack in mesh.polygon_groups:
            r = geometry.signed_edge_distances(
                stack, mesh.sites[cells].T[:, :, None]).min(axis=1)
            inradii[cells] = np.where(0.0 > r, 0.0, r)
    zeta_inner = float(inradii.min()) / size
    if mesh.n_faces:
        zeta_area = float(mesh.face_areas.min()) / size ** (mesh.dim - 1)
    else:
        zeta_area = 1.0
    zeta = min(zeta_inner, zeta_area, 1.0)
    return RegularityReport(zeta_inner, zeta_area, zeta, size)


def isotropy_defect(mesh: Mesh, weights, pi) -> np.ndarray:
    """Per-cell excess of the weighted second moment over the reference mass.

    For each cell the matrix M_K = 1/2 sum_L w_KL (x_K - x_L) (x_K - x_L)^T is
    compared against pi(K) I; the defect is max(lambda_max(M_K/pi(K) - I), 0).
    The mesh-level figure is the sup over cells.
    """
    w = weights.w
    masses = np.asarray(getattr(pi, "masses", pi), dtype=float)
    if np.any(masses <= 0.0):
        raise ValueError("reference measure must be positive on every cell")
    d = mesh.dim
    moments = np.zeros((mesh.n_cells, d, d))
    k, l = mesh.face_cells[:, 0], mesh.face_cells[:, 1]
    diff = mesh.sites[k] - mesh.sites[l]
    outer = 0.5 * w[:, None, None] * diff[:, :, None] * diff[:, None, :]
    np.add.at(moments, k, outer)
    np.add.at(moments, l, outer)
    a = moments / masses[:, None, None] - np.eye(d)
    lam = np.linalg.eigvalsh(a)[:, -1] if d == 2 else a[:, 0, 0]
    return np.where(0.0 > lam, 0.0, lam)    # Python's max(lam, 0.0): keeps -0.0


# -- region selection (shared by functionals and diagnostics) -------------------


# clip_convex clips by the box edges in turn.  An edge's normal has one
# nonzero component n_j, so its test is s = fl(fl(n_j v_j) - fl(n_j a_j))
# for a vertex v and the edge's coordinate a_j; rounding is monotone, so a
# vertex beyond the edge line by more than u (|v_j| + |a_j|) gets s > 0 and
# is dropped (u = 2^-53, no underflow assumed).  A clip creates vertices
# x_i + t (x_j - x_i) with t in [0, 1] and three roundings, each within
# 5.01 u M of the segment, where M bounds every |coordinate| of the cell
# and the box.  So a cell whose vertices lie beyond one edge by more than
# 3 * 5.01 u M (the clips before it) + 2 u M keeps none at that edge, and
# overlap_area returns 0.0.  A margin of 32 u M covers that and the
# rounding of the bounding-box test.
_BOX_MARGIN = 2.0 ** -48


def cell_box_overlaps(mesh: Mesh, box: Box) -> np.ndarray:
    """Measure of each cell intersected with an open axis-aligned box.

    A cell whose vertex bounding box lies beyond one box edge by more than
    the rounding margin above is 0.0 without a clip.
    """
    if mesh.dim == 1:
        lo, hi = mesh.cell_bounds[:, 0], mesh.cell_bounds[:, 1]
        overlap = np.minimum(hi, box.hi[0]) - np.maximum(lo, box.lo[0])
        return np.where(overlap > 0.0, overlap, 0.0)
    clipper = box.as_polygon()
    proper = bool(np.all(box.lo < box.hi))    # else an edge clips nothing
    overlaps = np.zeros(mesh.n_cells)
    for cells, stack in mesh.polygon_groups:
        lo, hi = stack.min(axis=1), stack.max(axis=1)               # (c, 2)
        scale = np.maximum(np.abs(stack).max(axis=(1, 2)), np.abs(clipper).max())
        margin = _BOX_MARGIN * scale[:, None]
        apart = proper & ((hi < box.lo - margin) | (lo > box.hi + margin)).any(axis=1)
        for k, poly in zip(cells[~apart].tolist(), stack[~apart]):
            overlaps[k] = geometry.overlap_area(poly, clipper)
    return overlaps


def cells_meeting(mesh: Mesh, region) -> np.ndarray:
    """Boolean mask of cells whose closure meets the open box `region`.

    For convex cells and an open box this is equivalent to a positive
    overlap measure, which is how it is evaluated.
    """
    if region is None:
        return np.ones(mesh.n_cells, dtype=bool)
    return cell_box_overlaps(mesh, Box.coerce(region)) > OVERLAP_SHARE * mesh.volumes


def cells_inside(mesh: Mesh, region) -> np.ndarray:
    """Boolean mask of cells whose closure is contained in the open box."""
    box = Box.coerce(region)
    groups = ([(np.arange(mesh.n_cells), mesh.cell_bounds[:, :, None])]
              if mesh.dim == 1 else mesh.polygon_groups)      # (c, m, d) vertices
    mask = np.zeros(mesh.n_cells, dtype=bool)
    for cells, stack in groups:
        mask[cells] = np.all((stack > box.lo) & (stack < box.hi), axis=(1, 2))
    return mask
