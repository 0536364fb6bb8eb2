"""Admissible finite-volume meshes on intervals and convex polygons.

A mesh is a finite partition of a convex domain into convex cells, each
carrying a site, such that the segment between neighbouring sites is
orthogonal to the shared face (the two-point flux consistency condition).
Meshes are immutable after construction: every array is frozen, so they can
be shared freely across concurrent readers.
"""
from __future__ import annotations

import math
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
# edge pairs per block of the face rebuild, 64 KiB per (pairs, 2) array: blocks
# 8 times larger raised the peak RSS of reading back 196 cells by 2.2 MiB
_FACE_BLOCK_PAIRS = 1 << 12


class MeshError(ValueError):
    """Raised when construction input or a mesh invariant is invalid."""


def _frozen(arr, dtype=float) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


# Symmetric rules on a triangle by order: barycentric nodes, and weights
# summing to one; exact for degree 1 and 5.
_TRI_RULES = {
    1: (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0])),
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
        if not (math.isfinite(a) and math.isfinite(b)):
            raise MeshError(f"interval endpoints must be finite, got [{a}, {b}]")
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
        verts = np.asarray(vertices, dtype=float)
        if not np.all(np.isfinite(verts)):
            raise MeshError("domain polygon vertices must be finite")
        verts = geometry.ensure_ccw(verts)
        if len(verts) < 3 or geometry.polygon_area(verts) <= 0.0:
            raise MeshError("domain polygon must have positive area")
        # convex: no right turn from edge in to edge out (one within
        # VERTEX_MERGE_TOL of straight is collinear), and one winding
        into = verts - np.roll(verts, 1, axis=0)
        out = np.roll(into, -1, axis=0)
        cross = into[:, 0] * out[:, 1] - into[:, 1] * out[:, 0]
        right = cross < -VERTEX_MERGE_TOL * np.hypot(*into.T) * np.hypot(*out.T)
        winds = np.sum(np.arctan2(cross, np.sum(into * out, axis=1))) / math.tau
        if right.any() or winds > 1.0 + VERTEX_MERGE_TOL:
            how = (f"turns right at vertex {tuple(verts[right.argmax()].tolist())}"
                   if right.any() else f"winds {winds:.3g} times")
            raise MeshError(f"domain polygon is not convex: it {how}")
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

    def padded_polygons(self) -> tuple[np.ndarray, np.ndarray]:
        """(n, V, 2) cell polygons zero-padded to the most vertices, and
        their (n,) vertex counts: the stack the batched clips take (d=2)."""
        polys = np.zeros((self.n_cells, self.polygon_groups[-1][1].shape[1], 2))
        counts = np.empty(self.n_cells, dtype=np.int64)
        for cells, stack in self.polygon_groups:
            polys[cells, :stack.shape[1]] = stack
            counts[cells] = stack.shape[1]
        return polys, counts

    def quadrature(self, order: int | None = None) -> QuadratureTable:
        """Cell quadrature table of a rule, built on first use and frozen.

        d=1: 5-point Gauss-Legendre on each cell, the one rule (order None).
        d=2: the triangle rule of `order` (None or 1: degree 1; 3: degree 5)
        on each cell's fan around its centroid.
        """
        if self.dim == 1 and order is None:
            rule = 5
        elif self.dim == 2 and order in (None, 1, 3):
            rule = order or 1
        else:
            raise ValueError(f"quadrature order {order!r} on a {self.dim}d mesh: "
                             f"use {'None' if self.dim == 1 else 'None, 1 or 3'}")
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
            polys, counts = self.padded_polygons()
            ends = np.empty((self.n_faces, 2, 2))
            block = max(1, _FACE_BLOCK_PAIRS // polys.shape[1] ** 2)
            for lo in range(0, self.n_faces, block):
                ends[lo:lo + block], found = geometry.shared_edges(
                    polys, counts, self.face_cells[lo:lo + block], tol)
                if not found.all():
                    f = lo + int(np.argmin(found))
                    k, l = self.face_cells[f]
                    raise MeshError(f"cannot reconstruct face {f} between cells {k}, {l}")
            self._face_endpoints = _frozen(ends)
        return self._face_endpoints

    # -- invariants ---------------------------------------------------------

    def validate(self) -> None:
        """Check the structural invariants; raise MeshError on violation."""
        for name in ("volumes", "face_areas", "face_dists"):
            values = getattr(self, name)
            bad = np.flatnonzero(~np.isfinite(values))
            if len(bad):
                raise MeshError(f"{name}[{bad[0]}] is {float(values[bad[0]])!r}; "
                                f"it must be finite")
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
        try:
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

            def header(tag: str, counts=None) -> int:
                """The count after a tag header, one of counts if they are given."""
                name, count = take(2)
                if name != tag or (counts is not None and count not in counts):
                    raise MeshError(f"bad {tag} header")
                return int(count)

            magic, version = take(2)
            if magic != "gradflow-mesh" or version != "1":
                raise MeshError("not a gradflow mesh file")
            dim = header("dim", ("1", "2"))
            ndv = header("domain")
            if dim == 1:
                domain = Domain.interval(*(float(t) for t in take(2)))
            else:
                domain = Domain.polygon([[float(x) for x in take(2)]
                                         for _ in range(ndv)])
            nc = header("cells")
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
            nf = header("faces")
            fc = np.empty((nf, 2), dtype=np.int64)
            fa = np.empty(nf)
            fd = np.empty(nf)
            for f in range(nf):
                fc[f] = [int(t) for t in take(2)]
                fa[f] = float(take(1)[0])
                fd[f] = float(take(1)[0])
            if pos < len(tokens):
                raise MeshError(f"unexpected token {tokens[pos]!r} after the "
                                f"last face")
            mesh = Mesh(dim, domain, sites, volumes, cell_bounds=bounds,
                        cell_polygons=polys, face_cells=fc, face_areas=fa,
                        face_dists=fd)
            mesh.validate()
            return mesh
        except ValueError as exc:      # MeshError is one
            raise MeshError(f"{path}: {exc}") from exc


# -- constructors -------------------------------------------------------------


def build_interval_mesh(n: int, breakpoints=None, interval=(0.0, 1.0)) -> Mesh:
    """Partition [a, b] into n cells with sites at the cell midpoints.

    `breakpoints` is a length n+1 increasing array; by default the grid is
    uniform.
    """
    if n < 1:
        raise MeshError("n must be a positive integer")
    a, b = float(interval[0]), float(interval[1])
    pts = (np.linspace(a, b, n + 1) if breakpoints is None
           else np.asarray(breakpoints, dtype=float))
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


def _voronoi_polygons(pts: np.ndarray, domain_vertices: np.ndarray,
                      merge_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """The cell of every site, in site order, as a padded (n, V, 2) stack and
    its (n,) vertex counts: the domain clipped by the bisectors of the other
    sites in site order.  All cells are clipped in lockstep, n - 1 batched
    passes; pass t clips cell i by the bisector of site t + (t >= i)."""
    n = len(pts)
    polys = np.broadcast_to(domain_vertices, (n, *domain_vertices.shape))
    counts = np.full(n, polys.shape[1])
    cells = np.arange(n)
    for t in range(n - 1):
        other = pts[t + (t >= cells)]
        normals = other - pts
        polys, counts = geometry.clip_halfplane(
            polys, counts, normals, 0.5 * geometry.row_dot(normals, pts + other), merge_tol)
    return polys, counts


def _bisector_sections(poly: np.ndarray, site: np.ndarray, others: np.ndarray,
                       tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Where the cell `poly` of `site` meets the bisector with each of the
    (J, 2) `others`: the (J, 2, 2) extreme vertices within tol of that
    bisector, ordered along it, and whether they lie more than tol apart.

    The cell was clipped by each of these bisectors, so none of its vertices
    lies beyond one, and the section is spanned by the vertices on the line.
    The dot products round as `verts @ unit` and `np.dot` do on one pair.
    """
    normals = others - site
    nn = np.hypot(normals[:, 0], normals[:, 1])
    units = normals / nn[:, None]
    offsets = 0.5 * geometry.row_dot(normals, site + others) / nn
    on = np.abs(np.matmul(poly, units[:, :, None])[..., 0] - offsets[:, None]) <= tol
    rows, verts = np.nonzero(on)                                    # on: (J, m)
    along = np.zeros(on.shape)
    along[on] = geometry.row_dot(poly[verts], np.column_stack([-units[rows, 1],
                                                               units[rows, 0]]))
    ends = poly[np.column_stack([np.where(on, along, np.inf).argmin(axis=1),
                                 np.where(on, along, -np.inf).argmax(axis=1)])]
    gap = ends[:, 1] - ends[:, 0]
    return ends, np.hypot(gap[:, 0], gap[:, 1]) > tol


def build_voronoi_mesh(sites, domain) -> Mesh:
    """Voronoi cells of the (n, d) sites, clipped to a convex `Domain`.

    Orthogonality of site segments to faces holds by construction (faces lie
    on perpendicular bisectors).  Faces with measure below
    FACE_DROP_FACTOR * [T]^(d-1) are dropped.
    """
    pts = np.atleast_2d(np.asarray(sites, dtype=float))
    n, dim = pts.shape
    if dim not in (1, 2):
        raise MeshError("only dimensions 1 and 2 are supported")
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

    polys, counts = _voronoi_polygons(pts, domain.vertices, VERTEX_MERGE_TOL * scale)
    volumes = np.zeros(n)                    # 0 for cells of fewer than 3 vertices
    groups = [(np.flatnonzero(counts == m), m) for m in np.unique(counts[counts >= 3])]
    for cells, m in groups:
        volumes[cells] = geometry.polygon_area(polys[cells, :m])
    degenerate = np.flatnonzero(volumes <= 0.0)
    if len(degenerate):
        raise MeshError(f"site {int(degenerate[0])} produced a degenerate Voronoi cell")
    mesh_size = max(float(geometry.polygon_diameter(polys[cells, :m]).max())
                    for cells, m in groups)

    # faces (i, j), j > i: cell i against every candidate j in one section;
    # the last cell has no candidates
    pairs, dists, ends = [], [], []
    for i in range(n):
        gaps = geometry.distances(pts[i + 1:], pts[i])
        near = np.flatnonzero(gaps <= 2.0 * mesh_size)
        seg, apart = _bisector_sections(polys[i, :counts[i]], pts[i],
                                        pts[near + i + 1], site_tol)
        near = near[apart]
        pairs.append(np.column_stack([np.full(len(near), i), near + i + 1]))
        dists.append(gaps[near])
        ends.append(seg[apart])
    ends = np.concatenate(ends)
    gap = ends[:, 1] - ends[:, 0]
    areas = np.hypot(gap[:, 0], gap[:, 1])
    keep = areas >= FACE_DROP_FACTOR * mesh_size
    mesh = Mesh(2, domain, pts, volumes,
                cell_polygons=[poly[:m] for poly, m in zip(polys, counts.tolist())],
                face_cells=np.concatenate(pairs)[keep], face_areas=areas[keep],
                face_dists=np.concatenate(dists)[keep], face_endpoints=ends[keep])
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


def cell_box_overlaps(mesh: Mesh, box: Box) -> np.ndarray:
    """Measure of each cell intersected with an open axis-aligned box."""
    if mesh.dim == 1:
        lo, hi = mesh.cell_bounds[:, 0], mesh.cell_bounds[:, 1]
        overlap = np.minimum(hi, box.hi[0]) - np.maximum(lo, box.lo[0])
        return np.where(overlap > 0.0, overlap, 0.0)
    polys, counts = mesh.padded_polygons()
    n = mesh.n_cells
    return geometry.overlap_area(polys, counts, np.broadcast_to(box.as_polygon(), (n, 4, 2)),
                                 np.full(n, 4))


def cells_meeting(mesh: Mesh, box: Box) -> np.ndarray:
    """Boolean mask of cells whose closure meets the open box.

    For convex cells and an open box this is equivalent to a positive
    overlap measure, which is how it is evaluated.
    """
    return cell_box_overlaps(mesh, box) > OVERLAP_SHARE * mesh.volumes


def cells_inside(mesh: Mesh, box: Box) -> np.ndarray:
    """Boolean mask of cells whose closure is contained in the open box."""
    groups = ([(np.arange(mesh.n_cells), mesh.cell_bounds[:, :, None])]
              if mesh.dim == 1 else mesh.polygon_groups)      # (c, m, d) vertices
    mask = np.zeros(mesh.n_cells, dtype=bool)
    for cells, stack in groups:
        mask[cells] = np.all((stack > box.lo) & (stack < box.hi), axis=(1, 2))
    return mask
