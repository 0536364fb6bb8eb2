"""Convex planar geometry: areas, clipping, overlaps, segment tests and
site distances.

`row_dot` is the row-by-row dot product of stacked vectors and `distances`
the Euclidean distance of each row pair, its square root; they round as
`np.dot` and `np.linalg.norm` do on one row.  All polygons are (k, 2) float
arrays with vertices in counter-clockwise order.  Routines assume convexity
and do not re-check it; callers own that invariant.  The per-polygon
measures (`polygon_area`, `polygon_diameter`, `polygon_centroids`,
`signed_edge_distances`) take one polygon (m, 2) or a stack (c, m, 2) of
polygons with m vertices each, and compute each row of a stack as for that
polygon alone; a mesh calls them once per vertex-count group.  Clipping
works one polygon at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] (or a[i] @ b for one vector b): the stacked matmul runs the
    same dot product per row as a loop, so it rounds the same."""
    return np.matmul(a[:, None, :], b[..., None])[:, 0, 0]


def distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a[i] - b[i]| per row of (N, d) points; each equals
    np.linalg.norm(a[i] - b[i]), the square root of the same dot product."""
    d = a - b
    return np.sqrt(row_dot(d, d))


def polygon_area(verts: np.ndarray):
    """Signed shoelace area (positive for counter-clockwise order): a float
    for one polygon, a (c,) array for a stack."""
    x, y = verts[..., 0], verts[..., 1]
    area = 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y,
                        axis=-1)
    return float(area) if area.ndim == 0 else area


def polygon_centroids(polys: np.ndarray) -> np.ndarray:
    """Centroids of a stack of polygons with m vertices each, (c, m, 2) ->
    (c, 2); the vertex mean where the area vanishes.  Row by row, the sums
    are those of one polygon at a time."""
    x, y = polys[..., 0], polys[..., 1]
    xn, yn = np.roll(x, -1, axis=1), np.roll(y, -1, axis=1)
    cross = x * yn - xn * y
    a = 0.5 * cross.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        center = np.column_stack([((x + xn) * cross).sum(axis=1),
                                  ((y + yn) * cross).sum(axis=1)]) \
            / (6.0 * a)[:, None]
    flat = np.abs(a) < 1e-300
    center[flat] = polys[flat].mean(axis=1)
    return center


def polygon_diameter(verts: np.ndarray):
    """Largest vertex-to-vertex distance, the diameter of a convex polygon: a
    float for one polygon, a (c,) array for a stack."""
    d = verts[..., :, None, :] - verts[..., None, :, :]
    diam = np.sqrt((d * d).sum(-1)).max(axis=(-2, -1))
    return float(diam) if diam.ndim == 0 else diam


def ensure_ccw(verts: np.ndarray) -> np.ndarray:
    return verts if polygon_area(verts) >= 0.0 else verts[::-1].copy()


def _far_apart(dx: float, dy: float, tol: float) -> bool:
    """np.hypot(dx, dy) > tol, decided without the ufunc call where clear.

    dx*dx + dy*dy carries a relative error of at most 2u and hypot at most
    one ulp, so outside a 1e-6 relative band around tol**2 the squared test
    agrees with hypot; inside it, or where tol**2 would underflow, hypot
    decides.
    """
    d2 = dx * dx + dy * dy
    t2 = tol * tol
    if tol > 1e-150:
        if d2 > t2 * (1.0 + 1e-6):
            return True
        if d2 < t2 * (1.0 - 1e-6):
            return False
    return bool(np.hypot(dx, dy) > tol)


def _merge_close(points: list, tol: float) -> list:
    kept = [points[0]]
    for v in points[1:]:
        last = kept[-1]
        if _far_apart(v[0] - last[0], v[1] - last[1], tol):
            kept.append(v)
    if len(kept) > 1:
        first, last = kept[0], kept[-1]
        if not _far_apart(first[0] - last[0], first[1] - last[1], tol):
            kept.pop()
    return kept


def merge_close_vertices(verts: np.ndarray, tol: float) -> np.ndarray:
    """Drop consecutive vertices closer than tol (wrapping around)."""
    if len(verts) == 0:
        return verts.reshape(0, 2)
    kept = _merge_close(np.asarray(verts, dtype=float).tolist(), tol)
    return np.asarray(kept, dtype=float).reshape(-1, 2)


def clip_halfplane(verts: np.ndarray, normal: np.ndarray, offset: float,
                   merge_tol: float = 1e-12) -> np.ndarray:
    """Intersect a convex polygon with the half-plane {x : normal·x <= offset}."""
    if len(verts) == 0:
        return verts
    s = (verts @ normal - offset).tolist()
    pts = verts.tolist()
    out: list[list[float]] = []
    k = len(pts)
    for i in range(k):
        j = (i + 1) % k
        si, sj = s[i], s[j]
        if si <= 0.0:
            out.append(pts[i])
        if (si <= 0.0) != (sj <= 0.0):
            # Python floats round each operation like float64 arrays do
            t = si / (si - sj)
            (xi, yi), (xj, yj) = pts[i], pts[j]
            out.append([xi + t * (xj - xi), yi + t * (yj - yi)])
    if not out:
        return np.empty((0, 2))
    return np.asarray(_merge_close(out, merge_tol), dtype=float)


def clip_convex(subject: np.ndarray, clipper: np.ndarray) -> np.ndarray:
    """Intersection of two convex polygons by sequential half-plane clipping."""
    out = subject
    k = len(clipper)
    for i in range(k):
        if len(out) == 0:
            break
        a = clipper[i]
        e = clipper[(i + 1) % k] - a
        normal = np.array([e[1], -e[0]])  # outward for ccw clipper
        out = clip_halfplane(out, normal, float(normal @ a))
    return out


def overlap_area(subject: np.ndarray, clipper: np.ndarray) -> float:
    """Area of the intersection of two convex polygons (0 when clipping
    leaves fewer than three vertices)."""
    clipped = clip_convex(subject, clipper)
    return max(polygon_area(clipped), 0.0) if len(clipped) >= 3 else 0.0


def signed_edge_distances(verts: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Distance of p to each edge's supporting line, positive on the inside.

    `verts` is one polygon (m, 2) or a stack of them (c, m, 2); p[0] and
    p[1] broadcast against the (..., m) edges, so p = points.T[:, :, None]
    gives one row per point (or per polygon of the stack).  Every entry is
    computed as for one polygon and one point.
    """
    a = verts
    b = np.roll(verts, -1, axis=-2)
    ex, ey = b[..., 0] - a[..., 0], b[..., 1] - a[..., 1]
    ln = np.hypot(ex, ey)
    ln[ln == 0.0] = 1.0
    return (ex * (p[1] - a[..., 1]) - ey * (p[0] - a[..., 0])) / ln


def line_section(verts: np.ndarray, normal: np.ndarray, offset: float,
                 tol: float = 1e-12) -> tuple[np.ndarray, np.ndarray] | None:
    """Segment cut out of a convex polygon by the line {normal·x = offset}.

    Returns the two endpoints (ordered along the line) or None when the
    intersection is empty or a single point.  `normal` need not be unit.
    """
    nn = float(np.hypot(normal[0], normal[1]))
    if nn == 0.0:
        return None
    unit = normal / nn
    s = verts @ unit - offset / nn
    pts: list[np.ndarray] = []
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


def segment_params(p: np.ndarray, q: np.ndarray, a: np.ndarray,
                   b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parameters (t, u) with p + t(q-p) = a + u(b-a), segment by segment.

    Points are (..., 2) arrays that broadcast against each other: one
    segment pq against (F, 2) endpoints `a` and `b`, or (W, 1, 2) segments
    against (W, D, 2) endpoints.  Each pair costs the same element-wise
    arithmetic however it is batched.  t and u are nan where ab is parallel
    to pq.
    """
    d1 = q - p
    d2 = b - a
    den = d1[..., 0] * d2[..., 1] - d1[..., 1] * d2[..., 0]
    scale = ((np.abs(d1[..., 0]) + np.abs(d1[..., 1]))
             * (np.abs(d2[..., 0]) + np.abs(d2[..., 1])))
    parallel = np.abs(den) <= 1e-14 * np.maximum(scale, 1e-300)
    den = np.where(parallel, np.nan, den)
    r = a - p
    t = (r[..., 0] * d2[..., 1] - r[..., 1] * d2[..., 0]) / den
    u = (r[..., 0] * d1[..., 1] - r[..., 1] * d1[..., 0]) / den
    return t, u


def shared_edge(pa: np.ndarray, pb: np.ndarray,
                tol: float) -> tuple[np.ndarray, np.ndarray] | None:
    """Common boundary segment of two adjacent convex polygons, or None.

    Looks for a pair of collinear, overlapping edges; returns the longest
    overlap.  Used to reconstruct face geometry after mesh file round-trips.
    """
    best: tuple[np.ndarray, np.ndarray] | None = None
    best_len = tol
    ka, kb = len(pa), len(pb)
    for i in range(ka):
        a0, a1 = pa[i], pa[(i + 1) % ka]
        e = a1 - a0
        el = float(np.hypot(e[0], e[1]))
        if el <= tol:
            continue
        u = e / el
        n = np.array([-u[1], u[0]])
        for j in range(kb):
            b0, b1 = pb[j], pb[(j + 1) % kb]
            if abs(float(n @ (b0 - a0))) > tol or abs(float(n @ (b1 - a0))) > tol:
                continue
            s0, s1 = float(u @ (b0 - a0)), float(u @ (b1 - a0))
            lo, hi = max(0.0, min(s0, s1)), min(el, max(s0, s1))
            if hi - lo > best_len:
                best_len = hi - lo
                best = (a0 + lo * u, a0 + hi * u)
    return best


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box; the 'cube' used for localization and scans."""

    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def from_center(center, side: float) -> "Box":
        """The box of edge length `side` around `center`; the side must be
        finite and positive."""
        if not (math.isfinite(side) and side > 0.0):
            raise ValueError(f"a box side must be finite and positive, got {side!r}")
        c = np.atleast_1d(np.asarray(center, dtype=float))
        h = 0.5 * float(side)
        return Box(c - h, c + h)

    def as_polygon(self) -> np.ndarray:
        (x0, y0), (x1, y1) = self.lo, self.hi
        return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])

    def expanded(self, delta: float) -> "Box":
        return Box(self.lo - delta, self.hi + delta)
