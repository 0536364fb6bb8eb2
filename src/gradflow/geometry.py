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
works on padded stacks: (c, V, 2) polygons with a (c,) vertex count each,
padding zero; one `clip_halfplane` pass clips every row by its own
half-plane, and computes each row as for that polygon alone.  An interval
is the (2, 1) stack of its ends, lower first: `polygon_diameter` gives its
length and `overlap_area` the length of an intersection.
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


def _merge_close(points: list, tol: float) -> list:
    """Drop each vertex within tol of the last one kept, then the last one
    kept if it lies within tol of the first: the merge of one polygon's
    vertices, on Python floats."""
    kept = [points[0]]
    for v in points[1:]:
        last = kept[-1]
        if np.hypot(v[0] - last[0], v[1] - last[1]) > tol:
            kept.append(v)
    if len(kept) > 1:
        first, last = kept[0], kept[-1]
        if not np.hypot(first[0] - last[0], first[1] - last[1]) > tol:
            kept.pop()
    return kept


def clip_halfplane(polys: np.ndarray, counts: np.ndarray, normals: np.ndarray,
                   offsets: np.ndarray, merge_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Intersect each convex polygon of a stack with its own half-plane
    {x : normals[r]·x <= offsets[r]}, then merge close vertices.

    `polys` is (c, V, 2) with counts[r] vertices in row r.  Returns the
    clipped stack, zero-padded to its longest row, and its (c,) counts.
    Each row is the Sutherland-Hodgman pass on that polygon alone: every
    vertex that is inside, each followed by the point where its edge
    crosses the line, merged as `_merge_close` does.
    """
    c, v = polys.shape[:2]
    live = np.arange(v) < counts[:, None]
    polys = np.where(live[..., None], polys, 0.0)     # no arithmetic on padding warns
    # the stacked matmul rounds each row as verts @ normal does, except a
    # lone vertex, for which verts @ normal is the dot product row_dot takes
    s = np.matmul(polys, normals[:, :, None])[..., 0]
    lone = counts == 1
    if lone.any():
        s[lone, 0] = row_dot(polys[lone, 0], normals[lone])
    s -= offsets[:, None]
    nxt = np.arange(1, v + 1)
    nxt = np.where(nxt < counts[:, None], nxt, 0)
    s_next = np.take_along_axis(s, nxt, axis=1)
    inside = s <= 0.0
    cross = live & (inside != (s_next <= 0.0))
    t = np.divide(s, s - s_next, out=np.zeros_like(s), where=cross)
    hits = polys + t[..., None] * (np.take_along_axis(polys, nxt[..., None], axis=1)
                                   - polys)
    keep = np.stack([live & inside, cross], axis=2).reshape(c, 2 * v)
    counts = keep.sum(axis=1)
    width = int(counts.max(initial=0))
    order = np.argsort(~keep, axis=1, kind="stable")[:, :width]
    out = np.take_along_axis(np.stack([polys, hits], axis=2).reshape(c, 2 * v, 2),
                             order[..., None], axis=1)
    if width == 0:
        return out, counts
    pos = np.arange(width)
    # np.hypot(dx, dy) > tol is what _merge_close decides
    gap = out[:, 1:] - out[:, :-1]
    close = (pos[1:] < counts[:, None]) & ~(np.hypot(gap[..., 0], gap[..., 1]) > merge_tol)
    chained = close.any(axis=1)
    wrap = out[:, 0] - out[np.arange(c), np.maximum(counts - 1, 0)]
    counts -= (counts > 1) & ~chained & ~(np.hypot(wrap[:, 0], wrap[:, 1]) > merge_tol)
    for r in np.flatnonzero(chained).tolist():
        kept = _merge_close(out[r, :counts[r]].tolist(), merge_tol)
        out[r, :len(kept)] = kept
        counts[r] = len(kept)
    width = int(counts.max())
    out = out[:, :width]
    out[pos[:width] >= counts[:, None]] = 0.0
    return out, counts


def clip_convex(subjects: np.ndarray, counts: np.ndarray, clippers: np.ndarray,
                clipper_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Intersection of each convex subject with its convex clipper, both
    padded stacks with their counts: one batched half-plane clip per
    clipper edge, over the rows whose clipper has that edge."""
    out, counts = subjects, counts.copy()
    for e in range(clippers.shape[1]):
        rows = np.flatnonzero(e < clipper_counts)
        a = clippers[rows, e]
        edge = clippers[rows, (e + 1) % clipper_counts[rows]] - a
        normals = np.column_stack([edge[:, 1], -edge[:, 0]])   # outward for ccw
        part, part_counts = clip_halfplane(out[rows], counts[rows], normals,
                                           row_dot(normals, a), 1e-12)
        width = max(out.shape[1], part.shape[1])
        out = np.pad(out, ((0, 0), (0, width - out.shape[1]), (0, 0)))
        out[rows] = 0.0
        out[rows, :part.shape[1]] = part
        counts[rows] = part_counts
    return out, counts


def overlap_area(subjects: np.ndarray, counts: np.ndarray, clippers: np.ndarray,
                 clipper_counts: np.ndarray) -> np.ndarray:
    """Area of each subject's intersection with its clipper, (c,): 0 where
    clipping leaves fewer than three vertices.  Areas are taken per group of
    equal vertex count, so each sums as for its polygon alone.  Intervals,
    (c, 2, 1) stacks of their ends, overlap by min(hi) - max(lo), or +0.0
    where that is not positive."""
    if subjects.shape[-1] == 1:
        overlap = (np.minimum(subjects[:, 1, 0], clippers[:, 1, 0])
                   - np.maximum(subjects[:, 0, 0], clippers[:, 0, 0]))
        return np.where(overlap > 0.0, overlap, 0.0)
    clipped, left = clip_convex(subjects, counts, clippers, clipper_counts)
    areas = np.zeros(len(left))
    for m in np.unique(left[left >= 3]).tolist():
        rows = np.flatnonzero(left == m)
        area = polygon_area(clipped[rows, :m])
        areas[rows] = np.where(0.0 > area, 0.0, area)    # max(area, 0.0)
    return areas


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


def shared_edges(polys: np.ndarray, counts: np.ndarray, pairs: np.ndarray,
                 tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(F, 2, 2) common boundary segments of the (F, 2) cell pairs (k, l) of
    a padded stack (c, V, 2) of convex polygons with (c,) vertex counts, and
    an (F,) flag, False where a pair has none.  Edge j of l overlaps edge i
    of k on its projection onto i, trimmed to i, when both its ends lie
    within tol of i's line; each pair takes the first strictly longest
    overlap above tol in (i, j) order.  Dot products are `row_dot`'s stacked
    matmul and min/max explicit comparisons: each pair rounds as a loop."""
    def dot(x, d):          # x (F, V, 2) against d (F, V, V, 2)
        return np.matmul(d[..., None, :], x[:, :, None, :, None])[..., 0, 0]

    def edges(cells):       # their vertices, the next ones, and which are real
        p, n, idx = polys[cells], counts[cells, None], np.arange(polys.shape[1])
        nxt = np.where(idx + 1 < n, idx + 1, 0)
        return p, np.take_along_axis(p, nxt[..., None], axis=1), idx < n

    a0, a1, live_a = edges(pairs[:, 0])
    b0, b1, live_b = edges(pairs[:, 1])
    e = a1 - a0
    el = np.hypot(e[..., 0], e[..., 1])
    live_a &= ~(el <= tol)
    u = e / np.where(live_a, el, 1.0)[..., None]
    normal = np.stack([-u[..., 1], u[..., 0]], axis=-1)
    d0 = b0[:, None] - a0[:, :, None]
    d1 = b1[:, None] - a0[:, :, None]
    on = (live_a[:, :, None] & live_b[:, None, :]
          & ~(np.abs(dot(normal, d0)) > tol) & ~(np.abs(dot(normal, d1)) > tol))
    s0, s1 = dot(u, d0), dot(u, d1)
    lo = np.where(s1 < s0, s1, s0)
    lo = np.where(lo > 0.0, lo, 0.0)
    hi = np.where(s1 > s0, s1, s0)
    hi = np.where(hi < el[:, :, None], hi, el[:, :, None])
    overlap = np.where(on & (hi - lo > tol), hi - lo, -np.inf).reshape(len(pairs), -1)
    best = overlap.argmax(axis=1)
    rows = np.arange(len(pairs))
    i, j = np.divmod(best, polys.shape[1])
    start, step = a0[rows, i], u[rows, i]
    ends = np.stack([start + lo[rows, i, j][:, None] * step,
                     start + hi[rows, i, j][:, None] * step], axis=1)
    return ends, overlap[rows, best] > tol


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
        """The ccw corners (4, 2) of a 2D box; the ends (2, 1) of a 1D one."""
        if len(self.lo) == 1:
            return np.array([self.lo, self.hi])
        (x0, y0), (x1, y1) = self.lo, self.hi
        return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]])

    def expanded(self, delta: float) -> "Box":
        return Box(self.lo - delta, self.hi + delta)
