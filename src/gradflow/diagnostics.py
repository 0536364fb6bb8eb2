"""Structural conditions and constructive regularity diagnostics.

Everything here measures; nothing asserts.  Density bounds, neighbour
oscillation and cube profiles feed the convergence studies, good paths give
the constructive neighbour chains behind the L2 compactness estimate, and
the shifted-overlap modulus evaluates that estimate exactly for piecewise
constant fields.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .geometry import Box
from .functionals import _masses, dirichlet_energy, neighbour_oscillation
from .mesh import OVERLAP_SHARE, Mesh, cell_box_overlaps

PATH_SAMPLE_LIMIT = 200
PATH_SAMPLE_COUNT = 10_000
PATH_SEED = 42
_WALK_RETRIES = 12
_PATH_BLOCK = 512


@dataclass(frozen=True)
class PointwiseRow:
    eps: float
    center: tuple
    sup: float
    inf: float
    mass_ratio: float


@dataclass(frozen=True)
class ConditionReport:
    """Measured density bounds, neighbour oscillation, and cube profiles."""

    k_lower: float
    k_upper: float
    neighbour_osc: float
    pc_profile: list[PointwiseRow] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("condition,value\n")
            fh.write(f"k_lower,{self.k_lower!r}\n")
            fh.write(f"k_upper,{self.k_upper!r}\n")
            fh.write(f"neighbour_osc,{self.neighbour_osc!r}\n")
            fh.write("eps,center,sup,inf,mass_ratio\n")
            for row in self.pc_profile:
                center = ";".join(repr(c) for c in row.center)
                fh.write(f"{row.eps!r},{center},{row.sup!r},{row.inf!r},"
                         f"{row.mass_ratio!r}\n")


def condition_report(mesh: Mesh, m, pi, cube_centers=(),
                     eps_list=()) -> ConditionReport:
    """Exact density extrema and oscillation, plus sup/inf over cubes.

    The mass ratio column compares the embedded measure of each cube with
    the embedded reference mass of the same cube.
    """
    mm = _masses(m)
    pp = _masses(pi)
    if np.any(pp <= 0.0):
        raise ValueError("reference measure must be positive")
    r = mm / pp
    osc = neighbour_oscillation(r, mesh.face_cells)
    profile: list[PointwiseRow] = []
    for center in cube_centers:
        for eps in eps_list:
            overlaps = cell_box_overlaps(mesh, Box.from_center(center, eps))
            keep = overlaps > OVERLAP_SHARE * mesh.volumes
            if not np.any(keep):
                continue
            frac = overlaps / mesh.volumes
            mass_m = float(np.sum(mm * frac))
            mass_pi = float(np.sum(pp * frac))
            profile.append(PointwiseRow(
                eps=float(eps),
                center=tuple(float(c) for c in np.atleast_1d(center)),
                sup=float(r[keep].max()), inf=float(r[keep].min()),
                mass_ratio=mass_m / mass_pi if mass_pi > 0.0 else float("nan")))
    return ConditionReport(k_lower=float(r.min()), k_upper=float(r.max()),
                           neighbour_osc=osc, pc_profile=profile)


@dataclass(frozen=True)
class GoodPath:
    """Neighbour chain between two cells with its site-to-site length."""

    cells: tuple
    length: float

    @property
    def n(self) -> int:
        return len(self.cells) - 1


def _walk(mesh: Mesh, faces: np.ndarray, neighbours: np.ndarray,
          start: np.ndarray, goal: np.ndarray, target: np.ndarray):
    """Follow the site segments start -> target in lockstep, each crossing
    the face it exits at each cell.

    `faces` and `neighbours` are the padded face graph.  Returns the cells
    visited as (walks, steps) columns padded with -1, and whether each walk
    reached its goal.
    """
    ends = mesh.face_endpoints()
    n_walks = len(start)
    cur = start.copy()
    t_cur = np.zeros(n_walks)
    reached = np.zeros(n_walks, dtype=bool)
    columns = [start]
    live = np.arange(n_walks)
    for step in range(mesh.n_cells + 1):
        done = cur[live] == goal[live]
        reached[live[done]] = True
        live = live[~done]
        if not live.size or step == mesh.n_cells or not faces.shape[1]:
            break
        f, nb = faces[cur[live]], neighbours[cur[live]]            # (w, D)
        p0 = mesh.sites[start[live]][:, None]
        t, u = geometry.segment_params(p0, target[live][:, None],
                                       ends[f, 0], ends[f, 1])
        keep = ((f >= 0) & (t == t)                  # t is nan when parallel
                & ~(t <= t_cur[live][:, None] + 1e-12) & ~(t > 1.0 + 1e-9)
                & ~(u < -1e-9) & ~(u > 1.0 + 1e-9))
        crossing = keep.any(axis=1)
        t_keep = np.where(keep, t, np.inf)
        best_t = t_keep.min(axis=1)
        # the smallest t, the smallest neighbour among equal t
        pick = np.argmin(np.where(t_keep == best_t[:, None], nb, mesh.n_cells),
                         axis=1)
        rows = np.arange(len(live))
        best_u, best_nb = u[rows, pick], nb[rows, pick]
        ties = (keep & (np.abs(t - best_t[:, None]) <= 1e-12)).sum(axis=1)
        # a vertex exit: ambiguous crossing or the winner grazes a face
        # endpoint; the window sits well below the 1e-9 [T] target
        # perturbation, so one retry reliably clears it
        vertex = (ties > 1) | (best_u < 1e-12) | (best_u > 1.0 - 1e-12)
        # segment exhausted inside this cell: accept a final hop to an
        # adjacent goal (the perturbed target may sit across the face)
        last_hop = ~crossing & (nb == goal[live][:, None]).any(axis=1)
        moves = crossing & ~vertex
        column = np.full(n_walks, -1, dtype=np.int64)
        column[live[moves]] = best_nb[moves]
        column[live[last_hop]] = goal[live[last_hop]]
        columns.append(column)
        reached[live[last_hop]] = True
        cur[live[moves]] = best_nb[moves]
        t_cur[live[moves]] = best_t[moves]
        live = live[moves]
    return np.stack(columns, axis=1), reached


def _bfs_chain(mesh: Mesh, start: int, goal: int):
    graph = mesh.face_graph()
    ptr, neighbours = graph.indptr.tolist(), graph.neighbours.tolist()
    prev = {start: start}
    frontier = [start]
    while frontier:
        nxt = []
        for c in frontier:
            for nb in neighbours[ptr[c]:ptr[c + 1]]:           # in face order
                if nb not in prev:
                    prev[nb] = c
                    nxt.append(nb)
        if goal in prev:
            break
        frontier = nxt
    if goal not in prev:
        return None
    chain = [goal]
    while chain[-1] != start:
        chain.append(prev[chain[-1]])
    return chain[::-1]


def _paths_2d(mesh: Mesh, padded, start: np.ndarray, goal: np.ndarray,
              size: float) -> np.ndarray:
    """Good paths start[w] -> goal[w] as (walks, steps) cells padded with -1.

    All walks go in lockstep; the walks that fail go again, as a smaller
    batch, towards the next shifted target, and the walks that use up
    _WALK_RETRIES fall back to a breadth-first chain.
    """
    direction = mesh.sites[goal] - mesh.sites[start]
    norm = np.hypot(direction[:, 0], direction[:, 1])[:, None]
    perp = np.divide(np.column_stack([-direction[:, 1], direction[:, 0]]), norm,
                     out=np.tile([1.0, 0.0], (len(start), 1)), where=norm > 0.0)
    found = []
    todo = np.arange(len(start))
    for attempt in range(_WALK_RETRIES + 1):
        shift = 0.0
        if attempt:
            magnitude = 1e-9 * size * ((attempt + 1) // 2)
            shift = magnitude if attempt % 2 else -magnitude
        target = mesh.sites[goal[todo]] + shift * perp[todo]
        cells, reached = _walk(mesh, *padded, start[todo], goal[todo], target)
        found.append((todo[reached], cells[reached]))
        todo = todo[~reached]
        if not todo.size:
            break
    for w in todo.tolist():
        chain = _bfs_chain(mesh, int(start[w]), int(goal[w]))
        if chain is None:
            raise ValueError("mesh graph is disconnected")
        found.append(([w], np.array([chain])))
    paths = np.full((len(start), max(c.shape[1] for _, c in found)), -1,
                    dtype=np.int64)
    for rows, cells in found:
        paths[rows, :cells.shape[1]] = cells
    return paths


def _route(mesh: Mesh):
    """What the good-path search reads, built once per search: the cells in
    coordinate order (d=1) or the padded face graph (d=2)."""
    if mesh.dim == 1:
        return np.argsort(mesh.cell_bounds[:, 0], kind="stable")
    return mesh.face_graph().padded()


def _paths(mesh: Mesh, route, start: np.ndarray, goal: np.ndarray,
           size: float) -> np.ndarray:
    """Good paths start[w] -> goal[w] as (walks, steps) cells padded with -1;
    in 1D, every cell between the two in coordinate order."""
    if mesh.dim == 2:
        return _paths_2d(mesh, route, start, goal, size)
    pos = np.empty_like(route)
    pos[route] = np.arange(len(route))
    a, b = pos[start][:, None], pos[goal][:, None]
    k = np.arange(int(np.abs(b - a).max(initial=0)) + 1)
    at = np.clip(a + np.where(b > a, k, -k), 0, len(route) - 1)
    return np.where(k <= np.abs(b - a), route[at], -1)


def _lengths(sites: np.ndarray, paths: np.ndarray) -> np.ndarray:
    """Site-to-site length of each padded path, its hops summed in hop order
    (the order of a cumulative sum along the path)."""
    total = np.zeros(len(paths))
    for k in range(1, paths.shape[1]):
        hop = sites[paths[:, k]] - sites[paths[:, k - 1]]
        total = np.where(paths[:, k] >= 0, total + np.sqrt((hop * hop).sum(axis=1)),
                         total)
    return total


def good_path(mesh: Mesh, start: int, goal: int) -> GoodPath:
    """Neighbour chain from `start` to `goal` by segment walking.

    The walk marches along the site segment and crosses, in each cell, the
    face the segment exits; vertex hits perturb the target deterministically
    and retry.  A breadth-first chain backs up pathological geometry so the
    result is always a valid path on a connected mesh.  In 1D the path is
    the chain of cells between the two.  This is the one-pair entry point: it
    runs the search of `path_constants` on one pair.
    """
    if start == goal:
        return GoodPath(cells=(start,), length=0.0)
    paths = _paths(mesh, _route(mesh), np.array([start]), np.array([goal]),
                   mesh.size())
    cells = paths[0][paths[0] >= 0]
    return GoodPath(cells=tuple(cells.tolist()),
                    length=float(_lengths(mesh.sites, paths)[0]))


@dataclass(frozen=True)
class PathConstants:
    c_count: float
    c_length: float
    n_pairs: int


def path_constants(mesh: Mesh) -> PathConstants:
    """Worst path-count and path-length ratios over sampled cell pairs.

    All ordered pairs are used up to PATH_SAMPLE_LIMIT cells; larger meshes
    sample PATH_SAMPLE_COUNT pairs with a generator seeded by PATH_SEED,
    both read at call time.  The good paths of all pairs are found in
    lockstep with numpy, _PATH_BLOCK pairs at a time (which bounds the
    search's memory), and give the same cells and lengths as `good_path`
    pair by pair.
    """
    n = mesh.n_cells
    if n < 2:
        return PathConstants(0.0, 0.0, 0)
    if n <= PATH_SAMPLE_LIMIT:
        start, goal = np.triu_indices(n, k=1)
    else:
        rng = np.random.default_rng(PATH_SEED)
        pairs = []
        while len(pairs) < PATH_SAMPLE_COUNT:
            i, j = rng.integers(0, n, size=2)
            if i != j:
                pairs.append((int(i), int(j)))
        start, goal = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    size = mesh.size()
    route = _route(mesh)
    hops = np.empty(len(start), dtype=np.int64)
    lengths = np.empty(len(start))
    for lo in range(0, len(start), _PATH_BLOCK):
        block = slice(lo, lo + _PATH_BLOCK)
        paths = _paths(mesh, route, start[block], goal[block], size)
        hops[block] = (paths >= 0).sum(axis=1) - 1
        lengths[block] = _lengths(mesh.sites, paths)
    dist = geometry.distances(mesh.sites[start], mesh.sites[goal])
    return PathConstants(c_count=float(np.max(hops * size / dist)),
                         c_length=float(np.max(lengths / dist)),
                         n_pairs=len(start))


@dataclass(frozen=True)
class HolderModulus:
    value: float
    bound: float
    ratio: float


def l2_holder_modulus(mesh: Mesh, f, h, m, pi,
                      kind: str = "logarithmic") -> HolderModulus:
    """Exact shifted-difference mass of a piecewise-constant field.

    Computes sum over all cell pairs of |K ∩ (L + h)| (f(L) - f(K))^2,
    the overlap form of the squared L2 increment of Q_T f, and compares it
    with (|h| (|h| v [T]) / k) F_T(f) where k is the density lower bound.
    """
    ff = np.asarray(f, dtype=float)
    hv = np.atleast_1d(np.asarray(h, dtype=float))
    h_norm = float(np.linalg.norm(hv))
    if h_norm >= mesh.domain.diameter:
        raise ValueError("the shift must be shorter than the domain diameter")
    value = 0.0
    if h_norm > 0.0:
        polys, counts = mesh.padded_polygons()
        boxes = np.empty((mesh.n_cells, 2, mesh.dim))       # per cell: lo, hi
        for cells, stack in mesh.polygon_groups:
            boxes[cells, 0], boxes[cells, 1] = stack.min(axis=1), stack.max(axis=1)
        lo_shift, hi_shift = boxes[:, 0] + hv, boxes[:, 1] + hv
        for lo in range(0, mesh.n_cells, _PATH_BLOCK):
            block = slice(lo, lo + _PATH_BLOCK)
            # pairs (i, j), in that order, whose shifted box of cell j
            # can overlap cell i
            meets = ((ff != ff[block, None])
                     & ~np.any(lo_shift >= boxes[block, None, 1], axis=2)
                     & ~np.any(hi_shift <= boxes[block, None, 0], axis=2))
            i, j = np.nonzero(meets)
            i += lo
            # |K_i ∩ (K_j + h)|
            olap = geometry.overlap_area(polys[i], counts[i], polys[j] + hv, counts[j])
            df = ff[j] - ff[i]
            for term in (olap * df * df)[olap > 0.0].tolist():
                value += term
    mm = _masses(m)
    pp = _masses(pi)
    k_lower = float((mm / pp).min())
    if k_lower <= 0.0:
        raise ValueError("density lower bound must be positive")
    size = mesh.size()
    energy = dirichlet_energy(mesh, ff, mm, kind=kind)
    bound = h_norm * max(h_norm, size) / k_lower * energy
    ratio = value / bound if bound > 0.0 else (0.0 if value == 0.0 else float("inf"))
    return HolderModulus(value=value, bound=bound, ratio=ratio)
