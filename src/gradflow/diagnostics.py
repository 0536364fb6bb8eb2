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
from .functionals import _masses, dirichlet_energy
from .mesh import Mesh, cell_box_overlap, cells_meeting
from .dynamics import Trajectory

PATH_SAMPLE_LIMIT = 200
PATH_SAMPLE_COUNT = 10_000
PATH_SEED = 42
_WALK_RETRIES = 12


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
    fc = mesh.face_cells
    osc = float(np.abs(r[fc[:, 0]] - r[fc[:, 1]]).max()) if len(fc) else 0.0
    profile: list[PointwiseRow] = []
    for center in cube_centers:
        for eps in eps_list:
            box = Box.from_center(center, eps)
            overlaps = np.array([cell_box_overlap(mesh, k, box)
                                 for k in range(mesh.n_cells)])
            keep = overlaps > 1e-14 * mesh.volumes
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


def _chain_1d(mesh: Mesh, start: int, goal: int) -> GoodPath:
    order = np.argsort(mesh.cell_bounds[:, 0], kind="stable")
    pos = np.empty(mesh.n_cells, dtype=np.int64)
    pos[order] = np.arange(mesh.n_cells)
    step = 1 if pos[goal] > pos[start] else -1
    cells = [int(order[p]) for p in range(pos[start], pos[goal] + step, step)]
    length = float(sum(abs(mesh.sites[cells[i + 1], 0] - mesh.sites[cells[i], 0])
                       for i in range(len(cells) - 1)))
    return GoodPath(cells=tuple(cells), length=length)


def _walk_2d(mesh: Mesh, start: int, goal: int, target: np.ndarray):
    """Follow the site segment, crossing the face it exits at each cell."""
    adjacency = mesh.adjacency()
    ends = mesh.face_endpoints()
    p0 = mesh.sites[start]
    t_face, u_face = (params.tolist() for params in
                      geometry.segment_params(p0, target, ends[:, 0], ends[:, 1]))
    cells = [start]
    current = start
    t_cur = 0.0
    for _ in range(mesh.n_cells):
        if current == goal:
            return cells
        candidates = []
        for f, nb in adjacency[current]:
            t, u = t_face[f], u_face[f]
            if t != t:  # parallel to the face
                continue
            if t <= t_cur + 1e-12 or t > 1.0 + 1e-9:
                continue
            if u < -1e-9 or u > 1.0 + 1e-9:
                continue
            candidates.append((t, u, nb))
        best_nb = None
        if candidates:
            candidates.sort(key=lambda c: (c[0], c[2]))
            best_t, best_u, best_nb = candidates[0]
            ties = sum(1 for c in candidates if abs(c[0] - best_t) <= 1e-12)
            # a vertex exit: ambiguous crossing or the winner grazes a face
            # endpoint; the window sits well below the 1e-9 [T] target
            # perturbation, so one retry reliably clears it
            if ties > 1 or best_u < 1e-12 or best_u > 1.0 - 1e-12:
                return None
        if best_nb is None:
            # segment exhausted inside this cell: accept a final hop to an
            # adjacent goal (the perturbed target may sit across the face)
            for _, nb in adjacency[current]:
                if nb == goal:
                    cells.append(goal)
                    return cells
            return None
        cells.append(best_nb)
        current, t_cur = best_nb, best_t
    return cells if current == goal else None


def _bfs_chain(mesh: Mesh, start: int, goal: int):
    adjacency = mesh.adjacency()
    prev = {start: start}
    frontier = [start]
    while frontier:
        nxt = []
        for c in frontier:
            for _, nb in sorted(adjacency[c]):
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


def good_path(mesh: Mesh, start: int, goal: int) -> GoodPath:
    """Neighbour chain from `start` to `goal` by segment walking.

    The walk marches along the site segment and crosses, in each cell, the
    face the segment exits; vertex hits perturb the target deterministically
    and retry.  A breadth-first chain backs up pathological geometry so the
    result is always a valid path on a connected mesh.
    """
    if start == goal:
        return GoodPath(cells=(start,), length=0.0)
    if mesh.dim == 1:
        return _chain_1d(mesh, start, goal)
    size = mesh.size()
    direction = mesh.sites[goal] - mesh.sites[start]
    norm = float(np.hypot(direction[0], direction[1]))
    perp = (np.array([-direction[1], direction[0]]) / norm if norm > 0.0
            else np.array([1.0, 0.0]))
    cells = None
    for attempt in range(_WALK_RETRIES + 1):
        shift = 0.0
        if attempt:
            magnitude = 1e-9 * size * ((attempt + 1) // 2)
            shift = magnitude if attempt % 2 else -magnitude
        cells = _walk_2d(mesh, start, goal, mesh.sites[goal] + shift * perp)
        if cells is not None:
            break
    if cells is None:
        cells = _bfs_chain(mesh, start, goal)
    if cells is None:
        raise ValueError("mesh graph is disconnected")
    hops = np.diff(mesh.sites[list(cells)], axis=0)
    length = float(np.cumsum(np.sqrt((hops * hops).sum(axis=1)))[-1])  # in hop order
    return GoodPath(cells=tuple(int(c) for c in cells), length=length)


@dataclass(frozen=True)
class PathConstants:
    c_count: float
    c_length: float
    n_pairs: int


def path_constants(mesh: Mesh, sample: int = PATH_SAMPLE_COUNT,
                   seed: int = PATH_SEED) -> PathConstants:
    """Worst path-count and path-length ratios over sampled cell pairs.

    All ordered pairs are used up to PATH_SAMPLE_LIMIT cells; larger meshes
    sample `sample` pairs with a fixed-seed generator.
    """
    n = mesh.n_cells
    if n < 2:
        return PathConstants(0.0, 0.0, 0)
    if n <= PATH_SAMPLE_LIMIT:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        rng = np.random.default_rng(seed)
        pairs = []
        while len(pairs) < sample:
            i, j = rng.integers(0, n, size=2)
            if i != j:
                pairs.append((int(i), int(j)))
    size = mesh.size()
    c_count = 0.0
    c_length = 0.0
    for i, j in pairs:
        path = good_path(mesh, i, j)
        dist = float(np.linalg.norm(mesh.sites[i] - mesh.sites[j]))
        c_count = max(c_count, path.n * size / dist)
        c_length = max(c_length, path.length / dist)
    return PathConstants(c_count=c_count, c_length=c_length, n_pairs=len(pairs))


def _shift_overlap(mesh: Mesh, i: int, j: int, h: np.ndarray) -> float:
    """Measure of cell i intersected with (cell j + h)."""
    if mesh.dim == 1:
        lo_i, hi_i = mesh.cell_bounds[i]
        lo_j, hi_j = mesh.cell_bounds[j] + h[0]
        return max(0.0, min(hi_i, hi_j) - max(lo_i, lo_j))
    shifted = mesh.cell_polygons[j] + h[None, :]
    clipped = geometry.clip_convex(mesh.cell_polygons[i], shifted)
    if len(clipped) < 3:
        return 0.0
    return max(geometry.polygon_area(clipped), 0.0)


@dataclass(frozen=True)
class HolderModulus:
    value: float
    bound: float
    ratio: float


def l2_holder_modulus(mesh: Mesh, f, h, m, pi, region=None,
                      kind: str = "logarithmic") -> HolderModulus:
    """Exact shifted-difference mass of a piecewise-constant field.

    Computes sum over selected cell pairs of |K ∩ (L + h)| (f(L) - f(K))^2,
    the overlap form of the squared L2 increment of Q_T f, and compares it
    with (|h| (|h| v [T]) / k) F_T(f, A) where k is the density lower bound.
    """
    ff = np.asarray(f, dtype=float)
    hv = np.atleast_1d(np.asarray(h, dtype=float))
    h_norm = float(np.linalg.norm(hv))
    if h_norm >= mesh.domain.diameter:
        raise ValueError("the shift must be shorter than the domain diameter")
    keep = cells_meeting(mesh, region)
    idx = np.flatnonzero(keep)
    value = 0.0
    if h_norm > 0.0:
        if mesh.dim == 1:
            lo = mesh.cell_bounds[idx, 0]
            hi = mesh.cell_bounds[idx, 1]
            for a, i in enumerate(idx):
                o_lo = np.maximum(lo[a], lo + hv[0])
                o_hi = np.minimum(hi[a], hi + hv[0])
                olap = np.maximum(o_hi - o_lo, 0.0)
                df = ff[idx] - ff[i]
                value += float(np.sum(olap * df * df))
        else:
            boxes = np.array([[poly.min(axis=0), poly.max(axis=0)]
                              for poly in mesh.cell_polygons])
            lo_shift = boxes[idx, 0] + hv
            hi_shift = boxes[idx, 1] + hv
            for i in idx:
                lo_i, hi_i = boxes[i]
                # the shifted boxes of cells j that can overlap cell i
                meets = ((ff[idx] != ff[i]) & ~np.any(lo_shift >= hi_i, axis=1)
                         & ~np.any(hi_shift <= lo_i, axis=1))
                for j in idx[meets]:
                    olap = _shift_overlap(mesh, int(i), int(j), hv)
                    if olap > 0.0:
                        df = float(ff[j] - ff[i])
                        value += olap * df * df
    mm = _masses(m)
    pp = _masses(pi)
    k_lower = float((mm / pp).min())
    if k_lower <= 0.0:
        raise ValueError("density lower bound must be positive")
    size = mesh.size()
    energy = dirichlet_energy(mesh, ff, mm, kind=kind, region=region)
    bound = h_norm * max(h_norm, size) / k_lower * energy
    ratio = value / bound if bound > 0.0 else (0.0 if value == 0.0 else float("inf"))
    return HolderModulus(value=value, bound=bound, ratio=ratio)


@dataclass(frozen=True)
class FlowRegularityRow:
    t: float
    sup_density: float
    quotients: tuple


def flow_regularity_observed(trajectory: Trajectory, pi, mesh: Mesh,
                             exponents=(0.25, 0.5, 1.0)) -> list[FlowRegularityRow]:
    """Observed sup-density and Holder quotients along a trajectory (t > 0).

    Quotients max |r(K) - r(L)| / |x_K - x_L|^lam run over all site pairs up
    to 400 cells and over faces beyond that.  Recorded, never asserted.
    """
    pp = _masses(pi)
    n = mesh.n_cells
    if n <= 400:
        iu = np.triu_indices(n, k=1)
        dists = np.linalg.norm(mesh.sites[iu[0]] - mesh.sites[iu[1]], axis=1)
        keep = dists > 0.0
        pairs = (iu[0][keep], iu[1][keep])
        dists = dists[keep]
    else:
        pairs = (mesh.face_cells[:, 0], mesh.face_cells[:, 1])
        dists = mesh.face_dists
    rows: list[FlowRegularityRow] = []
    for i, t in enumerate(trajectory.times):
        if t <= 0.0:
            continue
        r = trajectory.masses[i] / pp
        dr = np.abs(r[pairs[0]] - r[pairs[1]])
        quots = tuple(float((dr / dists ** lam).max()) if len(dr) else 0.0
                      for lam in exponents)
        rows.append(FlowRegularityRow(t=float(t), sup_density=float(r.max()),
                                      quotients=quots))
    return rows
