"""The lockstep good-path walk against a transcription of the per-pair walk.

`_reference_*` below is the one-pair segment walk as it stood before the
walks were batched: its own copy of the segment parameters, a list-of-tuples
adjacency, one walk per target shift and a breadth-first fallback.  The
batched walk must give the same cells and the same length bits on every
pair, and `path_constants` the same three fields.
"""
import numpy as np
import pytest

import gradflow as gf
from gradflow import diagnostics
from gradflow.experiments import _jittered_sites, flattened_voronoi_family


def _reference_segment_params(p, q, a, b):
    d1 = q - p
    d2 = b - a
    den = d1[0] * d2[:, 1] - d1[1] * d2[:, 0]
    scale = (abs(d1[0]) + abs(d1[1])) * (np.abs(d2[:, 0]) + np.abs(d2[:, 1]))
    parallel = np.abs(den) <= 1e-14 * np.maximum(scale, 1e-300)
    den = np.where(parallel, np.nan, den)
    r = a - p
    t = (r[:, 0] * d2[:, 1] - r[:, 1] * d2[:, 0]) / den
    u = (r[:, 0] * d1[1] - r[:, 1] * d1[0]) / den
    return t, u


def _reference_adjacency(mesh):
    adj = [[] for _ in range(mesh.n_cells)]
    for f, (k, l) in enumerate(mesh.face_cells):
        adj[int(k)].append((f, int(l)))
        adj[int(l)].append((f, int(k)))
    return adj


def _reference_walk(mesh, adjacency, start, goal, target):
    ends = mesh.face_endpoints()
    p0 = mesh.sites[start]
    t_face, u_face = (params.tolist() for params in
                      _reference_segment_params(p0, target, ends[:, 0], ends[:, 1]))
    cells = [start]
    current = start
    t_cur = 0.0
    for _ in range(mesh.n_cells):
        if current == goal:
            return cells
        candidates = []
        for f, nb in adjacency[current]:
            t, u = t_face[f], u_face[f]
            if t != t:
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
            if ties > 1 or best_u < 1e-12 or best_u > 1.0 - 1e-12:
                return None
        if best_nb is None:
            for _, nb in adjacency[current]:
                if nb == goal:
                    cells.append(goal)
                    return cells
            return None
        cells.append(best_nb)
        current, t_cur = best_nb, best_t
    return cells if current == goal else None


def _reference_bfs(adjacency, start, goal):
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


def _reference_good_path(mesh, adjacency, start, goal, retries=12):
    """(cells, length, attempt): attempt -1 marks the breadth-first chain."""
    size = mesh.size()
    direction = mesh.sites[goal] - mesh.sites[start]
    norm = float(np.hypot(direction[0], direction[1]))
    perp = (np.array([-direction[1], direction[0]]) / norm if norm > 0.0
            else np.array([1.0, 0.0]))
    cells, used = None, -1
    for attempt in range(retries + 1):
        shift = 0.0
        if attempt:
            magnitude = 1e-9 * size * ((attempt + 1) // 2)
            shift = magnitude if attempt % 2 else -magnitude
        cells = _reference_walk(mesh, adjacency, start, goal,
                                mesh.sites[goal] + shift * perp)
        if cells is not None:
            used = attempt
            break
    if cells is None:
        cells = _reference_bfs(adjacency, start, goal)
    if cells is None:
        raise ValueError("mesh graph is disconnected")
    hops = np.diff(mesh.sites[list(cells)], axis=0)
    length = float(np.cumsum(np.sqrt((hops * hops).sum(axis=1)))[-1])
    return tuple(int(c) for c in cells), length, used


def _reference_path_constants(mesh, pairs, paths):
    size = mesh.size()
    c_count = 0.0
    c_length = 0.0
    for (i, j), (cells, length, _) in zip(pairs, paths):
        dist = float(np.linalg.norm(mesh.sites[i] - mesh.sites[j]))
        c_count = max(c_count, (len(cells) - 1) * size / dist)
        c_length = max(c_length, length / dist)
    return diagnostics.PathConstants(c_count=c_count, c_length=c_length,
                                     n_pairs=len(pairs))


def _sampled_pairs(n, sample, seed):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < sample:
        i, j = rng.integers(0, n, size=2)
        if i != j:
            pairs.append((int(i), int(j)))
    return pairs


def _unit_square():
    return gf.Domain.rectangle(0.0, 0.0, 1.0, 1.0)


MESHES = {
    "jittered-42": lambda: gf.build_voronoi_mesh(_jittered_sites(10, 0.35, 42),
                                                 _unit_square()),
    "jittered-7": lambda: gf.build_voronoi_mesh(_jittered_sites(10, 0.35, 7),
                                                _unit_square()),
    "cartesian-6": lambda: gf.build_cartesian_mesh(6, 6),
    "flattened-64": lambda: flattened_voronoi_family(sizes=(64,)).build()[0],
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def walked(request):
    """A mesh, all its ordered pairs and the reference paths of each."""
    mesh = MESHES[request.param]()
    adjacency = _reference_adjacency(mesh)
    pairs = [(i, j) for i in range(mesh.n_cells) for j in range(mesh.n_cells)
             if i != j]
    paths = [_reference_good_path(mesh, adjacency, i, j) for i, j in pairs]
    return request.param, mesh, pairs, paths


def _batched(mesh, pairs):
    """Cells and lengths of the lockstep walk, _PATH_BLOCK pairs at a time."""
    start, goal = np.array(pairs, dtype=np.int64).T
    padded = mesh.face_graph().padded()
    cells, lengths = [], []
    for lo in range(0, len(pairs), diagnostics._PATH_BLOCK):
        block = slice(lo, lo + diagnostics._PATH_BLOCK)
        paths = diagnostics._paths_2d(mesh, padded, start[block], goal[block],
                                      mesh.size())
        cells += [tuple(row[row >= 0].tolist()) for row in paths]
        lengths += diagnostics._lengths(mesh.sites, paths).tolist()
    return cells, lengths


class TestLockstepWalk:
    def test_cells_and_lengths_match_the_reference(self, walked):
        _, mesh, pairs, paths = walked
        cells, lengths = _batched(mesh, pairs)
        assert cells == [path[0] for path in paths]
        assert lengths == [path[1] for path in paths]

    def test_good_path_matches_the_reference(self, walked):
        _, mesh, pairs, paths = walked
        for (i, j), (cells, length, _) in list(zip(pairs, paths))[::37]:
            path = gf.good_path(mesh, i, j)
            assert path.cells == cells
            assert path.length == length

    def test_path_constants_match_the_reference(self, walked):
        _, mesh, pairs, paths = walked
        upper = [(pair, path) for pair, path in zip(pairs, paths)
                 if pair[0] < pair[1]]
        want = _reference_path_constants(mesh, [p for p, _ in upper],
                                         [path for _, path in upper])
        got = gf.path_constants(mesh)
        assert (got.c_count, got.c_length, got.n_pairs) \
            == (want.c_count, want.c_length, want.n_pairs)

    def test_shifted_targets_are_exercised(self, walked):
        # diagonal pairs of the cartesian grid hit vertices, so some walks
        # only succeed on a shifted target
        name, _, _, paths = walked
        attempts = {path[2] for path in paths}
        if name == "cartesian-6":
            assert max(attempts) >= 1
        assert -1 not in attempts

    def test_blocks_of_every_size_agree(self, monkeypatch):
        mesh = gf.build_cartesian_mesh(6, 6)   # 630 pairs
        want = gf.path_constants(mesh)
        for block in (1, 11, 64, 630, 1000):
            monkeypatch.setattr(diagnostics, "_PATH_BLOCK", block)
            assert gf.path_constants(mesh) == want

    def test_breadth_first_fallback(self, monkeypatch):
        mesh = gf.build_cartesian_mesh(6, 6)
        adjacency = _reference_adjacency(mesh)
        pairs = [(i, j) for i in range(36) for j in range(36) if i != j]
        paths = [_reference_good_path(mesh, adjacency, i, j, retries=0)
                 for i, j in pairs]
        assert any(path[2] == -1 for path in paths)
        monkeypatch.setattr(diagnostics, "_WALK_RETRIES", 0)
        cells, lengths = _batched(mesh, pairs)
        assert cells == [path[0] for path in paths]
        assert lengths == [path[1] for path in paths]
        for (i, j), path in zip(pairs, paths):
            if path[2] == -1:
                assert gf.good_path(mesh, i, j).cells == path[0]
                break

    def test_sampled_pairs_above_the_limit(self, monkeypatch):
        mesh = gf.build_cartesian_mesh(16, 16)
        assert mesh.n_cells > diagnostics.PATH_SAMPLE_LIMIT
        pairs = _sampled_pairs(mesh.n_cells, 300, 5)
        adjacency = _reference_adjacency(mesh)
        paths = [_reference_good_path(mesh, adjacency, i, j) for i, j in pairs]
        want = _reference_path_constants(mesh, pairs, paths)
        monkeypatch.setattr(diagnostics, "PATH_SAMPLE_COUNT", 300)
        monkeypatch.setattr(diagnostics, "PATH_SEED", 5)
        got = gf.path_constants(mesh)
        assert got == want
        assert got.n_pairs == 300

    def test_final_hop_to_an_adjacent_goal(self, monkeypatch):
        # the middle site sits on its left face: walking from it towards
        # cell 0, the segment leaves no face of cell 1 after t = 0, so the
        # walk ends with the final hop across that face, not in the
        # breadth-first fallback
        grid = gf.build_cartesian_mesh(3, 1)
        sites = grid.sites.copy()
        sites[1, 0] = 1.0 / 3.0
        k, l = grid.face_cells[:, 0], grid.face_cells[:, 1]
        mesh = gf.Mesh(2, grid.domain, sites, grid.volumes,
                       cell_polygons=grid.cell_polygons,
                       face_cells=grid.face_cells, face_areas=grid.face_areas,
                       face_dists=np.linalg.norm(sites[k] - sites[l], axis=1),
                       face_endpoints=grid.face_endpoints())
        mesh.validate()
        adjacency = _reference_adjacency(mesh)
        pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
        paths = [_reference_good_path(mesh, adjacency, i, j) for i, j in pairs]
        assert [path[2] for path in paths] == [0] * 6
        monkeypatch.setattr(diagnostics, "_bfs_chain", None)
        assert _batched(mesh, pairs) == ([p[0] for p in paths], [p[1] for p in paths])
        assert gf.good_path(mesh, 1, 0).cells == (1, 0)
        assert gf.good_path(mesh, 2, 0).cells == (2, 1, 0)

    def test_disconnected_mesh_raises(self):
        grid = gf.build_cartesian_mesh(3, 1)
        keep = [f for f, (k, l) in enumerate(grid.face_cells.tolist())
                if {k, l} != {1, 2}]
        mesh = gf.Mesh(2, grid.domain, grid.sites, grid.volumes,
                       cell_polygons=grid.cell_polygons,
                       face_cells=grid.face_cells[keep],
                       face_areas=grid.face_areas[keep],
                       face_dists=grid.face_dists[keep],
                       face_endpoints=grid.face_endpoints()[keep])
        assert gf.good_path(mesh, 0, 1).cells == (0, 1)
        with pytest.raises(ValueError, match="mesh graph is disconnected"):
            gf.good_path(mesh, 0, 2)
        with pytest.raises(ValueError, match="mesh graph is disconnected"):
            gf.path_constants(mesh)

    def test_mesh_without_faces_is_disconnected(self):
        # a zero-width face graph: the walk reaches nothing, so the
        # breadth-first fallback names the mesh disconnected
        grid = gf.build_cartesian_mesh(2, 1)
        mesh = gf.Mesh(2, grid.domain, grid.sites, grid.volumes,
                       cell_polygons=grid.cell_polygons)
        assert mesh.face_graph().padded()[0].shape == (2, 0)
        with pytest.raises(ValueError, match="mesh graph is disconnected"):
            gf.good_path(mesh, 0, 1)
        with pytest.raises(ValueError, match="mesh graph is disconnected"):
            gf.path_constants(mesh)

    def test_one_size_call_per_path_constants(self, monkeypatch):
        mesh = MESHES["jittered-42"]()
        calls = []
        size = gf.Mesh.size
        monkeypatch.setattr(gf.Mesh, "size",
                            lambda self: calls.append(1) or size(self))
        monkeypatch.setattr(diagnostics, "good_path", None)   # not called
        gf.path_constants(mesh)
        assert len(calls) == 1
