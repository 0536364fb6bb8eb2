import math

import numpy as np
import pytest

import gradflow as gf
from gradflow import geometry
from gradflow.experiments import _jittered_sites
from gradflow.mesh import MeshError, Domain, Mesh, cells_meeting


class TestIntervalMesh:
    def test_uniform_split(self):
        mesh = gf.build_interval_mesh(2)
        assert np.allclose(mesh.cell_bounds, [[0.0, 0.5], [0.5, 1.0]])
        assert np.allclose(mesh.sites.ravel(), [0.25, 0.75])
        assert mesh.n_faces == 1
        assert mesh.face_dists[0] == 0.5
        assert mesh.face_areas[0] == 1.0

    def test_single_cell(self):
        mesh = gf.build_interval_mesh(1)
        assert mesh.n_cells == 1
        assert mesh.n_faces == 0

    def test_graded_breakpoints(self):
        # midpoints 0.05, 0.2, 0.45, 0.8 -> gaps 0.15, 0.25, 0.35
        mesh = gf.build_interval_mesh(4, breakpoints=[0.0, 0.1, 0.3, 0.6, 1.0])
        assert np.allclose(mesh.face_dists, [0.15, 0.25, 0.35])

    def test_breakpoints_callable(self):
        mesh = gf.build_interval_mesh(4, breakpoints=lambda i: (i / 4.0) ** 2)
        assert mesh.volumes[0] == pytest.approx(1 / 16)

    def test_non_monotone_rejected_with_index(self):
        with pytest.raises(MeshError, match="index 2"):
            gf.build_interval_mesh(3, breakpoints=[0.0, 0.5, 0.4, 1.0])

    def test_bad_count_rejected(self):
        with pytest.raises(MeshError):
            gf.build_interval_mesh(3, breakpoints=[0.0, 1.0])


class TestCartesianMesh:
    def test_two_by_one(self):
        mesh = gf.build_cartesian_mesh(2, 1)
        assert mesh.n_faces == 1
        assert mesh.face_areas[0] == 1.0
        assert mesh.face_dists[0] == 0.5

    def test_three_by_three_faces(self):
        mesh = gf.build_cartesian_mesh(3, 3)
        assert mesh.n_faces == 12  # 2 * 3 * 2 interior faces
        assert np.allclose(mesh.face_areas, 1 / 3)
        assert np.allclose(mesh.face_dists, 1 / 3)

    def test_single_cell(self):
        mesh = gf.build_cartesian_mesh(1, 1)
        assert mesh.n_faces == 0

    def test_degenerate_rectangle(self):
        with pytest.raises(MeshError):
            gf.build_cartesian_mesh(2, 2, rect=(0.0, 0.0, 0.0, 1.0))


class TestVoronoiMesh:
    def test_two_site_bisector(self):
        mesh = gf.build_voronoi_mesh([[0.25, 0.5], [0.75, 0.5]],
                                     Domain.rectangle(0, 0, 1, 1))
        assert mesh.n_faces == 1
        assert mesh.face_areas[0] == pytest.approx(1.0, abs=1e-12)
        assert mesh.face_dists[0] == pytest.approx(0.5, abs=1e-15)

    def test_single_site_whole_domain(self):
        mesh = gf.build_voronoi_mesh([[0.3, 0.6]], Domain.rectangle(0, 0, 1, 1))
        assert mesh.n_cells == 1
        assert mesh.volumes[0] == pytest.approx(1.0, abs=1e-12)

    def test_quadrant_centers_recover_cartesian(self):
        sites = [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]]
        mesh = gf.build_voronoi_mesh(sites, Domain.rectangle(0, 0, 1, 1))
        assert mesh.n_faces == 4
        assert np.allclose(mesh.face_areas, 0.5)
        assert np.allclose(mesh.face_dists, 0.5)
        assert np.allclose(np.sort(mesh.volumes), 0.25)

    def test_duplicate_sites_rejected(self):
        with pytest.raises(MeshError, match="duplicate"):
            gf.build_voronoi_mesh([[0.5, 0.5], [0.5, 0.5]],
                                  Domain.rectangle(0, 0, 1, 1))

    def test_outside_site_rejected(self):
        with pytest.raises(MeshError, match="outside"):
            gf.build_voronoi_mesh([[0.5, 0.5], [1.5, 0.5]],
                                  Domain.rectangle(0, 0, 1, 1))

    def test_one_dimensional_sites(self):
        mesh = gf.build_voronoi_mesh(np.array([[0.2], [0.5], [0.9]]),
                                     Domain.interval(0.0, 1.0))
        assert mesh.n_cells == 3
        assert mesh.volumes.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(sorted(mesh.face_dists), [0.3, 0.4])

    def test_hexagon_domain(self):
        angles = np.pi / 3 * np.arange(6)
        hexagon = np.column_stack([np.cos(angles), np.sin(angles)])
        rng = np.random.default_rng(9)
        sites = rng.uniform(-0.4, 0.4, size=(10, 2))
        mesh = gf.build_voronoi_mesh(sites, Domain.polygon(hexagon))
        assert mesh.volumes.sum() == pytest.approx(mesh.domain.volume,
                                                   rel=1e-12)
        rep = gf.regularity_report(mesh)
        assert 0.0 < rep.zeta <= 1.0

    def test_orthogonality_all_faces(self):
        rng = np.random.default_rng(3)
        sites = rng.uniform(0.08, 0.92, size=(24, 2))
        mesh = gf.build_voronoi_mesh(sites, Domain.rectangle(0, 0, 1, 1))
        tau = mesh.face_tau()
        ends = mesh.face_endpoints()
        tangents = ends[:, 1] - ends[:, 0]
        tangents /= np.linalg.norm(tangents, axis=1)[:, None]
        assert np.abs(np.einsum("fi,fi->f", tau, tangents)).max() <= 1e-9


class TestCachedGeometry:
    def _meshes(self):
        rng = np.random.default_rng(4)
        return [gf.build_interval_mesh(5, breakpoints=[0.0, 0.1, 0.3, 0.6, 0.8, 1.0]),
                gf.build_cartesian_mesh(3, 2),
                gf.build_voronoi_mesh(rng.uniform(0.1, 0.9, size=(12, 2)),
                                      Domain.rectangle(0, 0, 1, 1))]

    def test_cell_diameters_read_only_and_cached(self):
        for mesh in self._meshes():
            diam = mesh.cell_diameters()
            assert not diam.flags.writeable
            with pytest.raises(ValueError):
                diam[0] = 0.0
            assert mesh.cell_diameters() is diam

    def test_cell_diameters_match_polygon_diameter(self):
        for mesh in self._meshes():
            if mesh.dim == 1:
                want = mesh.cell_bounds[:, 1] - mesh.cell_bounds[:, 0]
            else:
                want = [geometry.polygon_diameter(p) for p in mesh.cell_polygons]
            assert mesh.cell_diameters().tolist() == list(want)
            assert mesh.size() == max(want)

    def test_size_survives_round_trip(self, tmp_path):
        for k, mesh in enumerate(self._meshes()):
            path = tmp_path / f"mesh{k}.txt"
            mesh.write(path)
            assert Mesh.read(path).size() == mesh.size()


class TestFaceGraph:
    def _meshes(self):
        return TestCachedGeometry()._meshes() + [
            gf.build_voronoi_mesh(_jittered_sites(10, 0.35, 42),
                                  Domain.rectangle(0, 0, 1, 1)),
            gf.build_interval_mesh(1)]

    @staticmethod
    def _reference_adjacency(mesh):
        # the list-of-tuples loop the CSR arrays replace
        adj = [[] for _ in range(mesh.n_cells)]
        for f, (k, l) in enumerate(mesh.face_cells):
            adj[int(k)].append((f, int(l)))
            adj[int(l)].append((f, int(k)))
        return adj

    def test_adjacency_as_the_loop(self):
        for mesh in self._meshes():
            assert mesh.adjacency() == self._reference_adjacency(mesh)

    def test_csr_rows_in_face_order(self):
        for mesh in self._meshes():
            graph = mesh.face_graph()
            assert graph.indptr[0] == 0 and graph.indptr[-1] == 2 * mesh.n_faces
            for k, row in enumerate(self._reference_adjacency(mesh)):
                lo, hi = graph.indptr[k], graph.indptr[k + 1]
                assert graph.faces[lo:hi].tolist() == [f for f, _ in row]
                assert graph.neighbours[lo:hi].tolist() == [nb for _, nb in row]

    def test_padded_rows(self):
        for mesh in self._meshes():
            faces, neighbours = mesh.face_graph().padded()
            adjacency = self._reference_adjacency(mesh)
            width = max((len(row) for row in adjacency), default=0)
            assert faces.shape == neighbours.shape == (mesh.n_cells, width)
            for k, row in enumerate(adjacency):
                pad = [-1] * (width - len(row))
                assert faces[k].tolist() == [f for f, _ in row] + pad
                assert neighbours[k].tolist() == [nb for _, nb in row] + pad

    def test_built_lazily_once_and_frozen(self):
        mesh = gf.build_cartesian_mesh(3, 2)
        assert mesh._face_graph is None            # not built by the constructor
        graph = mesh.face_graph()
        assert mesh.face_graph() is graph
        for arr in (graph.indptr, graph.faces, graph.neighbours):
            assert not arr.flags.writeable
            assert arr.dtype == np.int64


class TestInvariants:
    def test_volume_partition_all_generators(self):
        rng = np.random.default_rng(11)
        meshes = [
            gf.build_interval_mesh(7, breakpoints=np.sort(
                np.concatenate([[0.0, 1.0], rng.uniform(0.05, 0.95, 6)]))),
            gf.build_cartesian_mesh(5, 3, rect=(0, 0, 2, 1)),
            gf.build_voronoi_mesh(rng.uniform(0.1, 0.9, size=(15, 2)),
                                  Domain.rectangle(0, 0, 1, 1)),
        ]
        for mesh in meshes:
            assert abs(mesh.volumes.sum() - mesh.domain.volume) \
                <= 1e-10 * mesh.domain.volume

    def test_face_pairs_unique(self):
        mesh = gf.build_cartesian_mesh(4, 4)
        pairs = {tuple(sorted(p)) for p in map(tuple, mesh.face_cells)}
        assert len(pairs) == mesh.n_faces

    def test_regularity_rigid_motion_invariant(self):
        rng = np.random.default_rng(5)
        sites = rng.uniform(0.15, 0.85, size=(12, 2))
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        mesh = gf.build_voronoi_mesh(sites, Domain.polygon(square))
        theta = 0.7
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        shift = np.array([0.3, -1.2])
        moved = gf.build_voronoi_mesh(sites @ rot.T + shift,
                                      Domain.polygon(square @ rot.T + shift))
        a = gf.regularity_report(mesh)
        b = gf.regularity_report(moved)
        assert a.zeta_inner == pytest.approx(b.zeta_inner, abs=1e-9)
        assert a.zeta_area == pytest.approx(b.zeta_area, abs=1e-9)
        assert a.mesh_size == pytest.approx(b.mesh_size, abs=1e-9)


class TestRegularityReport:
    def test_uniform_interval(self):
        mesh = gf.build_interval_mesh(8)
        rep = gf.regularity_report(mesh)
        assert rep.mesh_size == pytest.approx(1 / 8)
        assert rep.zeta_inner == pytest.approx(0.5)
        assert rep.zeta_area == pytest.approx(8.0 / 8.0 ** 1.0) or True
        assert rep.zeta_area == pytest.approx(1.0)

    def test_cartesian_inner_ratio(self):
        mesh = gf.build_cartesian_mesh(6, 6)
        rep = gf.regularity_report(mesh)
        assert rep.mesh_size == pytest.approx(math.sqrt(2) / 6)
        assert rep.zeta_inner == pytest.approx(1 / (2 * math.sqrt(2)))

    def test_single_cell_area_convention(self):
        rep = gf.regularity_report(gf.build_interval_mesh(1))
        assert rep.zeta_area == 1.0
        assert 0.0 < rep.zeta <= 1.0


class TestIsotropyDefect:
    def test_uniform_interval_interior_zero(self, chain10):
        mesh, _, pi, weights = chain10
        defects = gf.isotropy_defect(mesh, weights, pi)
        # interior: half-sum of two neighbour contributions equals pi(K)
        assert np.all(defects[1:-1] <= 1e-13)
        # boundary cells sit on the low side of the inequality
        assert defects[0] <= 1e-13 and defects[-1] <= 1e-13

    def test_cartesian_zero_everywhere(self, grid4):
        mesh, _, pi, weights = grid4
        assert gf.isotropy_defect(mesh, weights, pi).max() <= 1e-12

    def test_zero_reference_rejected(self, two_cell):
        mesh, _, _, weights = two_cell
        with pytest.raises(ValueError):
            gf.isotropy_defect(mesh, weights, np.array([1.0, 0.0]))


class TestMeshFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        mesh = gf.build_voronoi_mesh(rng.uniform(0.1, 0.9, size=(9, 2)),
                                     Domain.rectangle(0, 0, 1, 1))
        path = tmp_path / "mesh.txt"
        mesh.write(path)
        back = gf.Mesh.read(path)
        assert np.array_equal(back.sites, mesh.sites)
        assert np.array_equal(back.volumes, mesh.volumes)
        assert np.array_equal(back.face_cells, mesh.face_cells)
        assert np.array_equal(back.face_areas, mesh.face_areas)
        assert np.array_equal(back.face_dists, mesh.face_dists)
        # a second write is byte-identical
        path2 = tmp_path / "mesh2.txt"
        back.write(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_round_trip_1d(self, tmp_path):
        mesh = gf.build_interval_mesh(5, breakpoints=[0, 0.1, 0.35, 0.5, 0.8, 1.0])
        path = tmp_path / "m.txt"
        mesh.write(path)
        back = gf.Mesh.read(path)
        assert np.array_equal(back.cell_bounds, mesh.cell_bounds)

    def test_reject_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a mesh\n")
        with pytest.raises(MeshError):
            gf.Mesh.read(path)


class TestValidateErrors:
    def test_duplicate_face_pair_rejected(self):
        mesh = gf.Mesh(1, Domain.interval(0.0, 1.0),
                       sites=np.array([[0.25], [0.75]]),
                       volumes=np.array([0.5, 0.5]),
                       cell_bounds=np.array([[0.0, 0.5], [0.5, 1.0]]),
                       face_cells=np.array([[0, 1], [1, 0]]),
                       face_areas=np.array([1.0, 1.0]),
                       face_dists=np.array([0.5, 0.5]))
        with pytest.raises(MeshError, match="duplicate"):
            mesh.validate()

    def test_volume_mismatch_rejected(self):
        mesh = gf.Mesh(1, Domain.interval(0.0, 1.0),
                       sites=np.array([[0.25], [0.7]]),
                       volumes=np.array([0.5, 0.4]),
                       cell_bounds=np.array([[0.0, 0.5], [0.5, 0.9]]),
                       face_cells=np.array([[0, 1]]),
                       face_areas=np.array([1.0]),
                       face_dists=np.array([0.45]))
        with pytest.raises(MeshError, match="volume"):
            mesh.validate()

    def test_site_outside_cell_rejected(self):
        mesh = gf.Mesh(1, Domain.interval(0.0, 1.0),
                       sites=np.array([[0.6], [0.75]]),
                       volumes=np.array([0.5, 0.5]),
                       cell_bounds=np.array([[0.0, 0.5], [0.5, 1.0]]),
                       face_cells=np.array([[0, 1]]),
                       face_areas=np.array([1.0]),
                       face_dists=np.array([0.15]))
        with pytest.raises(MeshError, match="site"):
            mesh.validate()


class TestConstructorDefaults:
    def test_one_cell_meshes_need_no_face_arguments(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
        meshes = [gf.Mesh(1, Domain.interval(0.0, 1.0), [[0.5]], [1.0],
                          cell_bounds=[[0.0, 1.0]]),
                  gf.Mesh(2, Domain.polygon(square), [[0.5, 0.5]], [1.0],
                          cell_polygons=[square])]
        for mesh in meshes:
            mesh.validate()
            assert mesh.n_faces == 0
            assert mesh.face_cells.shape == (0, 2)
            assert mesh.face_cells.dtype == np.int64
            assert mesh.face_areas.shape == mesh.face_dists.shape == (0,)

    def test_faces_without_their_measures_rejected(self):
        with pytest.raises(ValueError):
            gf.Mesh(1, Domain.interval(0.0, 1.0), [[0.25], [0.75]], [0.5, 0.5],
                    cell_bounds=[[0.0, 0.5], [0.5, 1.0]], face_cells=[[0, 1]])

    def test_1d_mesh_without_cell_bounds_rejected(self):
        with pytest.raises(MeshError, match=r"cell_bounds of shape \(2, 2\).*got None"):
            gf.Mesh(1, Domain.interval(0.0, 1.0), [[0.25], [0.75]], [0.5, 0.5],
                    face_cells=[[0, 1]], face_areas=[1.0], face_dists=[0.5])

    def test_volumes_of_another_length_rejected(self):
        # three volumes summing to the domain's would pass validate
        with pytest.raises(MeshError, match=r"volumes has shape \(3,\), expected \(2,\)"):
            gf.Mesh(1, Domain.interval(0.0, 1.0), [[0.25], [0.75]], [0.5, 0.25, 0.25],
                    cell_bounds=[[0.0, 0.5], [0.5, 1.0]])

    def test_2d_mesh_without_cell_polygons_rejected(self):
        with pytest.raises(MeshError, match="cell_polygons, one polygon per site: "
                                            "expected 1, got None"):
            gf.Mesh(2, Domain.rectangle(0.0, 0.0, 1.0, 1.0), [[0.5, 0.5]], [1.0])

    @pytest.mark.parametrize("name", ["face_areas", "face_dists", "face_endpoints"])
    def test_face_arrays_of_another_length_rejected(self, name):
        faces = {"face_cells": [[0, 1]], "face_areas": [1.0], "face_dists": [0.5],
                 "face_endpoints": [[[0.5, 0.0], [0.5, 1.0]]]}
        faces[name] = faces[name] * 2
        shape = r"\(1, 2, 2\)" if name == "face_endpoints" else r"\(1,\)"
        with pytest.raises(MeshError, match=rf"{name} has shape .* lists 1 faces: "
                                            rf"expected shape {shape}"):
            gf.Mesh(2, Domain.rectangle(0.0, 0.0, 1.0, 1.0), [[0.25, 0.5], [0.75, 0.5]],
                    [0.5, 0.5], cell_polygons=[[[0.0, 0.0], [0.5, 0.0], [0.5, 1.0], [0.0, 1.0]],
                                               [[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 1.0]]],
                    **faces)


class TestQuadratureOrder:
    @pytest.mark.parametrize("order", [0, -5, 4, 7])
    def test_2d_order_outside_the_rules_rejected(self, order):
        mesh = gf.build_cartesian_mesh(2, 2)
        with pytest.raises(ValueError, match="use None, 1, 2 or 3"):
            mesh.quadrature(order)

    def test_2d_orders_accepted(self):
        mesh = gf.build_cartesian_mesh(2, 2)
        counts = [len(mesh.quadrature(order).nodes) for order in (None, 1, 2, 3)]
        assert counts == [16, 16, 48, 112]


class TestRegionSelection:
    def test_open_interval_rule(self):
        mesh = gf.build_interval_mesh(4)
        mask = cells_meeting(mesh, (0.0, 0.5))
        # the cell [1/2, 3/4] touches (0, 1/2) only at the excluded endpoint
        assert mask.tolist() == [True, True, False, False]

    def test_whole_domain_none(self, grid4):
        mesh = grid4[0]
        assert cells_meeting(mesh, None).all()
