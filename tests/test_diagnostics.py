import math

import numpy as np
import pytest

import gradflow as gf
from gradflow.diagnostics import (condition_report, good_path,
                                  l2_holder_modulus, path_constants)
from gradflow.geometry import Box
from gradflow.reference import DiscreteMeasure


class TestConditionReport:
    def test_stationary_is_trivial(self, grid4):
        mesh, _, pi, _ = grid4
        rep = condition_report(mesh, pi, pi)
        assert rep.k_lower == 1.0
        assert rep.k_upper == 1.0
        assert rep.neighbour_osc == 0.0

    def test_stationary_every_potential(self):
        from gradflow.reference import potential_from_token

        mesh = gf.build_interval_mesh(6)
        for token in ("zero", "linear:2.0", "double-well"):
            pot = potential_from_token(token, 1)
            pi = gf.discretize_reference(mesh, pot)
            rep = condition_report(mesh, pi, pi)
            assert rep.k_lower == rep.k_upper == 1.0
            assert rep.neighbour_osc == 0.0

    def test_two_cell_values(self, two_cell):
        mesh, _, pi, _ = two_cell
        m = DiscreteMeasure(np.array([0.75, 0.25]))
        rep = condition_report(mesh, m, pi)
        assert rep.k_lower == 0.5
        assert rep.k_upper == 1.5
        assert rep.neighbour_osc == 1.0

    def test_cube_with_single_cell(self):
        mesh = gf.build_interval_mesh(4)
        pi = gf.discretize_reference(mesh, gf.zero_potential())
        m = gf.project_measure(mesh, lambda x: 2.0 * x)
        rep = condition_report(mesh, m, pi, cube_centers=[0.125],
                               eps_list=[0.2])
        row = rep.pc_profile[0]
        r = m.masses / pi.masses
        assert row.sup == row.inf == pytest.approx(r[0])

    def test_negative_cube_side_rejected(self):
        mesh = gf.build_cartesian_mesh(8, 8)
        pi = gf.discretize_reference(mesh, gf.zero_potential())
        with pytest.raises(ValueError, match="finite and positive"):
            condition_report(mesh, pi, pi, cube_centers=[(0.5, 0.5)],
                             eps_list=[-0.1])
        with pytest.raises(ValueError, match="finite and positive"):
            gf.mesh.cell_box_overlaps(mesh, Box.from_center((0.5, 0.5), -0.2))

    def test_profile_shrinks_toward_point_value(self):
        mesh = gf.build_interval_mesh(64)
        pi = gf.discretize_reference(mesh, gf.zero_potential())
        m = gf.project_measure(mesh, lambda x: 1.0 + 0.5 * math.cos(math.pi * x))
        rep = condition_report(mesh, m, pi, cube_centers=[0.5],
                               eps_list=[0.2, 0.1, 0.05])
        spans = [row.sup - row.inf for row in rep.pc_profile]
        assert spans[0] > spans[1] > spans[2]
        for row in rep.pc_profile:
            assert row.inf <= row.mass_ratio <= row.sup

    def test_csv(self, two_cell, tmp_path):
        mesh, _, pi, _ = two_cell
        rep = condition_report(mesh, pi, pi, cube_centers=[0.25],
                               eps_list=[0.2])
        path = tmp_path / "cond.csv"
        rep.to_csv(path)
        assert path.read_text().startswith("condition,value")


class TestGoodPath:
    def test_same_cell(self, grid4):
        path = good_path(grid4[0], 3, 3)
        assert path.cells == (3,)
        assert path.n == 0
        assert path.length == 0.0

    def test_adjacent_cells(self, grid4):
        mesh = grid4[0]
        k, l = (int(c) for c in mesh.face_cells[0])
        path = good_path(mesh, k, l)
        assert path.n == 1
        assert path.cells == (k, l)

    def test_uniform_1d_chain(self):
        mesh = gf.build_interval_mesh(16)
        for i, j in ((0, 15), (3, 9), (12, 2)):
            path = good_path(mesh, i, j)
            assert path.n == abs(i - j)
            assert path.length == pytest.approx(
                abs(mesh.sites[i, 0] - mesh.sites[j, 0]), abs=1e-15)

    def test_cartesian_walks_are_neighbour_chains(self):
        mesh = gf.build_cartesian_mesh(6, 6)
        adjacency = mesh.adjacency()
        for i, j in ((0, 35), (5, 30), (14, 27), (2, 33)):
            path = good_path(mesh, i, j)
            assert path.cells[0] == i and path.cells[-1] == j
            for a, b in zip(path.cells, path.cells[1:]):
                assert any(nb == b for _, nb in adjacency[a])

    def test_voronoi_walks_all_pairs(self):
        rng = np.random.default_rng(17)
        mesh = gf.build_voronoi_mesh(rng.uniform(0.1, 0.9, size=(20, 2)),
                                     gf.Domain.rectangle(0, 0, 1, 1))
        adjacency = mesh.adjacency()
        for i in range(mesh.n_cells):
            for j in range(mesh.n_cells):
                path = good_path(mesh, i, j)
                assert path.cells[0] == i and path.cells[-1] == j
                assert path.n < mesh.n_cells
                for a, b in zip(path.cells, path.cells[1:]):
                    assert any(nb == b for _, nb in adjacency[a])

    def test_length_is_the_hop_sum(self):
        # one norm per hop as the reference: a BLAS dot may fuse the squares,
        # so each hop may differ by an ulp and the sum by a few
        rng = np.random.default_rng(17)
        mesh = gf.build_voronoi_mesh(rng.uniform(0.1, 0.9, size=(20, 2)),
                                     gf.Domain.rectangle(0, 0, 1, 1))
        eps = np.finfo(float).eps
        for i in range(mesh.n_cells):
            for j in range(i + 1, mesh.n_cells):
                cells = good_path(mesh, i, j).cells
                total = 0.0
                for a, b in zip(cells, cells[1:]):
                    total += float(np.linalg.norm(mesh.sites[b] - mesh.sites[a]))
                assert good_path(mesh, i, j).length == pytest.approx(
                    total, rel=2 * len(cells) * eps, abs=0.0)


class TestPathConstants:
    def test_uniform_1d_exact(self):
        pc = path_constants(gf.build_interval_mesh(12))
        assert pc.c_count == pytest.approx(1.0, abs=1e-12)
        assert pc.c_length == pytest.approx(1.0, abs=1e-12)

    def test_single_cell_convention(self):
        pc = path_constants(gf.build_interval_mesh(1))
        assert (pc.c_count, pc.c_length) == (0.0, 0.0)

    def test_cartesian_staircase(self):
        pc = path_constants(gf.build_cartesian_mesh(8, 8))
        assert pc.c_length <= math.sqrt(2) + 1e-9
        assert pc.c_count <= 20.0


class TestHolderModulus:
    def test_constant_field_zero(self, grid4):
        mesh, _, pi, _ = grid4
        out = l2_holder_modulus(mesh, np.ones(mesh.n_cells),
                                np.array([0.1, 0.05]), pi, pi)
        assert out.value == 0.0
        assert out.ratio == 0.0

    def test_zero_shift_zero(self, chain10):
        mesh, _, pi, _ = chain10
        f = np.arange(mesh.n_cells, dtype=float)
        out = l2_holder_modulus(mesh, f, 0.0, pi, pi)
        assert out.value == 0.0

    def test_oversized_shift_rejected(self, chain10):
        mesh, _, pi, _ = chain10
        with pytest.raises(ValueError, match="diameter"):
            l2_holder_modulus(mesh, np.zeros(mesh.n_cells), 1.5, pi, pi)

    def test_alternating_quarter_shift(self):
        # shifted overlaps: three full cells of width 1/4 with unit jumps
        mesh = gf.build_interval_mesh(4)
        pi = gf.discretize_reference(mesh, gf.zero_potential())
        f = np.array([0.0, 1.0, 0.0, 1.0])
        out = l2_holder_modulus(mesh, f, 0.25, pi, pi)
        assert out.value == pytest.approx(0.75, abs=1e-14)
        assert out.bound > 0.0
        assert out.ratio == pytest.approx(out.value / out.bound, rel=1e-12)

    def test_bound_constant_stays_bounded_under_refinement(self):
        # the testable form of the L2 increment bound: the fitted constant
        # at finer meshes stays within 10x of its coarse value
        ratios = []
        for n in (16, 32, 64):
            mesh = gf.build_interval_mesh(n)
            pi = gf.discretize_reference(mesh, gf.zero_potential())
            f = gf.project_function(mesh, lambda x: math.sin(2 * math.pi * x))
            out = l2_holder_modulus(mesh, f, 0.1, pi, pi)
            ratios.append(out.ratio)
        assert max(ratios) <= 10.0 * ratios[0]

    def test_two_dimensional_overlap(self, grid4):
        mesh, _, pi, _ = grid4
        f = gf.project_function(mesh, lambda p: p[0])
        shift = np.array([0.25, 0.0])
        out = l2_holder_modulus(mesh, f, shift, pi, pi)
        # every cell pair offset by one column: 12 overlaps of area 1/16,
        # each with a jump of 1/4
        assert out.value == pytest.approx(12 * (1 / 16) * (0.25) ** 2, abs=1e-12)
