import math

import numpy as np
import pytest

from gradflow import geometry
from gradflow.geometry import Box
from gradflow.mesh import Domain

SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
TRIANGLE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_area_and_centroid():
    assert geometry.polygon_area(SQUARE) == 1.0
    assert geometry.polygon_area(SQUARE[::-1]) == -1.0
    assert np.allclose(geometry.polygon_centroids(SQUARE[None]), [[0.5, 0.5]])
    assert np.allclose(geometry.polygon_centroids(TRIANGLE[None]),
                       [[1 / 3, 1 / 3]])


def test_diameter():
    assert geometry.polygon_diameter(SQUARE) == pytest.approx(math.sqrt(2))


def _one(poly):
    """A stack of one polygon and its count."""
    return poly[None], np.array([len(poly)])


def test_clip_halfplane():
    half, count = geometry.clip_halfplane(*_one(SQUARE), np.array([[1.0, 0.0]]),
                                          np.array([0.5]), 1e-12)
    assert count.tolist() == [4]
    assert geometry.polygon_area(half[0]) == pytest.approx(0.5)
    empty, count = geometry.clip_halfplane(*_one(SQUARE), np.array([[1.0, 0.0]]),
                                           np.array([-0.5]), 1e-12)
    assert count.tolist() == [0] and empty.shape == (1, 0, 2)


def test_clip_convex_overlap():
    shifted = SQUARE + np.array([0.5, 0.25])
    overlap, count = geometry.clip_convex(*_one(SQUARE), *_one(shifted))
    assert geometry.polygon_area(overlap[0, :count[0]]) == pytest.approx(0.5 * 0.75)
    assert geometry.overlap_area(*_one(SQUARE), *_one(shifted)) == \
        pytest.approx([0.5 * 0.75])
    _, count = geometry.clip_convex(*_one(SQUARE), *_one(SQUARE + 2.0))
    assert count.tolist() == [0]
    assert geometry.overlap_area(*_one(SQUARE), *_one(SQUARE + 2.0)).tolist() == [0.0]


def test_point_in_convex_and_inradius():
    square = Domain.polygon(SQUARE)
    inside = square.contains(np.array([[0.25, 0.75], [1.25, 0.5], [1.0, 0.5]]))
    assert inside.tolist() == [True, False, True]
    assert square.contains(np.array([[1.0, 0.5]]), tol=-1e-9).tolist() == [False]
    # the inradius at p is the smallest signed distance to an edge line
    def inradius(p):
        return geometry.signed_edge_distances(SQUARE, np.array(p)).min()

    assert inradius([0.5, 0.5]) == pytest.approx(0.5)
    assert inradius([0.1, 0.5]) == pytest.approx(0.1)
    # boundary point: inscribed ball degenerates
    assert inradius([0.0, 0.5]) == 0.0
    assert inradius([1.25, 0.5]) == pytest.approx(-0.25)


def test_segment_params():
    # the diagonal of the unit square against the anti-diagonal and the top edge
    t, u = geometry.segment_params(np.array([0.0, 0.0]), np.array([1.0, 1.0]),
                                   np.array([[0.0, 1.0], [0.0, 1.0]]),
                                   np.array([[1.0, 0.0], [1.0, 1.0]]))
    assert t[0] == pytest.approx(0.5)
    assert u[0] == pytest.approx(0.5)
    # the top edge meets the diagonal at its far end
    assert t[1] == pytest.approx(1.0)
    assert u[1] == pytest.approx(1.0)
    t, u = geometry.segment_params(np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                                   np.array([[0.0, 1.0]]),
                                   np.array([[1.0, 1.0]]))
    assert np.isnan(t[0]) and np.isnan(u[0])


def _scalar_segment_params(p, q, a, b):
    # the one-segment formula the array form evaluates elementwise
    d1 = q - p
    d2 = b - a
    den = d1[0] * d2[1] - d1[1] * d2[0]
    scale = (abs(d1[0]) + abs(d1[1])) * (abs(d2[0]) + abs(d2[1]))
    if abs(den) <= 1e-14 * max(scale, 1e-300):
        return None
    r = a - p
    t = (r[0] * d2[1] - r[1] * d2[0]) / den
    u = (r[0] * d1[1] - r[1] * d1[0]) / den
    return float(t), float(u)


def _assert_matches_scalar(p, q, a, b):
    t, u = geometry.segment_params(p, q, a, b)
    for f in range(len(a)):
        want = _scalar_segment_params(p, q, a[f], b[f])
        if want is None:
            assert np.isnan(t[f]) and np.isnan(u[f])
        else:
            assert np.float64(t[f]).tobytes() == np.float64(want[0]).tobytes()
            assert np.float64(u[f]).tobytes() == np.float64(want[1]).tobytes()


def test_segment_params_bit_identical_to_scalar_formula():
    rng = np.random.default_rng(17)
    for _ in range(10):
        p, q = rng.uniform(-1.0, 1.0, size=(2, 2))
        a = rng.uniform(-1.0, 1.0, size=(1000, 2))
        b = rng.uniform(-1.0, 1.0, size=(1000, 2))
        _assert_matches_scalar(p, q, a, b)


def test_segment_params_parallel_and_threshold():
    p, q = np.array([0.0, 0.0]), np.array([1.0, 0.0])
    # for the segment (0, 0) -> (1, e): den = e and scale = 1 + e; walk e
    # ulp by ulp to the last value the parallel test still rejects
    def parallel(e):
        return abs(e) <= 1e-14 * max(1.0 + e, 1e-300)
    e = 1e-14
    while not parallel(e):
        e = np.nextafter(e, 0.0)
    while parallel(np.nextafter(e, 1.0)):
        e = np.nextafter(e, 1.0)
    eps_values = [0.0, np.nextafter(e, 0.0), e, np.nextafter(e, 1.0), 2e-14]
    a = np.zeros((len(eps_values), 2))
    b = np.array([[1.0, v] for v in eps_values])
    _assert_matches_scalar(p, q, a, b)
    t, _ = geometry.segment_params(p, q, a, b)
    assert np.isnan(t[:3]).all() and np.isfinite(t[3:]).all()
    # the same pairs offset from the origin
    shift = np.array([0.25, 1.0])
    _assert_matches_scalar(p, q, a + shift, b + shift)


def test_shared_edge():
    left = np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 1.0], [0.0, 1.0]])
    right = np.array([[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 1.0]])
    # a triangle sharing half of left's right edge, padded to four vertices
    # by one that would make the whole edge shared
    tri = np.array([[0.5, 0.5], [1.0, 0.5], [0.5, 1.0], [0.5, 0.0]])
    ends, found = geometry.shared_edges(
        np.stack([left, right, left + 5.0, tri]), np.array([4, 4, 4, 3]),
        np.array([[0, 1], [0, 2], [0, 3]]), tol=1e-12)
    assert found.tolist() == [True, False, True]
    assert ends[0].tolist() == [[0.5, 0.0], [0.5, 1.0]]
    assert ends[2].tolist() == [[0.5, 0.5], [0.5, 1.0]]


def test_box_helpers():
    box = Box.from_center([0.5, 0.5], 0.5)
    assert np.allclose(box.as_polygon()[0], [0.25, 0.25])
    assert (box.lo.tolist(), box.hi.tolist()) == ([0.25, 0.25], [0.75, 0.75])
    grown = box.expanded(0.25)
    assert (grown.lo.tolist(), grown.hi.tolist()) == ([0.0, 0.0], [1.0, 1.0])


@pytest.mark.parametrize("side", [-0.2, 0.0, math.inf, math.nan])
def test_box_side_must_be_finite_and_positive(side):
    with pytest.raises(ValueError, match="finite and positive"):
        Box.from_center([0.5, 0.5], side)


def test_merge_close_vertices():
    # a clip by the half-plane 0·x <= 1 keeps every vertex and merges
    poly = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                     [1.0, 1.0 + 1e-15]])
    _, count = geometry.clip_halfplane(*_one(poly), np.zeros((1, 2)), np.ones(1), 1e-12)
    assert count.tolist() == [3]


def test_segment_params_broadcast_is_the_per_segment_form():
    # (W, 1, 2) segments against (W, D, 2) endpoints, as the lockstep walk
    # calls it, give the bits of one call per segment
    rng = np.random.default_rng(23)
    p, q = rng.uniform(-1.0, 1.0, size=(2, 40, 2))
    a, b = rng.uniform(-1.0, 1.0, size=(2, 40, 7, 2))
    b[:, 0] = a[:, 0] + 0.5 * (q - p)            # parallel to pq
    t, u = geometry.segment_params(p[:, None], q[:, None], a, b)
    assert t.shape == u.shape == (40, 7)
    for w in range(40):
        t_w, u_w = geometry.segment_params(p[w], q[w], a[w], b[w])
        assert t[w].tobytes() == t_w.tobytes()
        assert u[w].tobytes() == u_w.tobytes()
        _assert_matches_scalar(p[w], q[w], a[w], b[w])
    assert np.isnan(t[:, 0]).all()
