"""Property-based checks of the structural invariants."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradflow as gf
from gradflow.experiments import Density1D, wasserstein_1d
from gradflow.functionals import mean_value, KERNEL_KINDS
from gradflow.reference import DiscreteMeasure

settings.register_profile("suite", deadline=None, max_examples=120,
                          derandomize=True)
settings.load_profile("suite")

_MESH = gf.build_interval_mesh(8)
_POT = gf.zero_potential()
_PI = gf.discretize_reference(_MESH, _POT)
_W = gf.face_weights(_MESH, _POT)
_GEN = gf.assemble_generator(_MESH, _W, _PI)

positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False)
dyadic = st.integers(min_value=-2 ** 20, max_value=2 ** 20).map(
    lambda k: k / 256.0)


@given(positive, positive)
def test_log_mean_sandwich_and_symmetry(a, b):
    val = gf.log_mean(a, b)
    assert min(a, b) <= val * (1 + 1e-12) + 1e-300
    assert val <= max(a, b) * (1 + 1e-12)
    assert val == gf.log_mean(b, a)


@given(st.lists(positive, min_size=2, max_size=2), positive)
def test_kernel_sandwich_all_kinds(pair, c):
    a, b = pair
    lo, hi = min(a, b), max(a, b)
    for kind in KERNEL_KINDS:
        val = float(mean_value(kind, a, b))
        assert lo - 1e-12 * hi <= val <= hi * (1 + 1e-12)


@given(st.lists(dyadic, min_size=8, max_size=8), dyadic)
def test_action_gauge_invariance_exact(values, shift):
    f = np.array(values)
    m = DiscreteMeasure.normalized(np.arange(1.0, 9.0))
    assert gf.action(m, f + shift, _W, _PI) == gf.action(m, f, _W, _PI)


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=8,
                max_size=8).filter(lambda v: sum(v) > 1e-3))
def test_entropy_nonnegative(values):
    m = DiscreteMeasure.normalized(np.array(values))
    assert gf.entropy(m, _PI) >= 0.0


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=8,
                max_size=8).filter(lambda v: sum(v) > 1e-3),
       st.floats(min_value=1e-4, max_value=10.0))
def test_implicit_euler_positivity_and_mass(values, dt):
    m = DiscreteMeasure.normalized(np.array(values))
    out = gf.step_implicit_euler(m, dt, _GEN)
    assert np.all(out.masses >= 0.0)
    assert abs(out.masses.sum() - 1.0) <= 1e-13


@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=8,
                max_size=8),
       st.floats(min_value=1e-4, max_value=1.0))
def test_entropy_monotone_under_implicit_euler(values, dt):
    m = DiscreteMeasure.normalized(np.array(values))
    out = gf.step_implicit_euler(m, dt, _GEN)
    assert gf.entropy(out, _PI) <= gf.entropy(m, _PI) + 1e-12


@given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=6,
                max_size=6),
       st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=6,
                max_size=6),
       st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=6,
                max_size=6))
def test_wasserstein_triangle_inequality(a, b, c):
    edges = np.linspace(0.0, 1.0, 7)

    def density(vals):
        arr = np.array(vals)
        return Density1D(edges, arr / (arr.sum() / 6.0))

    p, q, r = density(a), density(b), density(c)
    assert wasserstein_1d(p, r) <= wasserstein_1d(p, q) \
        + wasserstein_1d(q, r) + 1e-10


@given(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=8,
                max_size=8))
def test_fisher_nonnegative_and_gap_bound(values):
    m = DiscreteMeasure.normalized(np.array(values))
    assert gf.fisher(m, _W, _PI) >= 0.0
    gap = gf.fisher_sqrt_gap(m, _W, _PI)
    assert gap.gap <= gap.bound * (1 + 1e-12) + 1e-15


@given(st.lists(st.floats(min_value=-10.0, max_value=10.0), min_size=8,
                max_size=8))
def test_generator_conserves_mass(values):
    rate = _GEN.matrix @ np.array(values)
    scale = max(float(np.abs(rate).max()), 1.0)
    assert abs(float(rate.sum())) <= 1e-13 * scale
