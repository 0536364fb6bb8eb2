"""Entropy, action, Fisher information, and Dirichlet energies on cell data.

All reductions run in fixed (face-index) order so that reported values are
bit-stable across runs on one platform.  The weights argument is a
`reference.FaceWeights`: its conductances `w` and their `face_cells`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Box
from .mesh import Mesh, cells_meeting

# Relative argument gap below which the logarithmic mean switches to its
# even series in u = (a-b)/(a+b); the u^6 truncation keeps the relative
# error under 1e-16 on that branch.
_LOG_MEAN_SWITCH = 1e-4


def _masses(m) -> np.ndarray:
    return np.asarray(getattr(m, "masses", m), dtype=float)


def log_mean(a, b):
    """Logarithmic mean (a - b)/(log a - log b), extended by 0 on the axes.

    Accepts scalars or arrays; negative inputs are rejected.  Near-equal
    arguments use the stable series m*u/artanh(u) with m = (a+b)/2 and
    u = (a-b)/(a+b).
    """
    a_arr = np.asarray(a, dtype=float)
    b_arr = np.asarray(b, dtype=float)
    if np.any(a_arr < 0.0) or np.any(b_arr < 0.0):
        raise ValueError("log_mean requires nonnegative arguments")
    scalar = a_arr.ndim == 0 and b_arr.ndim == 0
    a_arr, b_arr = np.atleast_1d(a_arr), np.atleast_1d(b_arr)
    a_arr, b_arr = np.broadcast_arrays(a_arr, b_arr)
    out = np.zeros(a_arr.shape)
    pos = (a_arr > 0.0) & (b_arr > 0.0)
    if np.any(pos):
        ap, bp = a_arr[pos], b_arr[pos]
        gap = np.abs(ap - bp)
        close = gap <= _LOG_MEAN_SWITCH * np.maximum(ap, bp)
        res = np.empty(ap.shape)
        if np.any(close):
            s = ap[close] + bp[close]
            u2 = ((ap[close] - bp[close]) / s) ** 2
            res[close] = 0.5 * s / (1.0 + u2 * (1.0 / 3.0 + u2 * (0.2 + u2 / 7.0)))
        far = ~close
        if np.any(far):
            res[far] = (ap[far] - bp[far]) / (np.log(ap[far]) - np.log(bp[far]))
        out[pos] = res
    return float(out[0]) if scalar else out


def sqrt_log_mean_sq(a, b):
    """The mean log_mean(sqrt(a), sqrt(b))^2; ties entropy to sqrt-densities."""
    r = log_mean(np.sqrt(np.asarray(a, dtype=float)),
                 np.sqrt(np.asarray(b, dtype=float)))
    return r * r if not np.isscalar(r) else float(r) ** 2


# the supported means, each min <= mean <= max; mean_value dispatches on them
_MEANS = {
    "logarithmic": log_mean,
    "sqrt_logarithmic": sqrt_log_mean_sq,
    "arithmetic": lambda a, b: 0.5 * (a + b),
    "geometric": lambda a, b: np.sqrt(a * b),
    "harmonic": lambda a, b: np.where(
        a + b > 0.0, 2.0 * a * b / np.where(a + b > 0.0, a + b, 1.0), 0.0),
    "min": np.minimum,
    "max": np.maximum,
}
KERNEL_KINDS = tuple(_MEANS)


def mean_value(kind: str, a, b):
    """Evaluate one of the supported means (KERNEL_KINDS)."""
    if kind not in _MEANS:
        raise ValueError(f"unknown mean kind {kind!r}")
    return _MEANS[kind](np.asarray(a, dtype=float), np.asarray(b, dtype=float))


def entropy(m, pi) -> float:
    """Relative entropy sum m(K) log(m(K)/pi(K)) with 0 log 0 = 0."""
    mm = _masses(m)
    pp = _masses(pi)
    if np.any(pp <= 0.0):
        raise ValueError("reference measure must be positive on every cell")
    pos = mm > 0.0
    val = float(np.sum(mm[pos] * np.log(mm[pos] / pp[pos])))
    return max(val, 0.0)


def _graph_energy(f: np.ndarray, conductance: np.ndarray,
                  face_cells: np.ndarray) -> float:
    """1/2 sum over faces of c_f (f(K) - f(L))^2, fixed summation order."""
    df = f[face_cells[:, 0]] - f[face_cells[:, 1]]
    return 0.5 * float(np.sum(conductance * df * df))


def _onsager_conductance(m, weights, pi):
    """The log-mean Onsager conductances theta(r_K, r_L) w_KL, r = m/pi, of
    one node m (n,) or a stack (k, n), with the face densities r_K, r_L."""
    r = _masses(m) / _masses(pi)
    fc = weights.face_cells
    rk, rl = r[..., fc[:, 0]], r[..., fc[:, 1]]
    return mean_value("logarithmic", rk, rl) * weights.w, rk, rl


def action(m, f, weights, pi) -> float:
    """Discrete transport action: the weighted Dirichlet form of f at m.

    Equals 1/4 of the ordered double sum of (f(K)-f(L))^2 theta(r_K, r_L) w_KL
    with densities r = m/pi and theta the logarithmic mean; constants are a
    gauge (zero energy).
    """
    conductance, _, _ = _onsager_conductance(m, weights, pi)
    return _graph_energy(np.asarray(f, dtype=float), conductance,
                         weights.face_cells)


def fisher(m, weights, pi) -> float:
    """Discrete Fisher information: 2 * action(m, -log r) with the log mean.

    Returns math.inf when a face joins a zero-mass cell to a positive one;
    faces between two zero cells contribute nothing.
    """
    conductance, rk, rl = _onsager_conductance(m, weights, pi)
    if np.any((rk > 0.0) != (rl > 0.0)):
        return math.inf
    both = (rk > 0.0) & (rl > 0.0)
    dlog = np.zeros(len(rk))
    dlog[both] = np.log(rk[both]) - np.log(rl[both])
    return float(np.sum(conductance * dlog * dlog))


def neighbour_oscillation(r: np.ndarray, fc: np.ndarray) -> float:
    """max |r_K - r_L| over the faces fc; 0 on a mesh without faces."""
    return float(np.abs(r[fc[:, 0]] - r[fc[:, 1]]).max()) if len(fc) else 0.0


@dataclass(frozen=True)
class FisherGap:
    """Half the Fisher information against four times the sqrt-density energy."""

    fisher_half: float
    dirichlet_sqrt: float
    gap: float
    bound: float


def fisher_sqrt_gap(m, weights, pi) -> FisherGap:
    """Compare I/2 with 4 E(sqrt r) and the oscillation bound (4 eps/k) E(sqrt r).

    E is the Dirichlet form with the stationary reference (theta = 1), eps the
    largest neighbour density oscillation and k the density lower bound.
    Requires positive masses everywhere.
    """
    mm = _masses(m)
    pp = _masses(pi)
    if np.any(mm <= 0.0):
        raise ValueError("fisher_sqrt_gap needs strictly positive masses")
    w, fc = weights.w, weights.face_cells
    r = mm / pp
    half_fisher = 0.5 * fisher(m, weights, pi)
    dirichlet = _graph_energy(np.sqrt(r), w, fc)  # action at m = pi, theta = 1
    four_e = 4.0 * dirichlet
    gap = abs(half_fisher - four_e)
    bound = 4.0 * neighbour_oscillation(r, fc) / float(r.min()) * dirichlet
    return FisherGap(half_fisher, four_e, gap, bound)


def dirichlet_energy(mesh: Mesh, f, m, kind: str = "logarithmic",
                     region: Box | None = None) -> float:
    """Discrete Dirichlet energy with conductances from Lebesgue densities.

    U_KL is the chosen mean of m(K)/|K| and m(L)/|L|; with a `region` box,
    only cells whose closure meets the open box are kept and a face counts
    when both its cells are kept.
    """
    mm = _masses(m)
    ff = np.asarray(f, dtype=float)
    fc, trans = mesh.face_cells, mesh.transmissibilities()
    if region is not None:
        keep = cells_meeting(mesh, region)
        sel = keep[fc[:, 0]] & keep[fc[:, 1]]
        fc, trans = fc[sel], trans[sel]
    dens = mm / mesh.volumes
    u = mean_value(kind, dens[fc[:, 0]], dens[fc[:, 1]])
    return _graph_energy(ff, u * trans, fc)
