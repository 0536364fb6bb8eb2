"""Discrete Fokker-Planck generator and time integration.

The generator acts on measures by (L m)(K) = sum_{L~K} w_KL (r_L - r_K)
with densities r = m/pi.  It conserves mass (zero column sums), fixes pi,
and is self-adjoint in the 1/pi-weighted inner product, which yields the
dense spectral oracle used for high-accuracy trajectories.
"""
from __future__ import annotations

import functools
import math
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .forked import allowed_cpus, run_jobs
from .reference import DiscreteMeasure, FaceWeights, Potential, face_weights
from .mesh import Mesh

EXACT_DENSE_LIMIT = 2000
AUTO_DENSE_LIMIT = 400
NEGATIVE_CLIP = 1e-12
SCHEMES = ("implicit_euler", "crank_nicolson", "exact_dense")
_THETA = {"implicit_euler": 1.0, "crank_nicolson": 0.5}


def _resolve_scheme(scheme: str, n: int) -> str:
    """The scheme that runs on n cells: 'auto' is the dense oracle up to
    AUTO_DENSE_LIMIT cells and implicit Euler beyond; the dense oracle is
    refused above EXACT_DENSE_LIMIT."""
    if scheme == "auto":
        scheme = "exact_dense" if n <= AUTO_DENSE_LIMIT else "implicit_euler"
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if scheme == "exact_dense" and n > EXACT_DENSE_LIMIT:
        raise ValueError(f"the dense spectral oracle is limited to "
                         f"{EXACT_DENSE_LIMIT} cells, got {n}")
    return scheme


@dataclass
class Generator:
    """Sparse Fokker-Planck generator with its face weights and reference pi."""

    matrix: sp.csr_matrix
    pi: DiscreteMeasure
    weights: FaceWeights
    _sym: tuple | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def symmetric_eig(self):
        """Eigendecomposition of the pi-symmetrized generator (cached)."""
        if self._sym is None:
            _resolve_scheme("exact_dense", self.n)
            sqrt_pi = np.sqrt(self.pi.masses)
            sym = self.matrix.toarray() * (sqrt_pi[None, :] / sqrt_pi[:, None])
            sym = 0.5 * (sym + sym.T)
            evals, evecs = np.linalg.eigh(sym)
            self._sym = (evals, evecs, sqrt_pi)
        return self._sym

    def spectral_gap(self) -> float:
        """Smallest positive decay rate (second eigenvalue of -L)."""
        evals, _, _ = self.symmetric_eig()
        rates = np.sort(-evals)
        return float(rates[1]) if self.n > 1 else 0.0


def assemble_generator(mesh: Mesh, weights, pi: DiscreteMeasure) -> Generator:
    if np.any(pi.masses <= 0.0):
        raise ValueError("reference measure must be positive")
    fc = np.asarray(weights.face_cells, dtype=np.int64)
    w = np.asarray(weights.w, dtype=float)
    n = mesh.n_cells
    k, l = fc[:, 0], fc[:, 1]
    inv_pi = 1.0 / pi.masses
    rows = np.concatenate([k, l, k, l])
    cols = np.concatenate([l, k, k, l])
    data = np.concatenate([w * inv_pi[l], w * inv_pi[k],
                           -w * inv_pi[k], -w * inv_pi[l]])
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    return Generator(matrix=matrix, pi=pi, weights=weights)


def build_generator(mesh: Mesh, potential: Potential,
                    mean_kind: str = "logarithmic") -> Generator:
    """The one set-up of (mesh, potential): weights and pi from one pass."""
    weights = face_weights(mesh, potential, mean_kind)
    return assemble_generator(mesh, weights, weights.pi)


def _clip_measure(values: np.ndarray) -> DiscreteMeasure:
    worst = float(values.min()) if len(values) else 0.0
    if worst < -NEGATIVE_CLIP:
        raise ValueError(f"negative mass {worst!r} beyond the clip threshold")
    clipped = np.maximum(values, 0.0)
    return DiscreteMeasure(clipped / clipped.sum())


def _theta_stepper(generator: Generator, dt: float, theta: float):
    """step(m) for (I - theta dt L) m+ = m + (1 - theta) dt L m (backward
    Euler at theta = 1, Crank-Nicolson at 1/2); I - (theta dt) L is factorised
    here, once, with splu, and each step only back-substitutes."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    lu = spla.splu(sp.identity(generator.n, format="csc")
                   - (theta * dt) * generator.matrix)
    explicit = ((1.0 - theta) * dt) * generator.matrix if theta < 1.0 else None

    def step(m) -> DiscreteMeasure:
        arr = np.asarray(getattr(m, "masses", m), dtype=float)
        rhs = arr if explicit is None else arr + explicit @ arr
        return _clip_measure(lu.solve(rhs))

    return step


def step_implicit_euler(m, dt: float, generator: Generator) -> DiscreteMeasure:
    """One backward Euler step: solve (I - dt L) m+ = m.

    The system matrix is an M-matrix for every dt > 0, so the step preserves
    positivity; the result is renormalized to exact unit mass.
    """
    return _theta_stepper(generator, dt, 1.0)(m)


def step_crank_nicolson(m, dt: float, generator: Generator) -> DiscreteMeasure:
    """One trapezoidal step; tiny negatives are clipped, larger ones raise."""
    return _theta_stepper(generator, dt, 0.5)(m)


@dataclass
class Trajectory:
    """Time grid with one measure per node and the scheme that produced it."""

    times: np.ndarray
    masses: np.ndarray           # (nodes, n_cells)
    scheme: str

    def measure(self, i: int) -> DiscreteMeasure:
        return DiscreteMeasure(self.masses[i])

    def export_csv(self, path) -> None:
        """Rows t,cell,mass in node order, floats as repr.

        The nodes are cut into contiguous ranges, one per allowed CPU
        (forked.allowed_cpus) and at most one per node.  The caller writes
        the header and the first range into path; each later range is
        formatted by a forked job (forked.run_jobs) into a part file beside
        path, which the caller then appends in node order.  The bytes do not
        depend on the CPU count.  A failed range raises once every job is
        joined and every part file removed.
        """
        nodes = len(self.times)
        ranges = max(1, min(nodes, allowed_cpus()))
        bounds = [nodes * i // ranges for i in range(ranges + 1)]
        directory = os.path.dirname(os.path.abspath(path))
        parts = []

        def write(target, a, b):
            with open(target, "w", encoding="ascii") as fh:
                if a == 0:
                    fh.write("t,cell,mass\n")
                _write_nodes(fh, self.times[a:b], self.masses[a:b])
            return b""

        try:
            jobs = [("the writer of the first trajectory nodes",
                     functools.partial(write, path, 0, bounds[1]))]
            for a, b in zip(bounds[1:-1], bounds[2:]):
                fd, part = tempfile.mkstemp(dir=directory,
                                            prefix=".gradflow-part-")
                os.close(fd)
                parts.append(part)
                jobs.append((f"the writer of trajectory nodes {a} to {b - 1}",
                             functools.partial(write, part, a, b)))
            run_jobs(jobs)
            with open(path, "ab") as fh:
                for part in parts:
                    with open(part, "rb") as src:
                        shutil.copyfileobj(src, fh)
        finally:
            for part in parts:
                os.unlink(part)


def _write_nodes(fh, times: np.ndarray, masses: np.ndarray) -> None:
    """Rows t,cell,mass of these nodes, floats as repr: one write per node."""
    cells = [f",{k}," for k in range(masses.shape[1])]
    for t, row in zip(times.tolist(), masses):
        head = repr(t)
        fh.write("".join([f"{head}{k}{mass!r}\n"
                          for k, mass in zip(cells, row.tolist())]))


def solve_trajectory(m0, T: float, steps: int, generator: Generator,
                     scheme: str = "auto") -> Trajectory:
    """Integrate the flow on the uniform grid t_i = i T / steps.

    'exact_dense' evaluates every node analytically from the symmetric
    eigendecomposition; 'auto' selects it up to AUTO_DENSE_LIMIT cells and
    implicit Euler beyond.  The theta-schemes factorise once per call.
    """
    if not (math.isfinite(T) and T > 0.0) or steps < 1:
        raise ValueError(f"need a finite T > 0 and at least one step, got "
                         f"T={T!r}, steps={steps!r}")
    scheme = _resolve_scheme(scheme, generator.n)
    m0 = m0 if isinstance(m0, DiscreteMeasure) else DiscreteMeasure(np.asarray(m0))
    times = np.linspace(0.0, T, steps + 1)
    masses = np.empty((steps + 1, generator.n))
    masses[0] = m0.masses
    if scheme == "exact_dense":
        evals, evecs, sqrt_pi = generator.symmetric_eig()
        coeff = evecs.T @ (m0.masses / sqrt_pi)
        for i, t in enumerate(times[1:], start=1):
            vals = sqrt_pi * (evecs @ (np.exp(evals * t) * coeff))
            masses[i] = _clip_measure(vals).masses
    else:
        step = _theta_stepper(generator, T / steps, _THETA[scheme])
        for i in range(1, steps + 1):
            masses[i] = step(masses[i - 1]).masses
    return Trajectory(times=times, masses=masses, scheme=scheme)
