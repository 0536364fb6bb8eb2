"""Discrete Fokker-Planck generator and time integration.

The generator acts on measures by (L m)(K) = sum_{L~K} w_KL (r_L - r_K)
with densities r = m/pi.  It conserves mass (zero column sums), fixes pi,
and is self-adjoint in the 1/pi-weighted inner product, which yields the
dense spectral oracle used for high-accuracy trajectories.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .forked import run_jobs
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

    def symmetrized(self) -> sp.csr_matrix:
        """S = (A o R + (A o R)^T) / 2, R_kl = sqrt(pi_l) / sqrt(pi_k), on
        the generator A's pattern: the generator in the sqrt(pi)-weighted
        basis, symmetric because L is self-adjoint in the 1/pi inner product.

        Each stored entry takes the operations of the dense form
        A.toarray() * R, then 0.5 * (S + S^T), in that order, so toarray()
        is that dense matrix bit for bit (the pattern of a generator is
        symmetric, so no entry meets an implicit zero).
        """
        a = self.matrix.tocoo()
        sqrt_pi = np.sqrt(self.pi.masses)
        scaled = a.data * (sqrt_pi[a.col] / sqrt_pi[a.row])
        sym = sp.csr_matrix((np.concatenate([scaled, scaled]),
                             (np.concatenate([a.row, a.col]),
                              np.concatenate([a.col, a.row]))), shape=a.shape)
        sym.data *= 0.5
        return sym

    def symmetric_eig(self):
        """Eigendecomposition (evals ascending, C-ordered evecs, sqrt(pi)) of
        the symmetrized generator, cached.

        A tridiagonal S (n > 1 and every entry within one of the diagonal:
        1D cells in coordinate order) goes to LAPACK's dstevd on its two
        diagonals, every other S to np.linalg.eigh, which runs dsyevd on the
        dense matrix.  The bits agree: dsyevd reduces S to tridiagonal form
        with dsytrd, runs the same divide and conquer (dstedc) on it and
        back-transforms with dormtr; on a tridiagonal S every Householder
        tau is 0, so the diagonals pass through unchanged and dormtr applies
        identities.  The one exception is scaling: the two routines rescale
        differently (dlascl against dscal) when max|S| lies outside about
        1e-146..1e146.
        """
        if self._sym is None:
            _resolve_scheme("exact_dense", self.n)
            sym = self.symmetrized()
            coo = sym.tocoo()
            if self.n > 1 and np.all(np.abs(coo.row - coo.col) <= 1):
                evals, evecs, info = lapack.dstevd(
                    sym.diagonal(), sym.diagonal(-1), compute_v=1)
                if info != 0:
                    raise np.linalg.LinAlgError(
                        f"the tridiagonal eigensolver (LAPACK dstevd) "
                        f"failed with info {info}")
                # numpy's evecs are C-ordered, scipy's Fortran-ordered; the
                # products with evecs sum in an order that follows the layout
                evecs = np.ascontiguousarray(evecs)
            else:
                evals, evecs = np.linalg.eigh(sym.toarray())
            self._sym = (evals, evecs, np.sqrt(self.pi.masses))
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
        """Rows t,cell,mass in node order, floats as repr: the header, then
        one forked.run_jobs job per node, so the bytes do not depend on the
        CPU count.  A failed node raises once every child is joined."""
        cells = [f",{k}," for k in range(self.masses.shape[1])]
        jobs = [(f"the writer of trajectory node {i}", 1,
                 lambda out, t=t, row=row: _write_node(out, cells, t, row))
                for i, (t, row) in enumerate(zip(self.times.tolist(),
                                                 self.masses))]
        with open(path, "wb") as fh:
            fh.write(b"t,cell,mass\n")
            run_jobs(jobs, fh)


def _write_node(out, cells: list[str], t: float, row: np.ndarray) -> None:
    """Rows t,cell,mass of one node, floats as repr, in one write."""
    head = repr(t)
    rows = "".join([f"{head}{k}{mass!r}\n"
                    for k, mass in zip(cells, row.tolist())])
    out.write(rows.encode("ascii"))


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
