"""Legendre dual of the transport action via the weighted graph operator.

The Onsager operator B(m) acts on cell fields by
(B f)(K) = sum_L theta(r_K, r_L) w_KL (f(K) - f(L)), so <f, B f> equals
twice the action.  The dual sup_f { <sigma, f> - action(m, f) } is attained
at the solution of B f = sigma and evaluates to <sigma, f>/2; off the range
of B the supremum is genuinely +inf.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .functionals import _masses, mean_value
from .mesh import Mesh

BALANCE_TOL = 1e-10
RANGE_TOL = 1e-8
CG_TOL = 1e-12
MAX_ITER_FACTOR = 10


class ConjugateGradientError(RuntimeError):
    """CG failed to reach the requested residual within the iteration cap."""


@dataclass
class OnsagerOperator:
    """Sparse symmetric PSD operator with constants-per-component kernel."""

    matrix: sp.csr_matrix
    component: np.ndarray        # component label per cell (theta w > 0 graph)
    n_components: int

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class OnsagerPattern:
    """CSR structure of B shared by every B(m) on one face graph: slots[0..3]
    locate each face's (k,k), (l,l), (k,l), (l,k); labels with all faces live."""

    indptr: np.ndarray
    indices: np.ndarray
    slots: np.ndarray
    component: np.ndarray
    n_components: int


def onsager_pattern(face_cells, n: int) -> OnsagerPattern:
    """Build the sparsity pattern of B for faces (k, l) on n cells."""
    k, l = np.asarray(face_cells, dtype=np.int64).reshape(-1, 2).T
    keys = np.concatenate([k * n + k, l * n + l, k * n + l, l * n + k])
    unique = np.unique(keys)   # sorted: row-major CSR order, no duplicates
    csr = sp.coo_matrix((np.ones(len(unique)), (unique // n, unique % n)),
                        shape=(n, n)).tocsr()
    slots = np.searchsorted(unique, keys).reshape(4, -1)
    n_comp, labels = csgraph.connected_components(csr, directed=False)
    return OnsagerPattern(csr.indptr, csr.indices, slots, labels, int(n_comp))


def assemble_onsager(mesh: Mesh | None, weights, m, pi,
                     pattern: OnsagerPattern | None = None) -> OnsagerOperator:
    """Build B(m) from face conductances theta(r_K, r_L) w_KL, theta the
    logarithmic mean and w the `FaceWeights`.

    The mesh argument is accepted for symmetry with the other assembly
    routines but only the cell count is needed, so None is allowed.  Many m
    on one face graph can share its `onsager_pattern`.
    """
    mm = _masses(m)
    pp = _masses(pi)
    w, fc = weights.w, weights.face_cells
    n = mesh.n_cells if mesh is not None else len(mm)
    if pattern is None:
        pattern = onsager_pattern(fc, n)
    elif len(pattern.indptr) != n + 1 or pattern.slots.shape[1] != len(fc):
        raise ValueError("the Onsager pattern was built for another face graph")
    r = mm / pp
    theta = mean_value("logarithmic", r[fc[:, 0]], r[fc[:, 1]])
    cond = theta * w
    data = np.zeros(len(pattern.indices))
    data[pattern.slots[2:]] = -cond           # (k,l) and (l,k)
    np.add.at(data, pattern.slots[0], cond)   # (k,k), then (l,l), in face order;
    np.add.at(data, pattern.slots[1], cond)   # numpy 2.4 misbroadcasts a 2-D index
    matrix = sp.csr_matrix((data, pattern.indices.copy(), pattern.indptr.copy()),
                           shape=(n, n))  # copies: scipy may sort them in place
    live = cond > 0.0
    if live.all():
        n_comp, labels = pattern.n_components, pattern.component
    else:
        adjacency = sp.coo_matrix((cond[live], (fc[live, 0], fc[live, 1])),
                                  shape=(n, n))
        n_comp, labels = csgraph.connected_components(adjacency, directed=False)
    return OnsagerOperator(matrix=matrix, component=labels,
                           n_components=int(n_comp))


def dual_action(m, sigma, weights=None, pi=None,
                operator: OnsagerOperator | None = None,
                mesh: Mesh | None = None,
                initial_guess: np.ndarray | None = None,
                return_solution: bool = False):
    """Evaluate the dual action at a balanced cell field sigma.

    Solves B(m) f = sigma by Jacobi-preconditioned conjugate gradients on the
    mean-zero subspace (relative residual CG_TOL, at most 10 n iterations,
    fixed iteration order) and returns <sigma, f>/2.  Returns math.inf when
    sigma is unbalanced or has a component outside range(B) with relative
    norm above RANGE_TOL.  With return_solution the pair (value, f) comes
    back, which lets sequential callers warm-start the next solve.
    """
    sig = np.asarray(sigma, dtype=float)
    if operator is None:
        if weights is None or pi is None:
            raise ValueError("pass weights and pi, or a prebuilt operator")
        operator = assemble_onsager(mesh, weights, m, pi)
    n = operator.n

    def pack(value, f=None):
        return (value, f) if return_solution else value

    if sig.shape != (n,):
        raise ValueError("sigma has the wrong shape")
    sig_norm1 = float(np.abs(sig).sum())
    if sig_norm1 == 0.0:
        return pack(0.0, np.zeros(n))
    total = float(sig.sum())
    if abs(total) > BALANCE_TOL * max(1.0, sig_norm1):
        warnings.warn(f"sigma is unbalanced (sum {total:.3e}); the supremum "
                      "over constants diverges", stacklevel=2)
        return pack(math.inf)
    labels, n_comp = operator.component, operator.n_components
    comp_sums = np.bincount(labels, weights=sig, minlength=n_comp)
    counts = np.bincount(labels, minlength=n_comp)
    if n_comp > 1:
        # zero-mass regions split the graph; sigma must balance on each piece
        off_range = float(np.sqrt(np.sum(comp_sums ** 2 / counts)))
        if off_range > RANGE_TOL * float(np.linalg.norm(sig)):
            return pack(math.inf)
    b = sig - (comp_sums / counts)[labels]  # exact range component
    f = _solve_cg(operator, b, initial_guess, counts)
    return pack(0.5 * float(sig @ f), f)


def _solve_cg(operator: OnsagerOperator, b: np.ndarray, x0: np.ndarray | None,
              counts: np.ndarray) -> np.ndarray:
    matrix = operator.matrix
    labels, n_comp = operator.component, operator.n_components

    def project(v: np.ndarray) -> np.ndarray:  # in place: B's kernel is constants
        sums = np.bincount(labels, weights=v, minlength=n_comp)
        v -= sums[0] / counts[0] if n_comp == 1 else (sums / counts)[labels]
        return v

    n = operator.n
    diag = np.asarray(matrix.diagonal())
    inv_diag = np.where(diag > 0.0, 1.0 / np.where(diag > 0.0, diag, 1.0), 0.0)
    b_norm = math.sqrt(float(b @ b))
    if b_norm == 0.0:
        return np.zeros(n)
    x = np.zeros(n) if x0 is None else project(np.array(x0, dtype=float))
    r = b - matrix @ x
    z = project(inv_diag * r)
    p = z.copy()
    rz = float(r @ z)
    r_norm = math.sqrt(float(r @ r))
    max_iter = MAX_ITER_FACTOR * n
    for _ in range(max_iter):
        if r_norm <= CG_TOL * b_norm:
            return x
        ap = matrix @ p
        pap = float(p @ ap)
        if pap <= 0.0:
            break
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        r_norm = math.sqrt(float(r @ r))
        if r_norm <= CG_TOL * b_norm:
            return x
        z = project(inv_diag * r)
        rz_next = float(r @ z)
        if rz <= 0.0:
            break
        p *= rz_next / rz   # z + beta p, in place: IEEE addition commutes
        p += z
        rz = rz_next
    residual = float(np.linalg.norm(b - matrix @ x)) / b_norm
    if residual <= CG_TOL * 10.0:
        return x
    raise ConjugateGradientError(
        f"no convergence in {max_iter} iterations, relative residual {residual:.3e}")
