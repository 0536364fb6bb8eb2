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
# the kernel of csr_matrix @ vector, without its dispatch; a private entry
# point, pinned by tests/test_dual_action.py::TestCsrKernel
from scipy.sparse._sparsetools import csr_matvec

from .functionals import _masses, mean_value
from .mesh import Mesh

BALANCE_TOL = 1e-10
RANGE_TOL = 1e-8
CG_TOL = 1e-12
MAX_ITER_FACTOR = 10


class ConjugateGradientError(RuntimeError):
    """CG failed to reach the requested residual within the iteration cap."""


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


@dataclass
class OnsagerOperator:
    """B(m) as CSR data on its pattern, with the component labels of the
    faces of positive conductance: B's kernel is constants per component."""

    data: np.ndarray
    pattern: OnsagerPattern
    component: np.ndarray
    n_components: int

    @property
    def n(self) -> int:
        return len(self.pattern.indptr) - 1

    @property
    def matrix(self) -> sp.csr_matrix:
        """B as a scipy matrix, built on each access around data."""
        return sp.csr_matrix((self.data, self.pattern.indices.copy(),
                              self.pattern.indptr.copy()),  # scipy may sort them
                             shape=(self.n, self.n))

    def diagonal(self) -> np.ndarray:
        """B's diagonal, read through the (k,k) and (l,l) slots."""
        diag = np.zeros(self.n)   # 0 on a cell without faces
        slots = self.pattern.slots[:2]
        diag[self.pattern.indices[slots]] = self.data[slots]
        return diag

    def matvec(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """B v, written into out: the kernel call that matrix @ v makes
        after scipy's dispatch, so the same bits."""
        out.fill(0.0)   # csr_matvec adds into its output
        n, pattern = self.n, self.pattern
        csr_matvec(n, n, pattern.indptr, pattern.indices, self.data, v, out)
        return out


def assemble_onsager(mesh: Mesh | None, weights, m, pi) -> OnsagerOperator:
    """Build B(m) from face conductances theta(r_K, r_L) w_KL, theta the
    logarithmic mean and w the `FaceWeights`.

    The mesh argument is accepted for symmetry with the other assembly
    routines but only the cell count is needed, so None is allowed.  Many m
    on one face graph are assembled together, on one `onsager_pattern`, by
    `onsager_operators`.
    """
    mm = _masses(m)
    n = mesh.n_cells if mesh is not None else len(mm)
    return onsager_operators(onsager_pattern(weights.face_cells, n), weights,
                             mm[None], pi)[0]


def onsager_operators(pattern: OnsagerPattern, weights, masses,
                      pi) -> list[OnsagerOperator]:
    """B(m) for each row m of masses (nodes, cells), all on one pattern.

    Each diagonal entry sums its faces' conductances over the (k,k) slots,
    then the (l,l) slots, in face order: one bincount over (node, slot)
    for every node.  The component labels are the pattern's where every
    face conducts, and those of the conducting faces otherwise.
    """
    mm = np.asarray(masses, dtype=float)
    w, fc = weights.w, weights.face_cells
    nodes, n = mm.shape
    if len(pattern.indptr) != n + 1 or pattern.slots.shape[1] != len(fc):
        raise ValueError("the Onsager pattern was built for another face graph")
    r = mm / _masses(pi)
    cond = mean_value("logarithmic", r[:, fc[:, 0]], r[:, fc[:, 1]]) * w
    nnz = len(pattern.indices)
    bins = np.arange(nodes)[:, None] * nnz + pattern.slots[:2].ravel()
    data = np.bincount(bins.ravel(), weights=np.tile(cond, 2).ravel(),
                       minlength=nodes * nnz).reshape(nodes, nnz)
    data[:, pattern.slots[2:]] = -cond[:, None]   # (k,l) and (l,k)
    operators = []
    for data_i, cond_i in zip(data, cond):
        live = cond_i > 0.0
        if live.all():
            n_comp, labels = pattern.n_components, pattern.component
        else:
            adjacency = sp.coo_matrix((cond_i[live], (fc[live, 0], fc[live, 1])),
                                      shape=(n, n))
            n_comp, labels = csgraph.connected_components(adjacency,
                                                          directed=False)
        operators.append(OnsagerOperator(data_i, pattern, labels, int(n_comp)))
    return operators


def dual_action(m, sigma, weights=None, pi=None,
                operator: OnsagerOperator | list[OnsagerOperator] | None = None,
                mesh: Mesh | None = None, initial_guess=None,
                return_solution: bool = False):
    """Evaluate the dual action at a balanced cell field sigma.

    Solves B(m) f = sigma by Jacobi-preconditioned conjugate gradients on the
    mean-zero subspace (relative residual CG_TOL, at most 10 n iterations,
    fixed iteration order) and returns <sigma, f>/2.  Returns math.inf when
    sigma is unbalanced or has a component outside range(B) with relative
    norm above RANGE_TOL.  With return_solution the pair (value, f) comes
    back, which lets sequential callers warm-start the next solve.

    A stack of k nodes on one Onsager pattern (m and sigma (k, n), operator
    a list of k operators from onsager_operators, initial_guess None or a
    list of k guesses, each None or an array) gives a (k,) array of values,
    and with return_solution the list of solutions too, each row's bits
    those of its own call: the connected rows are solved in lockstep by
    _solve_cg_lockstep, and a row that needs no solve, or whose solve
    leaves the regular path, alone by _solve_cg.
    """
    sig = np.asarray(sigma, dtype=float)
    stack = sig.ndim == 2
    if operator is None:
        if weights is None or pi is None or stack:
            raise ValueError("pass weights and pi, or a prebuilt operator "
                             "(a list of them for a stack)")
        operator = assemble_onsager(mesh, weights, m, pi)
    if stack:
        operators, sigmas = list(operator), sig
        guesses = ([None] * len(sig) if initial_guess is None
                   else list(initial_guess))
    else:
        operators, sigmas, guesses = [operator], sig[None], [initial_guess]
    if (len(operators) != len(sigmas) or len(guesses) != len(sigmas)
            or any(op.pattern is not operators[0].pattern for op in operators)):
        raise ValueError("a stack needs one operator and one guess per row, "
                         "the operators on one Onsager pattern")
    values, solutions, systems = np.zeros(len(sigmas)), [None] * len(sigmas), {}
    for i, (sig_i, op) in enumerate(zip(sigmas, operators)):
        if sig_i.shape != (op.n,):
            raise ValueError("sigma has the wrong shape")
        sig_norm1 = float(np.abs(sig_i).sum())
        if sig_norm1 == 0.0:
            solutions[i] = np.zeros(op.n)
            continue
        total = float(sig_i.sum())
        if abs(total) > BALANCE_TOL * max(1.0, sig_norm1):
            warnings.warn(f"sigma is unbalanced (sum {total:.3e}); the supremum "
                          "over constants diverges", stacklevel=2)
            values[i] = math.inf
            continue
        labels, n_comp = op.component, op.n_components
        comp_sums = np.bincount(labels, weights=sig_i, minlength=n_comp)
        counts = np.bincount(labels, minlength=n_comp)
        if n_comp > 1:
            # zero-mass regions split the graph; sigma must balance on each piece
            off_range = float(np.sqrt(np.sum(comp_sums ** 2 / counts)))
            if off_range > RANGE_TOL * float(np.linalg.norm(sig_i)):
                values[i] = math.inf
                continue
        systems[i] = (sig_i - (comp_sums / counts)[labels],  # exact range part
                      counts)
    lockstep = [i for i in systems if operators[i].n_components == 1]
    if len(lockstep) > 1:
        solved = _solve_cg_lockstep([operators[i] for i in lockstep],
                                    np.array([systems[i][0] for i in lockstep]),
                                    [guesses[i] for i in lockstep])
        for i, f in zip(lockstep, solved):
            solutions[i] = f
    for i, (b, counts) in systems.items():
        if solutions[i] is None:   # alone, or off the lockstep's regular path
            solutions[i] = _solve_cg(operators[i], b, guesses[i], counts)
        values[i] = 0.5 * float(sigmas[i] @ solutions[i])
    if not stack:
        values, solutions = float(values[0]), solutions[0]
    return (values, solutions) if return_solution else values


def _solve_cg(operator: OnsagerOperator, b: np.ndarray, x0: np.ndarray | None,
              counts: np.ndarray) -> np.ndarray:
    # bincount casts its labels to intp on every call otherwise
    labels = operator.component.astype(np.intp, copy=False)
    n_comp = operator.n_components

    def project(v: np.ndarray) -> np.ndarray:  # in place: B's kernel is constants
        sums = np.bincount(labels, weights=v, minlength=n_comp)
        v -= sums[0] / counts[0] if n_comp == 1 else (sums / counts)[labels]
        return v

    n = operator.n
    product = np.empty(n)   # B v: the one output of every kernel call
    matvec = operator.matvec
    diag = operator.diagonal()
    inv_diag = np.where(diag > 0.0, 1.0 / np.where(diag > 0.0, diag, 1.0), 0.0)
    b_norm = math.sqrt(float(b.dot(b)))
    if b_norm == 0.0:
        return np.zeros(n)
    x = np.zeros(n) if x0 is None else project(np.array(x0, dtype=float))
    r = b - matvec(x, product)
    z = project(inv_diag * r)
    p = z.copy()
    step = np.empty(n)   # alpha p, then alpha Ap: one buffer, no temporaries
    rz = float(r.dot(z))
    r_norm = math.sqrt(float(r.dot(r)))
    tol = CG_TOL * b_norm
    max_iter = MAX_ITER_FACTOR * n
    for _ in range(max_iter):
        if r_norm <= tol:
            return x
        ap = matvec(p, product)
        pap = float(p.dot(ap))
        if pap <= 0.0:
            break
        alpha = rz / pap
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, ap, out=step)
        r_norm = math.sqrt(float(r.dot(r)))
        if r_norm <= tol:
            return x
        project(np.multiply(inv_diag, r, out=z))   # z, in place
        rz_next = float(r.dot(z))
        if rz <= 0.0:
            break
        p *= rz_next / rz   # z + beta p, in place: IEEE addition commutes
        p += z
        rz = rz_next
    residual = float(np.linalg.norm(b - matvec(x, product))) / b_norm
    if residual <= CG_TOL * 10.0:
        return x
    if x0 is not None:   # a warm start that stalls: once more from zero
        return _solve_cg(operator, b, None, counts)
    raise ConjugateGradientError(
        f"no convergence in {max_iter} iterations, relative residual {residual:.3e}")


def _solve_cg_lockstep(operators: list[OnsagerOperator], b: np.ndarray,
                       guesses: list) -> list:
    """_solve_cg for each row of b (k, n), with its own operator (one
    component each, all on one pattern) and warm start, in lockstep.

    Each step makes one block-diagonal csr_matvec over the stacked B(m)
    data (each row sums its entries from 0 in pattern order, as for one
    row), three stacked dot products (a (1, n) by (n, 1) matmul per row,
    BLAS ddot, as geometry.row_dot) and one csr_matvec of ones for the
    sums that project z (each row summed from 0 in index order, as
    bincount sums a bin), and each row does _solve_cg's operations in
    _solve_cg's order, so its bits are those of _solve_cg.  A row leaves
    when its residual is met, its x copied out; it stays in the stack as
    NaN until every row has left.  A row that would take an irregular path
    (b = 0, pAp <= 0, rz <= 0 or the iteration cap) comes back as None, to
    be solved alone.
    """
    k, n = b.shape
    pattern = operators[0].pattern
    itype = pattern.indices.dtype
    nnz = len(pattern.indices)
    rows = np.arange(k)
    # row c of the stack is block c of the block-diagonal pattern
    indptr = np.append(rows[:, None] * nnz + pattern.indptr[:-1],
                       k * nnz).astype(itype)
    indices = (rows[:, None] * n + pattern.indices).ravel().astype(itype)
    sum_ptr, sum_idx = (np.arange(k + 1) * n).astype(itype), np.arange(
        k * n, dtype=itype)
    ones = np.ones(k * n)
    # vectors are (rows, 1, n) and per-row scalars (rows, 1, 1), so that the
    # stacked matmul and the broadcasts take them as they are
    data = np.array([op.data for op in operators])
    diag = np.zeros((k, 1, n))   # OnsagerOperator.diagonal per row
    slots = pattern.slots[:2]
    diag[:, 0, pattern.indices[slots]] = data[:, slots]
    inv_diag = np.where(diag > 0.0, 1.0 / np.where(diag > 0.0, diag, 1.0), 0.0)
    b = b[:, None, :]

    def column(v: np.ndarray) -> np.ndarray:   # each row as an (n, 1) matrix
        return v.reshape(k, n, 1)

    def project(v: np.ndarray) -> np.ndarray:  # in place, row by row
        means = np.zeros((k, 1, 1))   # csr_matvec adds into its output
        csr_matvec(k, k * n, sum_ptr, sum_idx, ones, v, means)
        means /= n
        v -= means
        return v

    x = np.zeros((k, 1, n))
    for i, x0 in enumerate(guesses):
        if x0 is not None:
            x[i, 0] = x0
    project(x)
    product = np.zeros((k, 1, n))
    csr_matvec(k * n, k * n, indptr, indices, data, x, product)
    r = b - product
    z = project(inv_diag * r)
    p = z.copy()
    step = np.empty_like(x)
    ap_col, r_col, z_col = column(product), column(r), column(z)
    # _solve_cg's three checks per row, pAp, the residual and rz, each met
    # at or below its limit (0, tol, 0); no check meets a NaN limit
    checks, limits = np.empty((k, 3, 1)), np.zeros((k, 3, 1))
    pap, r_norm, rz = checks[:, :1], checks[:, 1:2], checks[:, 2:]
    np.matmul(r, z_col, out=rz)
    np.sqrt(np.matmul(r, r_col), out=r_norm)
    b_norm = np.sqrt(np.matmul(b, column(b))).ravel()
    limits[:, 1, 0] = CG_TOL * b_norm
    solutions, live = [None] * k, k

    def leave(stopped, done):
        """Copy out the x of the rows done; the rows stopped get NaN limits
        and a NaN p, so that they neither stop a later step nor slow it
        down with subnormal numbers."""
        nonlocal live
        for j in np.flatnonzero(stopped):
            if done[j]:
                solutions[j] = x[j, 0].copy()
            limits[j] = p[j] = math.nan
            live -= 1

    # _solve_cg returns zeros at once for b = 0, and x before its first step
    # where the residual is already met
    met = r_norm.ravel() <= limits[:, 1, 0]
    leave(met | (b_norm == 0.0), met & (b_norm != 0.0))
    stop = np.empty(checks.shape, dtype=bool)
    # a row that leaves irregular may divide by zero before it leaves, and
    # a row that left computes with NaN
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_ITER_FACTOR * n):
            if not live:
                break
            product.fill(0.0)   # csr_matvec adds into its output
            csr_matvec(k * n, k * n, indptr, indices, data, p, product)
            np.matmul(p, ap_col, out=pap)
            alpha = rz / pap
            x += np.multiply(alpha, p, out=step)
            r -= np.multiply(alpha, product, out=step)
            np.sqrt(np.matmul(r, r_col), out=r_norm)
            # in _solve_cg's order: pAp, the residual, then the previous rz
            np.less_equal(checks, limits, out=stop)
            project(np.multiply(inv_diag, r, out=z))
            rz_next = np.matmul(r, z_col)
            p *= rz_next / rz
            p += z
            rz[...] = rz_next
            if np.count_nonzero(stop):
                # done: the residual met after a step with pAp > 0
                leave(stop.any(axis=(1, 2)), stop[:, 1, 0] & ~stop[:, 0, 0])
    return solutions
