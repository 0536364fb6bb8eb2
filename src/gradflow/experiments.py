"""Convergence studies: energy limits, EDI audits, evolutionary convergence.

Continuum references are independent of the code paths under test: closed
forms where available (cosine heat solutions, 1D entropies and duals by
fine quadrature), Richardson-extrapolated fine-mesh solutions otherwise.
Studies are deterministic for fixed seeds and reproduce byte-identical CSV.
"""
from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import geometry
from .geometry import Box
from .mesh import (Mesh, build_cartesian_mesh, build_interval_mesh,
                   build_voronoi_mesh, Domain, cells_inside, isotropy_defect,
                   _interval_table)
from .reference import (DiscreteMeasure, PointFunction, Potential,
                        density_from_token, discretize_reference, face_weights,
                        project_function, project_measure, zero_potential,
                        _boltzmann, _pointwise)
from .functionals import dirichlet_energy, entropy, fisher
from .dual_action import (OnsagerPattern, dual_action, onsager_operators,
                          onsager_pattern)
from .dynamics import (EXACT_DENSE_LIMIT, Generator, build_generator,
                       solve_trajectory)
from .forked import run_groups


# -- mesh families ---------------------------------------------------------------


@dataclass
class MeshFamily:
    """Named vanishing sequence of meshes of one dimension: make(label) for
    each label, their sizes strictly decreasing."""

    name: str
    dim: int
    labels: list
    make: Callable = field(repr=False)

    def build(self) -> list[Mesh]:
        meshes = [self.make(label) for label in self.labels]
        sizes = [m.size() for m in meshes]
        for a, b in zip(sizes, sizes[1:]):
            if not b < a:
                raise ValueError(f"family {self.name}: mesh sizes not "
                                 f"strictly decreasing ({a} -> {b})")
        return meshes


def uniform_interval_family(sizes=(16, 32, 64, 128, 256)) -> MeshFamily:
    return MeshFamily("uniform1d", 1, list(sizes), build_interval_mesh)


def cartesian_family(sizes=(4, 8, 16, 32)) -> MeshFamily:
    return MeshFamily("cartesian", 2, list(sizes),
                      lambda n: build_cartesian_mesh(n, n))


def _jittered_sites(g: int, jitter: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng([seed, g])
    ii, jj = np.meshgrid(np.arange(g), np.arange(g), indexing="ij")
    base = np.column_stack([(ii.ravel() + 0.5) / g, (jj.ravel() + 0.5) / g])
    offsets = (rng.random((g * g, 2)) - 0.5) * (jitter / g)
    return base + offsets


def jittered_voronoi_family(sizes=(16, 36, 64, 144), seed=42) -> MeshFamily:
    def builder(n):
        g = max(2, round(math.sqrt(n)))
        return build_voronoi_mesh(_jittered_sites(g, 0.35, seed),
                                  Domain.rectangle(0.0, 0.0, 1.0, 1.0))

    return MeshFamily("voronoi", 2, list(sizes), builder)


def _staggered_sites(nx: int, ny: int) -> np.ndarray:
    sites = np.empty((nx * ny, 2))
    for j in range(ny):
        shift = 0.25 if j % 2 else -0.25
        for i in range(nx):
            sites[j * nx + i] = [(i + 0.5 + shift) / nx, (j + 0.5) / ny]
    return sites


def flattened_voronoi_family(sizes=(16, 32, 64, 128)) -> MeshFamily:
    """Anisotropic staggered family: cells roughly four times wider than
    tall, with alternate rows offset by a quarter cell.  The second-moment
    isotropy defect of this pattern stays bounded away from zero."""

    def builder(n):
        nx = max(1, round(math.sqrt(n / 4.0)))
        ny = max(2, round(n / nx))
        return build_voronoi_mesh(_staggered_sites(nx, ny),
                                  Domain.rectangle(0.0, 0.0, 1.0, 1.0))

    return MeshFamily("flattened", 2, list(sizes), builder)


def family_from_token(token: str, seed: int = 42) -> MeshFamily:
    """Parse tokens such as 'uniform1d:16..256' or 'cartesian:4..32'."""
    name, _, tail = token.partition(":")
    sized = {"sizes": _parse_sizes(tail)} if tail else {}   # else the defaults
    if name == "uniform1d":
        return uniform_interval_family(**sized)
    if name == "cartesian":
        return cartesian_family(**sized)
    if name == "voronoi":
        return jittered_voronoi_family(**sized, seed=seed)
    if name == "flattened":
        return flattened_voronoi_family(**sized)
    raise ValueError(f"unknown family {token!r}")


def _parse_sizes(tail: str) -> tuple:
    if ".." in tail:
        lo, hi = (int(v) for v in tail.split(".."))
        if not 0 < lo <= hi:
            raise ValueError(f"family sizes {tail!r}: a..b needs 0 < a <= b")
        # a, 2a, 4a, ... while at most b
        return tuple(lo * 2 ** k for k in range((hi // lo).bit_length()))
    return tuple(int(s) for s in tail.split(","))


# -- study results ---------------------------------------------------------------


@dataclass
class StudyRow:
    mesh_size: float
    value: float
    reference: float
    error: float
    order: float = math.nan
    extras: dict = field(default_factory=dict)


@dataclass
class StudyResult:
    name: str
    params: dict
    rows: list[StudyRow]

    def column(self, key: str) -> np.ndarray:
        if key in ("mesh_size", "value", "reference", "error", "order"):
            return np.array([getattr(r, key) for r in self.rows])
        return np.array([r.extras[key] for r in self.rows])

    def extra_keys(self) -> list[str]:
        keys: list[str] = []
        for row in self.rows:
            for k in row.extras:
                if k not in keys:
                    keys.append(k)
        return keys

    def to_csv(self, path) -> None:
        keys = self.extra_keys()
        header = ",".join(["mesh_size", "value", "reference", "error", "order"]
                          + keys)
        lines = [header]
        for r in self.rows:
            vals = [r.mesh_size, r.value, r.reference, r.error, r.order]
            vals += [r.extras.get(k, math.nan) for k in keys]
            lines.append(",".join(repr(float(v)) for v in vals))
        with open(path, "w", encoding="ascii") as fh:
            fh.write("\n".join(lines) + "\n")

    def summary(self) -> dict:
        return {"study": self.name, "parameters": self.params,
                "rows": [{"mesh_size": r.mesh_size, "value": r.value,
                          "reference": r.reference, "error": r.error,
                          "order": r.order, **r.extras} for r in self.rows]}


def _attach_orders(rows: list[StudyRow]) -> None:
    for prev, row in zip(rows, rows[1:]):
        if prev.error > 0.0 and row.error > 0.0:
            row.order = math.log2(prev.error / row.error)


# -- continuum references ----------------------------------------------------------


def _reference_rule(domain: Domain, resolution: int):
    """(N, d) points and weights of the fine rule on a domain.

    d=1: composite 4-point Gauss-Legendre on `resolution` equal cells.
    d=2: the midpoints, y-major, of a resolution^2 grid on the bounding box
    that lie in the domain, each weighted by the area of a grid cell.
    """
    if domain.dim == 1:
        edges = np.linspace(float(domain.bounds[0]), float(domain.bounds[1]),
                            resolution + 1)
        table = _interval_table(np.column_stack([edges[:-1], edges[1:]]), 4)
        return table.nodes, table.weights
    verts = np.asarray(domain.vertices)
    x0, y0 = verts.min(axis=0)
    x1, y1 = verts.max(axis=0)
    xs = x0 + (np.arange(resolution) + 0.5) * (x1 - x0) / resolution
    ys = y0 + (np.arange(resolution) + 0.5) * (y1 - y0) / resolution
    cell = (x1 - x0) * (y1 - y0) / (resolution * resolution)
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel()])
    points = points[domain.contains(points, tol=0.0)]
    return points, np.full(len(points), cell)


def stationary_density(potential: Potential, domain: Domain,
                       resolution: int = 4096) -> PointFunction:
    """Continuum density exp(-V)/Z with Z from the fine rule (`resolution`
    cells in 1D, the 512^2 grid in 2D)."""
    boltzmann = _boltzmann(potential)
    points, weights = _reference_rule(domain,
                                      resolution if domain.dim == 1 else 512)
    z = float(np.sum(weights * boltzmann.batch(points)))
    return PointFunction(lambda p: boltzmann.batch(p) / z)


def continuum_entropy(mu: Callable, potential: Potential, domain: Domain,
                      resolution: int = 4096) -> float:
    """int mu log(mu/sigma) dx over a 1D domain."""
    sigma = stationary_density(potential, domain, resolution)
    x, w = _reference_rule(domain, resolution)
    rho = _pointwise(mu, x)
    pos = rho > 0.0
    ratio = rho[pos] / _pointwise(sigma, x[pos])
    return float(np.sum(w[pos] * rho[pos] * np.log(ratio)))


def continuum_fisher(mu: Callable, potential: Potential, domain: Domain,
                     resolution: int = 4096) -> float:
    """4 int |grad sqrt(mu/sigma)|^2 sigma dx: eight times the Dirichlet
    reference of sqrt(mu/sigma) against sigma, on the same fine rule."""
    sigma = stationary_density(potential, domain, resolution)
    root = PointFunction(lambda p: np.sqrt(_pointwise(mu, p) / sigma.batch(p)))
    return 8.0 * continuous_dirichlet(root, sigma, domain, resolution=resolution)


def continuum_dual(mu: Callable, eta: Callable, potential: Potential,
                   domain: Domain, resolution: int = 4096) -> float:
    """Dual action of the balanced source eta d(reference) against mu (1D).

    With E(x) = int_a^x (eta - mean) sigma ds, the dual is
    1/2 int E^2 / mu dx; the no-flux solution of the weighted Poisson
    problem is used in closed form.
    """
    sigma = stationary_density(potential, domain, resolution)
    a, b = float(domain.bounds[0]), float(domain.bounds[1])
    edges = np.linspace(a, b, resolution + 1)
    mids = (0.5 * (edges[:-1] + edges[1:]))[:, None]
    dx = np.diff(edges)
    sig = _pointwise(sigma, mids)
    et = _pointwise(eta, mids)
    mean = float(np.sum(et * sig * dx))  # sigma integrates to one
    flux = np.cumsum((et - mean) * sig * dx)
    e_mid = flux - 0.5 * (et - mean) * sig * dx  # midpoint values of E
    rho = _pointwise(mu, mids)
    return 0.5 * float(np.sum(e_mid ** 2 / rho * dx))


def continuous_dirichlet(phi: Callable, density: Callable, domain: Domain,
                         grad: Callable | None = None,
                         resolution: int = 512) -> float:
    """Reference energy 1/2 int |grad phi|^2 density dx by the fine rule.

    d=1 uses composite 4-point Gauss on `resolution` subintervals; d=2 uses
    the midpoint grid of size resolution^2 (restricted to the domain
    polygon).  The gradient defaults to central differences with h = 1e-6.
    """
    points, weights = _reference_rule(domain, resolution)
    if grad is None:
        h = 1e-6
        g = np.column_stack([(_pointwise(phi, points + step)
                              - _pointwise(phi, points - step)) / (2.0 * h)
                             for step in h * np.eye(domain.dim)])
    else:
        g = _pointwise(grad, points).reshape(len(points), -1)
    g2 = np.sum(g * g, axis=1)
    return 0.5 * float(np.sum(weights * g2 * _pointwise(density, points)))


# -- 1D Wasserstein distance --------------------------------------------------------


@dataclass(frozen=True)
class Density1D:
    """Piecewise-constant probability density on [edges[0], edges[-1]]."""

    edges: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.edges, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if e.ndim != 1 or v.shape != (e.size - 1,):
            raise ValueError("edges and values shapes do not match")
        e.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "values", v)

    @staticmethod
    def from_mesh(mesh: Mesh, values) -> "Density1D":
        if mesh.dim != 1:
            raise ValueError("Density1D requires a one-dimensional mesh")
        order = np.argsort(mesh.cell_bounds[:, 0], kind="stable")
        edges = np.append(mesh.cell_bounds[order, 0],
                          mesh.cell_bounds[order[-1], 1])
        return Density1D(edges, np.asarray(values, dtype=float)[order])

    def mass(self) -> float:
        return float(np.sum(self.values * np.diff(self.edges)))


def wasserstein_1d(p: Density1D, q: Density1D) -> float:
    """Quadratic Wasserstein distance of two piecewise-constant densities.

    Exact quantile integration: between consecutive breakpoints of either
    cumulative, both quantile functions are affine in the mass coordinate,
    so each piece integrates in closed form.
    """
    for dens in (p, q):
        if np.any(dens.values < -1e-12):
            raise ValueError("densities must be nonnegative")
        if abs(dens.mass() - 1.0) > 1e-10:
            raise ValueError(f"density mass {dens.mass()!r} is not 1 to 1e-10")

    def cumulative(dens: Density1D):
        masses = np.maximum(dens.values, 0.0) * np.diff(dens.edges)
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        return cum / cum[-1]

    cp, cq = cumulative(p), cumulative(q)
    cuts = np.unique(np.concatenate([cp, cq]))
    lo, hi = cuts[:-1], cuts[1:]
    span = hi - lo
    keep = span > 0.0
    lo, hi, span = lo[keep], hi[keep], span[keep]
    mid = 0.5 * (lo + hi)

    def quantile_params(dens: Density1D, cum: np.ndarray):
        idx = np.clip(np.searchsorted(cum, mid, side="right") - 1, 0,
                      len(dens.values) - 1)
        mass = cum[idx + 1] - cum[idx]
        slope = np.diff(dens.edges)[idx] / mass
        intercept = dens.edges[idx] - cum[idx] * slope
        return intercept, slope

    ip, sp = quantile_params(p, cp)
    iq, sq = quantile_params(q, cq)
    alpha = ip - iq
    beta = sp - sq
    a = alpha + beta * lo
    b = alpha + beta * hi
    total = float(np.sum(span * (a * a + a * b + b * b) / 3.0))
    return math.sqrt(max(total, 0.0))


# -- gamma-limit studies -------------------------------------------------------------


def gamma_energy_study(family: MeshFamily, phi: Callable, potential: Potential,
                       m_rule: str = "stationary", mu: Callable | None = None,
                       grad: Callable | None = None) -> StudyResult:
    """Embedded Dirichlet energies of the projected test function vs the limit.

    m_rule 'stationary' uses m = pi (reference energy against the stationary
    density); 'projected' uses m = P_T mu for a supplied Lebesgue density mu.
    """
    if m_rule not in ("stationary", "projected"):
        raise ValueError("m_rule must be 'stationary' or 'projected'")
    if m_rule == "projected" and mu is None:
        raise ValueError("projected m_rule needs the density mu")
    meshes = family.build()
    domain = meshes[0].domain
    density = (stationary_density(potential, domain) if m_rule == "stationary"
               else mu)
    reference = continuous_dirichlet(phi, density, domain, grad=grad)

    def one(mesh: Mesh) -> StudyRow:
        pi = discretize_reference(mesh, potential)
        m = pi if m_rule == "stationary" else project_measure(mesh, mu)
        value = dirichlet_energy(mesh, project_function(mesh, phi), m)
        return StudyRow(mesh_size=mesh.size(), value=value, reference=reference,
                        error=abs(value - reference))

    rows = [one(mesh) for mesh in meshes]
    _attach_orders(rows)
    return StudyResult("gamma_energy",
                       {"family": family.name, "m_rule": m_rule,
                        "potential": potential.name, "kind": "logarithmic"}, rows)


def _boundary_layer_measure(domain: Domain, box: Box, width: float) -> float:
    """Measure of the width-neighbourhood of the box boundary inside Omega."""
    def measure(bx: Box) -> float:
        """|Omega ∩ bx|."""
        if np.any(bx.hi <= bx.lo):
            return 0.0
        if domain.dim == 2:
            verts = domain.vertices
            return float(geometry.overlap_area(verts[None], np.array([len(verts)]),
                                               bx.as_polygon()[None], np.array([4]))[0])
        a, b = float(domain.bounds[0]), float(domain.bounds[1])
        return max(0.0, min(b, float(bx.hi[0])) - max(a, float(bx.lo[0])))

    return measure(box.expanded(width)) - measure(box.expanded(-width))


def gamma_affine_minimization_study(family: MeshFamily, z, xi,
                                    eps: float) -> StudyResult:
    """Localized energy of the projected affine field against eps^d |xi|^2.

    The affine field is discrete-harmonic away from the cube boundary (a
    flux-balance identity on complete neighbour rings); its cube-localized
    energy, in the face-sum normalization, converges to eps^d |xi|^2 with a
    discrepancy controlled by the measured boundary-layer volume.
    """
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    xi_arr = np.atleast_1d(np.asarray(xi, dtype=float))
    box = Box.from_center(z_arr, eps)
    meshes = family.build()
    domain = meshes[0].domain
    margin = 1e-9 * max(domain.diameter, 1.0)
    corners = np.array([box.lo, box.hi]) if domain.dim == 1 else box.as_polygon()
    if not domain.contains(corners, tol=-margin).all():
        raise ValueError("the cube must be compactly contained in the domain")
    reference = eps ** domain.dim * float(xi_arr @ xi_arr)

    def one(mesh: Mesh) -> StudyRow:
        pi = DiscreteMeasure(mesh.volumes / mesh.volumes.sum())
        f = (mesh.sites - z_arr[None, :]) @ xi_arr
        value = 2.0 * dirichlet_energy(mesh, f, pi, region=box)
        interior = np.flatnonzero(cells_inside(mesh, box))
        faces, neighbours = (table[interior] for table in mesh.face_graph().padded())
        trans = mesh.transmissibilities()
        flux = np.zeros(len(interior))
        for face, nb in zip(faces.T, neighbours.T):     # each cell's faces in turn
            flux = np.where(face >= 0, flux + trans[face] * (f[nb] - f[interior]), flux)
        residual = float(np.abs(flux).max(initial=0.0))
        layer = _boundary_layer_measure(domain, box, 5.0 * mesh.size())
        return StudyRow(mesh_size=mesh.size(), value=value, reference=reference,
                        error=abs(value - reference),
                        extras={"harmonicity_residual": residual,
                                "boundary_layer": layer,
                                "interior_cells": float(len(interior))})

    rows = [one(mesh) for mesh in meshes]
    _attach_orders(rows)
    return StudyResult("gamma_affine",
                       {"family": family.name, "z": tuple(z_arr),
                        "xi": tuple(xi_arr), "eps": eps}, rows)


# -- EDI audit -------------------------------------------------------------------------


def _simpson(values: np.ndarray, T: float) -> float:
    """Simpson's rule for values at equally spaced nodes on [0, T]."""
    steps = len(values) - 1
    if steps % 2 != 0:
        raise ValueError("Simpson quadrature needs an even number of steps")
    w = np.ones(steps + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((w * (T / steps / 3.0)) @ values)


# nodes per block of a dual chain, and per batched Onsager assembly.  A
# block is one run of warm-started solves from zero: the cut depends only
# on node indices, never on the CPU count.  Why 32: it splits edi-2d's 386
# solves 192/194 over two CPUs and keeps the bytes of every recorded output
# (so does 64); blocks of 16 or 8 nodes, or fully cold solves, move
# edi-2d's tol from 4.038615183018142e-09 to 4.0386151811677705e-09.
_CHAIN_BLOCK = 32


def _dual_blocks(generator: Generator, pattern: OnsagerPattern,
                 blocks: list[np.ndarray]) -> list[np.ndarray]:
    """Dual action at (m, dm/dt) per node of each block of chains on one
    generator and its Onsager pattern.  Round j solves node j of every
    block that has one in one dual_action call on the stack, each
    warm-started from its block's node j - 1 (node 0 from zero); a lone
    block's stack of one is its plain CG solve.  The operators of the next
    rounds are assembled at once, about _CHAIN_BLOCK nodes at a time: a
    lone block in one batch, a stack of k blocks every
    ceil(_CHAIN_BLOCK / k) rounds."""
    weights, pi = generator.weights, generator.pi
    nodes = [np.empty(len(block)) for block in blocks]
    guesses = [None] * len(blocks)
    assembled = 0   # the rounds whose operators are assembled
    for j in range(max(map(len, blocks))):
        live = [i for i, block in enumerate(blocks) if j < len(block)]
        if j == assembled:
            assembled += -(-_CHAIN_BLOCK // len(live))
            keys = [(i, jj) for i in live
                    for jj in range(j, min(assembled, len(blocks[i])))]
            operators = dict(zip(keys, onsager_operators(
                pattern, weights, np.array([blocks[i][jj] for i, jj in keys]),
                pi)))
        masses = np.array([blocks[i][j] for i in live])
        values, solutions = dual_action(
            masses, np.array([generator.matrix @ m_i for m_i in masses]),
            operator=[operators[i, j] for i in live],
            initial_guess=[guesses[i] for i in live], return_solution=True)
        for i, value, f in zip(live, values, solutions):
            nodes[i][j], guesses[i] = value, f
    return nodes


def _dual_share(share: list, out) -> None:
    """Write the node values of a share's (generator, pattern, block)
    blocks to out in share order: one _dual_blocks call per run of blocks
    on one pattern (the EDI audit's two chains share theirs)."""
    for _, run in itertools.groupby(share, key=lambda block: id(block[1])):
        run = list(run)
        gen, pattern, _ = run[0]
        nodes = _dual_blocks(gen, pattern, [block for *_, block in run])
        out.write(np.concatenate(nodes).tobytes())


def _dual_chains(chains: list[tuple[str, Generator, np.ndarray]]
                 ) -> list[np.ndarray]:
    """The dual action per node of each (label, generator, masses) chain.

    Each chain is cut into blocks of _CHAIN_BLOCK consecutive nodes from
    node 0, on its generator's one Onsager pattern, and forked.run_groups
    cuts the blocks by cells x nodes into one share per allowed CPU, whose
    blocks of one generator _dual_share solves in lockstep (_dual_blocks).
    The blocks do not depend on the CPU count, and each solve's bits depend
    neither on the stack it is solved in nor on the share, so neither do
    the bits.  Nothing here decomposes a dense matrix: a child's BLAS would
    compete with the caller's for the CPUs.
    """
    blocks, patterns = [], {}
    for label, gen, masses in chains:
        if id(gen) not in patterns:
            patterns[id(gen)] = onsager_pattern(gen.weights.face_cells, gen.n)
        for lo in range(0, len(masses), _CHAIN_BLOCK):
            block = masses[lo:lo + _CHAIN_BLOCK]
            blocks.append((f"nodes {lo}-{lo + len(block) - 1} of {label}",
                           gen.n * len(block), (gen, patterns[id(gen)], block)))
    out = io.BytesIO()
    run_groups(blocks, _dual_share, out)
    return np.split(np.frombuffer(out.getbuffer()),
                    np.cumsum([len(masses) for _, _, masses in chains])[:-1])


@dataclass
class EdiAudit:
    """Entropy balance along an exact trajectory with Simpson time quadrature."""

    entropy_start: float
    entropy_end: float
    action_integral: float      # integral of the dual action at (m, dm/dt)
    fisher_integral: float      # integral of half the Fisher information
    residual: float
    times: np.ndarray
    dual_nodes: np.ndarray
    fisher_nodes: np.ndarray
    control_residual: float     # the same balance on every other node

    def summary(self) -> dict:
        return {"H0": self.entropy_start, "HT": self.entropy_end,
                "action_integral": self.action_integral,
                "fisher_integral": self.fisher_integral,
                "residual": self.residual, "nodes": len(self.times)}


def check_edi_steps(steps: int) -> None:
    """Reject a step count M that the audit and its control cannot share."""
    if steps < 4 or steps % 4 != 0:
        raise ValueError(f"edi steps M must be a positive multiple of 4 (an even "
                         f"number of Simpson steps at M and M/2), got {steps}")


def edi_audit(generator: Generator, m0: DiscreteMeasure, T: float,
              steps: int) -> EdiAudit:
    """Audit the entropy balance H(m_T) + int (dual + half Fisher) = H(m_0).

    Needs the dense spectral oracle (at most EXACT_DENSE_LIMIT cells),
    strictly positive initial masses (blend toward the stationary measure
    first otherwise) and steps a positive multiple of 4.  The residual
    along exact flows is pure quadrature error and shrinks at fourth order
    under node doubling; control_residual, the balance on every other node
    with its own dual solves, equals the residual of an audit at steps // 2,
    which may share the generator and its eigendecomposition.

    The dual solves form two chains, the main one over every node and the
    control one over the even nodes, each warm-started within blocks of
    _CHAIN_BLOCK nodes from its node 0.  _dual_chains cuts the blocks into
    one share per allowed CPU, the caller's and forked children's, and
    solves each share's blocks in lockstep (at steps = 256 on two CPUs, 192
    solves in the caller as 32 stacks of 6, 194 in a child as a stack of 8
    and 31 of 6); the bits depend neither on the stacks nor on the CPU
    count.  A failure in any block is raised here with its type and
    message, once every child is joined.
    """
    check_edi_steps(steps)
    if np.any(np.asarray(getattr(m0, "masses", m0)) <= 0.0):
        raise ValueError("initial measure must be positive on every cell "
                         "(blend toward the stationary measure first)")
    weights, pi = generator.weights, generator.pi
    trajectory = solve_trajectory(m0, T, steps, generator, scheme="exact_dense")
    masses = trajectory.masses
    # the even nodes of the exact flow are the nodes of the flow at steps // 2
    dual_nodes, control_dual = _dual_chains([
        ("the EDI main chain", generator, masses),
        ("the EDI control chain", generator, masses[::2])])
    fisher_nodes = np.array([0.5 * fisher(m_i, weights, pi) for m_i in masses])
    action_integral = _simpson(dual_nodes, T)
    fisher_integral = _simpson(fisher_nodes, T)
    # copied, because a strided dot product may sum in another order
    control_fisher = np.ascontiguousarray(fisher_nodes[::2])
    h0 = entropy(m0, pi)
    ht = entropy(trajectory.measure(steps), pi)
    residual = h0 - ht - (action_integral + fisher_integral)
    control_residual = h0 - ht - (_simpson(control_dual, T)
                                  + _simpson(control_fisher, T))
    return EdiAudit(entropy_start=h0, entropy_end=ht,
                    action_integral=action_integral,
                    fisher_integral=fisher_integral, residual=residual,
                    times=trajectory.times, dual_nodes=dual_nodes,
                    fisher_nodes=fisher_nodes,
                    control_residual=control_residual)


# -- evolutionary convergence -----------------------------------------------------------


def heat_cosine_density(t: float, amplitude: float = 0.5) -> PointFunction:
    """Closed-form heat solution 1 + a e^{-pi^2 t} cos(pi x) on [0, 1]."""
    damp = amplitude * math.exp(-math.pi ** 2 * t)
    return PointFunction(lambda p: 1.0 + damp * np.cos(np.pi * p[:, 0]))


def _cosine_density_1d_exact(t: float, cells: int,
                             amplitude: float = 0.5) -> Density1D:
    """Exact cell averages of the cosine heat solution on a uniform grid."""
    edges = np.linspace(0.0, 1.0, cells + 1)
    damp = amplitude * math.exp(-math.pi ** 2 * t)
    sin = np.sin(math.pi * edges)
    avg = 1.0 + damp * (sin[1:] - sin[:-1]) / (math.pi * np.diff(edges))
    return Density1D(edges, avg)


def _is_cosine_token(rho0) -> tuple[bool, float]:
    if isinstance(rho0, str):
        name, _, arg = rho0.partition(":")
        if name == "cosine":
            return True, float(arg) if arg else 0.5
    return False, 0.0


# time nodes of an evolutionary study, 0 and T included: an even number of
# intervals, as Simpson's rule needs
T_NODES = 17


def _richardson_reference_1d(potential: Potential, rho0: Callable, T: float,
                             t_nodes: int, n_fine: int, mean_kind: str
                             ) -> tuple[list[Density1D], DiscreteMeasure]:
    """Fine-mesh trajectory densities, Richardson-extrapolated in space onto
    the n_fine // 2 grid, and that grid's reference measure."""

    def densities(n: int) -> tuple[np.ndarray, DiscreteMeasure]:
        mesh = build_interval_mesh(n)
        gen = build_generator(mesh, potential, mean_kind)
        m0 = project_measure(mesh, rho0)
        traj = solve_trajectory(m0, T, t_nodes - 1, gen, scheme="exact_dense")
        return traj.masses * n, gen.pi  # Lebesgue densities on the grid

    fine, _ = densities(n_fine)
    coarse, coarse_pi = densities(n_fine // 2)
    averaged = 0.5 * (fine[:, 0::2] + fine[:, 1::2])
    extrap = (4.0 * averaged - coarse) / 3.0
    edges = np.linspace(0.0, 1.0, n_fine // 2 + 1)
    out = []
    for i in range(t_nodes):
        vals = np.maximum(extrap[i], 0.0)
        vals = vals / float(np.sum(vals * np.diff(edges)))
        out.append(Density1D(edges, vals))
    return out, coarse_pi


def evolutionary_convergence_study(family: MeshFamily, potential: Potential,
                                   rho0, T: float,
                                   mean_kind: str = "logarithmic") -> StudyResult:
    """Solution error of the discrete flow against a continuum reference.

    d=1 rows report sup_t of the exact quadratic Wasserstein distance between
    the embedded discrete solution and the reference (spectral cosine solution
    when V = 0, Richardson fine-mesh solution otherwise) on a grid of T_NODES
    times (read at call time), plus entropy excess and the two dissipation
    integrals.  The Richardson reference solves on 4 x max(sizes) and
    2 x max(sizes) cells with the dense oracle, so a family whose 4 x max
    exceeds EXACT_DENSE_LIMIT is refused before any mesh is built, and one
    off [0, 1], where both references live, before any reference.  The
    members' dual chains run through _dual_chains, on every allowed CPU.
    Families other than uniform1d are 2d and must be cartesian (see
    _evolutionary_study_2d).
    """
    t_nodes = T_NODES
    if family.name != "uniform1d":
        if family.name != "cartesian":
            raise ValueError(f"2d evolutionary convergence needs a cartesian "
                             f"family, got {family.name!r}")
        return _evolutionary_study_2d(family, potential, rho0, T, t_nodes,
                                      mean_kind)
    is_cos, amp = _is_cosine_token(rho0)
    spectral = is_cos and potential.name == "zero"
    n_fine = 4 * max(int(n) for n in family.labels)
    if not spectral and n_fine > EXACT_DENSE_LIMIT:
        raise ValueError(
            f"the 1d Richardson reference needs 4 x {n_fine // 4} = {n_fine} "
            f"cells, beyond the dense spectral oracle's {EXACT_DENSE_LIMIT}: "
            f"uniform1d sizes must be at most {EXACT_DENSE_LIMIT // 4}")
    meshes = family.build()
    domain = meshes[0].domain
    a, b = (float(x) for x in domain.bounds)
    if abs(a) > 1e-15 or abs(b - 1.0) > 1e-15:
        raise ValueError(f"the 1d study's references live on [0, 1], not on "
                         f"the family's interval [{a!r}, {b!r}]")
    rho0_fn = (density_from_token(rho0, 1) if isinstance(rho0, str) else rho0)
    times = np.linspace(0.0, T, t_nodes)
    if spectral:
        refs = [_cosine_density_1d_exact(t, 4096, amp) for t in times]
        entropy_refs = [continuum_entropy(heat_cosine_density(t, amp),
                                          potential, domain, 1024)
                        for t in times]
    else:
        refs, ref_pi = _richardson_reference_1d(potential, rho0_fn, T,
                                                t_nodes, n_fine, mean_kind)
        entropy_refs = [entropy(DiscreteMeasure.normalized(
            r.values * np.diff(r.edges)), ref_pi) for r in refs]
    # every eigendecomposition runs here, before _dual_chains forks: dstevd
    # on these tridiagonal generators (Generator.symmetric_eig), so no
    # child's BLAS competes with it
    generators = [build_generator(mesh, potential, mean_kind)
                  for mesh in meshes]
    trajectories = [solve_trajectory(project_measure(mesh, rho0_fn), T,
                                     t_nodes - 1, generator,
                                     scheme="exact_dense")
                    for mesh, generator in zip(meshes, generators)]
    # the finest member first, so that the caller runs the chain that
    # outweighs the others: with it in a child, the chains of
    # uniform1d:16..256 took 100 ms against 95 (medians, 2-core VM)
    dual_nodes = _dual_chains([
        (f"the dual chain on {mesh.n_cells} cells", generator, traj.masses)
        for mesh, generator, traj in zip(meshes[::-1], generators[::-1],
                                         trajectories[::-1])])[::-1]

    def one(mesh: Mesh, generator: Generator, traj,
            duals: np.ndarray) -> StudyRow:
        weights, pi = generator.weights, generator.pi
        sup_w2 = 0.0
        entropy_excess = 0.0
        for i in range(t_nodes):
            disc = Density1D.from_mesh(mesh, traj.masses[i] / mesh.volumes)
            sup_w2 = max(sup_w2, wasserstein_1d(disc, refs[i]))
            entropy_excess = max(entropy_excess,
                                 entropy(traj.measure(i), pi) - entropy_refs[i])
        fisher_integral = _simpson(np.array(
            [0.5 * fisher(m_i, weights, pi) for m_i in traj.masses]), T)
        return StudyRow(mesh_size=mesh.size(), value=sup_w2, reference=0.0,
                        error=sup_w2,
                        extras={"entropy_excess": entropy_excess,
                                "dual_integral": _simpson(duals, T),
                                "fisher_integral": fisher_integral})

    rows = [one(*member) for member in
            zip(meshes, generators, trajectories, dual_nodes)]
    _attach_orders(rows)
    return StudyResult("evolutionary",
                       {"family": family.name, "potential": potential.name,
                        "rho0": rho0 if isinstance(rho0, str) else "callable",
                        "T": T, "t_nodes": t_nodes}, rows)


def _evolutionary_study_2d(family: MeshFamily, potential: Potential, rho0,
                           T: float, t_nodes: int, mean_kind: str) -> StudyResult:
    """L1 density error against a 4x finer cartesian reference (d=2)."""
    sizes = [int(n) for n in family.labels]
    n_ref = 4 * max(sizes)
    for n in sizes:
        if n_ref % n != 0:
            raise ValueError("2d family sizes must divide the reference grid")
    meshes = family.build()
    rho0_fn = (density_from_token(rho0, 2) if isinstance(rho0, str) else rho0)
    ref_mesh = build_cartesian_mesh(n_ref, n_ref)
    ref_gen = build_generator(ref_mesh, potential, mean_kind)
    ref_m0 = project_measure(ref_mesh, rho0_fn)
    steps = 64 * (t_nodes - 1)
    ref_traj = solve_trajectory(ref_m0, T, steps, ref_gen,
                                scheme="implicit_euler")
    stride = steps // (t_nodes - 1)
    ref_dens = [ref_traj.masses[i * stride].reshape(n_ref, n_ref) * n_ref ** 2
                for i in range(t_nodes)]

    def one(mesh: Mesh, n: int) -> StudyRow:
        generator = build_generator(mesh, potential, mean_kind)
        m0 = project_measure(mesh, rho0_fn)
        traj = solve_trajectory(m0, T, t_nodes - 1, generator, scheme="auto")
        factor = n_ref // n
        cell_area = 1.0 / n_ref ** 2
        sup_l1 = 0.0
        for i in range(t_nodes):
            coarse = traj.masses[i].reshape(n, n) * n ** 2
            lifted = np.kron(coarse, np.ones((factor, factor)))
            sup_l1 = max(sup_l1,
                         float(np.abs(lifted - ref_dens[i]).sum()) * cell_area)
        return StudyRow(mesh_size=mesh.size(), value=sup_l1, reference=0.0,
                        error=sup_l1)

    rows = [one(mesh, n) for mesh, n in zip(meshes, sizes)]
    _attach_orders(rows)
    return StudyResult("evolutionary2d",
                       {"family": family.name, "potential": potential.name,
                        "T": T}, rows)


# -- liminf trend study ---------------------------------------------------------------


def lower_bound_trend_study(family: MeshFamily, mu: Callable, eta: Callable,
                            potential: Potential | None = None) -> StudyResult:
    """Entropy, Fisher and dual action of projected data against continuum values.

    Rows carry the signed entropy deficit in `error` (negative values witness
    the lower-semicontinuity side); Fisher and dual columns sit in extras.
    """
    potential = potential or zero_potential()
    meshes = family.build()
    domain = meshes[0].domain
    if domain.dim != 1:
        raise ValueError("the trend study runs on one-dimensional families")
    h_ref = continuum_entropy(mu, potential, domain)
    i_ref = continuum_fisher(mu, potential, domain)
    a_ref = continuum_dual(mu, eta, potential, domain)

    def one(mesh: Mesh) -> StudyRow:
        weights = face_weights(mesh, potential)
        pi = weights.pi
        m = project_measure(mesh, mu)
        h_val = entropy(m, pi)
        i_val = fisher(m, weights, pi)
        e = project_function(mesh, eta) * pi.masses
        e = e - pi.masses * float(e.sum())  # balance: subtract the pi-mean
        a_val = dual_action(m, e, weights, pi)
        return StudyRow(mesh_size=mesh.size(), value=h_val, reference=h_ref,
                        error=h_val - h_ref,
                        extras={"fisher_value": i_val, "fisher_ref": i_ref,
                                "fisher_deficit": i_val - i_ref,
                                "dual_value": a_val, "dual_ref": a_ref,
                                "dual_deficit": a_val - a_ref})

    rows = [one(mesh) for mesh in meshes]
    return StudyResult("lower_bound_trend",
                       {"family": family.name, "potential": potential.name},
                       rows)


# -- isotropy contrast ------------------------------------------------------------------


def isotropy_study(family: MeshFamily) -> StudyResult:
    """Sup isotropy defect per family member at V = 0 (recorded, compared at
    sizes)."""

    def one(mesh: Mesh) -> StudyRow:
        weights = face_weights(mesh, zero_potential())
        defect = float(isotropy_defect(mesh, weights, weights.pi).max())
        return StudyRow(mesh_size=mesh.size(), value=defect, reference=0.0,
                        error=defect)

    rows = [one(mesh) for mesh in family.build()]
    return StudyResult("isotropy", {"family": family.name}, rows)
