"""Stationary measure discretisation, face weights, projections, embeddings.

The reference density is sigma = exp(-V)/Z with Z fixed by cell-wise
quadrature; face_weights takes the cell masses pi(K) (FaceWeights.pi) and the
site values entering the weights from one pass, so they share Z on one mesh.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .functionals import mean_value
from .geometry import row_dot
from .mesh import Mesh

MASS_TOL = 1e-12
S_MEAN_KINDS = ("min", "max", "arithmetic", "geometric", "harmonic", "logarithmic")


@dataclass(frozen=True)
class Potential:
    """Driving potential V on the closed domain, given by `batch`, V over an
    (N, d) array of points; a call at one point evaluates it on one row."""

    name: str
    batch: Callable

    def __call__(self, x):
        return _at_point(self.batch, x)


@dataclass(frozen=True)
class PointFunction:
    """A function given by its array form over (N, d) points; a call at one
    point (a float in 1D, a point in 2D) evaluates it on one row."""

    batch: Callable

    def __call__(self, x):
        return _at_point(self.batch, x)


def _at_point(batch: Callable, x):
    """batch at one point: a float for scalar functions, else the row."""
    row = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    value = np.asarray(batch(row))[0]
    return float(value) if value.ndim == 0 else value


def _pointwise(g: Callable, points: np.ndarray) -> np.ndarray:
    """g at each row of (N, d) points: one call of g.batch where g has an
    array form, else point by point (a float argument in 1D, a point in 2D)."""
    batch = getattr(g, "batch", None)
    if batch is not None:
        return np.asarray(batch(points), dtype=float)
    if points.shape[1] == 1:
        return np.array([g(float(x[0])) for x in points], dtype=float)
    return np.array([g(x) for x in points], dtype=float)


def numbers(text: str, what: str, count: int | None = None, cast=float,
            positive: bool = False) -> list:
    """The values of a comma-separated argument, each read by cast (float or
    int), finite as a float and positive when asked, count of them when
    given; other text raises ValueError naming what and the text."""
    try:
        values = [cast(v) for v in text.split(",")]
        if count in (None, len(values)) and all(
                math.isfinite(v) and (v > 0 or not positive) for v in values):
            return values
    except (ValueError, OverflowError):     # OverflowError: an int past float
        pass
    rule = (("a positive integer" if positive else "an integer") if cast is int
            else "finite and positive" if positive else "a finite number")
    many = "" if count == 1 else f"{count or 'comma-separated'} values, each "
    raise ValueError(f"{what} must be {many}{rule}, got {text!r}")


def csv_rows(path) -> list:
    """(line number, fields) of each line of a CSV file, split on commas or
    whitespace, less blank and '#' lines and a header: the first other line
    when its first field is not a number (x,y or cell,mass)."""
    with open(path, encoding="ascii") as fh:
        rows = [(number, fields) for number, fields in enumerate(
            (line.replace(",", " ").split() for line in fh), start=1)
            if fields and not fields[0].startswith("#")]
    try:
        float(rows[0][1][0])
    except (IndexError, ValueError):    # no rows, or a header
        return rows[1:]
    return rows


def zero_potential() -> Potential:
    return Potential("zero", batch=lambda p: np.zeros(len(p)))


def linear_potential(a=1.0) -> Potential:
    vec = np.atleast_1d(np.asarray(a, dtype=float))
    return Potential("linear", batch=lambda p: row_dot(p, vec))


def quadratic_potential(center=0.5) -> Potential:
    c = np.atleast_1d(np.asarray(center, dtype=float))

    def batch(p):
        d = p - c
        return 0.5 * row_dot(d, d)

    return Potential("quadratic", batch=batch)


def double_well_potential(height=2.0) -> Potential:
    h, c, w = float(height), 0.5, 0.25

    def batch(p):
        return np.sum(h * ((p - c) ** 2 - w * w) ** 2 / w ** 4, axis=1)

    return Potential("double-well", batch=batch)


def potential_from_token(token: str, dim: int) -> Potential:
    """Parse CLI-style potential tokens such as 'zero' or 'linear:1.0,0.5'."""
    name, sep, arg = token.partition(":")
    if name == "zero":
        if sep:
            raise ValueError(f"potential 'zero' takes no argument, got "
                             f"{token!r}")
        return zero_potential()
    if name == "linear":
        return linear_potential(
            numbers(arg, "linear potential coefficients", dim) if arg
            else [1.0] + [0.0] * (dim - 1))
    if name == "quadratic":
        return quadratic_potential(
            numbers(arg, "quadratic potential center", dim) if arg
            else [0.5] * dim)
    if name == "double-well":
        return double_well_potential(
            numbers(arg or "2", "double-well height", 1)[0])
    raise ValueError(f"unknown potential {token!r}")


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite nonnegative mass per cell, summing to one."""

    masses: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.masses, dtype=float)
        if not np.all(np.isfinite(arr)):
            raise ValueError("masses must be finite")
        if np.any(arr < 0.0):
            raise ValueError("masses must be nonnegative")
        total = float(arr.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {total!r}, expected 1")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "masses", arr)

    @staticmethod
    def normalized(values) -> "DiscreteMeasure":
        arr = np.asarray(values, dtype=float)
        neg = arr < 0.0
        if np.any(arr[neg] < -1e-12 * max(float(np.abs(arr).max()), 1e-300)):
            raise ValueError("negative mass beyond roundoff")
        arr = np.where(neg, 0.0, arr)
        total = float(arr.sum())
        if total <= 0.0:
            raise ValueError("cannot normalize a zero measure")
        return DiscreteMeasure(arr / total)

    def __len__(self) -> int:
        return len(self.masses)


@dataclass(frozen=True)
class FaceWeights:
    """Per-face conductances w_KL = (|Γ|/d) S_KL with the chosen S mean,
    and the reference measure pi normalised by the same Z."""

    w: np.ndarray
    face_cells: np.ndarray
    pi: DiscreteMeasure

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)
        fc = np.asarray(self.face_cells, dtype=np.int64)
        fc.setflags(write=False)
        object.__setattr__(self, "face_cells", fc)


# -- quadrature -----------------------------------------------------------------


def cell_integrals(mesh: Mesh, g: Callable, order: int | None = None) -> np.ndarray:
    """Integral of g over each cell by the module quadrature.

    g is evaluated once over the mesh's table; each cell's integral is its
    weights @ values, stacked over the cells with the same node count.
    """
    table = mesh.quadrature(order)
    values = _pointwise(g, table.nodes)
    out = np.empty(mesh.n_cells)
    for n, cells in table.groups:
        idx = table.offsets[cells][:, None] + np.arange(n)
        out[cells] = row_dot(table.weights[idx], values[idx])
    return out


def _boltzmann(potential: Potential) -> PointFunction:
    """exp(-V) over an array of points."""
    return PointFunction(lambda p: np.exp(-_pointwise(potential, p)))


# -- reference measure and weights ----------------------------------------------


def discretize_reference(mesh: Mesh, potential: Potential) -> DiscreteMeasure:
    """Cell masses of exp(-V) dx / Z, normalized exactly after quadrature."""
    return DiscreteMeasure.normalized(cell_integrals(mesh, _boltzmann(potential)))


def face_weights(mesh: Mesh, potential: Potential,
                 mean_kind: str = "logarithmic") -> FaceWeights:
    """TPFA conductances from site values of the stationary density.

    S_KL is the chosen mean of sigma(x_K) and sigma(x_L).  One quadrature
    pass gives Z, which normalises sigma and pi (= discretize_reference).
    """
    if mean_kind not in S_MEAN_KINDS:
        raise ValueError(f"unknown mean kind {mean_kind!r}")

    boltzmann = _boltzmann(potential)
    vals = cell_integrals(mesh, boltzmann)
    pi = DiscreteMeasure.normalized(vals)
    sigma = _pointwise(boltzmann, mesh.sites) / float(vals.sum())
    fc = mesh.face_cells
    s = mean_value(mean_kind, sigma[fc[:, 0]], sigma[fc[:, 1]])
    w = mesh.transmissibilities() * s
    return FaceWeights(w=w, face_cells=fc, pi=pi)


# -- projection and embedding -----------------------------------------------------


def project_measure(mesh: Mesh, rho: Callable,
                    quad_order: int | None = None) -> DiscreteMeasure:
    """Cell masses of a probability density (renormalized to exact sum one)."""
    vals = cell_integrals(mesh, rho, quad_order)
    if np.any(vals < -1e-12):
        raise ValueError("density integrates negatively on a cell")
    total = float(vals.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValueError(f"density has mass {total!r}, expected 1 to 1e-8")
    return DiscreteMeasure.normalized(vals)


def project_function(mesh: Mesh, phi: Callable) -> np.ndarray:
    """Pointwise site evaluation (phi(x_K) per cell)."""
    return _pointwise(phi, mesh.sites)


# -- named densities and initial data ----------------------------------------------


def density_from_token(token: str, dim: int) -> PointFunction:
    """Named probability densities on the unit interval/square."""
    name, sep, arg = token.partition(":")
    if name in ("uniform", "linear") and sep:
        raise ValueError(f"density {name!r} takes no argument, got {token!r}")
    if name == "uniform":
        return PointFunction(lambda p: np.ones(len(p)))
    if name == "cosine":
        amp = numbers(arg or "0.5", "cosine amplitude", 1)[0]
        if not -1.0 < amp < 1.0:
            raise ValueError("cosine amplitude must lie in (-1, 1)")
        return PointFunction(
            lambda p: np.prod(1.0 + amp * np.cos(np.pi * p), axis=1))
    if name == "linear":
        if dim != 1:
            raise ValueError("the linear density is one-dimensional")
        return PointFunction(lambda p: 2.0 * p[:, 0])
    raise ValueError(f"unknown density {token!r}")


def read_measure_csv(path) -> DiscreteMeasure:
    masses: dict[int, float] = {}
    for number, fields in csv_rows(path):
        where = f"{path}, line {number}"
        mass = numbers(",".join(fields), where, 2)[1]
        cell = numbers(fields[0], where, 1, int)[0]
        if cell in masses:
            raise ValueError(f"measure CSV lists cell {cell} twice")
        masses[cell] = mass
    if sorted(masses) != list(range(len(masses))):
        raise ValueError("measure CSV must cover cells 0..n-1 exactly once")
    return DiscreteMeasure(np.array([masses[k] for k in range(len(masses))]))


def initial_measure_from_token(token: str, mesh: Mesh, pi: DiscreteMeasure,
                               quad_order: int | None = None) -> DiscreteMeasure:
    """Initial data: stationary | projected:NAME | blend:NAME:theta | file:PATH."""
    parts = token.split(":")
    if parts[0] == "file":
        m = read_measure_csv(":".join(parts[1:]))
        if len(m) != mesh.n_cells:
            raise ValueError("measure file does not match the mesh size")
        return m
    if parts[0] == "stationary":
        if len(parts) > 1:
            raise ValueError(f"initial measure 'stationary' takes no "
                             f"argument, got {token!r}")
        return pi
    if parts[0] == "projected":
        rho = density_from_token(":".join(parts[1:]) or "uniform", mesh.dim)
        return project_measure(mesh, rho, quad_order)
    if parts[0] == "blend":
        if not 2 <= len(parts) <= 3:
            raise ValueError(f"blend takes a density name and a weight, got "
                             f"{token!r}")
        theta = numbers((parts + ["0.9"])[2], "blend weight", 1)[0]
        if not 0.0 <= theta <= 1.0:
            raise ValueError("blend weight must lie in [0, 1]")
        rho = density_from_token(parts[1], mesh.dim)
        projected = project_measure(mesh, rho, quad_order)
        return DiscreteMeasure(theta * projected.masses + (1.0 - theta) * pi.masses)
    raise ValueError(f"unknown initial measure {token!r}")
