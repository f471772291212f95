"""Meshes, scaled Legendre bases, quadrature and DG coefficient fields.

The discrete solution space is piecewise polynomial of total degree at most
k (k = 0, 1, 2) over a uniform mesh.  On every cell the basis is the scaled
Legendre family written in the local coordinate xi = (x - x_c) / dx, which
runs over [-1/2, 1/2]:

    1D:  {1, xi, xi^2 - 1/12}
    2D:  {1, xi, eta, xi^2 - 1/12, xi*eta, eta^2 - 1/12}

These functions are mutually orthogonal on the reference cell, so the mass
matrix is diagonal and is stored as a per-mode diagonal only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

SUPPORTED_DEGREES = (0, 1, 2)

# 1D modal exponents and reference mass diagonal for {1, xi, xi^2 - 1/12}.
_MASS_1D = np.array([1.0, 1.0 / 12.0, 1.0 / 180.0])


def basis_dim(k: int, ndim: int) -> int:
    """Dimension of the local polynomial space P^k."""
    _check_degree(k)
    return math.comb(k + ndim, ndim)


@lru_cache(maxsize=None)
def _modes(k: int, ndim: int) -> tuple:
    exponents = itertools.product(range(k + 1), repeat=ndim)
    return tuple(sorted((m for m in exponents if sum(m) <= k),
                        key=lambda m: (sum(m), [-p for p in m])))


def _check_degree(k: int) -> None:
    if k not in SUPPORTED_DEGREES:
        raise ValueError(f"polynomial degree must be one of {SUPPORTED_DEGREES}, got {k}")


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre rule on [-1/2, 1/2] with weights summing to 1."""
    if n < 1:
        raise ValueError("quadrature rule needs at least one node")
    x, w = np.polynomial.legendre.leggauss(n)
    nodes = 0.5 * x
    weights = 0.5 * w
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor Gauss rule on the reference cell [-1/2, 1/2]^ndim."""

    nodes: np.ndarray
    weights: np.ndarray

    @staticmethod
    def gauss(n: int, ndim: int) -> "QuadratureRule":
        """n points per axis; nodes have shape (n^ndim, ndim), the last axis
        running fastest."""
        x, w = gauss_rule(n)
        grid = np.meshgrid(*([np.arange(n)] * ndim), indexing="ij")
        idx = np.stack([g.ravel() for g in grid], axis=-1)
        return QuadratureRule(nodes=x[idx], weights=np.prod(w[idx], axis=-1))


@dataclass(frozen=True)
class Basis:
    """Scaled Legendre basis of total degree k in 1 or 2 dimensions."""

    k: int
    ndim: int

    def __post_init__(self):
        _check_degree(self.k)
        if self.ndim not in (1, 2):
            raise ValueError("ndim must be 1 or 2")

    @property
    def dim(self) -> int:
        return basis_dim(self.k, self.ndim)

    @property
    def modes(self) -> tuple:
        """Per-axis 1D mode indices of every basis function, by total degree
        and then by falling first index: 1-tuples in 1D."""
        return _modes(self.k, self.ndim)

    def mass_diag(self) -> np.ndarray:
        """Diagonal of the reference mass matrix (unit cell measure)."""
        return np.array([np.prod(_MASS_1D[list(m)]) for m in self.modes])

    def eval(self, *xi: np.ndarray) -> np.ndarray:
        """Basis values at local coordinates, one array per axis; result
        shape (..., dim), C-contiguous."""
        xi = [np.asarray(t, dtype=float) for t in xi]
        # each axis's 1D factors {1, t, t^2 - 1/12}; products skip the constant
        factors = [(None, t, t * t - 1.0 / 12.0 if self.k == 2 else None) for t in xi]
        out = np.empty(np.broadcast(*xi).shape + (self.dim,))
        for m, mode in enumerate(self.modes):
            out[..., m] = math.prod(f[p] for f, p in zip(factors, mode) if p)
        return out


@dataclass(frozen=True)
class Mesh:
    """Uniform periodic partition of the box [lower, upper] into ``shape``
    cells in 1 or 2 dimensions; cells are numbered with the first axis
    running fastest, c = ix + nx * iy."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        # tuples, so the mesh hashes: _projection caches by mesh
        for name in ("lower", "upper", "shape"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not len(self.lower) == len(self.upper) == len(self.shape):
            raise ValueError("lower, upper and shape need one entry per axis")
        if self.ndim not in (1, 2):
            raise ValueError("mesh must have 1 or 2 axes")
        if min(self.shape) < 2:
            raise ValueError("mesh needs at least 2 cells per direction")
        if not all(hi > lo for lo, hi in zip(self.lower, self.upper)):
            raise ValueError("upper bounds must exceed lower bounds")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def ncells(self) -> int:
        return math.prod(self.shape)

    @property
    def widths(self) -> tuple[float, ...]:
        return tuple((hi - lo) / n for lo, hi, n in zip(self.lower, self.upper, self.shape))

    dx = property(lambda self: self.widths[0])
    dy = property(lambda self: self.widths[1])
    n = nx = property(lambda self: self.shape[0])
    ny = property(lambda self: self.shape[1])

    def cell_index(self, *index: np.ndarray) -> np.ndarray:
        """Cell number of per-axis cell indices, wrapped periodically."""
        c, stride = 0, 1
        for i, n in zip(index, self.shape):
            c = c + stride * np.mod(i, n)
            stride *= n
        return c

    def locate(self, *x: np.ndarray) -> tuple[np.ndarray, ...]:
        """Containing cell and per-axis local coordinates of points, one
        coordinate array per axis, after the periodic wrap."""
        c, stride, local = 0, 1, []
        for xa, lo, hi, h, n in zip(x, self.lower, self.upper, self.widths, self.shape):
            r = (lo + np.mod(np.asarray(xa, dtype=float) - lo, hi - lo) - lo) / h
            i = np.clip(np.floor(r).astype(int), 0, n - 1)
            c = c + stride * i
            stride *= n
            local.append(r - i - 0.5)
        return c, *local


def Mesh1D(x_a: float, x_b: float, n: int) -> Mesh:
    """Uniform partition of [x_a, x_b] into n cells."""
    return Mesh((x_a,), (x_b,), (n,))


def Mesh2D(x_a: float, x_b: float, y_a: float, y_b: float, nx: int, ny: int) -> Mesh:
    """Uniform partition of [x_a, x_b] x [y_a, y_b] into nx x ny cells."""
    return Mesh((x_a, y_a), (x_b, y_b), (nx, ny))


@dataclass
class DGField:
    """Piecewise polynomial field: one block of modal coefficients per cell."""

    mesh: Mesh
    k: int
    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        _check_degree(self.k)
        dim = basis_dim(self.k, self.mesh.ndim)
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=float).reshape(
            self.mesh.ncells, dim
        )

    @property
    def ndim(self) -> int:
        return self.mesh.ndim

    @property
    def basis(self) -> Basis:
        return Basis(self.k, self.ndim)

    @property
    def dim(self) -> int:
        return self.coeffs.shape[1]

    def copy(self) -> "DGField":
        return replace(self, coeffs=self.coeffs.copy())

    @staticmethod
    def zeros(mesh: Mesh, k: int, time: float = 0.0) -> "DGField":
        return DGField(mesh, k, np.zeros((mesh.ncells, basis_dim(k, mesh.ndim))), time)

    def __add__(self, other: "DGField") -> "DGField":
        return replace(self, coeffs=self.coeffs + other.coeffs)

    def __sub__(self, other: "DGField") -> "DGField":
        return replace(self, coeffs=self.coeffs - other.coeffs)

    def __mul__(self, scalar: float) -> "DGField":
        return replace(self, coeffs=self.coeffs * scalar)

    __rmul__ = __mul__

    def evaluate(self, *x) -> np.ndarray:
        """Point values of the cell-local polynomials at one coordinate array
        per axis, periodic wrap applied."""
        c, *local = self.mesh.locate(*x)
        return np.einsum("...d,...d->...", self.coeffs[c], self.basis.eval(*local))


def cell_measure(mesh: Mesh) -> float:
    return math.prod(mesh.widths)


def mass_vector(mesh: Mesh, k: int) -> np.ndarray:
    """Diagonal of the global mass matrix, flattened over (cell, mode)."""
    diag = Basis(k, mesh.ndim).mass_diag() * cell_measure(mesh)
    return np.tile(diag, mesh.ncells)


def cell_multi_index(mesh: Mesh) -> tuple[np.ndarray, ...]:
    """Per-axis cell indices of cells 0..ncells-1 (the first axis runs fastest)."""
    return np.unravel_index(np.arange(mesh.ncells), mesh.shape, order="F")


def _cell_quad_points(mesh: Mesh, n: int):
    """Tensor Gauss points of every cell: physical coordinates per axis, each
    (ncells, n^ndim), plus local nodes (n^ndim, ndim) and weights."""
    rule = QuadratureRule.gauss(n, mesh.ndim)
    local = rule.nodes
    pts = tuple(
        (lo + h * (c + 0.5))[:, None] + h * local[None, :, a]
        for a, (lo, h, c) in enumerate(zip(mesh.lower, mesh.widths, cell_multi_index(mesh)))
    )
    return pts, local, rule.weights


@lru_cache(maxsize=8)
def _projection(mesh: Mesh, k: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Every cell's k+2 Gauss points per axis, each (ncells, npts), and the
    read-only operator P = (W Phi) G^-1, (npts, d), that maps point values
    to modal coefficients."""
    pts, local, weights = _cell_quad_points(mesh, k + 2)
    phi = Basis(k, mesh.ndim).eval(*local.T)
    wphi = weights[:, None] * phi
    P = np.linalg.solve(phi.T @ wphi, wphi.T).T
    for a in (*pts, P):
        a.setflags(write=False)
    return pts, P


def project(f: Callable, mesh: Mesh, k: int, time: float = 0.0) -> DGField:
    """L2 projection of a scalar function onto the DG space.

    Uses k+2 Gauss points per direction and inverts the quadrature Gram
    matrix (analytically diagonal, numerically near-diagonal), so members of
    the DG space are reproduced to rounding.  The points and the projection
    operator are built once per (mesh, k) and shared read-only, so each call
    is one evaluation of ``f`` and one product; ``f`` must not write into its
    arguments.
    """
    _check_degree(k)
    pts, P = _projection(mesh, k)
    return DGField(mesh, k, np.asarray(f(*pts), dtype=float) @ P, time)


def norms(field: DGField, exact: Callable, t: float | None = None) -> tuple[float, float, float]:
    """(L1, L2, Linf) error norms against ``exact`` evaluated at time t.

    The rule is fixed at k+3 Gauss points per direction; Linf is the maximum
    over those quadrature nodes.
    """
    t = field.time if t is None else t
    pts, local, weights = _cell_quad_points(field.mesh, field.k + 3)
    uh = field.coeffs @ field.basis.eval(*local.T).T
    err = uh - exact(*pts, t)
    meas = cell_measure(field.mesh)
    l1 = float(meas * np.sum(weights[None, :] * np.abs(err)))
    l2 = float(np.sqrt(meas * np.sum(weights[None, :] * err**2)))
    linf = float(np.max(np.abs(err)))
    return l1, l2, linf


def total_mass(field: DGField) -> float:
    """Integral of the field: only the constant mode carries mass."""
    return float(cell_measure(field.mesh) * field.coeffs[:, 0].sum())
