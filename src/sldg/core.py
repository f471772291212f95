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

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

SUPPORTED_DEGREES = (0, 1, 2)

# 1D modal exponents and reference mass diagonal for {1, xi, xi^2 - 1/12}.
_MASS_1D = np.array([1.0, 1.0 / 12.0, 1.0 / 180.0])

# Modes in canonical order, as tuples of per-axis 1D mode indices.
_MODES_1D = ((0,), (1,), (2,))
_MODES_2D = ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def basis_dim(k: int, ndim: int) -> int:
    """Dimension of the local polynomial space P^k."""
    _check_degree(k)
    return k + 1 if ndim == 1 else (k + 1) * (k + 2) // 2


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
    order: int

    @staticmethod
    def gauss(n: int, ndim: int) -> "QuadratureRule":
        """n points per axis; nodes have shape (n^ndim, ndim), the last axis
        running fastest."""
        x, w = gauss_rule(n)
        grid = np.meshgrid(*([np.arange(n)] * ndim), indexing="ij")
        idx = np.stack([g.ravel() for g in grid], axis=-1)
        return QuadratureRule(nodes=x[idx], weights=np.prod(w[idx], axis=-1), order=2 * n - 1)


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
        """Per-axis 1D mode indices of every basis function: 1-tuples in 1D."""
        return (_MODES_1D if self.ndim == 1 else _MODES_2D)[: self.dim]

    def mass_diag(self) -> np.ndarray:
        """Diagonal of the reference mass matrix (unit cell measure)."""
        return np.array([np.prod(_MASS_1D[list(m)]) for m in self.modes])

    def eval(self, xi: np.ndarray, eta: np.ndarray | None = None) -> np.ndarray:
        """Basis values at local coordinates; result shape (..., dim)."""
        xi = np.asarray(xi, dtype=float)
        if self.ndim == 1:
            out = np.empty(xi.shape + (self.dim,))
            out[..., 0] = 1.0
            if self.dim > 1:
                out[..., 1] = xi
            if self.dim > 2:
                out[..., 2] = xi * xi - 1.0 / 12.0
            return out
        eta = np.asarray(eta, dtype=float)
        shape = np.broadcast_shapes(xi.shape, eta.shape)
        out = np.empty(shape + (self.dim,))
        out[..., 0] = 1.0
        if self.dim > 1:
            out[..., 1] = xi
            out[..., 2] = eta
        if self.dim > 3:
            out[..., 3] = xi * xi - 1.0 / 12.0
            out[..., 4] = xi * eta
            out[..., 5] = eta * eta - 1.0 / 12.0
        return out


@dataclass(frozen=True)
class Mesh1D:
    """Uniform partition of [x_a, x_b] into n cells."""

    x_a: float
    x_b: float
    n: int
    ndim = 1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("mesh needs at least 2 cells")
        if not self.x_b > self.x_a:
            raise ValueError("x_b must exceed x_a")

    @property
    def dx(self) -> float:
        return (self.x_b - self.x_a) / self.n

    @property
    def length(self) -> float:
        return self.x_b - self.x_a

    @property
    def ncells(self) -> int:
        return self.n

    @property
    def lower(self) -> tuple[float]:
        return (self.x_a,)

    @property
    def widths(self) -> tuple[float]:
        return (self.dx,)

    @property
    def shape(self) -> tuple[int]:
        return (self.n,)

    def nodes(self) -> np.ndarray:
        return self.x_a + self.dx * np.arange(self.n + 1)

    def wrap(self, x: np.ndarray) -> np.ndarray:
        return self.x_a + np.mod(x - self.x_a, self.length)

    def locate(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Containing cell index and local coordinate of (wrapped) points."""
        r = (self.wrap(np.asarray(x, dtype=float)) - self.x_a) / self.dx
        j = np.clip(np.floor(r).astype(int), 0, self.n - 1)
        xi = r - j - 0.5
        return j, xi


@dataclass(frozen=True)
class Mesh2D:
    """Uniform rectangular partition; cells indexed c = ix + nx * iy."""

    x_a: float
    x_b: float
    y_a: float
    y_b: float
    nx: int
    ny: int
    ndim = 2

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError("mesh needs at least 2 cells per direction")
        if not (self.x_b > self.x_a and self.y_b > self.y_a):
            raise ValueError("upper bounds must exceed lower bounds")

    @property
    def dx(self) -> float:
        return (self.x_b - self.x_a) / self.nx

    @property
    def dy(self) -> float:
        return (self.y_b - self.y_a) / self.ny

    @property
    def ncells(self) -> int:
        return self.nx * self.ny

    @property
    def lengths(self) -> tuple[float, float]:
        return (self.x_b - self.x_a, self.y_b - self.y_a)

    @property
    def lower(self) -> tuple[float, float]:
        return (self.x_a, self.y_a)

    @property
    def widths(self) -> tuple[float, float]:
        return (self.dx, self.dy)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    def cell_index(self, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
        return np.mod(ix, self.nx) + self.nx * np.mod(iy, self.ny)

    def wrap(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lx, ly = self.lengths
        return self.x_a + np.mod(x - self.x_a, lx), self.y_a + np.mod(y - self.y_a, ly)

    def locate(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        xw, yw = self.wrap(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        rx = (xw - self.x_a) / self.dx
        ry = (yw - self.y_a) / self.dy
        ix = np.clip(np.floor(rx).astype(int), 0, self.nx - 1)
        iy = np.clip(np.floor(ry).astype(int), 0, self.ny - 1)
        return ix + self.nx * iy, rx - ix - 0.5, ry - iy - 0.5


Mesh = Mesh1D | Mesh2D


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
        """Point values of the cell-local polynomials at coordinate arrays
        (x) or (x, y), periodic wrap applied."""
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
