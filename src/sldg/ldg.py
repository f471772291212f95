"""Local DG approximation of u_xx (1D) and the Laplacian (2D).

The second derivative is split into first-order systems (q = u_x, p = q_x in
1D; q = u_x, h = u_y, p = q_x + h_y in 2D) and each first-order application is
discretized weakly with one-sided interface fluxes.  The two fluxes must
alternate: the solution trace and the gradient trace are taken from opposite
sides, which is what makes the composed operator dissipative.  Because the
mass matrix is diagonal, the auxiliary fields are eliminated cell-locally.
On the uniform periodic mesh each sweep is two d x d blocks, the same for
every cell, so the operator is applied as a block stencil, three cells in 1D
and a plus of five in 2D, with no matrix.  The discrete Fourier transform over
the cells block-diagonalizes it into one d x d block per wavenumber (``symbol``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .core import _MASS_1D, Basis, Mesh, mass_vector

FLUX_CHOICES = ("uminus_qplus", "uplus_qminus")


@dataclass(frozen=True)
class FluxChoice:
    """Alternating interface-flux orientation, one entry per direction.

    ``uminus_qplus`` takes the solution trace from the left and the gradient
    trace from the right; ``uplus_qminus`` mirrors it.  Mixing sides within
    one direction is rejected because it would break the alternating
    structure.
    """

    x: str = "uminus_qplus"
    y: str = "uminus_qplus"

    def __post_init__(self):
        for side in (self.x, self.y):
            if side not in FLUX_CHOICES:
                raise ValueError(f"flux must be one of {FLUX_CHOICES}, got {side!r}")


@dataclass(frozen=True)
class Sweep:
    """One-sided first derivative along mesh axis ``axis``: cell j gets
    ``own @ u_j + nb @ u_{j+off}``, periodically.  The blocks include M^-1 /
    width and are in Fortran order, so that the transposes ``__call__``
    multiplies by are contiguous: numpy's product is then 2-3x faster."""

    own: np.ndarray
    nb: np.ndarray
    off: int
    axis: int

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """The sweep of ``u``, shaped ``(*mesh.shape[::-1], d)``, as a new array."""
        rows = u.reshape(-1, u.shape[-1])
        out, v = ((rows @ b.T).reshape(u.shape) for b in (self.own, self.nb))
        # out[j] += v[j + off] along the sweep's array axis, as two periodic slices
        ax = u.ndim - 2 - self.axis
        m, lead = self.off % u.shape[ax], (slice(None),) * ax
        out[lead + (slice(None, -m),)] += v[lead + (slice(m, None),)]
        out[lead + (slice(-m, None),)] += v[lead + (slice(None, m),)]
        return out


@dataclass(frozen=True)
class LDGOperator:
    """DG second-derivative operator D as a block stencil.

    ``sweeps`` holds each mesh axis's (gradient, divergence) ``Sweep`` pair.
    ``apply_flat`` runs the gradient sweeps, then the divergence sweeps, which
    keeps constants in the nullspace to rounding.  ``op``, a CSR matrix built
    on first access from the composed blocks, applies D in one product for the
    Krylov solve.  ``symbol`` is D in Fourier space."""

    mesh: Mesh
    k: int
    flux: FluxChoice
    sweeps: tuple[tuple[Sweep, Sweep], ...]

    def grad(self, x: np.ndarray) -> np.ndarray:
        """The gradient fields of flat coefficients x, shape (ndim, x.size)."""
        u = x.reshape(self.mesh.shape[::-1] + (-1,))
        return np.stack([g(u).ravel() for g, _ in self.sweeps])

    def apply_flat(self, x: np.ndarray) -> np.ndarray:
        u = x.reshape(self.mesh.shape[::-1] + (-1,))
        (g, div), *rest = self.sweeps
        out = div(g(u))
        for g, div in rest:
            out += div(g(u))
        return out.ravel()

    @cached_property
    def op(self) -> sp.csr_matrix:
        # div_a(grad_a u)_j = (D G + D' G') u_j + D G' u_{j+g} + D' G u_{j-g}, with G, G'
        # the gradient's own and neighbour blocks, D, D' the divergence's, g the
        # gradient's offset; summing merges offsets that reach one cell, drops zeros
        grid = np.arange(self.mesh.ncells).reshape(self.mesh.shape[::-1])
        n = grid.size * self.sweeps[0][0].own.shape[0]

        def part(block, axis=0, off=0):    # block at (cell j, cell j + off along axis)
            cols = np.roll(grid, -off, grid.ndim - 1 - axis).ravel()
            data = np.broadcast_to(block, (cols.size,) + block.shape)
            return sp.bsr_matrix((data, cols, np.arange(cols.size + 1)), shape=(n, n)).tocsr()

        center = sum(div.own @ g.own + div.nb @ g.nb for g, div in self.sweeps)
        return sum((part(div.own @ g.nb, g.axis, g.off) + part(div.nb @ g.own, g.axis, div.off)
                    for g, div in self.sweeps), part(center))

    def symbol(self) -> np.ndarray:
        """The operator's d x d block at every ``rfftn`` wavenumber of the cell grid.

        Coefficients reshaped to ``(*mesh.shape[::-1], d)`` (cells are
        numbered with the first axis fastest) and transformed by ``rfftn``
        over the cell axes are mapped by the operator to ``symbol() @`` their
        transform.  The result is complex, of shape ``(*rfft cell shape, d, d)``.
        """
        def blocks(s: Sweep) -> np.ndarray:
            # a shift by off cells multiplies wavenumber m by exp(2 pi i m off / n);
            # rfftn halves the last array axis, which is mesh axis 0
            n = self.mesh.shape[s.axis]
            m = np.arange(n // 2 + 1 if s.axis == 0 else n)
            phase = np.exp(2j * np.pi * m * s.off / n)[:, None, None]
            return (s.own + phase * s.nb).reshape((m.size,) + (1,) * s.axis + s.own.shape)

        return sum(blocks(div) @ blocks(g) for g, div in self.sweeps)


# exact one-dimensional reference data for the scaled Legendre modes:
# edge values at +-1/2 and (phi_l, dphi_m/dxi) volume couplings
# (the mode masses are core._MASS_1D)
_EDGE_P = np.array([1.0, 0.5, 0.25 - 1.0 / 12.0])
_EDGE_M = np.array([1.0, -0.5, 0.25 - 1.0 / 12.0])
_N_1D = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0 / 6.0, 0.0]])


def _first_derivative_blocks(k: int, ndim: int, axis: int, side: str):
    """Own-cell and neighbour blocks of a one-sided first-derivative sweep.

    Returns (own, nb, nb_offset) such that (for unit cell width)
    deriv_j = Minv @ (own @ u_j + nb @ u_{j+nb_offset}).  Every block is the
    1D block of the modes' factors along ``axis`` times the 1D mass products
    of their factors along the other axes (an empty product in 1D).  All
    entries are exact products of small rationals, so constants sit in the
    nullspace of the composed operator to rounding.
    """
    modes = np.array(Basis(k, ndim).modes)
    a = modes[:, axis]
    t = np.delete(modes, axis, axis=1)
    tangent = np.prod(np.where(t[:, None] == t[None, :], _MASS_1D[t][:, None], 0.0), axis=-1)
    P, M = _EDGE_P[a], _EDGE_M[a]
    N = _N_1D[np.ix_(a, a)] * tangent
    if side == "minus":
        # trace from the lower side: own right edge and left neighbour's right edge
        return np.outer(P, P) * tangent - N, -(np.outer(M, P) * tangent), -1
    # trace from the upper side: right neighbour's left edge and own left edge
    return -(np.outer(M, M) * tangent) - N, np.outer(P, M) * tangent, +1


def _sweep(mesh, k: int, axis: int, side: str) -> Sweep:
    own, nb, off = _first_derivative_blocks(k, mesh.ndim, axis, side)
    minv = 1.0 / Basis(k, mesh.ndim).mass_diag()[:, None]
    return Sweep(*(np.asfortranarray(minv * b / mesh.widths[axis]) for b in (own, nb)), off, axis)


def _assemble(mesh, k: int, flux: FluxChoice | None) -> LDGOperator:
    """The (gradient, divergence) sweeps of every axis, from opposite sides."""
    flux = flux or FluxChoice()
    sides = {"uminus_qplus": ("minus", "plus"), "uplus_qminus": ("plus", "minus")}
    return LDGOperator(mesh, k, flux, tuple(
        tuple(_sweep(mesh, k, axis, side) for side in sides[orientation])
        for axis, orientation in zip(range(mesh.ndim), (flux.x, flux.y))))


def assemble_ldg_1d(mesh: Mesh, k: int, flux: FluxChoice | None = None) -> LDGOperator:
    """Compose the two one-sided sweeps into the 1D second-derivative operator."""
    return _assemble(mesh, k, flux)


def assemble_ldg_2d(mesh: Mesh, k: int, flux: FluxChoice | None = None) -> LDGOperator:
    """Dimension-by-dimension sweeps: gradients in x and y, then the divergence."""
    return _assemble(mesh, k, flux)


def dissipativity_check(op: LDGOperator, coeffs: np.ndarray) -> tuple[float, float]:
    """Return (integral of (D u) * u, squared L2 norm of the gradient fields).

    With periodic boundaries and alternating fluxes the first equals minus the
    second; both are computed exactly from coefficients through the diagonal
    mass matrix.
    """
    m = mass_vector(op.mesh, op.k)
    u = coeffs.ravel()
    s = float(op.apply_flat(u) @ (m * u))
    return s, float(np.sum(op.grad(u) ** 2 * m))
