"""Local DG approximation of u_xx (1D) and the Laplacian (2D).

The second derivative is split into first-order systems (q = u_x, p = q_x in
1D; q = u_x, h = u_y, p = q_x + h_y in 2D) and each first-order application is
discretized weakly with one-sided interface fluxes.  The two fluxes must
alternate: the solution trace and the gradient trace are taken from opposite
sides, which is what makes the composed operator dissipative.  Because the
mass matrix is diagonal, the auxiliary fields are eliminated cell-locally and
the result is one sparse matrix mapping solution coefficients to the
coefficients of the DG second derivative: a three-cell stencil in 1D and a
plus-shaped five-cell stencil in 2D.  On the uniform periodic mesh every
sweep is block-circulant, so the discrete Fourier transform over the cells
block-diagonalizes the operator into one d x d block per wavenumber (``symbol``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .core import _MASS_1D, Basis, Mesh1D, Mesh2D, mass_vector

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
class LDGOperator:
    """DG second-derivative operator in factored and assembled form.

    ``grad`` stacks the one-sided gradient sweeps of every axis, an
    (ndim n) x n matrix whose rows are the gradient's axis components, and
    ``div`` lays the divergence sweeps side by side, n x (ndim n), so the
    operator is ``div @ grad``.  ``apply`` runs the two products in turn,
    which keeps constants in the nullspace to rounding (the pre-multiplied
    matrix ``op`` trades that exactness for a single product usable for
    sparsity inspection; it is built on first access).  ``symbol`` gives
    the same operator in Fourier space.
    """

    mesh: Mesh1D | Mesh2D
    k: int
    flux: FluxChoice
    grad: sp.csr_matrix
    div: sp.csr_matrix

    @cached_property
    def op(self) -> sp.csr_matrix:
        return (self.div @ self.grad).tocsr()

    def apply(self, coeffs: np.ndarray) -> np.ndarray:
        return self.apply_flat(coeffs.ravel()).reshape(coeffs.shape)

    def apply_flat(self, x: np.ndarray) -> np.ndarray:
        return self.div @ (self.grad @ x)

    def symbol(self) -> np.ndarray:
        """The operator's d x d block at every ``rfftn`` wavenumber of the cell grid.

        Coefficients reshaped to ``(*mesh.shape[::-1], d)`` (cells are
        numbered with the first axis fastest) and transformed by ``rfftn``
        over the cell axes are mapped by the operator to ``symbol() @`` their
        transform.  The result is complex, of shape ``(*rfft cell shape, d, d)``.
        """
        return sum(_sweep_symbol(self.mesh, self.k, axis, q_side)
                   @ _sweep_symbol(self.mesh, self.k, axis, u_side)
                   for axis, u_side, q_side in _axis_sides(self.mesh, self.flux))


def _shift_matrix(n: int, offset: int) -> sp.csr_matrix:
    """Maps cell j to cell j+offset, periodically."""
    rows = np.arange(n)
    return sp.csr_matrix((np.ones(n), (rows, (rows + offset) % n)), shape=(n, n))


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


def _sweep_matrix(mesh, k: int, axis: int, side: str) -> sp.csr_matrix:
    own, nb, off = _first_derivative_blocks(k, mesh.ndim, axis, side)
    minv = 1.0 / Basis(k, mesh.ndim).mass_diag()
    own = sp.csr_matrix(minv[:, None] * own)
    nb = sp.csr_matrix(minv[:, None] * nb)
    # cells are numbered with the first axis fastest, so later axes are outer factors
    factors = [_shift_matrix(n, off) if ax == axis else sp.identity(n)
               for ax, n in enumerate(mesh.shape)]
    shift = factors[0]
    for factor in factors[1:]:
        shift = sp.kron(factor, shift)
    eye = sp.identity(mesh.ncells, format="csr")
    return ((sp.kron(eye, own) + sp.kron(shift, nb)) / mesh.widths[axis]).tocsr()


def _sweep_symbol(mesh, k: int, axis: int, side: str) -> np.ndarray:
    """Fourier blocks of ``_sweep_matrix``, shaped to broadcast over the rfftn grid.

    A shift by ``off`` cells multiplies wavenumber m by exp(2 pi i m off / n).
    Mesh axis a is array axis ndim - 1 - a of the reshaped coefficients, and
    ``rfftn`` halves the last array axis, which is mesh axis 0.
    """
    own, nb, off = _first_derivative_blocks(k, mesh.ndim, axis, side)
    minv = 1.0 / Basis(k, mesh.ndim).mass_diag()
    n = mesh.shape[axis]
    m = np.arange(n // 2 + 1 if axis == 0 else n)
    phase = np.exp(2j * np.pi * m * off / n)[:, None, None]
    blocks = minv[:, None] * (own + phase * nb) / mesh.widths[axis]
    return blocks.reshape((m.size,) + (1,) * axis + own.shape)


def _axis_sides(mesh, flux: FluxChoice):
    """(axis, solution-trace side, gradient-trace side) of every mesh axis."""
    for axis, orientation in zip(range(mesh.ndim), (flux.x, flux.y)):
        if orientation == "uminus_qplus":
            yield axis, "minus", "plus"
        else:
            yield axis, "plus", "minus"


def _assemble(mesh, k: int, flux: FluxChoice | None) -> LDGOperator:
    """Gradient and divergence sweeps along every axis, stacked into one of each."""
    flux = flux or FluxChoice()
    sides = list(_axis_sides(mesh, flux))
    grad = sp.vstack([_sweep_matrix(mesh, k, axis, u_side) for axis, u_side, _ in sides],
                     format="csr")
    div = sp.hstack([_sweep_matrix(mesh, k, axis, q_side) for axis, _, q_side in sides],
                    format="csr")
    return LDGOperator(mesh, k, flux, grad, div)


def assemble_ldg_1d(mesh: Mesh1D, k: int, flux: FluxChoice | None = None) -> LDGOperator:
    """Compose the two one-sided sweeps into the 1D second-derivative operator."""
    return _assemble(mesh, k, flux)


def assemble_ldg_2d(mesh: Mesh2D, k: int, flux: FluxChoice | None = None) -> LDGOperator:
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
    q = (op.grad @ u).reshape(-1, u.size)
    return s, float(np.sum(q * q * m))
