"""Conservative remap: the moment back end of 1D and 2D, and the 1D assembler.

Each remap load integrates the old solution times a traced test function
over the upstream cell, a sum over its overlaps with background cells.  On
one overlap both factors are polynomials, so the integral is a fixed
contraction of the overlap's monomial moments W[a] = int xi^a, with
xi = r - col - 1/2 the background cell's frame (r the cell-index
coordinate).  The assemblers (``assemble_remap_1d`` here,
``assemble_remap_2d`` in ``remap2d_matrix``) compute only moment tables;
``sum_moments`` sums signed copies of them per (owner, background cell),
the assembler drops its tables, and ``remap_matrix`` contracts each sum
into one d x d block of the remap operator R (load = R @ coefficients), a
``bsr_matrix``: convert it with ``.tocsr()`` before slicing.  In 1D the
tests interpolate through the feet of each cell's Gauss-Lobatto points and
a piece's moments are closed form.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .characteristics import GL_POINTS, VelocityField, cell_lattice, snap_index, substeps_for, trace_back
from .core import Basis, Mesh


class GeometryError(RuntimeError):
    """Raised when traced geometry is unusable (non-monotone feet, over-long upstream)."""


def fit_tests(feet: np.ndarray, k: int, src: np.ndarray):
    """Fits Psi*(foot_q) = Psi(src_q) of every test basis function.

    ``feet`` has shape (ncells, npts, ndim), in index coordinates, and
    ``src`` (npts, ndim) holds the reference positions they were traced
    from.  With npts = d (1D) the square system is solved directly, an
    interpolation; otherwise by least squares through the normal equations.
    Returns the fit-frame centers (the feet centroids, (ncells, ndim)) and
    coefficients (ncells, m, d): test m's reconstruction in the basis
    centered there.
    """
    basis = Basis(k, feet.shape[-1])
    B = basis.eval(*src.T)                                   # (npts, m)
    centers = feet.mean(axis=1)
    A = basis.eval(*np.moveaxis(feet - centers[:, None, :], -1, 0))   # (C, npts, d)
    if A.shape[1] == A.shape[2]:
        sol = np.linalg.solve(A, B)                          # (C, d, m)
    else:
        At = np.swapaxes(A, 1, 2)
        sol = np.linalg.solve(At @ A, At @ B)
    return centers, np.ascontiguousarray(np.swapaxes(sol, 1, 2))


def powers(x: np.ndarray, n: int) -> np.ndarray:
    """x**0 ... x**(n-1) along a new last axis, by repeated products (np.power is slow)."""
    out = np.ones((n,) + x.shape)
    for i in range(1, n):
        out[i] = out[i - 1] * x
    return np.moveaxis(out, 0, -1)


# _SHIFT_1D[m, p, q]: coefficient of xi^p s^q in the 1D mode m of {1, xi, xi^2 - 1/12} at xi + s
_SHIFT_1D = np.zeros((3, 3, 3))
_SHIFT_1D[0, 0, 0] = _SHIFT_1D[1, 1, 0] = _SHIFT_1D[1, 0, 1] = 1.0
_SHIFT_1D[2, 2, 0] = _SHIFT_1D[2, 0, 2] = 1.0
_SHIFT_1D[2, 1, 1] = 2.0
_SHIFT_1D[2, 0, 0] = -1.0 / 12.0


@lru_cache(maxsize=None)
def _shift_table(k: int, ndim: int) -> np.ndarray:
    """C[beta, n d + alpha]: coefficient of s^beta xi^alpha in basis function n at xi + s.

    Read-only, (d, d d); alpha and beta both run over the exponents of ``Basis.modes``.
    """
    e = np.array(Basis(k, ndim).modes)
    C = np.prod([_SHIFT_1D[np.ix_(e[:, ax], e[:, ax], e[:, ax])] for ax in range(ndim)], axis=0)
    C = np.ascontiguousarray(C.transpose(2, 0, 1).reshape(len(e), -1))
    C.setflags(write=False)
    return C


def _monomials(basis: Basis, s: np.ndarray) -> np.ndarray:
    """T[..., n, alpha]: coefficients of basis function n at xi + s over the monomials xi^alpha.

    The exponents alpha run over ``basis.modes``, whose per-axis mode
    indices are also the leading exponents, so they cover P^k.  Each entry
    is a polynomial in the shift s over the same exponents, so T is one
    product of the monomials s^beta with the cached ``_shift_table``.
    """
    e = np.array(basis.modes)
    m = 1.0
    for ax in range(basis.ndim):
        m = m * powers(s[..., ax], basis.k + 1)[..., e[:, ax]]
    return (m @ _shift_table(basis.k, basis.ndim)).reshape(s.shape[:-1] + (basis.dim,) * 2)


# Blocks are contracted, and 2D piece moments integrated, in runs of this many
# rows, so that a run's temporaries stay a small, fixed size whatever the mesh.
# Chosen by the tracemalloc peak and time of one assembly (CHANGES.md).
RUN = 1024


def runs(n: int):
    """Consecutive (lo, hi) ranges covering range(n): max(RUN, 2) rows each, the last up to one more.

    No range holds a single row unless n = 1.  numpy's matmul takes a
    matrix-vector path for a one-row operand, which can round differently
    from the matrix-matrix path a product over all n rows takes.
    """
    bounds = np.append(np.arange(0, max(n - 1, 1), max(RUN, 2)), n)
    return zip(bounds[:-1], bounds[1:])


def block_moments(k: int, ndim: int) -> np.ndarray:
    """Flat indices, in a (2k+1)^ndim table, of the moments blocks read: total degree <= 2k."""
    return np.flatnonzero(np.indices((2 * k + 1,) * ndim).sum(axis=0) <= 2 * k)


def sum_moments(mesh, owner: np.ndarray, col: np.ndarray, row: np.ndarray, weight: np.ndarray,
                moments: np.ndarray):
    """Signed sums of overlap moment tables per (owner, unwrapped background cell).

    ``moments`` (M, m) holds rows of monomial moments in a background
    cell's frame times the cell measure.  Contribution i adds
    ``weight[i] * moments[row[i]]`` to the sum of upstream cell
    ``owner[i]`` and the background cell whose unwrapped per-axis index is
    ``col[i]`` (shape (n, ndim)), in one sparse aggregation product.
    Returns the sums' owners o and unwrapped cells c (n, ndim), sorted by
    o and then by c, and their rows W.
    """
    low = col.min(axis=0)
    span = tuple(col.max(axis=0) - low + 1)
    key, inv = np.unique(np.ravel_multi_index((owner, *(col - low).T), (mesh.ncells, *span)),
                         return_inverse=True)
    agg = sp.csr_matrix((weight, (inv, row)), shape=(key.size, len(moments)))
    W = agg @ moments.reshape(len(moments), -1)
    o, *c = np.unravel_index(key, (mesh.ncells, *span))
    return o, np.stack(c, axis=1) + low, W


def remap_matrix(mesh, k: int, o: np.ndarray, c: np.ndarray, W: np.ndarray, centers: np.ndarray,
                 cfit: np.ndarray) -> sp.bsr_matrix:
    """Block-sparse remap operator from the summed moment tables of ``sum_moments``.

    Each sum W becomes the block Psi H Phi^T of row block o, column block
    the cell c wraps to: the owner's tests re-expanded about the unwrapped
    cell's center (``centers`` and ``cfit`` come from ``fit_tests``), the
    Hankel gather H[alpha, beta] = W[alpha + beta] from W's leading
    ``block_moments`` entries and the basis's monomial coefficients.  The
    blocks are contracted in runs of RUN straight into
    the operator's data array, so the temporaries stay a few runs' size.
    The caller drops its moment table before this call: with it, the
    assembly's peak would be the table's size on top of the blocks'.
    """
    basis = Basis(k, mesh.ndim)
    e = np.array(basis.modes)
    hankel = np.ravel_multi_index(tuple(e[:, None, ax] + e[None, :, ax] for ax in range(mesh.ndim)),
                                  (2 * k + 1,) * mesh.ndim)
    hankel = np.searchsorted(block_moments(k, mesh.ndim), hankel)
    phi_t = _monomials(basis, np.zeros(mesh.ndim)).T
    blocks = np.empty((len(o), basis.dim, basis.dim))
    for lo, hi in runs(len(o)):
        # the owner's tests in the cell's frame, times the Hankel gather
        psi = cfit[o[lo:hi]] @ _monomials(basis, c[lo:hi] + 0.5 - centers[o[lo:hi]])
        np.matmul(psi @ W[lo:hi, hankel], phi_t, out=blocks[lo:hi])
    cells = np.ravel_multi_index(tuple(np.mod(c, mesh.shape).T), mesh.shape, order="F")
    indptr = np.searchsorted(o, np.arange(mesh.ncells + 1))
    n = mesh.ncells * basis.dim
    return sp.bsr_matrix((blocks, cells, indptr), shape=(n, n))


def traced_interval_points(mesh: Mesh, k: int, t_end: float, t_start: float,
                           v: VelocityField, substeps: int | None = None) -> np.ndarray:
    """Snapped index coordinates of every cell's traced ends (and midpoint).

    Row j holds the feet of cell j's left end, its midpoint unless k = 1,
    and its right end; neighbours share end feet bitwise, because the
    points are traced once on the mesh lattice.
    """
    if substeps is None:
        substeps = substeps_for(mesh, v, t_end, t_start)
    points, index = cell_lattice(mesh, (-0.5, 0.5) if k == 1 else (-0.5, 0.0, 0.5))
    feet = trace_back(points[0], t_end, t_start, v, substeps)
    r = snap_index((feet[index] - mesh.lower[0]) / mesh.dx)
    folded = np.flatnonzero(np.any(np.diff(r, axis=1) <= 0, axis=1))
    if folded.size:
        raise GeometryError(f"non-monotone feet in cell {folded[0]}; reduce the time step")
    if r[-1, -1] - r[0, 0] > mesh.n * (1.0 + 1e-9):
        raise GeometryError("upstream region longer than the domain (CFL too large)")
    return r


def assemble_remap_1d(mesh: Mesh, k: int, t_end: float, t_start: float,
                      v: VelocityField) -> sp.bsr_matrix:
    """Block-sparse remap operator over global coefficients: load = R @ u.

    Row block j holds the loads of cell j.  Every upstream interval is cut
    at the grid lines it crosses, and each piece's moments are taken in
    the background cell it lies in.
    """
    rc = traced_interval_points(mesh, k, t_end, t_start, v)
    feet = rc[:, 1:2] if k == 0 else rc                  # (N, k+1) Gauss-Lobatto feet
    centers, cfit = fit_tests(feet[..., None], k, np.array(GL_POINTS[k])[:, None])

    # one piece per background cell the upstream interval [rlo, rhi] meets
    rlo, rhi = rc[:, 0], rc[:, -1]
    first = np.floor(rlo).astype(int)
    ncols = np.ceil(rhi).astype(int) - first
    owner = np.repeat(np.arange(mesh.n), ncols)
    idx = first[owner] + np.arange(owner.size) - (np.cumsum(ncols) - ncols)[owner]
    lo, hi = np.maximum(rlo[owner], idx), np.minimum(rhi[owner], idx + 1)
    a = np.arange(1, 2 * k + 2)
    moments = (powers(hi - idx - 0.5, 2 * k + 2) - powers(lo - idx - 0.5, 2 * k + 2))[:, 1:] / a
    o, c, W = sum_moments(mesh, owner, idx[:, None], np.arange(owner.size), np.ones(owner.size),
                          mesh.dx * moments)
    del moments
    return remap_matrix(mesh, k, o, c, W, centers, cfit)
