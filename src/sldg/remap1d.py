"""Conservative 1D remap: upstream intervals, test reconstruction, loads.

Updating the transported part of the solution requires, for every cell and
every test basis function Psi_m, the inner product of the old solution with
the backward-traced test function over the upstream interval.  The traced
test function is reconstructed as the degree-k polynomial interpolating
Psi_m's values through the characteristic feet of the cell's Gauss-Lobatto
points, the upstream interval is split against the background mesh, and each
piece is integrated with a Gauss rule that is exact for the degree-2k
integrand.  ``assemble_remap_1d`` does this for all cells at once and
returns the remap operator as a sparse matrix (load = R @ coefficients),
which the time stepper reuses across steps.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .characteristics import GL_POINTS, VelocityField, cell_lattice, snap_index, substeps_for, trace_back
from .core import Basis, Mesh1D, gauss_rule


class GeometryError(RuntimeError):
    """Raised when traced geometry is unusable (non-monotone feet, over-long upstream)."""


def lagrange_weights(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Lagrange basis values L_i(x) for small node sets.

    nodes: (..., p) interpolation points, x: (..., q) evaluation points;
    returns (..., q, p).
    """
    p = nodes.shape[-1]
    diff = x[..., :, None] - nodes[..., None, :]          # (..., q, p)
    out = np.ones_like(diff)
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            out[..., i] *= diff[..., j] / (nodes[..., i] - nodes[..., j])[..., None]
    return out


def traced_interval_points(mesh: Mesh1D, k: int, t_end: float, t_start: float,
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
    r = snap_index((feet[index] - mesh.x_a) / mesh.dx)
    folded = np.flatnonzero(np.any(np.diff(r, axis=1) <= 0, axis=1))
    if folded.size:
        raise GeometryError(f"non-monotone feet in cell {folded[0]}; reduce the time step")
    if r[-1, -1] - r[0, 0] > mesh.n * (1.0 + 1e-9):
        raise GeometryError("upstream region longer than the domain (CFL too large)")
    return r


def assemble_remap_1d(mesh: Mesh1D, k: int, t_end: float, t_start: float,
                      v: VelocityField) -> sp.csr_matrix:
    """Sparse remap operator over global coefficients: load = R @ u.

    Row block j holds the loads of cell j.  Every upstream interval is cut
    at the grid lines it crosses; each piece is integrated in the
    background cell its midpoint lies in, with the test interpolants
    evaluated by Lagrange weights through the snapped feet.
    """
    rc = traced_interval_points(mesh, k, t_end, t_start, v)
    feet = rc[:, 1:2] if k == 0 else rc                  # (N, k+1) Gauss-Lobatto feet
    d = k + 1
    N = mesh.n

    rlo, rhi = rc[:, 0], rc[:, -1]
    first = np.floor(rlo).astype(int) + 1
    ncuts = np.maximum(np.ceil(rhi).astype(int) - 1 - first + 1, 0)
    nsub = ncuts + 1

    # ragged list of breakpoints per cell -> flat (lo, hi, owner) arrays
    owner = np.repeat(np.arange(N), nsub)
    offs = np.concatenate([[0], np.cumsum(nsub)])
    total = offs[-1]
    lo = np.empty(total)
    hi = np.empty(total)
    pos = np.arange(total) - offs[owner]                 # piece rank within its cell
    lo[:] = np.where(pos == 0, rlo[owner], first[owner] + pos - 1)
    hi[:] = np.where(pos == nsub[owner] - 1, rhi[owner], first[owner] + pos)

    keep = hi - lo > 0.0
    lo, hi, owner = lo[keep], hi[keep], owner[keep]
    idx = np.floor(0.5 * (lo + hi)).astype(int)
    bg = np.mod(idx, N)

    nodes, weights = gauss_rule(k + 1)
    r_nodes = lo[:, None] + (nodes[None, :] + 0.5) * (hi - lo)[:, None]   # (S, q) index coords
    xi = r_nodes - idx[:, None] - 0.5
    basis = Basis(k, 1)
    phi = basis.eval(xi)                                  # (S, q, d) values of background basis

    L = lagrange_weights(feet[owner], r_nodes)            # (S, q, d) Lagrange basis at nodes
    src_vals = basis.eval(np.array(GL_POINTS[k])).T       # (d_m, k+1)
    psi = np.einsum("sqp,mp->sqm", L, src_vals)           # (S, q, d_m)

    scale = ((hi - lo) * mesh.dx)[:, None]
    blocks = np.einsum("q,sqm,sqn->smn", weights, psi, phi) * scale[..., None]

    rows = (owner[:, None, None] * d + np.arange(d)[None, :, None])
    cols = (bg[:, None, None] * d + np.arange(d)[None, None, :])
    rows = np.broadcast_to(rows, blocks.shape).ravel()
    cols = np.broadcast_to(cols, blocks.shape).ravel()
    R = sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(N * d, N * d))
    return R.tocsr()
