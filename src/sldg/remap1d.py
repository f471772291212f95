"""Conservative 1D remap: upstream intervals, test reconstruction, loads.

Updating the transported part of the solution requires, for every cell and
every test basis function Psi_m, the inner product of the old solution with
the backward-traced test function over the upstream interval.  The traced
test function is reconstructed as the degree-k polynomial interpolating
Psi_m's values through the characteristic feet of the cell's Gauss-Lobatto
points, the upstream interval is split against the background mesh, and each
piece is integrated with a Gauss rule that is exact for the degree-2k
integrand.

The module offers per-cell operations mirroring that description plus a
vectorized assembler producing the whole remap operator as a sparse matrix
(load = R @ coefficients), which the time stepper reuses across steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .characteristics import GL_POINTS, VelocityField, cell_lattice, snap_index, substeps_for, trace_back
from .core import Basis, DGField, Mesh1D, gauss_rule


class GeometryError(RuntimeError):
    """Raised when traced geometry is unusable (non-monotone feet, over-long upstream)."""


@dataclass(frozen=True)
class TestPoly1D:
    """Degree-k interpolants of all test basis functions over one upstream interval.

    ``nodes`` are the characteristic feet; column i of ``values`` holds
    Psi_m at the matching Gauss-Lobatto source point, so evaluation is plain
    Lagrange interpolation (constant in the k = 0 case).
    """

    nodes: np.ndarray          # (k+1,) feet
    values: np.ndarray         # (dim, k+1) Psi_m at source points

    def eval(self, x: np.ndarray) -> np.ndarray:
        """Values of every interpolant at x; shape (..., dim)."""
        L = lagrange_weights(self.nodes[None, :], np.asarray(x, float)[None, :])[0]
        return L @ self.values.T


@dataclass(frozen=True)
class UpstreamInterval:
    """Upstream image of one Eulerian cell between two time levels."""

    j: int
    t_end: float
    t_start: float
    lo: float
    hi: float
    feet: np.ndarray
    test: TestPoly1D


@dataclass(frozen=True)
class SubInterval:
    """Piece of an upstream interval inside a single background cell."""

    lo: float
    hi: float
    cell: int          # wrapped background index
    shift: float       # subtract to land the piece in the primary domain


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


def _gl_feet(r: np.ndarray, k: int) -> np.ndarray:
    """The traced Gauss-Lobatto points among a cell's ends and midpoint."""
    return r[..., 1:2] if k == 0 else r


def build_upstream_1d(mesh: Mesh1D, j: int, t_end: float, t_start: float,
                      v: VelocityField, k: int, substeps: int | None = None) -> UpstreamInterval:
    """Trace cell j's Gauss-Lobatto points and set up its test interpolants."""
    x = mesh.x_a + mesh.dx * traced_interval_points(mesh, k, t_end, t_start, v, substeps)[j]
    values = Basis(k, 1).eval(np.array(GL_POINTS[k])).T       # (dim, k+1)
    feet = _gl_feet(x, k)
    test = TestPoly1D(nodes=feet, values=values)
    return UpstreamInterval(j, t_end, t_start, x[0], x[-1], feet, test)


def split_subintervals(up: UpstreamInterval, mesh: Mesh1D) -> list[SubInterval]:
    """Cut the upstream interval at every background cell boundary it crosses."""
    rlo = float(snap_index((up.lo - mesh.x_a) / mesh.dx))
    rhi = float(snap_index((up.hi - mesh.x_a) / mesh.dx))
    first = int(np.floor(rlo)) + 1
    last = int(np.ceil(rhi)) - 1
    cuts = [rlo] + [float(n) for n in range(first, last + 1)] + [rhi]
    out = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo <= 0.0:
            continue
        idx = int(np.floor((lo + hi) / 2.0))
        wrapped = idx % mesh.n
        shift = (idx - wrapped) // mesh.n * mesh.length
        out.append(SubInterval(mesh.x_a + lo * mesh.dx, mesh.x_a + hi * mesh.dx, wrapped, shift))
    return out


def remap_term1_1d(u: DGField, up: UpstreamInterval) -> np.ndarray:
    """Load vector of cell ``up.j``: (u, Psi*_m) over the upstream interval."""
    mesh: Mesh1D = u.mesh
    k = u.k
    nodes, weights = gauss_rule(k + 1)
    basis = u.basis
    load = np.zeros(basis.dim)
    for sub in split_subintervals(up, mesh):
        mid, half = 0.5 * (sub.lo + sub.hi), 0.5 * (sub.hi - sub.lo)
        x = mid + 2.0 * half * nodes
        xi = (x - sub.shift - mesh.x_a) / mesh.dx - sub.cell - 0.5
        uvals = basis.eval(xi) @ u.coeffs[sub.cell]
        psivals = up.test.eval(x)                        # (q, dim)
        load += (sub.hi - sub.lo) * np.einsum("q,q,qd->d", weights, uvals, psivals)
    return load


def assemble_remap_1d(mesh: Mesh1D, k: int, t_end: float, t_start: float,
                      v: VelocityField, substeps: int | None = None) -> sp.csr_matrix:
    """Sparse remap operator over global coefficients: load = R @ u.

    Row block j holds the loads of cell j; the construction is the vectorized
    counterpart of build_upstream_1d / split_subintervals / remap_term1_1d.
    """
    rc = traced_interval_points(mesh, k, t_end, t_start, v, substeps)
    feet = _gl_feet(rc, k)                               # (N, k+1) index coordinates
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
