"""Vectorized assembly of the 2D remap operator.

The remap load vector is linear in the old solution's coefficients, so the
whole remap for one (later time, earlier time) pair is a sparse matrix R
with load = R @ coefficients.  The stepper builds R once per traced geometry
and reuses it across stages and steps whenever the velocity field allows.

All geometry lives in cell-index coordinates, as in 1D: the traced feet,
the test fits, the edge curves and their splitting at grid lines.

The assembly avoids region chaining altogether by anchoring the Green
auxiliary function globally per upstream cell: with Q(x, y) the
x-antiderivative of the integrand started at a grid line left of the whole
upstream cell, horizontal boundary pieces contribute nothing (dy = 0) and
all vertical grid lines become interior to Q's definition, so only the
upstream boundary pieces themselves carry contour contributions.  Q at a
point inside background column ix is a sum over the columns from the anchor
to ix: full-column integrals for the columns left of ix and the partial
integral inside ix.  So every boundary piece pairs with each of those
columns, and each pair yields a table of monomial moments, integrated
exactly along the piece, that ``remap1d.remap_matrix`` turns into R.  Any
per-owner anchor gives the same loads because two anchors change Q by a
function of y only, whose contour integral over the closed upstream
boundary vanishes.

The module also holds the geometry the clipping oracle in ``verify``
takes from it: the traced and snapped cell points and the quadratic edge
curves.  Edges are quadratic parametrizations (x(s), y(s)) for s in
[0, 1]; straight segments are the degenerate case with vanishing quadratic
part.  Upstream cells are rejected when their corner quadrilateral is
flipped or self-crossing, or when their curved area is not positive.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .characteristics import (
    CELL_POINTS_4,
    CELL_POINTS_9,
    VelocityField,
    cell_lattice,
    snap_index,
    substeps_for,
    trace_back,
)
from .core import Mesh2D, gauss_rule
from .remap1d import GeometryError, fit_tests, powers, remap_matrix

ROOT_EDGE_TOL = 1e-11  # crossings this close to an edge endpoint are dropped


# ---------------------------------------------------------------------------
# quadratic edge kernels
# ---------------------------------------------------------------------------

def quadratic_through(p0: np.ndarray, pm: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Coefficients (c, b, a) of the parabola through p0, pm, p2 at s = 0, 1/2, 1.

    Input arrays share a common leading shape; the result has an extra
    trailing axis holding (constant, linear, quadratic) coefficients.
    """
    c = p0
    b = -3.0 * p0 + 4.0 * pm - p2
    a = 2.0 * p0 - 4.0 * pm + 2.0 * p2
    return np.stack([c, b, a], axis=-1)


def eval_quadratic(coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Evaluate (c, b, a) coefficient arrays; broadcasts over leading axes."""
    return coeffs[..., 0] + s * (coeffs[..., 1] + s * coeffs[..., 2])


def eval_quadratic_deriv(coeffs: np.ndarray, s: np.ndarray) -> np.ndarray:
    return coeffs[..., 1] + 2.0 * s * coeffs[..., 2]


def quadratic_range(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """True min/max of a batch of quadratics over s in [0, 1]."""
    v0 = eval_quadratic(coeffs, 0.0)
    v1 = eval_quadratic(coeffs, 1.0)
    lo = np.minimum(v0, v1)
    hi = np.maximum(v0, v1)
    a, b = coeffs[..., 2], coeffs[..., 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        sv = np.where(np.abs(a) > 0.0, -b / (2.0 * a), -1.0)
    interior = (sv > 0.0) & (sv < 1.0)
    vv = eval_quadratic(coeffs, np.where(interior, sv, 0.0))
    lo = np.where(interior, np.minimum(lo, vv), lo)
    hi = np.where(interior, np.maximum(hi, vv), hi)
    return lo, hi


def _line_crossings(coeffs: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """Parameters where quadratics cross given levels; non-crossings are NaN.

    coeffs: (P, 3) one component per row; lines: (P,) target level per row.
    Returns (P, 2) roots inside (0, 1); tangencies count as touches and are
    dropped.
    """
    c = coeffs[:, 0] - lines
    b = coeffs[:, 1]
    a = coeffs[:, 2]
    out = np.full((coeffs.shape[0], 2), np.nan)
    scale = np.maximum(np.abs(a) + np.abs(b) + np.abs(c), 1e-30)
    lin = np.abs(a) <= 1e-13 * scale
    with np.errstate(divide="ignore", invalid="ignore"):
        r_lin = -c / b
    ok_lin = lin & (np.abs(b) > 1e-13 * scale)
    out[:, 0] = np.where(ok_lin, r_lin, out[:, 0])

    disc = b * b - 4.0 * a * c
    quad = (~lin) & (disc > 1e-24 * scale**2)
    sq = np.sqrt(np.where(quad, disc, 0.0))
    qq = -0.5 * (b + np.sign(np.where(b == 0.0, 1.0, b)) * sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(quad, qq / a, np.nan)
        r2 = np.where(quad & (np.abs(qq) > 0.0), c / qq, np.nan)
    out[:, 0] = np.where(quad, r1, out[:, 0])
    out[:, 1] = np.where(quad, r2, out[:, 1])
    inside = (out > ROOT_EDGE_TOL) & (out < 1.0 - ROOT_EDGE_TOL)
    return np.where(inside, out, np.nan)


def split_edges_at_gridlines(edges_idx: np.ndarray):
    """Split a batch of edges (index coordinates) at every grid-line crossing.

    edges_idx: (E, 2, 3) quadratic coefficients of (rx(s), ry(s)).
    Returns (edge_id, s0, s1) flat arrays of sub-pieces ordered along each
    edge.
    """
    E = edges_idx.shape[0]
    root_eids = []
    root_vals = []
    for axis in (0, 1):
        lo, hi = quadratic_range(edges_idx[:, axis, :])
        first = np.floor(lo).astype(int) + 1
        count = np.maximum(np.ceil(hi).astype(int) - first, 0)
        if count.sum() == 0:
            continue
        eid = np.repeat(np.arange(E), count)
        offs = np.concatenate([[0], np.cumsum(count)])
        level = (first[eid] + (np.arange(eid.size) - offs[eid])).astype(float)
        roots = _line_crossings(edges_idx[eid, axis, :], level)
        for col in range(2):
            valid = ~np.isnan(roots[:, col])
            root_eids.append(eid[valid])
            root_vals.append(roots[valid, col])

    if root_eids:
        eids = np.concatenate(root_eids)
        vals = np.concatenate(root_vals)
        order = np.lexsort((vals, eids))
        eids, vals = eids[order], vals[order]
        if eids.size:
            fresh = np.concatenate(
                [[True], (np.diff(eids) != 0) | (np.diff(vals) > 1e-12)]
            )
            eids, vals = eids[fresh], vals[fresh]
    else:
        eids = np.empty(0, dtype=int)
        vals = np.empty(0)
    if vals.size == 0:
        return np.arange(E), np.zeros(E), np.ones(E)

    nroots = np.bincount(eids, minlength=E)
    root_offs = np.concatenate([[0], np.cumsum(nroots)])
    npieces = nroots + 1
    offs = np.concatenate([[0], np.cumsum(npieces)])
    total = offs[-1]
    edge_id = np.repeat(np.arange(E), npieces)
    pos = np.arange(total) - offs[edge_id]
    take = root_offs[edge_id] + pos
    s0 = np.where(pos == 0, 0.0, vals[np.maximum(take - 1, 0)])
    s1 = np.where(pos == nroots[edge_id], 1.0, vals[np.minimum(take, max(vals.size - 1, 0))])
    keep = s1 - s0 > 1e-12
    return edge_id[keep], s0[keep], s1[keep]


# ---------------------------------------------------------------------------
# traced cell points, guards and test reconstruction
# ---------------------------------------------------------------------------

def tracked_points(mode: str, k: int) -> tuple:
    """Reference positions traced for a cell: 9 whenever P2 data is needed."""
    return CELL_POINTS_9 if (k == 2 or mode == "qc") else CELL_POINTS_4


def traced_cell_points(mesh: Mesh2D, t_end: float, t_start: float, v: VelocityField,
                       ref: tuple, substeps: int | None = None) -> np.ndarray:
    """Snapped index coordinates of every cell's traced points ``ref``, (ncells, npts, 2).

    The points are traced once on the cell lattice and gathered per cell, so
    neighbouring cells see bitwise identical shared feet.  Each cell's feet
    are then shifted by whole multiples of the cell counts so that the
    midpoint of its corners' bounding box lies in [0, nx) x [0, ny),
    snapped onto grid lines within SNAP_TOL, and its corner quadrilateral
    is checked.
    """
    if substeps is None:
        substeps = substeps_for(mesh, v, t_end, t_start)
    points, index = cell_lattice(mesh, ref)
    traced = trace_back(points, t_end, t_start, v, substeps)
    r = np.stack([(f[index] - lo) / w for f, lo, w in zip(traced, mesh.lower, mesh.widths)],
                 axis=-1)
    n = np.array(mesh.shape)
    mid = 0.5 * (r[:, :4].min(axis=1) + r[:, :4].max(axis=1))
    r = snap_index(r - (np.floor(mid / n) * n)[:, None, :])
    check_upstream_quads(r[:, :4])
    return r


def _orient(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (b[..., 1] - a[..., 1]) * (
        c[..., 0] - a[..., 0])


def _crossing(p, q, r, s) -> np.ndarray:
    """Whether segments pq and rs cross at interior points."""
    return (_orient(p, q, r) * _orient(p, q, s) < 0) & (_orient(r, s, p) * _orient(r, s, q) < 0)


def check_upstream_quads(corners: np.ndarray) -> None:
    """Reject flipped, degenerate or self-crossing upstream corner quadrilaterals.

    ``corners`` has shape (ncells, 4, 2) in counterclockwise source order;
    the GeometryError names the first bad cell.
    """
    x, y = corners[..., 0], corners[..., 1]
    area2 = np.sum(x * np.roll(y, -1, axis=1) - y * np.roll(x, -1, axis=1), axis=1)
    p = [corners[:, i] for i in range(4)]
    bowtie = _crossing(p[0], p[1], p[2], p[3]) | _crossing(p[1], p[2], p[3], p[0])
    bad = np.flatnonzero((area2 <= 0.0) | bowtie)
    if bad.size:
        j = bad[0]
        what = "self-intersecting" if bowtie[j] else "degenerate or flipped"
        raise GeometryError(f"upstream quadrilateral of cell {j} is {what}")


def cell_edges(feet: np.ndarray, mode: str) -> np.ndarray:
    """Counterclockwise edge curves (ncells, 4, 2, 3) of the upstream cells.

    Quad cells join the traced corners by straight segments; QC cells pass
    parabolas through each edge's traced midpoint.
    """
    corners = feet[:, :4]
    nxt = np.roll(corners, -1, axis=1)
    mids = feet[:, 4:8] if mode == "qc" else 0.5 * (corners + nxt)
    return quadratic_through(corners, mids, nxt)


def curved_areas(edges: np.ndarray) -> np.ndarray:
    """Signed areas, the contour integrals of x dy, of cells bounded by ``edges``.

    ``edges`` has shape (ncells, 4, 2, 3); in index coordinates the areas
    are in cell units.  x dy is cubic in the edge parameter, so two Gauss
    points per edge integrate it exactly.
    """
    nodes, weights = gauss_rule(2)
    s = nodes + 0.5
    x = eval_quadratic(edges[:, :, 0, None, :], s)
    dy = eval_quadratic_deriv(edges[:, :, 1, None, :], s)
    return np.einsum("q,ceq,ceq->c", weights, x, dy)


def assemble_remap_2d(mesh: Mesh2D, k: int, t_end: float, t_start: float,
                      v: VelocityField, mode: str = "quad") -> sp.bsr_matrix:
    """Block-sparse 2D remap operator over global coefficients: load = R @ u.

    Raises GeometryError naming the first upstream cell whose corner
    quadrilateral is flipped or self-crossing, or whose curved area is not
    positive (a QC edge midpoint folded across the cell).
    """
    if mode not in ("quad", "qc"):
        raise ValueError("mode must be 'quad' or 'qc'")
    ref = tracked_points(mode, k)
    feet = traced_cell_points(mesh, t_end, t_start, v, ref)
    centers, cfit = fit_tests(feet, k, np.array(ref))

    edges = cell_edges(feet, mode)
    folded = np.flatnonzero(curved_areas(edges) <= 0.0)
    if folded.size:
        raise GeometryError(f"curved upstream cell {folded[0]} has nonpositive area")
    edges = edges.reshape(-1, 2, 3)
    lo, hi = quadratic_range(edges)                                         # (E, 2)
    lo, hi = lo.reshape(-1, 4, 2).min(axis=1), hi.reshape(-1, 4, 2).max(axis=1)
    if np.max(hi - lo) >= min(mesh.shape):
        raise GeometryError("an upstream cell spans the whole domain (CFL too large)")
    anchor = np.floor(snap_index(lo[:, 0])).astype(int)

    eid, s0, s1 = split_edges_at_gridlines(edges)
    owner = eid // 4
    seg = edges[eid]                                                        # (P, 2, 3)
    pix, piy = np.floor(snap_index(eval_quadratic(seg, 0.5 * (s0 + s1)[:, None]))).astype(int).T

    # the moments the blocks read (total degree <= 2k) have integrands of
    # degree up to 2k+1 in the parameter on straight pieces and 4k+3 on
    # curved ones; both node counts are exact for those
    nodes, weights = gauss_rule((k + 2) if mode != "qc" else (2 * k + 2))
    sg = 0.5 * (s0 + s1)[:, None] + (s1 - s0)[:, None] * nodes              # (P, G)
    x, y = eval_quadratic(seg[:, :, None, :], sg[:, None, :]).transpose(1, 0, 2)
    # contour weight per node, with dx dy turning cell units into area
    wg = (mesh.dx * mesh.dy) * weights * (s1 - s0)[:, None]
    wg = wg * eval_quadratic_deriv(seg[:, 1, None, :], sg)
    eta = powers(y - piy[:, None] - 0.5, 2 * k + 1)                          # (P, G, 2k+1)

    # every piece pairs with each column from its owner's anchor to its own:
    # Q there is the full-column integral left of the piece's column plus
    # the partial integral inside it, up to the piece
    ncols = pix - anchor[owner] + 1
    if np.any(ncols < 1):
        raise GeometryError("piece column left of its owner's anchor (geometry bug)")
    piece = np.repeat(np.arange(eid.size), ncols)
    col = anchor[owner[piece]] + np.arange(piece.size) - (np.cumsum(ncols) - ncols)[piece]
    # a pair's moments: the contour integral of Q_a eta^b dy, where
    # Q_a = int xi^a from the column's left edge to xi_hi (1/2 left of the piece)
    xi_hi = np.where((col == pix[piece])[:, None], x[piece] - col[:, None] - 0.5, 0.5)
    a = np.arange(1, 2 * k + 2)
    Q = (powers(xi_hi, 2 * k + 2)[..., 1:] - (-0.5) ** a) / a
    moments = np.swapaxes(wg[piece][..., None] * Q, 1, 2) @ eta[piece]
    return remap_matrix(mesh, k, owner[piece], np.stack([col, piy[piece]], axis=1), moments,
                        centers, cfit)
