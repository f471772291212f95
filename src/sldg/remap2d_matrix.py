"""Vectorized assembly of the 2D remap operator.

The remap load vector is linear in the old solution's coefficients, so the
whole remap for one (later time, earlier time) pair is a sparse matrix R
with load = R @ coefficients.  The stepper builds R once per traced geometry
and reuses it across stages and steps whenever the velocity field allows.

All geometry lives in cell-index coordinates, as in 1D: the traced feet,
the test fits, the edge curves and their splitting at grid lines.

The assembly avoids region chaining by Green's theorem in each background
cell: with Q_a(x) the x-integral of xi^a from the cell's left edge, the
moment int xi^a eta^b over the cell's part of an upstream cell is the
contour integral of Q_a eta^b dy around that part.  Horizontal grid lines
(dy = 0) and the left edge (Q_a = 0) add nothing.  Each upstream boundary
piece adds F[a, b], the integral of Q_a eta^b dy along it, to its own
column; the right edge, where Q_a is q_a, the integral over a whole
column, adds q (x) S.  As eta^b dy integrates to zero around any closed
contour, S[b], its integral up the edge's part in the upstream cell, is
the row's E[b] = int eta^b dy summed over the pieces right of the column,
and a row's blocks run from its leftmost piece column to its rightmost.
``remap1d.sum_moments`` sums F (reduced to the moments blocks read) and E
per (owner, background cell) in one signed sparse product; ``_full_columns``
adds q (x) S by suffix sums along each row, and ``remap_matrix`` forms R.

An interior edge bounds two upstream cells in opposite directions, and
both trace it from the same lattice points, so it is split and integrated
once: its pieces serve the second cell with the sign flipped and the
columns shifted by the whole index offset between the two cells' frames.
Edges on the periodic seam join feet traced from different lattice
points and stay with their one cell (``unique_edges``).

Edges are quadratic parametrizations (x(s), y(s)) for s in [0, 1];
straight segments are the degenerate case with vanishing quadratic part.
``split_edges_at_gridlines`` cuts each edge where it crosses a grid line:
one sort orders an edge's crossings of every line it reaches, a crossing
within SNAP_TOL of the one before it is the same grid vertex, and
crossings within END_MARGIN of the edge's ends are dropped.  Each piece
then lies in one background cell, the one its snapped midpoint is in.

The module also holds the geometry the clipping oracle in ``verify``
takes from it: the traced and snapped cell points and the edge curves.
Upstream cells are rejected when their corner quadrilateral is flipped or
self-crossing, or when their curved area is not positive.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .characteristics import (CELL_POINTS_4, CELL_POINTS_9, SNAP_TOL, VelocityField, cell_lattice,
                              snap_index, substeps_for, trace_back)
from .core import Mesh, gauss_rule
from .remap1d import (GeometryError, block_moments, fit_tests, powers, remap_matrix, runs,
                      sum_moments)

# Crossings this close to an edge's ends are dropped.  A piece must be long
# enough that its snapped midpoint, which picks its cell, cannot land on the
# grid line the piece ends at: an edge that overshoots a grid vertex by about
# SNAP_TOL would otherwise keep pieces about SNAP_TOL long in the wrong row.
END_MARGIN = 10.0 * SNAP_TOL


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
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.clip(-coeffs[..., 1] / (2.0 * coeffs[..., 2]), 0.0, 1.0)   # NaN if constant
    v0, v1, vv = (eval_quadratic(coeffs, s) for s in (0.0, 1.0, vertex))
    return np.fmin(np.minimum(v0, v1), vv), np.fmax(np.maximum(v0, v1), vv)


def _line_crossings(coeffs: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Parameters in (0, 1) where quadratics cross given levels; others are NaN.

    coeffs: (E, 3) one component per edge; levels: (E, L), NaN-padded.
    Returns (E, L, 2).  Both roots come from the cancellation-free pair
    q/a, c/q: a straight edge (a = 0) gets c/q = -c/b and an infinite q/a,
    and a negative discriminant gives NaN.  A touch is a double root, so
    it cuts the edge once and no piece's midpoint can be the touch point;
    an apex that misses the level by less than SNAP_TOL touches it, since
    snapping would put a midpoint there on the line.  Each edge's quadratic
    is first scaled by the power of two that brings max(|a|, |b|) into
    [1/2, 1): that is exact, so the roots are unchanged, and b * b cannot
    underflow however small the coefficients.
    """
    shift = -np.frexp(np.maximum(np.abs(coeffs[:, None, 1]), np.abs(coeffs[:, None, 2])))[1]
    c = np.ldexp(coeffs[:, None, 0] - levels, shift)
    b, a = np.ldexp(coeffs[:, None, 1], shift), np.ldexp(coeffs[:, None, 2], shift)
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - 4.0 * a * c
        # the apex's distance from the level, in unscaled units, is |disc / 4a|
        touch = (disc < 0.0) & (np.abs(np.ldexp(disc / (4.0 * a), -shift)) <= SNAP_TOL)
        q = -0.5 * (b + np.copysign(np.sqrt(disc), b))
        roots = np.stack([q / a, c / q], axis=-1)
        roots = np.where(touch[..., None], (-b / (2.0 * a))[..., None], roots)
    inside = (roots > END_MARGIN) & (roots < 1.0 - END_MARGIN)
    return np.where(inside, roots, np.nan)


def split_edges_at_gridlines(edges_idx: np.ndarray):
    """Split a batch of edges (index coordinates) at every grid-line crossing.

    edges_idx: (E, 2, 3) quadratic coefficients of (rx(s), ry(s)).  Each
    edge's cuts (0, its crossings of every grid line both coordinates
    reach, 1) form one NaN-padded row, sorted once; a crossing within
    SNAP_TOL of the cut before it is that grid vertex again and merges
    into it.  Returns (edge_id, s0, s1) flat arrays of the pieces between
    consecutive distinct cuts, ordered by edge and then along it.
    """
    E = edges_idx.shape[0]
    rows = [np.zeros((E, 1)), np.ones((E, 1))]
    for axis in (0, 1):
        lo, hi = quadratic_range(edges_idx[:, axis, :])
        first = np.ceil(lo - SNAP_TOL)
        count = np.floor(hi + SNAP_TOL) - first + 1.0     # lines the edge only touches too
        step = np.arange(count.max(initial=0.0))
        levels = np.where(step < count[:, None], first[:, None] + step, np.nan)
        rows.append(_line_crossings(edges_idx[:, axis, :], levels).reshape(E, -1))
    cuts = np.sort(np.concatenate(rows, axis=1), axis=1)
    distinct = np.isfinite(cuts)
    distinct[:, 1:] &= ~(np.diff(cuts, axis=1) <= SNAP_TOL)
    edge, s = np.nonzero(distinct)[0], cuts[distinct]
    piece = edge[:-1] == edge[1:]
    return edge[:-1][piece], s[:-1][piece], s[1:][piece]


# ---------------------------------------------------------------------------
# traced cell points, guards and test reconstruction
# ---------------------------------------------------------------------------

def tracked_points(mode: str, k: int) -> tuple:
    """Reference positions traced for a cell: 9 whenever P2 data is needed."""
    return CELL_POINTS_9 if (k == 2 or mode == "qc") else CELL_POINTS_4


def traced_cell_points(mesh: Mesh, t_end: float, t_start: float, v: VelocityField,
                       ref: tuple, substeps: int | None = None) -> np.ndarray:
    """Snapped index coordinates of every cell's traced points ``ref``, (ncells, npts, 2).

    The points are traced once on the cell lattice and gathered per cell, so
    neighbouring cells see bitwise identical shared feet.  Each cell's feet
    are then shifted by whole multiples of the cell counts so that the
    midpoint of its corners' bounding box lies in [0, nx) x [0, ny),
    snapped onto the half-cell lattice within SNAP_TOL, and its corner
    quadrilateral is checked.
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


def unique_edges(mesh: Mesh, feet: np.ndarray):
    """Every upstream cell edge once, with the cells it bounds.

    Returns (first, side, twin, off): edge e is side ``side[e]`` (0 bottom,
    1 right, 2 top, 3 left) of cell ``first[e]``.  The first ``twin.size``
    edges are interior: cell (i, j)'s bottom edge for j > 0, which is the
    top edge of (i, j - 1), then its right edge for i < nx - 1, the left
    edge of (i + 1, j).  Their second owners ``twin`` hold the same feet in
    the opposite direction, in frames shifted by the whole index offsets
    ``off`` (twin's frame minus first's).  Seam edges (bottom of row 0,
    right of column nx - 1, top of row ny - 1, left of column 0) join feet
    traced from different lattice points, so each stays with its one cell.
    """
    nx, ny = mesh.shape
    cells = np.arange(mesh.ncells)
    i, j = cells % nx, cells // nx
    below, right = cells[j > 0], cells[i < nx - 1]
    seams = [cells[j == 0], cells[i == nx - 1], cells[j == ny - 1], cells[i == 0]]
    first = np.concatenate([below, right, *seams])
    side = np.repeat([0, 1, 0, 1, 2, 3], [below.size, right.size, *(c.size for c in seams)])
    twin = np.concatenate([below - nx, right + 1])
    off = np.rint(np.concatenate([feet[below - nx, 3] - feet[below, 0],
                                  feet[right + 1, 0] - feet[right, 1]])).astype(int)
    return first, side, twin, off


def _piece_moments(mesh: Mesh, k: int, mode: str, seg: np.ndarray, s0: np.ndarray,
                   s1: np.ndarray, cell: np.ndarray) -> np.ndarray:
    """Rows [F | E] of the pieces ``seg[p]`` over [s0, s1], F in column ``cell[p]``.

    The node values are formed for RUN pieces at a time.
    """
    # the moments the blocks read (total degree <= 2k) have integrands of
    # degree up to 2k+1 in the parameter on straight pieces and 4k+3 on
    # curved ones; both node counts are exact for those
    nodes, weights = gauss_rule((k + 2) if mode != "qc" else (2 * k + 2))
    a = np.arange(1, 2 * k + 2)
    keep = block_moments(k, 2)
    moments = np.empty((len(seg), keep.size + 2 * k + 1))
    for lo, hi in runs(len(seg)):
        curve, t0, t1, cx = seg[lo:hi], s0[lo:hi], s1[lo:hi], cell[lo:hi]
        sg = 0.5 * (t0 + t1)[:, None] + (t1 - t0)[:, None] * nodes             # (n, G)
        x, y = eval_quadratic(curve[:, :, None, :], sg[:, None, :]).transpose(1, 0, 2)
        # contour weight per node, with dx dy turning cell units into area
        wg = (mesh.dx * mesh.dy) * weights * (t1 - t0)[:, None]
        wg *= eval_quadratic_deriv(curve[:, 1, None, :], sg)
        eta = powers(y - cx[:, 1, None] - 0.5, 2 * k + 1)                    # (n, G, 2k+1)
        Q = powers(x - cx[:, 0, None] - 0.5, 2 * k + 2)[..., 1:]
        Q -= (-0.5) ** a
        Q /= a
        Q *= wg[..., None]
        moments[lo:hi, :keep.size] = (np.swapaxes(Q, 1, 2) @ eta).reshape(hi - lo, -1)[:, keep]
        moments[lo:hi, keep.size:] = np.einsum("pg,pgb->pb", wg, eta)
    return moments


def _contributions(first, twin, off, eid, cell):
    """(owner, (row, column), piece, sign) of every piece, for ``sum_moments``.

    Every piece serves its edge's first owner, and a shared edge's pieces
    also its twin, negated and shifted into the twin's frame.
    """
    shared = np.flatnonzero(eid < twin.size)
    return (np.concatenate([first[eid], twin[eid[shared]]]),
            np.concatenate([cell, cell[shared] + off[eid[shared]]])[:, ::-1],
            np.concatenate([np.arange(eid.size), shared]),
            np.concatenate([np.ones(eid.size), -np.ones(shared.size)]))


def _full_columns(k: int, o: np.ndarray, c: np.ndarray, W: np.ndarray):
    """Each (owner, row)'s blocks from its leftmost piece column to its rightmost, F + q (x) S,
    from ``sum_moments``' [F | E] sums ordered by owner, row and column."""
    keep, n, a = block_moments(k, 2), 2 * k + 1, np.arange(1, 2 * k + 2)
    start = np.append(True, (np.diff(o) != 0) | (np.diff(c[:, 0]) != 0))
    first, group = np.flatnonzero(start), np.cumsum(start) - 1
    left = c[first, 1]
    width = c[np.append(first[1:], len(o)) - 1, 1] - left + 1
    base = np.cumsum(width) - width
    block = np.repeat(np.arange(first.size), width)
    col = np.arange(block.size) - base[block]                      # columns right of the leftmost
    sums = np.zeros((block.size, W.shape[1]))
    sums[base[group] + c[:, 1] - left[group]] = W
    # E becomes its suffix sum along the row, so S at a column is E at the next
    E, to_end = sums[:, keep.size:], (width - 1)[block] - col
    for d in range(1, to_end.max(initial=0) + 1):
        i = np.flatnonzero(to_end == d)
        E[i] += E[i + 1]
    i = np.flatnonzero(to_end > 0)
    sums[i, :keep.size] += ((0.5 ** a - (-0.5) ** a) / a)[keep // n] * E[i + 1][:, keep % n]
    return o[first][block], np.stack([left[block] + col, c[first, 0][block]], axis=1), sums


def assemble_remap_2d(mesh: Mesh, k: int, t_end: float, t_start: float,
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
    lo, hi = quadratic_range(edges)                                         # (C, 4, 2)
    if np.max(hi.max(axis=1) - lo.min(axis=1)) >= min(mesh.shape):
        raise GeometryError("an upstream cell spans the whole domain (CFL too large)")

    first, side, twin, off = unique_edges(mesh, feet)
    eid, s0, s1 = split_edges_at_gridlines(edges[first, side])
    seg = edges[first[eid], side[eid]]                                      # (P, 2, 3)
    # each intermediate is dropped once used: they set an assembly's peak memory
    del feet, edges
    cell = np.floor(snap_index(eval_quadratic(seg, 0.5 * (s0 + s1)[:, None]))).astype(int)
    moments = _piece_moments(mesh, k, mode, seg, s0, s1, cell)
    del seg, s0, s1
    o, c, W = sum_moments(mesh, *_contributions(first, twin, off, eid, cell), moments)
    del moments, eid, cell
    o, c, W = _full_columns(k, o, c, W)
    return remap_matrix(mesh, k, o, c, W, centers, cfit)
