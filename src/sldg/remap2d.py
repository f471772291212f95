"""Conservative 2D remap: upstream cells, clipping, Green-theorem integrals.

Every Eulerian rectangle is traced backward along characteristics.  Its
upstream image is represented either as a straight-edged quadrilateral
through the four traced corners (``quad`` mode) or as a quadratic-curved
quadrilateral whose edges interpolate three traced points each (``qc``
mode).  The traced test function is reconstructed as a total-degree-k
polynomial by least squares through the traced points, the upstream cell is
intersected with the background mesh, and each overlap region is integrated
by converting the area integral into boundary line integrals: with auxiliary
functions P = 0 and Q the x-antiderivative of the integrand anchored at the
background cell's left edge, the area integral equals the contour integral
of Q dy.

This per-cell path is the reference the vectorized assembler in
``remap2d_matrix`` is tested against.  It takes its traced points, guard and
test fits from that module, so both paths share one snapping and
recentring policy; the clipping and the integration are its own.  All
quadrature node counts are fixed from the polynomial degrees involved, so
every integral of piecewise-polynomial data is exact to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .characteristics import VelocityField, snap_index
from .core import Basis, DGField, Mesh2D, gauss_rule
from .remap1d import GeometryError
from .remap2d_matrix import (
    cell_edges,
    eval_quadratic,
    eval_quadratic_deriv,
    fit_tests,
    quadratic_range,
    split_edges_at_gridlines,
    traced_cell_points,
    tracked_points,
)

CHAIN_TOL = 1e-9       # endpoint matching tolerance (relative to cell size)
AREA_DROP = 1e-14      # regions below this fraction of a cell area are discarded


def restrict_quadratic(coeffs: np.ndarray, s0, s1) -> np.ndarray:
    """Re-parametrize the sub-arc [s0, s1] of (c, b, a) onto [0, 1]."""
    c, b, a = coeffs[..., 0], coeffs[..., 1], coeffs[..., 2]
    span = s1 - s0
    return np.stack(
        [c + s0 * (b + s0 * a), span * (b + 2.0 * a * s0), a * span**2], axis=-1
    )


# ---------------------------------------------------------------------------
# upstream cells and test reconstruction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestPoly2D:
    """Least-squares reconstructions of every test basis over one upstream cell.

    The fit frame is centered at the traced points' centroid and scaled by
    the cell widths; ``coeffs[m]`` holds the modal coefficients of the
    reconstruction of test basis m in that frame.
    """

    center: np.ndarray       # (2,)
    scale: tuple[float, float]
    coeffs: np.ndarray       # (dim, dim)
    k: int

    def eval(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Values of all reconstructed tests at (x, y); shape (..., dim)."""
        basis = Basis(self.k, 2)
        xi = (np.asarray(x, float) - self.center[0]) / self.scale[0]
        eta = (np.asarray(y, float) - self.center[1]) / self.scale[1]
        return basis.eval(xi, eta) @ self.coeffs.T


@dataclass(frozen=True)
class UpstreamCell2D:
    """Traced image of one Eulerian cell with its reconstructed tests."""

    j: int
    t_end: float
    t_start: float
    mode: str
    feet: np.ndarray         # (npts, 2), canonical source ordering
    edges: np.ndarray        # (4, 2, 3) quadratic edge coefficients, CCW
    test: TestPoly2D

    @property
    def bbox(self) -> tuple[float, float, float, float]:
        xlo, xhi = quadratic_range(self.edges[:, 0, :])
        ylo, yhi = quadratic_range(self.edges[:, 1, :])
        return float(xlo.min()), float(xhi.max()), float(ylo.min()), float(yhi.max())

    def signed_area(self) -> float:
        """Contour integral of x dy over the (quadratic) boundary."""
        nodes, weights = gauss_rule(4)
        s = nodes + 0.5
        x = eval_quadratic(self.edges[:, 0, :][:, None, :], s[None, :])
        dy = eval_quadratic_deriv(self.edges[:, 1, :][:, None, :], s[None, :])
        return float(np.sum(weights[None, :] * x * dy))


@dataclass(frozen=True)
class OverlapRegion:
    """Closed, positively oriented piece of an upstream cell in one background cell."""

    cell: int                       # wrapped background cell index
    ix: int                         # unwrapped column
    iy: int                         # unwrapped row
    segments: np.ndarray            # (nseg, 2, 3) quadratic coefficients over [0, 1]
    anchor_x: float                 # left edge of the background cell (unwrapped)

    def closure_gap(self) -> float:
        starts = eval_quadratic(self.segments, 0.0)
        ends = eval_quadratic(self.segments, 1.0)
        return float(np.max(np.linalg.norm(ends - np.roll(starts, -1, axis=0), axis=1)))


def build_upstream_2d(mesh: Mesh2D, j: int, t_end: float, t_start: float,
                      v: VelocityField, k: int, mode: str = "quad",
                      substeps: int | None = None) -> UpstreamCell2D:
    """Cell j's traced points, fitted tests and edge curves, as the assembler has them."""
    if mode not in ("quad", "qc"):
        raise ValueError("mode must be 'quad' or 'qc'")
    feet = traced_cell_points(mesh, t_end, t_start, v, tracked_points(mode, k), substeps)[j:j + 1]
    centers, cfit = fit_tests(feet, k, mesh.dx, mesh.dy)
    test = TestPoly2D(center=centers[0], scale=(mesh.dx, mesh.dy), coeffs=cfit[0], k=k)
    return UpstreamCell2D(j, t_end, t_start, mode, feet[0], cell_edges(feet, mode)[0], test)


# ---------------------------------------------------------------------------
# clipping against the background mesh
# ---------------------------------------------------------------------------

def _point_in_boundary(edges: np.ndarray, px: float, py: float, dy: float) -> bool:
    """Even-odd test of a point against the closed quadratic boundary."""
    for attempt in range(4):
        yq = py + attempt * 1.3e-7 * dy
        hits = 0
        degenerate = False
        for e in range(4):
            cy_, by_, ay_ = edges[e, 1, :]
            cx_, bx_, ax_ = edges[e, 0, :]
            roots = np.roots([ay_, by_, cy_ - yq]) if abs(ay_) > 1e-14 else (
                [-(cy_ - yq) / by_] if abs(by_) > 1e-14 else []
            )
            for r in roots:
                if isinstance(r, complex):
                    if abs(r.imag) > 1e-10:
                        continue
                    r = r.real
                if -1e-12 <= r < 1.0 - 1e-12:
                    if abs(r) < 1e-9 or abs(eval_quadratic_deriv(edges[e, 1, :], r)) < 1e-12:
                        degenerate = True
                    if eval_quadratic(edges[e, 0, :], np.array(r)) > px:
                        hits += 1
        if not degenerate:
            return hits % 2 == 1
    return hits % 2 == 1


def _perimeter_tau(a: float, b: float, tol: float) -> float | None:
    """Counterclockwise perimeter coordinate of a boundary point of [0,1]^2."""
    on_b = abs(b) <= tol
    on_t = abs(b - 1.0) <= tol
    on_l = abs(a) <= tol
    on_r = abs(a - 1.0) <= tol
    if on_b and not on_r:
        return np.clip(a, 0.0, 1.0)
    if on_r and not on_t:
        return 1.0 + np.clip(b, 0.0, 1.0)
    if on_t and not on_l:
        return 3.0 - np.clip(a, 0.0, 1.0)
    if on_l:
        return 4.0 - np.clip(b, 0.0, 1.0)
    return None


_CORNERS = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def _corner_point(tau: float) -> np.ndarray:
    return _CORNERS[int(tau) % 4]


def _straight_segment(p0: np.ndarray, p1: np.ndarray) -> np.ndarray:
    return np.stack([p0, p1 - p0, np.zeros(2)], axis=-1)


def clip_upstream(up: UpstreamCell2D, mesh: Mesh2D) -> list[OverlapRegion]:
    """Intersect the upstream cell with every background cell it overlaps.

    Upstream-boundary pieces are obtained by splitting each edge at its
    grid-line crossings; within one background cell the pieces are chained,
    walking counterclockwise along the rectangle boundary between an exit
    and the next entry, into closed loops.  Background cells entirely inside
    the upstream cell become full-rectangle regions.
    """
    xlo, xhi, ylo, yhi = up.bbox
    span_x = (xhi - xlo) / mesh.dx
    span_y = (yhi - ylo) / mesh.dy
    if span_x >= min(mesh.nx, mesh.ny) or span_y >= min(mesh.nx, mesh.ny):
        raise GeometryError("upstream cell bounding box spans the whole domain")

    # index-space edge coefficients
    edges_idx = up.edges.copy()
    edges_idx[:, 0, :] /= mesh.dx
    edges_idx[:, 0, 0] -= mesh.x_a / mesh.dx
    edges_idx[:, 1, :] /= mesh.dy
    edges_idx[:, 1, 0] -= mesh.y_a / mesh.dy

    eid, s0s, s1s = split_edges_at_gridlines(edges_idx)
    pieces = []
    for e, s0, s1 in zip(eid, s0s, s1s):
        sub_idx = restrict_quadratic(edges_idx[e], s0, s1)
        p0 = eval_quadratic(sub_idx, 0.0)
        p1 = eval_quadratic(sub_idx, 1.0)
        mid = eval_quadratic(sub_idx, 0.5)
        der = eval_quadratic_deriv(sub_idx, 0.5)
        cell = _assign_cell(mid, der)
        pieces.append({"cell": cell, "idx": sub_idx, "p0": p0, "p1": p1})

    by_cell: dict[tuple[int, int], list] = {}
    for p in pieces:
        by_cell.setdefault(p["cell"], []).append(p)

    regions: list[OverlapRegion] = []
    for (cix, ciy), plist in by_cell.items():
        for loop in _chain_cell(plist, cix, ciy):
            regions.append(_make_region(loop, cix, ciy, mesh))

    # background cells fully covered by the upstream region
    cx0 = int(np.floor(snap_index(np.array([(xlo - mesh.x_a) / mesh.dx]))[0]))
    cx1 = int(np.ceil(snap_index(np.array([(xhi - mesh.x_a) / mesh.dx]))[0]))
    cy0 = int(np.floor(snap_index(np.array([(ylo - mesh.y_a) / mesh.dy]))[0]))
    cy1 = int(np.ceil(snap_index(np.array([(yhi - mesh.y_a) / mesh.dy]))[0]))
    for cix in range(cx0, cx1):
        for ciy in range(cy0, cy1):
            if (cix, ciy) in by_cell:
                continue
            px = mesh.x_a + (cix + 0.5) * mesh.dx
            py = mesh.y_a + (ciy + 0.5) * mesh.dy
            if _point_in_boundary(up.edges, px, py, mesh.dy):
                corners_idx = np.array(
                    [(cix, ciy), (cix + 1, ciy), (cix + 1, ciy + 1), (cix, ciy + 1)],
                    dtype=float,
                )
                segs = [
                    _straight_segment(corners_idx[i], corners_idx[(i + 1) % 4])
                    for i in range(4)
                ]
                regions.append(_make_region(np.array(segs), cix, ciy, mesh))

    out = []
    cell_area = mesh.dx * mesh.dy
    for r in regions:
        area = region_area(r)
        if abs(area) < AREA_DROP * cell_area:
            continue
        if area < 0.0:
            raise GeometryError(f"negatively oriented overlap region in cell ({r.ix},{r.iy})")
        out.append(r)
    out.sort(key=lambda r: (r.iy, r.ix))
    return out


def _assign_cell(mid: np.ndarray, der: np.ndarray) -> tuple[int, int]:
    """Background cell of a boundary piece, resolving on-line pieces by the interior side."""
    rx, ry = mid
    nx_bias = 0
    ny_bias = 0
    if abs(rx - round(rx)) < 1e-9:
        rx = round(rx)
        nx_bias = -1 if der[1] > 0 else 0       # upward: interior (and region) on the left
    if abs(ry - round(ry)) < 1e-9:
        ry = round(ry)
        ny_bias = 0 if der[0] > 0 else -1       # rightward: interior above
    return int(np.floor(rx)) + nx_bias, int(np.floor(ry)) + ny_bias


def _chain_cell(plist: list, cix: int, ciy: int) -> list[np.ndarray]:
    """Chain boundary pieces of one background cell into closed loops."""
    tol = CHAIN_TOL
    used = [False] * len(plist)
    origin = np.array([cix, ciy], dtype=float)
    loops = []
    for start in range(len(plist)):
        if used[start]:
            continue
        used[start] = True
        segs = [plist[start]["idx"]]
        first_pt = plist[start]["p0"]
        cur = plist[start]["p1"]
        for _ in range(8 * len(plist) + 32):
            if np.linalg.norm(cur - first_pt) < tol:
                break
            nxt = None
            for i, p in enumerate(plist):
                if not used[i] and np.linalg.norm(p["p0"] - cur) < tol:
                    nxt = i
                    break
            if nxt is not None:
                used[nxt] = True
                segs.append(plist[nxt]["idx"])
                cur = plist[nxt]["p1"]
                continue
            # walk the rectangle boundary counterclockwise to the next entry
            tau0 = _perimeter_tau(*(cur - origin), tol)
            if tau0 is None:
                raise GeometryError("overlap boundary does not close (open endpoint off the cell edge)")
            best = None
            target_close = _perimeter_tau(*(first_pt - origin), tol)
            if target_close is not None:
                d = (target_close - tau0) % 4.0
                best = (d if d > tol else 4.0, None)
            for i, p in enumerate(plist):
                if used[i]:
                    continue
                taup = _perimeter_tau(*(p["p0"] - origin), tol)
                if taup is None:
                    continue
                d = (taup - tau0) % 4.0
                d = d if d > tol else 4.0
                if best is None or d < best[0]:
                    best = (d, i)
            if best is None:
                raise GeometryError("overlap boundary does not close (no candidate continuation)")
            dist, idx = best
            target_tau = (tau0 + dist) % 4.0
            target_pt = first_pt if idx is None else plist[idx]["p0"]
            pos = cur
            t = tau0
            walked = 0.0
            while walked + (math.floor(t + 1.0) - t) < dist - tol:
                step = math.floor(t + 1.0) - t
                corner = origin + _corner_point(math.floor(t + 1.0))
                segs.append(_straight_segment(pos, corner))
                pos = corner
                walked += step
                t = (t + step) % 4.0
            segs.append(_straight_segment(pos, target_pt))
            if idx is None:
                cur = first_pt
            else:
                used[idx] = True
                segs.append(plist[idx]["idx"])
                cur = plist[idx]["p1"]
        else:
            raise GeometryError("overlap boundary chaining did not terminate")
        loops.append(np.array(segs))
    return loops


def _make_region(segs_idx: np.ndarray, cix: int, ciy: int, mesh: Mesh2D) -> OverlapRegion:
    segs = segs_idx.copy()
    segs[:, 0, :] *= mesh.dx
    segs[:, 0, 0] += mesh.x_a
    segs[:, 1, :] *= mesh.dy
    segs[:, 1, 0] += mesh.y_a
    wrapped = mesh.cell_index(np.array(cix), np.array(ciy))
    region = OverlapRegion(int(wrapped), cix, ciy, segs, mesh.x_a + cix * mesh.dx)
    gap = region.closure_gap()
    if gap > CHAIN_TOL * max(mesh.dx, mesh.dy):
        raise GeometryError(f"overlap region in cell ({cix},{ciy}) has closure gap {gap:.2e}")
    return region


def region_area(region: OverlapRegion) -> float:
    """Signed area from the contour integral of x dy."""
    nodes, weights = gauss_rule(4)
    s = nodes + 0.5
    x = eval_quadratic(region.segments[:, None, 0, :], s[None, :])
    dy = eval_quadratic_deriv(region.segments[:, None, 1, :], s[None, :])
    return float(np.sum(weights[None, :] * x * dy))


# ---------------------------------------------------------------------------
# Green-theorem line integrals
# ---------------------------------------------------------------------------

def green_integral(region: OverlapRegion, integrand, k: int) -> float:
    """Area integral of ``integrand`` over the region via boundary integrals.

    With P = 0 and Q(x, y) the x-antiderivative of the integrand anchored at
    the background cell's left edge, the value is the contour integral of
    Q dy.  Straight segments use k+2 Gauss nodes, quadratic arcs 2k+4, and
    the inner antiderivative k+1, which is exact for the degree-2k products
    arising in the remap.
    """

    def wrapped(xq, yq):
        return np.asarray(integrand(xq, yq), dtype=float)[..., None]

    return float(green_integral_vec(region, wrapped, k, 1)[0])


def green_integral_vec(region: OverlapRegion, integrand, k: int, m: int) -> np.ndarray:
    """Vector-valued green_integral: the integrand returns shape (..., m)."""
    anchor = region.anchor_x
    inner_nodes, inner_w = gauss_rule(k + 1)
    total = np.zeros(m)
    for seg in region.segments:
        straight = abs(seg[0, 2]) + abs(seg[1, 2]) == 0.0
        n = k + 2 if straight else 2 * k + 4
        nodes, weights = gauss_rule(n)
        s = nodes + 0.5
        x = eval_quadratic(seg[0][None, :], s)
        y = eval_quadratic(seg[1][None, :], s)
        dy = eval_quadratic_deriv(seg[1][None, :], s)
        span = x - anchor
        xq = anchor + span[:, None] * (inner_nodes[None, :] + 0.5)
        yq = np.broadcast_to(y[:, None], xq.shape)
        vals = integrand(xq, yq)                      # (q, t, m)
        T = span[:, None] * np.einsum("qtm,t->qm", vals, inner_w)
        total += np.einsum("q,qm,q->m", weights, T, dy)
    return total


def remap_term1_2d(u: DGField, up: UpstreamCell2D) -> np.ndarray:
    """Load vector of cell ``up.j``: (u, Psi*_m) over the upstream cell."""
    mesh: Mesh2D = u.mesh
    regions = clip_upstream(up, mesh)
    basis = u.basis
    load = np.zeros(basis.dim)
    for region in regions:
        block = u.coeffs[region.cell]
        cx = mesh.x_a + (region.ix + 0.5) * mesh.dx
        cy = mesh.y_a + (region.iy + 0.5) * mesh.dy

        def f(xq, yq, block=block, cx=cx, cy=cy):
            uv = basis.eval((xq - cx) / mesh.dx, (yq - cy) / mesh.dy) @ block
            return uv[..., None] * up.test.eval(xq, yq)

        load += green_integral_vec(region, f, u.k, basis.dim)
    return load
