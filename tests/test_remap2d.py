import math
import tracemalloc

import numpy as np
import pytest

from sldg import remap1d, remap2d_matrix
from sldg.bench import make_problem
from sldg.characteristics import (
    CELL_POINTS_9,
    SNAP_TOL,
    VelocityField,
    constant_2d,
    rigid_rotation,
    swirling,
    zero_field,
)
from sldg.core import Basis, Mesh2D, gauss_rule, mass_vector, project, total_mass
from sldg.remap1d import GeometryError, fit_tests
from sldg.remap2d_matrix import (
    assemble_remap_2d,
    cell_edges,
    check_upstream_quads,
    curved_areas,
    eval_quadratic,
    quadratic_through,
    split_edges_at_gridlines,
    traced_cell_points,
    tracked_points,
    unique_edges,
)
from sldg.timeint import cfl_to_dt
from sldg.verify import _crossings, clip_to_rect, clipped_loads, clipped_rows, green_integral


def random_field(mesh, k, seed=0):
    rng = np.random.default_rng(seed)
    u = project(lambda x, y: np.exp(np.sin(x)) * np.cos(y), mesh, k)
    u.coeffs += 0.25 * rng.standard_normal(u.coeffs.shape)
    return u


def overlap_areas(mesh, k, t_end, t_start, v, mode, j):
    """Areas of cell j's overlaps with every background cell, from the
    assembler's mode-0 entries and from the clipping oracle."""
    d = Basis(k, 2).dim
    R = assemble_remap_2d(mesh, k, t_end, t_start, v, mode)
    oracle = clipped_rows(mesh, k, t_end, t_start, v, mode, [j])[0, 0, ::d]
    return R.tocsr()[j * d, ::d].toarray().ravel(), oracle


def support(areas, mesh):
    """Background cells with a nonzero overlap."""
    return np.flatnonzero(np.abs(areas) > 1e-13 * mesh.dx * mesh.dy)


@pytest.mark.parametrize("mode", ["quad", "qc"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_zero_velocity_identity(mode, k):
    mesh = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 6, 5)
    u = random_field(mesh, k)
    for areas in overlap_areas(mesh, k, 0.5, 0.0, zero_field(2), mode, 13):
        assert support(areas, mesh).tolist() == [13]
        assert areas[13] == pytest.approx(mesh.dx * mesh.dy, rel=1e-13)
    R = assemble_remap_2d(mesh, k, 0.5, 0.0, zero_field(2), mode)
    d = Basis(k, 2).dim
    assert R.format == "bsr" and R.blocksize == (d, d)
    load = (R @ u.coeffs.ravel()).reshape(mesh.ncells, -1)[13]
    expect = Basis(k, 2).mass_diag() * mesh.dx * mesh.dy * u.coeffs[13]
    assert np.max(np.abs(load - expect)) < 1e-13 * max(1.0, np.max(np.abs(expect)))


def test_translation_quarter_cells():
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 4, 4)
    v = constant_2d(0.5 * mesh.dx, 0.5 * mesh.dy)
    for areas in overlap_areas(mesh, 1, 1.0, 0.0, v, "quad", 5):
        got = sorted(areas[support(areas, mesh)] / (mesh.dx * mesh.dy))
        assert got == pytest.approx([0.25, 0.25, 0.25, 0.25])


def test_translation_quarter_dx_only():
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 4, 4)
    v = constant_2d(0.25 * mesh.dx, 0.0)
    for areas in overlap_areas(mesh, 1, 1.0, 0.0, v, "quad", 5):
        got = sorted(areas[support(areas, mesh)] / (mesh.dx * mesh.dy))
        assert got == pytest.approx([0.25, 0.75])


def fitted_tests(mesh, t_end, v, k, mode, j):
    """Cell j's traced feet and its fitted tests as a function of (x, y),
    both in index coordinates."""
    ref = tracked_points(mode, k)
    feet = traced_cell_points(mesh, t_end, 0.0, v, ref)
    centers, cfit = fit_tests(feet, k, np.array(ref))
    basis = Basis(k, 2)

    def psi(x, y):
        return basis.eval(x - centers[j, 0], y - centers[j, 1]) @ cfit[j].T

    return feet[j], psi


def test_constant_velocity_test_function_is_shift():
    mesh = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 8, 8)
    dt = 0.4
    _, psi = fitted_tests(mesh, dt, constant_2d(1.0, 1.0), 1, "quad", 20)
    basis = Basis(1, 2)
    cx, cy = 20 % 8 + 0.5, 20 // 8 + 0.5
    pts = np.array([[0.0, 0.0], [0.1, -0.2], [-0.3, 0.25]]) / mesh.dx
    xs = cx + pts[:, 0] - dt / mesh.dx
    ys = cy + pts[:, 1] - dt / mesh.dy
    want = basis.eval(pts[:, 0], pts[:, 1])
    assert np.max(np.abs(psi(xs, ys) - want)) < 1e-10


def test_rotation_least_squares_consistent():
    # an affine flow pulls P2 back to P2, so the 9-point fit is consistent
    mesh = Mesh2D(-2 * np.pi, 2 * np.pi, -2 * np.pi, 2 * np.pi, 8, 8)
    feet, psi = fitted_tests(mesh, 0.3, rigid_rotation(), 2, "qc", 27)
    ref = np.array(CELL_POINTS_9)
    want = Basis(2, 2).eval(ref[:, 0], ref[:, 1])
    assert np.max(np.abs(psi(feet[:, 0], feet[:, 1]) - want)) < 1e-10


def _polygon(poly):
    poly = np.asarray(poly, float)
    nxt = np.roll(poly, -1, axis=0)
    return np.stack([poly, nxt - poly, np.zeros_like(poly)], axis=-1)


def one(x, y):
    return np.ones_like(x)


def test_oracle_reference_shapes():
    square = _polygon([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert green_integral(square, one, 0.0, 2) == pytest.approx(1.0, rel=1e-13)
    assert green_integral(square, lambda x, y: x * y, 0.0, 2) == pytest.approx(0.25, rel=1e-13)
    tri = _polygon([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert green_integral(tri, one, 0.0, 2) == pytest.approx(0.5, rel=1e-13)
    # a square reaching past x = 1 and y = 1 clipped to the unit cell
    big = _polygon([[-0.5, -0.25], [1.5, -0.25], [1.5, 1.75], [-0.5, 1.75]])
    clipped = clip_to_rect(big, 0.0, 1.0, 0.0, 1.0)
    assert green_integral(clipped, lambda x, y: x * y, 0.0, 2) == pytest.approx(0.25, rel=1e-13)


@pytest.mark.parametrize("height", [0.4, 1.5])
def test_oracle_parabolic_segment(height):
    # the parabola from (0, 0) to (2, 0) with apex height h, closed by the
    # chord, bounds 2/3 * base * h; the grid line x = 1 halves it, and the
    # line y = h / 2 cuts off a cap of 2/3 * (base / sqrt 2) * (h / 2)
    chord = _polygon([[0.0, 0.0], [2.0, 0.0]])[:1]
    arc = np.array([[[2.0, -2.0, 0.0], [0.0, 4.0 * height, -4.0 * height]]])
    region = np.concatenate([chord, arc])
    full = 2.0 / 3.0 * 2.0 * height
    assert green_integral(region, one, 0.0, 4) == pytest.approx(full, rel=1e-13)
    left = clip_to_rect(region, 0.0, 1.0, -1.0, 2.0)
    assert green_integral(left, one, 0.0, 4) == pytest.approx(full / 2, rel=1e-13)
    cap = clip_to_rect(region, -1.0, 3.0, height / 2, 2.0)
    want = 2.0 / 3.0 * (2.0 / math.sqrt(2.0)) * (height / 2)
    assert green_integral(cap, one, -1.0, 4) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("mode", ["quad", "qc"])
def test_area_consistency_rotation(mode):
    mesh = Mesh2D(-2 * np.pi, 2 * np.pi, -2 * np.pi, 2 * np.pi, 8, 8)
    v = rigid_rotation()
    feet = traced_cell_points(mesh, 0.25, 0.0, v, tracked_points(mode, 2))
    signed = curved_areas(cell_edges(feet, mode)) * mesh.dx * mesh.dy
    for j in (9, 27, 44):
        for areas in overlap_areas(mesh, 2, 0.25, 0.0, v, mode, j):
            assert abs(areas.sum() - signed[j]) < 1e-11


def test_quad_areas_match_clipping_oracle():
    mesh = Mesh2D(-2 * np.pi, 2 * np.pi, -2 * np.pi, 2 * np.pi, 8, 8)
    v = rigid_rotation()
    checked = 0
    for j in (9, 27, 44, 61):
        assembled, oracle = overlap_areas(mesh, 1, 0.25, 0.0, v, "quad", j)
        assert np.max(np.abs(assembled - oracle)) < 1e-11
        checked += support(oracle, mesh).size
    assert checked >= 12


def test_quad_areas_match_monte_carlo():
    mesh = Mesh2D(-2 * np.pi, 2 * np.pi, -2 * np.pi, 2 * np.pi, 8, 8)
    v = rigid_rotation()
    rng = np.random.default_rng(12)
    corners = traced_cell_points(mesh, 0.3, 0.0, v, tracked_points("quad", 1))[27, :4]
    areas, _ = overlap_areas(mesh, 1, 0.3, 0.0, v, "quad", 27)
    lo = np.floor(corners.min(axis=0)).astype(int)
    hi = np.ceil(corners.max(axis=0)).astype(int)

    def inside(px, py):
        ok = np.ones(px.shape, dtype=bool)
        for a, b in zip(corners, np.roll(corners, -1, axis=0)):
            cross = (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0])
            ok &= cross >= 0
        return ok

    nsamp = 200_000
    for iy in range(lo[1], hi[1]):
        for ix in range(lo[0], hi[0]):
            px = ix + rng.random(nsamp)
            py = iy + rng.random(nsamp)
            p = float(np.mean(inside(px, py)))
            est = p * mesh.dx * mesh.dy
            sigma = mesh.dx * mesh.dy * math.sqrt(max(p * (1 - p), 1e-9) / nsamp)
            assert abs(areas[mesh.cell_index(ix, iy)] - est) < 3.0 * sigma + 1e-12


@pytest.mark.parametrize("mode", ["quad", "qc"])
def test_mass_tiling_periodic_field(mode):
    mesh = Mesh2D(-np.pi, np.pi, -np.pi, np.pi, 6, 6)
    v = swirling(1.5)
    d = Basis(2, 2).dim
    R = assemble_remap_2d(mesh, 2, 0.3, 0.0, v, mode)
    oracle = clipped_rows(mesh, 2, 0.3, 0.0, v, mode, range(mesh.ncells))
    for cover in (np.asarray(R.tocsr()[::d, ::d].sum(axis=0)).ravel(), oracle[:, 0, ::d].sum(axis=0)):
        assert np.max(np.abs(cover - mesh.dx * mesh.dy)) < 1e-10


@pytest.mark.parametrize("mode", ["quad", "qc"])
def test_remap_mass_conservation(mode):
    mesh = Mesh2D(-np.pi, np.pi, -np.pi, np.pi, 6, 6)
    v = swirling(1.5)
    u = random_field(mesh, 2, seed=4)
    total = clipped_loads(mesh, u, 0.3, 0.0, v, mode, range(mesh.ncells))[:, 0].sum()
    assert abs(total - total_mass(u)) < 1e-10


def test_translation_exactness_whole_cells():
    mesh = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 8, 8)
    k = 1
    u = random_field(mesh, k, seed=3)
    R = assemble_remap_2d(mesh, k, 1.0, 0.0, constant_2d(3 * mesh.dx, 2 * mesh.dy), "quad")
    got = ((R @ u.coeffs.ravel()) / mass_vector(mesh, k)).reshape(u.coeffs.shape)
    ix = np.tile(np.arange(8), 8)
    iy = np.repeat(np.arange(8), 8)
    src = mesh.cell_index(ix - 3, iy - 2)
    assert np.max(np.abs(got - u.coeffs[src])) < 1e-11

    # QC traces the edge midpoints too; snapped onto the half-cell lattice,
    # every foot is exact, so R / M is the block permutation to rounding
    d = Basis(k, 2).dim
    for sx, sy in ((3, 2), (5, 7)):
        R = assemble_remap_2d(mesh, k, 1.0, 0.0, constant_2d(sx * mesh.dx, sy * mesh.dy), "qc")
        perm = np.kron(np.eye(mesh.ncells)[mesh.cell_index(ix - sx, iy - sy)], np.eye(d))
        assert np.max(np.abs(R.toarray() / mass_vector(mesh, k)[:, None] - perm)) <= 5e-15


@pytest.mark.parametrize("k", [1, 2])
def test_translation_exactness_fractional(k):
    """Engine output equals the exact projection of the translate, computed
    by an independent tensor-split quadrature oracle."""
    mesh = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 6, 6)
    u = random_field(mesh, k, seed=k)
    sx, sy = 0.4 * mesh.dx, 0.7 * mesh.dy
    R = assemble_remap_2d(mesh, k, 1.0, 0.0, constant_2d(sx, sy), "quad")
    got = ((R @ u.coeffs.ravel()) / mass_vector(mesh, k)).reshape(u.coeffs.shape)

    basis = Basis(k, 2)
    nodes, weights = gauss_rule(k + 2)
    offx, offy = sx / mesh.dx, sy / mesh.dy
    coeffs = np.zeros_like(u.coeffs)
    for iy in range(6):
        for ix in range(6):
            c = ix + 6 * iy
            ax = mesh.x_a + ix * mesh.dx
            ay = mesh.y_a + iy * mesh.dy
            for lx, hx in ((0.0, offx), (offx, 1.0)):
                for ly, hy in ((0.0, offy), (offy, 1.0)):
                    if hx <= lx or hy <= ly:
                        continue
                    xq = ax + mesh.dx * (lx + (hx - lx) * (nodes + 0.5))
                    yq = ay + mesh.dy * (ly + (hy - ly) * (nodes + 0.5))
                    X, Y = np.meshgrid(xq, yq, indexing="ij")
                    W = np.outer(weights, weights) * (hx - lx) * (hy - ly)
                    vals = u.evaluate(X - sx, Y - sy)
                    xi = (X - ax) / mesh.dx - 0.5
                    eta = (Y - ay) / mesh.dy - 0.5
                    phi = basis.eval(xi, eta)
                    coeffs[c] += np.einsum("xy,xy,xyd->d", W, vals, phi)
    coeffs /= basis.mass_diag()[None, :]
    assert np.max(np.abs(got - coeffs)) < 1e-10


@pytest.mark.parametrize("mode", ["quad", "qc"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_matrix_matches_clipping_oracle(mode, k):
    mesh = Mesh2D(-np.pi, np.pi, -np.pi, np.pi, 6, 5)
    v = swirling(1.5)
    u = random_field(mesh, k, seed=8)
    R = assemble_remap_2d(mesh, k, 0.3, 0.0, v, mode)
    loads = (R @ u.coeffs.ravel()).reshape(mesh.ncells, -1)
    oracle = clipped_loads(mesh, u, 0.3, 0.0, v, mode, range(mesh.ncells))
    assert np.max(np.abs(oracle - loads)) < 1e-12


@pytest.mark.parametrize("run", [1, 7, 10**9])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("mode", ["quad", "qc"])
def test_runs_leave_operator_unchanged(monkeypatch, mode, k, run):
    # piece moments and blocks are formed RUN rows at a time; where the runs
    # break must not change a bit of R (over 2,000 pieces and blocks, so
    # the default RUN splits too)
    p = make_problem("ex35")
    mesh = p.mesh(24)
    dt = cfl_to_dt(1.0, mesh, p.velocity)
    default = assemble_remap_2d(mesh, k, 0.75 * dt, 0.25 * dt, p.velocity, mode)
    monkeypatch.setattr(remap1d, "RUN", run)
    R = assemble_remap_2d(mesh, k, 0.75 * dt, 0.25 * dt, p.velocity, mode)
    for got, want in ((R.data, default.data), (R.indices, default.indices),
                      (R.indptr, default.indptr)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("problem, n, mode, cfl", [("ex35", 40, "qc", 1.0), ("ex34", 60, "quad", 10.0),
                                                   ("ex34", 40, "quad", 10.0)])
def test_assembly_working_set_is_bounded(problem, n, mode, cfl):
    # the assembly's temporaries peak at a few times the operator it returns
    p = make_problem(problem)
    mesh = p.mesh(n)
    dt = cfl_to_dt(cfl, mesh, p.velocity)
    assemble_remap_2d(mesh, 2, dt, 0.0, p.velocity, mode)      # fill the cached tables
    tracemalloc.start()
    try:
        R = assemble_remap_2d(mesh, 2, 0.75 * dt, 0.25 * dt, p.velocity, mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * (R.data.nbytes + R.indices.nbytes + R.indptr.nbytes)


def test_large_displacement_covered_cells():
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 8, 8)
    v = constant_2d(2.3 * mesh.dx, 2.3 * mesh.dy)
    for areas in overlap_areas(mesh, 1, 1.0, 0.0, v, "quad", 27):
        assert support(areas, mesh).size == 4
        assert areas.sum() == pytest.approx(mesh.dx * mesh.dy, rel=1e-12)


def test_bbox_span_guard():
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 4, 4)
    # expanding flow blows the upstream cell past the domain size
    grow = VelocityField(2, lambda x, y, t: (-(x - 0.5) * 3.0, -(y - 0.5) * 3.0), (2.0, 2.0))
    with pytest.raises(GeometryError):
        assemble_remap_2d(mesh, 1, 1.2, 0.0, grow, "quad")


def _quads_with(bad):
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    return np.stack([unit, unit + 1.0, bad, unit - 1.0])


def test_guard_accepts_simple_quads():
    check_upstream_quads(_quads_with(np.array([[0.0, 0.0], [2.0, 0.2], [1.5, 1.0], [0.1, 0.8]])))


def test_self_intersection_guard():
    # symmetric bowtie: zero signed area
    bowtie = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(GeometryError, match="cell 2"):
        check_upstream_quads(_quads_with(bowtie))
    # lopsided bowtie: positive signed area, caught by the crossing test alone
    lopsided = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    x, y = lopsided[:, 0], lopsided[:, 1]
    assert np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)) > 0.0
    with pytest.raises(GeometryError, match="cell 2 is self-intersecting"):
        check_upstream_quads(_quads_with(lopsided))


def test_flipped_quad_guard():
    flipped = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
    with pytest.raises(GeometryError, match="cell 2 is degenerate or flipped"):
        check_upstream_quads(_quads_with(flipped))
    collapsed = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    with pytest.raises(GeometryError, match="cell 2 is degenerate or flipped"):
        check_upstream_quads(_quads_with(collapsed))


def test_folded_curved_cell_guard(monkeypatch):
    # cell 5's bottom-edge midpoint pulled across its top edge: the corner
    # quadrilateral is unchanged, but the parabola through the folded
    # midpoint encloses more than the cell, so the curved area is negative
    mesh = Mesh2D(0.0, 4.0, 0.0, 4.0, 4, 4)
    feet = traced_cell_points(mesh, 0.5, 0.0, zero_field(2), tracked_points("qc", 1))
    feet[5, 4, 1] += 2.0
    check_upstream_quads(feet[:, :4])
    assert curved_areas(cell_edges(feet, "qc"))[5] == pytest.approx(-1 / 3)
    monkeypatch.setattr(remap2d_matrix, "traced_cell_points", lambda *args: feet)
    with pytest.raises(GeometryError, match="curved upstream cell 5 has nonpositive area"):
        assemble_remap_2d(mesh, 1, 0.5, 0.0, zero_field(2), "qc")


def test_overlaps_wrap_periodically():
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 4, 4)
    v = constant_2d(1.5 * mesh.dx, 0.0)
    for areas in overlap_areas(mesh, 1, 1.0, 0.0, v, "quad", 0):
        assert support(areas, mesh).tolist() == [2, 3]
        assert areas[[2, 3]] == pytest.approx([0.5 * mesh.dx * mesh.dy] * 2)


def test_shared_edges_across_periodic_images():
    """A translation carrying cells across the seam puts the two cells of
    some interior edges in different periodic images, in both directions:
    the edge's one integration must reach the second cell negated and
    shifted into its frame."""
    mesh = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 6, 5)
    k, mode = 2, "qc"
    v = constant_2d(-2.3 * mesh.dx, -1.6 * mesh.dy)
    feet = traced_cell_points(mesh, 1.0, 0.0, v, tracked_points(mode, k))
    off = unique_edges(mesh, feet)[3]
    assert np.any(off[:, 0] != 0) and np.any(off[:, 1] != 0)

    R = assemble_remap_2d(mesh, k, 1.0, 0.0, v, mode)
    d = Basis(k, 2).dim
    area = mesh.dx * mesh.dy
    cover = np.asarray(R.tocsr()[::d, ::d].sum(axis=0)).ravel()
    assert np.max(np.abs(cover - area)) <= 1e-12 * area
    oracle = clipped_rows(mesh, k, 1.0, 0.0, v, mode, range(mesh.ncells))
    assert np.max(np.abs(R.toarray() - oracle.reshape(R.shape))) <= 1e-12 * np.max(np.abs(R.data))


def split(p0, pm, p2):
    """Pieces (s0, s1) of one edge through p0, pm, p2 at s = 0, 1/2, 1."""
    edge = quadratic_through(*(np.asarray(p, float)[None] for p in (p0, pm, p2)))
    eid, s0, s1 = split_edges_at_gridlines(edge)
    assert np.all(eid == 0)
    return s0, s1


def test_split_straight_edge_needs_no_linear_branch():
    """A straight edge gives the same cuts whether its quadratic part is
    zero or a rounding residue."""
    edge = np.array([[[0.3, 2.4, 0.0], [0.2, 1.7, 0.0]]])
    _, s0, s1 = split_edges_at_gridlines(edge)
    edge[0, :, 2] = 1e-17
    _, t0, t1 = split_edges_at_gridlines(edge)
    assert s0.size == 4                  # x = 1, x = 2 and y = 1 cut it
    assert np.allclose(t0, s0, rtol=0, atol=1e-15) and np.allclose(t1, s1, rtol=0, atol=1e-15)
    assert s0[0] == 0.0 and s1[-1] == 1.0 and np.all(s1[:-1] == s0[1:])


def test_split_through_grid_vertex_cuts_once():
    d = np.array([0.9, 1.3]) / 3.0
    s0, s1 = split(1.0 - 0.4 * d, 1.0 + 0.1 * d, 1.0 + 0.6 * d)
    assert s0.size == 2
    assert s1[0] == pytest.approx(0.4, abs=1e-14)


def test_split_edge_ending_on_line_has_no_sliver():
    for end in (2.0, 2.0 + 1e-13, 2.0 - 1e-13):
        s0, s1 = split((0.3, 0.2), (0.5 * (0.3 + end), 0.55), (end, 0.9))
        assert s0.size == 2               # cut at x = 1 only
        assert np.min(s1 - s0) > 0.4


def test_split_tangent_parabola_is_cut_once_at_the_touch():
    """y = 1 + 2 (s - 1/2)^2 touches y = 1 at s = 1/2, the edge's midpoint.
    Uncut, the edge would be one piece whose snapped midpoint lies on the
    line, in the row above the edge; the double root cuts it there once."""
    s0, s1 = split((0.2, 1.5), (0.45, 1.0), (0.7, 1.5))
    assert s0.tolist() == [0.0, 0.5] and s1.tolist() == [0.5, 1.0]
    # rounding in the coefficients (a = -2.4000000000000004) leaves this apex
    # 1e-16 below y = 1 with a negative discriminant; it still touches the
    # line, or the whole edge would land in the row above it
    s0, s1 = split((0.2, 0.4), (0.45, 1.0), (0.7, 0.4))
    assert s0.size == 2 and s1[0] == pytest.approx(0.5, abs=1e-15)
    # a parabola that stays clear of the line is not cut
    s0, s1 = split((0.2, 1.5), (0.45, 1.1), (0.7, 1.5))
    assert s0.tolist() == [0.0]


def test_split_overshoot_to_vertex_keeps_no_short_piece(monkeypatch):
    """An ex35 40^2 QC edge (first DIRK4 stage of the second step) ends on
    the vertex (3, 40) after overshooting x = 3: its crossing of x = 3 lies
    1.3e-12 before the end.  A piece that short would have its snapped
    midpoint on the vertex and land in the wrong row, so the end margin
    drops the crossing."""
    edge = np.array([[[3.0006750282013224, -0.0006709288929673818, -4.099308355876019e-06],
                      [39.00022123476612, 0.9995578848869968, 0.00022088034687328673]]])
    assert np.allclose(eval_quadratic(edge[0], 1.0), [3.0, 40.0], rtol=0, atol=1e-14)
    _, s0, s1 = split_edges_at_gridlines(edge)
    assert np.min(s1 - s0) > remap2d_matrix.END_MARGIN
    monkeypatch.setattr(remap2d_matrix, "END_MARGIN", SNAP_TOL)
    _, s0, s1 = split_edges_at_gridlines(edge)
    assert np.min(s1 - s0) < 1e-11


def test_split_tiny_coefficients_do_not_underflow():
    """y = 4.7e-198 (2 s^2 - s) crosses y = 0 at s = 1/2.  Unscaled, b * b
    underflows to zero, which puts the cut at s = 1/4."""
    s0, s1 = split((0.0, 0.0), (0.0, 0.0), (0.0, 4.7e-198))
    assert s0.tolist() == [0.0, 0.5] and s1.tolist() == [0.5, 1.0]
    assert _crossings(0.0, -4.7e-198, 9.4e-198) == [0.5]
