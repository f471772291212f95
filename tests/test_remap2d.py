import math

import numpy as np
import pytest

from sldg.characteristics import constant_2d, rigid_rotation, swirling, zero_field
from sldg.core import Basis, Mesh2D, gauss_rule, mass_vector, project, total_mass
from sldg.remap1d import GeometryError
from sldg.remap2d import (
    OverlapRegion,
    _make_region,
    build_upstream_2d,
    clip_upstream,
    green_integral,
    region_area,
    remap_term1_2d,
)
from sldg.remap2d_matrix import assemble_remap_2d, check_upstream_quads
from sldg.verify import shoelace, sutherland_hodgman


def random_field(mesh, k, seed=0):
    rng = np.random.default_rng(seed)
    u = project(lambda x, y: np.exp(np.sin(x)) * np.cos(y), mesh, k)
    u.coeffs += 0.25 * rng.standard_normal(u.coeffs.shape)
    return u


@pytest.mark.parametrize("mode", ["quad", "qc"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_zero_velocity_identity(mode, k):
    mesh = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 6, 5)
    u = random_field(mesh, k)
    up = build_upstream_2d(mesh, 13, 0.5, 0.0, zero_field(2), k, mode)
    regs = clip_upstream(up, mesh)
    assert len(regs) == 1
    assert region_area(regs[0]) == pytest.approx(mesh.dx * mesh.dy, rel=1e-13)
    load = remap_term1_2d(u, up)
    expect = Basis(k, 2).mass_diag() * mesh.dx * mesh.dy * u.coeffs[13]
    assert np.max(np.abs(load - expect)) < 1e-13 * max(1.0, np.max(np.abs(expect)))


def test_translation_quarter_cells():
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 4, 4)
    v = constant_2d(0.5 * mesh.dx, 0.5 * mesh.dy)
    up = build_upstream_2d(mesh, 5, 1.0, 0.0, v, 1, "quad")
    regs = clip_upstream(up, mesh)
    areas = sorted(region_area(r) / (mesh.dx * mesh.dy) for r in regs)
    assert areas == pytest.approx([0.25, 0.25, 0.25, 0.25])


def test_translation_quarter_dx_only():
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 4, 4)
    v = constant_2d(0.25 * mesh.dx, 0.0)
    up = build_upstream_2d(mesh, 5, 1.0, 0.0, v, 1, "quad")
    regs = clip_upstream(up, mesh)
    areas = sorted(region_area(r) / (mesh.dx * mesh.dy) for r in regs)
    assert areas == pytest.approx([0.25, 0.75])


def test_constant_velocity_test_function_is_shift():
    mesh = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 8, 8)
    dt = 0.4
    up = build_upstream_2d(mesh, 20, dt, 0.0, constant_2d(1.0, 1.0), 1, "quad")
    basis = Basis(1, 2)
    cx = mesh.x_a + (20 % 8 + 0.5) * mesh.dx
    cy = mesh.y_a + (20 // 8 + 0.5) * mesh.dy
    pts = np.array([[0.0, 0.0], [0.1, -0.2], [-0.3, 0.25]])
    xs = cx + pts[:, 0] - dt
    ys = cy + pts[:, 1] - dt
    got = up.test.eval(xs, ys)
    want = basis.eval((xs + dt - cx) / mesh.dx, (ys + dt - cy) / mesh.dy)
    assert np.max(np.abs(got - want)) < 1e-10


def test_rotation_least_squares_consistent():
    # an affine flow pulls P2 back to P2, so the 9-point fit is consistent
    mesh = Mesh2D(-2 * np.pi, 2 * np.pi, -2 * np.pi, 2 * np.pi, 8, 8)
    up = build_upstream_2d(mesh, 27, 0.3, 0.0, rigid_rotation(), 2, "qc")
    src = np.array([f for f in up.feet])
    basis = Basis(2, 2)
    from sldg.characteristics import CELL_POINTS_9

    ix, iy = 27 % 8, 27 // 8
    cx = mesh.x_a + (ix + 0.5) * mesh.dx
    cy = mesh.y_a + (iy + 0.5) * mesh.dy
    ref = np.array(CELL_POINTS_9)
    want = basis.eval(ref[:, 0], ref[:, 1])
    got = up.test.eval(src[:, 0], src[:, 1])
    assert np.max(np.abs(got - want)) < 1e-10


def _manual_region(mesh, ix, iy, poly):
    segs = []
    for a, b in zip(poly, np.roll(poly, -1, axis=0)):
        segs.append(np.stack([np.array([a[0], b[0] - a[0], 0.0]),
                              np.array([a[1], b[1] - a[1], 0.0])]))
    return OverlapRegion(
        mesh.cell_index(np.array(ix), np.array(iy)), ix, iy, np.array(segs),
        mesh.x_a + ix * mesh.dx,
    )


def test_green_integral_reference_shapes():
    mesh = Mesh2D(0.0, 2.0, 0.0, 2.0, 2, 2)
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    region = _manual_region(mesh, 0, 0, square)
    one = lambda x, y: np.ones_like(x)
    assert green_integral(region, one, 2) == pytest.approx(1.0, rel=1e-13)

    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    region = _manual_region(mesh, 0, 0, tri)
    assert green_integral(region, one, 2) == pytest.approx(0.5, rel=1e-13)

    region = _manual_region(mesh, 0, 0, square)
    assert green_integral(region, lambda x, y: x * y, 2) == pytest.approx(0.25, rel=1e-13)


@pytest.mark.parametrize("mode", ["quad", "qc"])
def test_area_consistency_rotation(mode):
    mesh = Mesh2D(-2 * np.pi, 2 * np.pi, -2 * np.pi, 2 * np.pi, 8, 8)
    v = rigid_rotation()
    for j in (9, 27, 44):
        up = build_upstream_2d(mesh, j, 0.25, 0.0, v, 2, mode)
        regs = clip_upstream(up, mesh)
        total = sum(region_area(r) for r in regs)
        assert abs(total - up.signed_area()) < 1e-11
        gsum = sum(green_integral(r, lambda x, y: np.ones_like(x), 2) for r in regs)
        assert abs(gsum - up.signed_area()) < 1e-11


def test_quad_areas_match_polygon_clipping_oracle():
    mesh = Mesh2D(-2 * np.pi, 2 * np.pi, -2 * np.pi, 2 * np.pi, 8, 8)
    v = rigid_rotation()
    checked = 0
    for j in (9, 27, 44, 61):
        up = build_upstream_2d(mesh, j, 0.25, 0.0, v, 1, "quad")
        corners = up.feet[:4]
        for r in clip_upstream(up, mesh):
            rect = (
                mesh.x_a + r.ix * mesh.dx, mesh.x_a + (r.ix + 1) * mesh.dx,
                mesh.y_a + r.iy * mesh.dy, mesh.y_a + (r.iy + 1) * mesh.dy,
            )
            oracle = shoelace(sutherland_hodgman(corners, rect))
            assert abs(region_area(r) - oracle) < 1e-11
            checked += 1
    assert checked >= 12


def test_quad_areas_match_monte_carlo():
    mesh = Mesh2D(-2 * np.pi, 2 * np.pi, -2 * np.pi, 2 * np.pi, 8, 8)
    v = rigid_rotation()
    rng = np.random.default_rng(12)
    up = build_upstream_2d(mesh, 27, 0.3, 0.0, v, 1, "quad")
    corners = up.feet[:4]

    def inside(px, py):
        total = np.zeros(px.shape, dtype=bool)
        sign = np.ones(px.shape)
        ok = np.ones(px.shape, dtype=bool)
        for a, b in zip(corners, np.roll(corners, -1, axis=0)):
            cross = (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0])
            ok &= cross >= 0
        return ok

    nsamp = 200_000
    for r in clip_upstream(up, mesh):
        x0 = mesh.x_a + r.ix * mesh.dx
        y0 = mesh.y_a + r.iy * mesh.dy
        px = x0 + mesh.dx * rng.random(nsamp)
        py = y0 + mesh.dy * rng.random(nsamp)
        p = float(np.mean(inside(px, py)))
        est = p * mesh.dx * mesh.dy
        sigma = mesh.dx * mesh.dy * math.sqrt(max(p * (1 - p), 1e-9) / nsamp)
        assert abs(region_area(r) - est) < 3.0 * sigma + 1e-12


@pytest.mark.parametrize("mode", ["quad", "qc"])
def test_mass_tiling_periodic_field(mode):
    mesh = Mesh2D(-np.pi, np.pi, -np.pi, np.pi, 6, 6)
    v = swirling(1.5)
    cover = np.zeros(mesh.ncells)
    for j in range(mesh.ncells):
        up = build_upstream_2d(mesh, j, 0.3, 0.0, v, 2, mode)
        for r in clip_upstream(up, mesh):
            cover[r.cell] += region_area(r)
    assert np.max(np.abs(cover - mesh.dx * mesh.dy)) < 1e-10


@pytest.mark.parametrize("mode", ["quad", "qc"])
def test_remap_mass_conservation(mode):
    mesh = Mesh2D(-np.pi, np.pi, -np.pi, np.pi, 6, 6)
    v = swirling(1.5)
    u = random_field(mesh, 2, seed=4)
    total = sum(
        remap_term1_2d(u, build_upstream_2d(mesh, j, 0.3, 0.0, v, 2, mode))[0]
        for j in range(mesh.ncells)
    )
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
def test_matrix_matches_per_cell_ops(mode, k):
    if mode == "qc" and k == 0:
        pytest.skip("qc with k=0 adds nothing beyond quad")
    mesh = Mesh2D(-np.pi, np.pi, -np.pi, np.pi, 6, 5)
    v = swirling(1.5)
    u = random_field(mesh, k, seed=8)
    R = assemble_remap_2d(mesh, k, 0.3, 0.0, v, mode)
    loads = (R @ u.coeffs.ravel()).reshape(mesh.ncells, -1)
    for j in (0, 7, 16, 29):
        up = build_upstream_2d(mesh, j, 0.3, 0.0, v, k, mode)
        assert np.max(np.abs(remap_term1_2d(u, up) - loads[j])) < 1e-12


def test_large_displacement_covered_cells():
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 8, 8)
    v = constant_2d(2.3 * mesh.dx, 2.3 * mesh.dy)
    up = build_upstream_2d(mesh, 27, 1.0, 0.0, v, 1, "quad")
    regs = clip_upstream(up, mesh)
    assert len(regs) == 4
    assert sum(region_area(r) for r in regs) == pytest.approx(mesh.dx * mesh.dy, rel=1e-12)


def test_bbox_span_guard():
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 4, 4)
    stretch = constant_2d(0.0, 0.0)

    # expanding flow blows the upstream cell past the domain size
    from sldg.characteristics import VelocityField

    grow = VelocityField(2, lambda x, y, t: (-(x - 0.5) * 3.0, -(y - 0.5) * 3.0), (2.0, 2.0))
    with pytest.raises(GeometryError):
        up = build_upstream_2d(mesh, 5, 1.2, 0.0, grow, 1, "quad")
        clip_upstream(up, mesh)


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


def test_closure_guard():
    mesh = Mesh2D(0.0, 2.0, 0.0, 2.0, 2, 2)
    open_path = np.array(
        [
            np.stack([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
            np.stack([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
            # gap: last segment does not return to the start
            np.stack([[1.0, -0.5, 0.0], [1.0, 0.0, 0.0]]),
        ]
    )
    with pytest.raises(GeometryError):
        _make_region(open_path, 0, 0, mesh)


def test_regions_sorted_and_wrapped():
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 4, 4)
    v = constant_2d(1.5 * mesh.dx, 0.0)
    up = build_upstream_2d(mesh, 0, 1.0, 0.0, v, 1, "quad")
    regs = clip_upstream(up, mesh)
    cells = [r.cell for r in regs]
    assert cells == sorted(cells, key=lambda c: (c // 4, c % 4))
    assert {r.cell for r in regs} == {2, 3}
