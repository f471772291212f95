from dataclasses import replace

import numpy as np
import pytest

from sldg.core import (
    Basis,
    DGField,
    Mesh,
    Mesh1D,
    Mesh2D,
    QuadratureRule,
    _cell_quad_points,
    _projection,
    gauss_rule,
    norms,
    project,
    total_mass,
)


def test_mesh_invariants():
    m = Mesh1D(0.0, 2.0, 4)
    assert m.dx == pytest.approx(0.5)
    assert (m.lower, m.upper, m.shape) == ((0.0,), (2.0,), (4,))
    assert np.allclose(m.lower[0] + m.dx * np.arange(m.n + 1), [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        Mesh1D(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        Mesh2D(0, 1, 0, 1, 4, 1)
    with pytest.raises(ValueError):
        Mesh1D(1.0, 0.0, 4)


def test_mesh2d_indexing():
    m = Mesh2D(0.0, 1.0, 0.0, 2.0, 4, 5)
    assert m.ncells == 20
    assert m.cell_index(np.array(1), np.array(2)) == 9
    # periodic wrap of indices
    assert m.cell_index(np.array(-1), np.array(5)) == 3


@pytest.mark.parametrize("lower, upper, shape, message", [
    ((0.0,), (1.0, 1.0), (4,), "one entry per axis"),
    ((0.0, 0.0), (1.0, 1.0), (4,), "one entry per axis"),
    ((), (), (), "1 or 2 axes"),
    ((0.0,) * 3, (1.0,) * 3, (4,) * 3, "1 or 2 axes"),
    ((0.0,), (1.0,), (1,), "at least 2 cells per direction"),
    ((0.0, 0.0), (1.0, 1.0), (4, 1), "at least 2 cells per direction"),
    ((1.0,), (0.0,), (4,), "upper bounds must exceed lower bounds"),
    ((0.0, 1.0), (1.0, 1.0), (4, 4), "upper bounds must exceed lower bounds"),
])
def test_mesh_rejects_malformed_shapes(lower, upper, shape, message):
    with pytest.raises(ValueError, match=message):
        Mesh(lower, upper, shape)


def test_mesh_stores_tuples_and_hashes():
    m = Mesh([-1.0, 0.5], np.array([2.5, 2.0]), [7, 5])
    assert (m.lower, m.upper, m.shape) == ((-1.0, 0.5), (2.5, 2.0), (7, 5))
    twin = Mesh2D(-1.0, 2.5, 0.5, 2.0, 7, 5)
    assert m == twin and hash(m) == hash(twin)
    assert (m.ndim, m.ncells, m.widths) == (2, 35, (3.5 / 7, 1.5 / 5))
    assert (m.dx, m.dy, m.nx, m.ny) == (3.5 / 7, 1.5 / 5, 7, 5)


def _former_locate(x_a, x_b, n, x):
    """One axis of the former Mesh1D/Mesh2D.locate: wrap, then floor."""
    dx = (x_b - x_a) / n
    r = (x_a + np.mod(np.asarray(x, dtype=float) - x_a, x_b - x_a) - x_a) / dx
    i = np.clip(np.floor(r).astype(int), 0, n - 1)
    return i, r - i - 0.5


def test_locate_and_cell_index_match_former_formulas_1d():
    m = Mesh1D(-1.0, 2.5, 13)
    x = np.random.default_rng(3).uniform(-20.0, 20.0, 500)
    j, xi = _former_locate(-1.0, 2.5, 13, x)
    c, local = m.locate(x)
    assert np.array_equal(c, j) and local.tobytes() == xi.tobytes()
    idx = np.arange(-40, 40)
    assert np.array_equal(m.cell_index(idx), np.mod(idx, 13))


def test_locate_and_cell_index_match_former_formulas_2d():
    m = Mesh2D(-1.0, 2.5, 0.5, 2.0, 7, 5)
    x, y = np.random.default_rng(4).uniform(-20.0, 20.0, (2, 500))
    ix, xi = _former_locate(-1.0, 2.5, 7, x)
    iy, eta = _former_locate(0.5, 2.0, 5, y)
    c, lx, ly = m.locate(x, y)
    assert np.array_equal(c, ix + 7 * iy)
    assert lx.tobytes() == xi.tobytes() and ly.tobytes() == eta.tobytes()
    jx, jy = np.meshgrid(np.arange(-15, 15), np.arange(-12, 12), indexing="ij")
    assert np.array_equal(m.cell_index(jx, jy), np.mod(jx, 7) + 7 * np.mod(jy, 5))


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("ndim", [1, 2])
def test_basis_orthogonality(k, ndim):
    basis = Basis(k, ndim)
    rule = QuadratureRule.gauss(k + 2, ndim)
    phi = basis.eval(*rule.nodes.T)
    gram = np.einsum("q,qm,ql->ml", rule.weights, phi, phi)
    off = np.abs(gram - np.diag(np.diag(gram)))
    assert np.max(off) < 1e-14 * np.min(np.diag(gram)) + 1e-16
    assert np.allclose(np.diag(gram), basis.mass_diag(), rtol=1e-14)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("ndim", [1, 2])
def test_basis_eval_matches_explicit_formulas(k, ndim):
    # strided inputs, as Basis.eval(*nodes.T) receives them, broadcast against each other
    pts = np.random.default_rng(k).uniform(-0.5, 0.5, (2, 6, 4))
    xi, eta = pts[0, :, :1], pts[1, :1, :]
    X, Y = np.broadcast_arrays(xi, eta)
    explicit = {1: [np.ones_like(xi), xi, xi * xi - 1.0 / 12.0],
                2: [np.ones_like(X), X, Y, X * X - 1.0 / 12.0, X * Y, Y * Y - 1.0 / 12.0]}[ndim]
    basis = Basis(k, ndim)
    got = basis.eval(*(xi, eta)[:ndim])
    want = np.stack(explicit[: basis.dim], axis=-1)
    assert got.flags.c_contiguous
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", range(1, 9))
def test_gauss_exactness(n):
    nodes, weights = gauss_rule(n)
    assert np.sum(weights) == pytest.approx(1.0, rel=1e-15)
    t = nodes + 0.5  # map to [0, 1]
    approx = float(np.sum(weights * t ** (2 * n - 1)))
    assert approx == pytest.approx(1.0 / (2 * n), rel=1e-14)


def test_project_constant_is_basis_element():
    m = Mesh1D(0.0, 5.0, 7)
    u = project(lambda x: np.ones_like(x), m, 2)
    expect = np.zeros((7, 3))
    expect[:, 0] = 1.0
    assert np.allclose(u.coeffs, expect, atol=1e-14)


def test_project_linear_hand_expansion():
    # on a unit-width cell [0, 1], x = 1/2 + xi
    m = Mesh1D(0.0, 2.0, 2)
    u = project(lambda x: x, m, 1)
    assert np.allclose(u.coeffs[0], [0.5, 1.0], atol=1e-14)
    assert np.allclose(u.coeffs[1], [1.5, 1.0], atol=1e-14)


def test_projection_error_third_order():
    errs = []
    for n in (20, 40, 80):
        m = Mesh1D(0.0, 2 * np.pi, n)
        u = project(np.sin, m, 2)
        errs.append(norms(u, lambda x, t: np.sin(x), 0.0)[1])
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(slopes) > 2.9


def test_projection_idempotent():
    m = Mesh1D(0.0, 2 * np.pi, 9)
    u = project(np.sin, m, 2)
    again = project(lambda x: u.evaluate(x), m, 2)
    assert np.max(np.abs(again.coeffs - u.coeffs)) < 1e-13


def project_reference(f, mesh, k):
    """Uncached projection: the same points, with a Gram solve on every call."""
    pts, local, weights = _cell_quad_points(mesh, k + 2)
    phi = Basis(k, mesh.ndim).eval(*local.T)
    wphi = weights[:, None] * phi
    return np.linalg.solve(phi.T @ wphi, (f(*pts) @ wphi).T).T


_PROJECT_MESHES = [Mesh1D(-1.0, 2.5, 13), Mesh2D(-1.0, 2.5, 0.5, 2.0, 7, 5)]


def _smooth(*x):
    return np.sin(3.0 * x[0]) * np.exp(x[-1]) + x[0] ** 3


@pytest.mark.parametrize("mesh", _PROJECT_MESHES, ids=["1d", "2d"])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_project_matches_uncached_reference(mesh, k):
    ref = project_reference(_smooth, mesh, k)
    u = project(_smooth, mesh, k)
    assert np.max(np.abs(u.coeffs - ref)) <= 1e-15 * np.max(np.abs(ref))
    # a second call and an equal but distinct mesh share the cached operator
    twin = replace(mesh)
    assert twin is not mesh and _projection(twin, k) is _projection(mesh, k)
    assert np.array_equal(project(_smooth, twin, k).coeffs, u.coeffs)


@pytest.mark.parametrize("mesh", _PROJECT_MESHES, ids=["1d", "2d"])
def test_project_source_cannot_write_cached_points(mesh):
    def writes(*x):
        x[0] += 1.0
        return x[0]

    before = project(_smooth, mesh, 2).coeffs
    with pytest.raises(ValueError):
        project(writes, mesh, 2)
    assert np.array_equal(project(_smooth, mesh, 2).coeffs, before)


def test_project_rejects_bad_degree():
    m = Mesh1D(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        project(lambda x: x, m, 3)


def test_eval_cases():
    m = Mesh1D(0.0, 4.0, 4)
    one = project(lambda x: np.ones_like(x), m, 2)
    assert one.evaluate(np.array([0.3, 1.7, 3.9])) == pytest.approx([1, 1, 1])

    lin = DGField.zeros(m, 1)
    lin.coeffs[2] = [0.0, 1.0]
    assert lin.evaluate(np.array([2.5]))[0] == pytest.approx(0.0, abs=1e-15)

    quad = DGField.zeros(m, 2)
    quad.coeffs[1] = [0.0, 0.0, 1.0]
    # xi^2 - 1/12 inside cell 1; cell 2 carries nothing
    assert quad.evaluate(np.array([1.75]))[0] == pytest.approx(1.0 / 16.0 - 1.0 / 12.0)
    assert quad.evaluate(np.array([2.5]))[0] == pytest.approx(0.0, abs=1e-15)


def test_eval_periodic_wrap():
    m = Mesh1D(0.0, 2 * np.pi, 8)
    u = project(np.sin, m, 2)
    x = np.array([0.7])
    assert u.evaluate(x + 2 * np.pi)[0] == pytest.approx(u.evaluate(x)[0], rel=1e-13)


def test_norms_exact_field_is_zero():
    m = Mesh1D(0.0, 2 * np.pi, 12)
    u = project(np.sin, m, 2)
    l1, l2, linf = norms(u, lambda x, t: u.evaluate(x), 0.0)
    assert max(l1, l2, linf) < 1e-12


def test_norms_reference_values():
    m = Mesh1D(0.0, 1.0, 4)
    z = DGField.zeros(m, 1)
    l1, l2, linf = norms(z, lambda x, t: np.ones_like(x), 0.0)
    assert (l1, l2, linf) == pytest.approx((1.0, 1.0, 1.0), rel=1e-13)

    m2 = Mesh1D(0.0, 2 * np.pi, 20)
    z2 = DGField.zeros(m2, 2)
    l1, l2, linf = norms(z2, lambda x, t: np.sin(x), 0.0)
    assert l1 == pytest.approx(4.0, rel=1e-6)
    assert l2 == pytest.approx(np.sqrt(np.pi), rel=1e-10)
    assert linf == pytest.approx(1.0, abs=2e-3)


def test_total_mass():
    m = Mesh1D(0.0, 2 * np.pi, 16)
    assert total_mass(project(lambda x: np.ones_like(x), m, 2)) == pytest.approx(2 * np.pi)
    assert abs(total_mass(project(np.sin, m, 2))) < 1e-13
    m2 = Mesh1D(0.0, 1.0, 4)
    assert total_mass(project(lambda x: x, m2, 1)) == pytest.approx(0.5, rel=1e-14)


def test_total_mass_ignores_nonconstant_modes():
    m = Mesh1D(0.0, 1.0, 4)
    u = project(lambda x: x, m, 2)
    before = total_mass(u)
    u.coeffs[:, 1:] += 3.14
    assert total_mass(u) == pytest.approx(before, rel=1e-14)


def test_field_vector_space_ops():
    m = Mesh1D(0.0, 1.0, 4)
    u = project(lambda x: x, m, 1)
    v = project(lambda x: 1 - x, m, 1)
    w = u + v
    ones = w.evaluate(np.array([0.1, 0.6, 0.9]))
    assert ones == pytest.approx([1, 1, 1])
    assert np.allclose((2.0 * u).coeffs, 2.0 * u.coeffs)
    assert np.allclose((u - u).coeffs, 0.0)
