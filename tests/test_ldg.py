import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sldg.core import DGField, Mesh1D, Mesh2D, mass_vector, norms, project
from sldg.ldg import (
    FluxChoice,
    assemble_ldg_1d,
    assemble_ldg_2d,
    dissipativity_check,
)


def test_flux_choice_validation():
    with pytest.raises(ValueError):
        FluxChoice("uminus_uminus")


def test_first_derivative_blocks_k1_hand_values():
    # products of the edge traces (1, +-1/2) of {1, xi} and the volume
    # coupling (phi_l, dphi_m/dxi), as the 1D sweep uses them
    import sldg.ldg as ldg_mod

    own, nb, off = ldg_mod._first_derivative_blocks(1, 1, 0, "minus")
    assert off == -1
    assert np.allclose(own, [[1.0, 0.5], [0.5 - 1.0, 0.25]])
    assert np.allclose(nb, [[-1.0, -0.5], [0.5, 0.25]])
    own, nb, off = ldg_mod._first_derivative_blocks(1, 1, 0, "plus")
    assert off == 1
    assert np.allclose(own, [[-1.0, 0.5], [0.5 - 1.0, -0.25]])
    assert np.allclose(nb, [[1.0, -0.5], [0.5, -0.25]])


@pytest.mark.parametrize("k", [0, 1, 2])
def test_constant_in_nullspace(k):
    mesh = Mesh1D(0.0, 2 * np.pi, 16)
    op = assemble_ldg_1d(mesh, k)
    c = project(lambda x: np.ones_like(x), mesh, k)
    assert np.max(np.abs(op.apply(c.coeffs))) < 1e-12


def test_gradient_of_linear_data():
    mesh = Mesh1D(0.0, 3.0, 3)
    u = project(lambda x: x, mesh, 1)
    op = assemble_ldg_1d(mesh, 1)
    q = (op.grad @ u.coeffs.ravel()).reshape(3, 2)
    # middle cell sees only interior traces, so q = u_x = 1 exactly
    assert np.allclose(q[1], [1.0, 0.0], atol=1e-13)


def test_second_derivative_convergence():
    # cell averages of the discrete u_xx converge at second order; the full
    # coefficient error carries the usual first-order highest-mode truncation
    errs = []
    for n in (40, 80, 160):
        mesh = Mesh1D(0.0, 2 * np.pi, n)
        op = assemble_ldg_1d(mesh, 2)
        u = project(np.sin, mesh, 2)
        p = op.apply(u.coeffs)
        ref = project(lambda x: -np.sin(x), mesh, 2)
        errs.append(np.sqrt(mesh.dx * np.sum((p[:, 0] - ref.coeffs[:, 0]) ** 2)))
    slopes = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(slopes) > 1.9


@pytest.mark.parametrize("k", [1, 2])
def test_heat_solve_convergence(k):
    # the implicit solve damps the non-smooth truncation modes: solution
    # error is O(h^(k+1))
    errs = []
    for n in (10, 20, 40):
        mesh = Mesh1D(0.0, 2 * np.pi, n)
        op = assemble_ldg_1d(mesh, k)
        dt, T = 2e-4, 0.05
        A = (sp.identity(op.op.shape[0]) - dt * op.op).tocsc()
        lu = spla.splu(A)
        x = project(np.sin, mesh, k).coeffs.ravel()
        for _ in range(int(round(T / dt))):
            x = lu.solve(x)
        uh = DGField(mesh, k, x.reshape(mesh.n, k + 1))
        errs.append(norms(uh, lambda xx, tt: np.exp(-T) * np.sin(xx), T)[1])
    slope = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(slope) > k + 0.7


@pytest.mark.parametrize("k", [0, 1, 2])
def test_energy_identity_1d(k):
    mesh = Mesh1D(0.0, 2 * np.pi, 16)
    rng = np.random.default_rng(k)
    op = assemble_ldg_1d(mesh, k)
    u = rng.standard_normal(mesh.n * (k + 1))
    s, qsq = dissipativity_check(op, u)
    assert s <= 0.0
    assert abs(s + qsq) < 1e-11 * qsq


def test_energy_identity_both_orientations():
    mesh = Mesh1D(0.0, 2 * np.pi, 12)
    rng = np.random.default_rng(7)
    u = rng.standard_normal(mesh.n * 3)
    for orient in ("uminus_qplus", "uplus_qminus"):
        s, qsq = dissipativity_check(assemble_ldg_1d(mesh, 2, FluxChoice(orient)), u)
        assert s <= 0.0 and abs(s + qsq) < 1e-11 * qsq


def test_sparsity_three_cell_stencil():
    mesh = Mesh1D(0.0, 1.0, 8)
    op = assemble_ldg_1d(mesh, 2).op.tocoo()
    for r, c in zip(op.row // 3, op.col // 3):
        assert min((r - c) % 8, (c - r) % 8) <= 1


def test_sparsity_plus_stencil_2d():
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 5, 4)
    op = assemble_ldg_2d(mesh, 1).op.tocoo()
    dim = 3
    for r, c in zip(op.row // dim, op.col // dim):
        rx, ry = r % 5, r // 5
        cx, cy = c % 5, c // 5
        dx = min((rx - cx) % 5, (cx - rx) % 5)
        dy = min((ry - cy) % 4, (cy - ry) % 4)
        assert dx + dy <= 1


def test_mirror_flux_adjoint_structure():
    # the two one-sided first-derivative sweeps are mutual negative adjoints
    # under the mass inner product, which makes the composed operator
    # self-adjoint and dissipative
    import sldg.ldg as ldg_mod

    mesh = Mesh1D(0.0, 2 * np.pi, 10)
    M = mass_vector(mesh, 2)
    Gm = ldg_mod._sweep_matrix(mesh, 2, 0, "minus").toarray()
    Gp = ldg_mod._sweep_matrix(mesh, 2, 0, "plus").toarray()
    assert np.max(np.abs(Gp + np.diag(1 / M) @ Gm.T @ np.diag(M))) < 1e-11
    for orient in ("uminus_qplus", "uplus_qminus"):
        A = assemble_ldg_1d(mesh, 2, FluxChoice(orient)).op.toarray()
        sym = np.diag(M) @ A
        assert np.max(np.abs(sym - sym.T)) < 1e-11 * np.max(np.abs(sym))


@pytest.mark.parametrize("k", [1, 2])
def test_constant_nullspace_2d(k):
    mesh = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 8, 6)
    op = assemble_ldg_2d(mesh, k)
    c = project(lambda x, y: np.ones_like(x), mesh, k)
    assert np.max(np.abs(op.apply(c.coeffs))) < 1e-12


def test_laplacian_cell_average_convergence_2d():
    errs = []
    for n in (16, 32):
        mesh = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, n, n)
        op = assemble_ldg_2d(mesh, 2)
        u = project(lambda x, y: np.sin(x + y), mesh, 2)
        p = op.apply(u.coeffs)
        ref = project(lambda x, y: -2.0 * np.sin(x + y), mesh, 2)
        errs.append(
            np.sqrt(mesh.dx * mesh.dy * np.sum((p[:, 0] - ref.coeffs[:, 0]) ** 2))
        )
    assert np.log2(errs[0] / errs[1]) > 1.9


def test_separable_field_matches_1d():
    nx, ny = 9, 7
    mesh2 = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, nx, ny)
    mesh1 = Mesh1D(0.0, 2 * np.pi, nx)
    k = 2
    u1 = project(np.sin, mesh1, k)
    op1 = assemble_ldg_1d(mesh1, k)
    p1 = op1.apply(u1.coeffs)

    u2 = project(lambda x, y: np.sin(x), mesh2, k)
    op2 = assemble_ldg_2d(mesh2, k)
    p2 = op2.apply(u2.coeffs)

    # modes (1, xi, xi^2) of the 2D set are indices 0, 1, 3
    rows = p2.reshape(ny, nx, 6)
    for iy in range(ny):
        assert np.max(np.abs(rows[iy][:, [0, 1, 3]] - p1)) < 1e-12
        assert np.max(np.abs(rows[iy][:, [2, 4, 5]])) < 1e-12


def test_energy_identity_2d():
    mesh = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 6, 5)
    rng = np.random.default_rng(3)
    op = assemble_ldg_2d(mesh, 2)
    u = rng.standard_normal(mesh.ncells * 6)
    s, qsq = dissipativity_check(op, u)
    assert s <= 0.0
    assert abs(s + qsq) < 1e-11 * qsq


_FOURIER_MESHES = [
    Mesh1D(0.0, 2 * np.pi, 7),
    Mesh1D(0.0, 2 * np.pi, 8),
    Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 7, 6),
    Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 6, 5),
]


@pytest.mark.parametrize("mesh", _FOURIER_MESHES, ids=lambda m: "x".join(map(str, m.shape)))
@pytest.mark.parametrize("k", [0, 1, 2])
def test_symbol_matches_sweeps(mesh, k):
    # D applied through its Fourier blocks equals the sequential sweeps, on
    # odd and even cell counts (the rfft Nyquist column) and mixed flux sides
    rng = np.random.default_rng(k)
    shape = mesh.shape[::-1]
    axes = tuple(range(mesh.ndim))
    for flux in (FluxChoice("uminus_qplus", "uminus_qplus"),
                 FluxChoice("uplus_qminus", "uplus_qminus"),
                 FluxChoice("uminus_qplus", "uplus_qminus")):
        op = (assemble_ldg_1d, assemble_ldg_2d)[mesh.ndim - 1](mesh, k, flux)
        sym = op.symbol()
        d = (k + 1) * (k + 2) // 2 if mesh.ndim == 2 else k + 1
        assert sym.shape == shape[:-1] + (shape[-1] // 2 + 1, d, d)
        x = rng.standard_normal(mesh.ncells * d)
        xh = np.fft.rfftn(x.reshape(shape + (d,)), axes=axes)
        y = np.fft.irfftn((sym @ xh[..., None])[..., 0], s=shape, axes=axes).ravel()
        ref = op.apply_flat(x)
        assert np.max(np.abs(y - ref)) < 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("mesh", [Mesh1D(0.0, 2 * np.pi, 9), Mesh2D(0.0, 2 * np.pi, 0.0, 3.0, 6, 5)],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("orient", ["uminus_qplus", "uplus_qminus"])
def test_stacked_sweeps_match_per_axis_sum(mesh, k, orient):
    # the stacked div @ (grad @ x) equals the sum over axes of D_a (G_a x)
    # built from the per-axis sweeps
    from sldg.ldg import _axis_sides, _sweep_matrix

    flux = FluxChoice(orient, orient)
    op = (assemble_ldg_1d, assemble_ldg_2d)[mesh.ndim - 1](mesh, k, flux)
    x = np.random.default_rng(k).standard_normal(op.grad.shape[1])
    ref = sum(_sweep_matrix(mesh, k, axis, q_side) @ (_sweep_matrix(mesh, k, axis, u_side) @ x)
              for axis, u_side, q_side in _axis_sides(mesh, flux))
    assert op.grad.shape == (mesh.ndim * x.size, x.size)
    assert np.max(np.abs(op.apply_flat(x) - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("mesh", [Mesh1D(0.0, 2 * np.pi, 9), Mesh2D(0.0, 2 * np.pi, 0.0, 3.0, 6, 5)],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("fx", ["uminus_qplus", "uplus_qminus"])
@pytest.mark.parametrize("fy", ["uminus_qplus", "uplus_qminus"])
def test_mass_times_operator_symmetric_negative_semidefinite(mesh, k, fx, fy):
    # the premise of the MINRES stage solve: M D is symmetric and negative
    # semidefinite, so I - gamma D is self-adjoint in the mass inner product
    op = (assemble_ldg_1d, assemble_ldg_2d)[mesh.ndim - 1](mesh, k, FluxChoice(fx, fy))
    MD = mass_vector(mesh, k)[:, None] * op.op.toarray()
    scale = np.max(np.abs(MD))
    assert np.max(np.abs(MD - MD.T)) <= 1e-15 * scale
    assert np.linalg.eigvalsh(0.5 * (MD + MD.T)).max() <= 1e-14 * scale
