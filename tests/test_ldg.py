import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sldg.core import Basis, DGField, Mesh1D, Mesh2D, mass_vector, norms, project
from sldg.ldg import (
    FluxChoice,
    _first_derivative_blocks,
    assemble_ldg_1d,
    assemble_ldg_2d,
    dissipativity_check,
)


# Independent reference: every sweep as an assembled sparse matrix, the
# identity on the other axes times a periodic cell shift along its own,
# Kronecker-multiplied with the d x d blocks.

def _shift_matrix(n: int, offset: int) -> sp.csr_matrix:
    """Maps cell j to cell j+offset, periodically."""
    rows = np.arange(n)
    return sp.csr_matrix((np.ones(n), (rows, (rows + offset) % n)), shape=(n, n))


def _sweep_matrix(mesh, k: int, axis: int, side: str) -> sp.csr_matrix:
    own, nb, off = _first_derivative_blocks(k, mesh.ndim, axis, side)
    minv = 1.0 / Basis(k, mesh.ndim).mass_diag()
    own = sp.csr_matrix(minv[:, None] * own)
    nb = sp.csr_matrix(minv[:, None] * nb)
    # cells are numbered with the first axis fastest, so later axes are outer factors
    factors = [_shift_matrix(n, off) if ax == axis else sp.identity(n)
               for ax, n in enumerate(mesh.shape)]
    shift = factors[0]
    for factor in factors[1:]:
        shift = sp.kron(factor, shift)
    eye = sp.identity(mesh.ncells, format="csr")
    return ((sp.kron(eye, own) + sp.kron(shift, nb)) / mesh.widths[axis]).tocsr()


def _axis_sides(mesh, flux: FluxChoice):
    """(axis, solution-trace side, gradient-trace side) of every mesh axis."""
    for axis, orientation in zip(range(mesh.ndim), (flux.x, flux.y)):
        yield (axis, "minus", "plus") if orientation == "uminus_qplus" else (axis, "plus", "minus")


def _reference_grad_div(mesh, k: int, flux: FluxChoice):
    """The gradient sweeps stacked, (ndim n) x n, and the divergence sweeps side by side."""
    sides = list(_axis_sides(mesh, flux))
    grad = sp.vstack([_sweep_matrix(mesh, k, axis, u_side) for axis, u_side, _ in sides],
                     format="csr")
    div = sp.hstack([_sweep_matrix(mesh, k, axis, q_side) for axis, _, q_side in sides],
                    format="csr")
    return grad, div


def _assemble(mesh, k, flux=None):
    return (assemble_ldg_1d, assemble_ldg_2d)[mesh.ndim - 1](mesh, k, flux)


def _apply(op, coeffs):
    return op.apply_flat(coeffs.ravel()).reshape(coeffs.shape)


def test_flux_choice_validation():
    with pytest.raises(ValueError):
        FluxChoice("uminus_uminus")


def test_first_derivative_blocks_k1_hand_values():
    # products of the edge traces (1, +-1/2) of {1, xi} and the volume
    # coupling (phi_l, dphi_m/dxi), as the 1D sweep uses them
    own, nb, off = _first_derivative_blocks(1, 1, 0, "minus")
    assert off == -1
    assert np.allclose(own, [[1.0, 0.5], [0.5 - 1.0, 0.25]])
    assert np.allclose(nb, [[-1.0, -0.5], [0.5, 0.25]])
    own, nb, off = _first_derivative_blocks(1, 1, 0, "plus")
    assert off == 1
    assert np.allclose(own, [[-1.0, 0.5], [0.5 - 1.0, -0.25]])
    assert np.allclose(nb, [[1.0, -0.5], [0.5, -0.25]])


@pytest.mark.parametrize("k", [0, 1, 2])
def test_constant_in_nullspace(k):
    mesh = Mesh1D(0.0, 2 * np.pi, 16)
    op = assemble_ldg_1d(mesh, k)
    c = project(lambda x: np.ones_like(x), mesh, k)
    assert np.max(np.abs(_apply(op, c.coeffs))) < 1e-12


def test_gradient_of_linear_data():
    mesh = Mesh1D(0.0, 3.0, 3)
    u = project(lambda x: x, mesh, 1)
    op = assemble_ldg_1d(mesh, 1)
    q = op.grad(u.coeffs.ravel()).reshape(3, 2)
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
        p = _apply(op, u.coeffs)
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
    mesh = Mesh1D(0.0, 2 * np.pi, 10)
    M = mass_vector(mesh, 2)
    Gm = _sweep_matrix(mesh, 2, 0, "minus").toarray()
    Gp = _sweep_matrix(mesh, 2, 0, "plus").toarray()
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
    assert np.max(np.abs(_apply(op, c.coeffs))) < 1e-12


def test_laplacian_cell_average_convergence_2d():
    errs = []
    for n in (16, 32):
        mesh = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, n, n)
        op = assemble_ldg_2d(mesh, 2)
        u = project(lambda x, y: np.sin(x + y), mesh, 2)
        p = _apply(op, u.coeffs)
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
    p1 = _apply(op1, u1.coeffs)

    u2 = project(lambda x, y: np.sin(x), mesh2, k)
    op2 = assemble_ldg_2d(mesh2, k)
    p2 = _apply(op2, u2.coeffs)

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
        op = _assemble(mesh, k, flux)
        sym = op.symbol()
        d = (k + 1) * (k + 2) // 2 if mesh.ndim == 2 else k + 1
        assert sym.shape == shape[:-1] + (shape[-1] // 2 + 1, d, d)
        x = rng.standard_normal(mesh.ncells * d)
        xh = np.fft.rfftn(x.reshape(shape + (d,)), axes=axes)
        y = np.fft.irfftn((sym @ xh[..., None])[..., 0], s=shape, axes=axes).ravel()
        ref = op.apply_flat(x)
        assert np.max(np.abs(y - ref)) < 1e-13 * np.max(np.abs(ref))


_STENCIL_MESHES = [
    Mesh1D(0.0, 2 * np.pi, 2),
    Mesh1D(0.0, 2 * np.pi, 3),
    Mesh1D(0.0, 2 * np.pi, 9),
    Mesh2D(0.0, 2 * np.pi, 0.0, 3.0, 7, 5),
    Mesh2D(0.0, 2 * np.pi, 0.0, 3.0, 6, 5),
    Mesh2D(0.0, 2 * np.pi, 0.0, 3.0, 2, 5),
    Mesh2D(0.0, 2 * np.pi, 0.0, 3.0, 5, 2),
    Mesh2D(0.0, 2 * np.pi, 0.0, 3.0, 2, 2),
]


def _rel(a, b) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("mesh", _STENCIL_MESHES, ids=lambda m: "x".join(map(str, m.shape)))
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("orient", ["uminus_qplus", "uplus_qminus"])
def test_stencil_matches_kron_reference(mesh, k, orient):
    # every sweep, the gradient, D x and the pre-multiplied op against the
    # assembled sparse sweeps, on meshes with two cells along an axis, where
    # a cell's two neighbours along that axis are the same cell
    flux = FluxChoice(orient, orient)
    op = _assemble(mesh, k, flux)
    grad, div = _reference_grad_div(mesh, k, flux)
    rng = np.random.default_rng(k)
    x = rng.standard_normal(grad.shape[1])
    u = x.reshape(mesh.shape[::-1] + (-1,))
    for (g, dv), (axis, u_side, q_side) in zip(op.sweeps, _axis_sides(mesh, flux)):
        for sweep, side in ((g, u_side), (dv, q_side)):
            assert sweep.axis == axis
            assert _rel(sweep(u).ravel(), _sweep_matrix(mesh, k, axis, side) @ x) <= 1e-15
    q = op.grad(x)
    assert q.shape == (mesh.ndim, x.size)
    assert _rel(q.ravel(), grad @ x) <= 1e-15
    assert _rel(op.apply_flat(x), div @ (grad @ x)) <= 1e-15
    ref = (div @ grad).tocsr()
    assert op.op.nnz == ref.nnz
    assert abs(op.op - ref).max() <= 1e-15 * abs(ref).max()


def test_setup_assembles_no_matrix():
    # the stencil holds 2 ndim blocks of d x d: set-up allocates nothing
    # of the mesh's size (the assembled sweeps peaked at 27 MiB here)
    mesh = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 100, 100)
    assemble_ldg_2d(mesh, 2)
    tracemalloc.start()
    try:
        op = assemble_ldg_2d(mesh, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert "op" not in op.__dict__


@pytest.mark.parametrize("mesh", [Mesh1D(0.0, 2 * np.pi, 9), Mesh2D(0.0, 2 * np.pi, 0.0, 3.0, 6, 5)],
                         ids=["1d", "2d"])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("fx", ["uminus_qplus", "uplus_qminus"])
@pytest.mark.parametrize("fy", ["uminus_qplus", "uplus_qminus"])
def test_mass_times_operator_symmetric_negative_semidefinite(mesh, k, fx, fy):
    # the premise of the MINRES stage solve: M D is symmetric and negative
    # semidefinite, so I - gamma D is self-adjoint in the mass inner product
    op = _assemble(mesh, k, FluxChoice(fx, fy))
    MD = mass_vector(mesh, k)[:, None] * op.op.toarray()
    scale = np.max(np.abs(MD))
    assert np.max(np.abs(MD - MD.T)) <= 1e-15 * scale
    assert np.linalg.eigvalsh(0.5 * (MD + MD.T)).max() <= 1e-14 * scale
