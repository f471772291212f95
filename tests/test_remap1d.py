import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sldg import remap1d
from sldg.characteristics import GL_POINTS, VelocityField, constant_1d, sine_1d, zero_field
from sldg.core import Basis, DGField, Mesh1D, gauss_rule, mass_vector, project, total_mass
from sldg.remap1d import (GeometryError, _hankel_table, _monomials, assemble_remap_1d,
                          block_moments, fit_tests, traced_interval_points)
from sldg.timeint import LinearSolverConfig, Stepper
from sldg.verify import _project_translate_1d


def random_field(mesh, k, seed=0, base=np.sin):
    rng = np.random.default_rng(seed)
    u = project(base, mesh, k)
    u.coeffs += 0.3 * rng.standard_normal(u.coeffs.shape)
    return u


def oracle_matrix(mesh, k, rc):
    """Dense remap operator from the snapped feet ``rc``: test interpolants
    by np.polyfit through the Gauss-Lobatto feet, each piece between grid
    lines integrated by Gauss k + 2."""
    basis = Basis(k, 1)
    src = basis.eval(np.array(GL_POINTS[k]))
    nodes, weights = gauss_rule(k + 2)
    d = k + 1
    R = np.zeros((mesh.n * d, mesh.n * d))
    for j, r in enumerate(rc):
        feet = r[1:2] if k == 0 else r
        fits = [np.polyfit(feet - r[0], src[:, m], k) for m in range(d)]
        cuts = np.unique(np.concatenate([r[[0, -1]], np.arange(np.ceil(r[0]), r[-1])]))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            q = lo + (hi - lo) * (nodes + 0.5)
            c = int(np.floor(0.5 * (lo + hi)))
            phi = basis.eval(q - c - 0.5)
            psi = np.stack([np.polyval(f, q - r[0]) for f in fits], axis=-1)
            cols = slice(c % mesh.n * d, (c % mesh.n + 1) * d)
            R[j * d:(j + 1) * d, cols] += (hi - lo) * mesh.dx * (weights[:, None] * psi).T @ phi
    return R


def oracle_loads(mesh, u, rc):
    """Loads of ``u`` from ``oracle_matrix``."""
    return (oracle_matrix(mesh, u.k, rc) @ u.coeffs.ravel()).reshape(mesh.n, -1)


def mode0(R, k):
    """Mode-0 block entries: the lengths of the upstream pieces per (owner, cell)."""
    return R.tocsr()[:: k + 1, :: k + 1].toarray()


def monomials_gather(basis, s):
    """Per-axis gather of the shifted 1D modes, one (3, 3) table per point and axis."""
    e = np.array(basis.modes)
    T = 1.0
    for ax in range(basis.ndim):
        s_ax = s[..., ax]
        S = np.zeros(s_ax.shape + (3, 3))                    # S[mode, power]
        S[..., 0, 0] = S[..., 1, 1] = S[..., 2, 2] = 1.0
        S[..., 1, 0] = s_ax
        S[..., 2, 0] = s_ax * s_ax - 1.0 / 12.0
        S[..., 2, 1] = 2.0 * s_ax
        T = T * S[..., e[:, None, ax], e[None, :, ax]]
    return T


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_monomials_match_per_axis_gather(ndim, k):
    basis = Basis(k, ndim)
    s = np.random.default_rng(10 * ndim + k).uniform(-5.0, 5.0, (1000, ndim))
    np.testing.assert_array_max_ulp(_monomials(basis, s), monomials_gather(basis, s), maxulp=1)
    np.testing.assert_array_max_ulp(_monomials(basis, np.zeros(ndim)),
                                    monomials_gather(basis, np.zeros(ndim)), maxulp=1)


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_hankel_table_is_gather_times_basis(ndim, k):
    # W[:nkeep] @ G must be the Hankel gather H[alpha, beta] = W[alpha + beta] times Phi^T
    basis = Basis(k, ndim)
    e = np.array(basis.modes)
    keep = block_moments(k, ndim)
    W = np.random.default_rng(10 * ndim + k).standard_normal((50, keep.size))
    table = np.zeros((50, (2 * k + 1) ** ndim))
    table[:, keep] = W
    table = table.reshape((50,) + (2 * k + 1,) * ndim)
    H = table[(slice(None),) + tuple(e[:, None, ax] + e[None, :, ax] for ax in range(ndim))]
    want = H @ _monomials(basis, np.zeros(ndim)).T
    got = (W @ _hankel_table(k, ndim)).reshape(want.shape)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-14)


def test_zero_velocity_single_subinterval():
    mesh = Mesh1D(0.0, 1.0, 5)
    rc = traced_interval_points(mesh, 2, 1.0, 0.0, zero_field(1))
    assert mesh.lower[0] + mesh.dx * rc[2, [0, -1]] == pytest.approx((0.4, 0.6))
    lengths = mode0(assemble_remap_1d(mesh, 2, 1.0, 0.0, zero_field(1)), 2)[2]
    assert np.flatnonzero(lengths).tolist() == [2]
    assert lengths[2] == pytest.approx(0.2)


def test_zero_velocity_test_function_unchanged():
    mesh = Mesh1D(0.0, 2 * np.pi, 8)
    R = assemble_remap_1d(mesh, 2, 0.7, 0.0, zero_field(1))
    assert R.format == "bsr" and R.blocksize == (3, 3)
    M = np.diag(mass_vector(mesh, 2))
    assert np.max(np.abs(R.toarray() - M)) < 1e-12 * np.max(M)


def _layout(mesh, j, dt, k):
    lengths = mode0(assemble_remap_1d(mesh, k, dt, 0.0, constant_1d(1.0)), k)[j]
    cells = np.flatnonzero(np.abs(lengths) > 1e-14)
    return cells.tolist(), lengths[cells] / mesh.dx


def test_half_cell_shift_layout():
    mesh = Mesh1D(0.0, 1.0, 8)
    cells, lengths = _layout(mesh, 4, 0.5 * mesh.dx, 1)
    assert cells == [3, 4]
    assert lengths == pytest.approx([0.5, 0.5])


def test_two_and_half_cell_shift_layout():
    mesh = Mesh1D(0.0, 1.0, 8)
    cells, lengths = _layout(mesh, 4, 2.5 * mesh.dx, 1)
    assert cells == [1, 2]
    assert lengths == pytest.approx([0.5, 0.5])


def test_periodic_wrap_assignment():
    mesh = Mesh1D(0.0, 1.0, 8)
    cells, lengths = _layout(mesh, 0, 1.5 * mesh.dx, 1)
    assert cells == [6, 7]
    assert lengths == pytest.approx([0.5, 0.5])
    rc = traced_interval_points(mesh, 1, 1.5 * mesh.dx, 0.0, constant_1d(1.0))
    assert rc[0] == pytest.approx([-1.5, -0.5])


@pytest.mark.parametrize("k", [0, 1, 2])
def test_interpolation_conditions_variable_field(k):
    mesh = Mesh1D(0.0, 2 * np.pi, 12)
    rc = traced_interval_points(mesh, k, 0.3, 0.0, sine_1d())
    feet = (rc[:, 1:2] if k == 0 else rc)[..., None]
    src = np.array(GL_POINTS[k])
    centers, cfit = fit_tests(feet, k, src[:, None])
    basis = Basis(k, 1)
    psi = basis.eval(feet[5, :, 0] - centers[5, 0]) @ cfit[5].T     # fitted tests at the feet
    assert np.max(np.abs(psi - basis.eval(src))) < 1e-12


@pytest.mark.parametrize("k", [0, 1, 2])
def test_zero_velocity_remap_is_mass_product(k):
    mesh = Mesh1D(0.0, 2 * np.pi, 9)
    u = random_field(mesh, k)
    R = assemble_remap_1d(mesh, k, 0.8, 0.0, zero_field(1))
    load = (R @ u.coeffs.ravel()).reshape(mesh.n, -1)[4]
    expect = Basis(k, 1).mass_diag() * mesh.dx * u.coeffs[4]
    assert np.max(np.abs(load - expect)) < 1e-13


@pytest.mark.parametrize("k", [0, 1, 2])
def test_translation_exactness(k):
    mesh = Mesh1D(0.0, 2 * np.pi, 16)
    u = random_field(mesh, k, seed=k)
    for shift in (0.37, 2.5 * mesh.dx, 4 * mesh.dx):
        R = assemble_remap_1d(mesh, k, shift, 0.0, constant_1d(1.0))
        got = ((R @ u.coeffs.ravel()) / mass_vector(mesh, k)).reshape(u.coeffs.shape)
        ref = _project_translate_1d(u, shift)
        assert np.max(np.abs(got - ref)) < 1e-11

    # a whole-cell shift puts every foot, the midpoint's too, on the lattice
    # it was traced from, so R / M is the block permutation to rounding
    for cells in (1, 2, 4, 7):
        R = assemble_remap_1d(mesh, k, cells * mesh.dx, 0.0, constant_1d(1.0)).toarray()
        perm = np.kron(np.eye(mesh.n)[np.roll(np.arange(mesh.n), cells)], np.eye(k + 1))
        assert np.max(np.abs(R / mass_vector(mesh, k)[:, None] - perm)) <= 1e-15


@pytest.mark.parametrize("k", [0, 1, 2])
def test_global_mass_conservation(k):
    mesh = Mesh1D(0.0, 2 * np.pi, 14)
    u = random_field(mesh, k, seed=2 + k)
    R = assemble_remap_1d(mesh, k, 0.45, 0.0, sine_1d())
    loads = (R @ u.coeffs.ravel()).reshape(mesh.n, -1)
    assert abs(loads[:, 0].sum() - total_mass(u)) < 1e-12


def test_tiling_local_and_global():
    mesh = Mesh1D(0.0, 2 * np.pi, 16)
    rc = traced_interval_points(mesh, 2, 0.4, 0.0, sine_1d())
    lengths = mode0(assemble_remap_1d(mesh, 2, 0.4, 0.0, sine_1d()), 2)
    assert np.max(np.abs(lengths.sum(axis=1) - mesh.dx * (rc[:, -1] - rc[:, 0]))) < 1e-12
    assert np.max(np.abs(lengths.sum(axis=0) - mesh.dx)) < 1e-12


@pytest.mark.parametrize("k", [0, 1, 2])
def test_matrix_matches_oracle(k):
    mesh = Mesh1D(0.0, 2 * np.pi, 11)
    u = random_field(mesh, k, seed=5)
    R = assemble_remap_1d(mesh, k, 0.3, 0.0, sine_1d())
    loads = (R @ u.coeffs.ravel()).reshape(mesh.n, -1)
    rc = traced_interval_points(mesh, k, 0.3, 0.0, sine_1d())
    assert np.max(np.abs(oracle_loads(mesh, u, rc) - loads)) < 1e-13


@pytest.mark.parametrize("run", [1, 7, 10**9])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_runs_leave_operator_unchanged(monkeypatch, k, run):
    # blocks are contracted RUN at a time; where the runs break must not
    # change a bit of R (1,198 blocks, so the default RUN splits too)
    mesh = Mesh1D(0.0, 2 * np.pi, 600)
    default = assemble_remap_1d(mesh, k, 0.3, 0.0, sine_1d())
    monkeypatch.setattr(remap1d, "RUN", run)
    R = assemble_remap_1d(mesh, k, 0.3, 0.0, sine_1d())
    for got, want in ((R.data, default.data), (R.indices, default.indices),
                      (R.indptr, default.indptr)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_backward_pair_supported():
    # stage pairs with negative elapsed time trace forward
    mesh = Mesh1D(0.0, 2 * np.pi, 12)
    u = random_field(mesh, 2, seed=9)
    R = assemble_remap_1d(mesh, 2, 0.3, 0.45, sine_1d())
    loads = (R @ u.coeffs.ravel()).reshape(mesh.n, -1)
    assert abs(loads[:, 0].sum() - total_mass(u)) < 1e-12


def test_non_monotone_feet_rejected():
    mesh = Mesh1D(0.0, 2 * np.pi, 8)
    with pytest.raises(GeometryError, match="non-monotone"):
        # one giant RK4 step of a strong field overshoots and folds
        traced_interval_points(mesh, 2, 5.0, 0.0, sine_1d(), substeps=1)


def test_overlong_upstream_rejected():
    mesh = Mesh1D(0.0, 1.0, 8)
    stretch = VelocityField(1, lambda x, t: -(x - 0.5), (1.0,), False, "expanding")
    with pytest.raises(GeometryError):
        assemble_remap_1d(mesh, 1, 2.0, 0.0, stretch)


def sine_series_velocity(c0, terms) -> VelocityField:
    """a(x) = c0 + sum c_j sin(j x + phi_j), periodic on [0, 2 pi]."""

    def fn(x, t):
        a = c0 + np.zeros_like(np.asarray(x, float))
        for j, (c, phi) in enumerate(terms, start=1):
            a = a + c * np.sin(j * x + phi)
        return a

    return VelocityField(1, fn, (abs(c0) + sum(abs(c) for c, _ in terms),), False, "sine series")


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    c0=st.floats(-1.0, 1.0),
    terms=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 2.0 * math.pi)),
                   min_size=1, max_size=3),
    n=st.integers(5, 40),
    k=st.integers(0, 2),
    cfl=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_remap_invariants_on_random_fields(c0, terms, n, k, cfl, seed):
    """Random periodic velocities: the assembly raises GeometryError or
    tiles the mesh, matches the polyfit oracle and conserves mass in a
    diffusive DIRK2 step."""
    mesh = Mesh1D(0.0, 2.0 * math.pi, n)
    v = sine_series_velocity(c0, terms)
    rate = v.max_speed[0] / mesh.dx
    # a near-zero field would give a huge step, and no geometry is wrong there
    dt = min(cfl / rate, 1.0) if rate > 0.0 else 1.0
    rng = np.random.default_rng(seed)
    try:
        R = assemble_remap_1d(mesh, k, dt, 0.0, v)
        rc = traced_interval_points(mesh, k, dt, 0.0, v)
        lengths = mode0(R, k)
        upstream = mesh.dx * (rc[:, -1] - rc[:, 0])
        assert np.max(np.abs(lengths.sum(axis=1) - upstream)) <= 1e-12 * mesh.dx
        assert np.max(np.abs(lengths.sum(axis=0) - mesh.dx)) <= 1e-12 * mesh.dx

        dense = R.toarray()
        assert np.max(np.abs(dense - oracle_matrix(mesh, k, rc))) <= 1e-12 * np.max(np.abs(dense))

        u = DGField(mesh, k, rng.standard_normal((n, k + 1)))
        stepper = Stepper(mesh, k, v, eps=0.5, tab="dirk2", solver=LinearSolverConfig("direct"))
        after = stepper.step(u, dt)
        scale = mesh.dx * np.sum(np.abs(u.coeffs[:, 0]))
        assert abs(total_mass(after) - total_mass(u)) <= 1e-11 * scale
    except GeometryError:
        pass
