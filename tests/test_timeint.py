import math
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sldg import timeint
from sldg.characteristics import constant_1d, constant_2d, rigid_rotation, sine_1d, zero_field
from sldg.core import DGField, Mesh1D, Mesh2D, mass_vector, project, total_mass
from sldg.ldg import FLUX_CHOICES, FluxChoice, LDGOperator
from sldg.remap1d import assemble_remap_1d
from sldg.timeint import (
    ButcherTableau,
    LinearSolverConfig,
    SolverError,
    Stepper,
    cfl_to_dt,
    tableau,
)


def test_tableau_registry_and_invariants():
    for name in ("be", "dirk2", "dirk3", "dirk4"):
        tab = tableau(name)
        tab.validate(1e-14)
        assert np.all(np.abs(np.triu(tab.A, 1)) == 0.0)
        assert np.min(np.abs(np.diag(tab.A))) > 0.0
    assert np.allclose(tableau("dirk4").c, [0.25, 0.75, 0.55, 0.5, 1.0])
    with pytest.raises(ValueError):
        tableau("rk4")


def test_tableau_validation_rejects_bad():
    bad = ButcherTableau(
        "bad", np.array([[0.5, 0.0], [0.25, 0.5]]), np.array([0.5, 0.5]), np.array([0.5, 0.75])
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_cfl_to_dt():
    m = Mesh1D(0.0, 1.0, 10)
    assert cfl_to_dt(1.0, m, constant_1d(1.0)) == pytest.approx(0.1)
    m2 = Mesh2D(0.0, 1.0, 0.0, 1.0, 10, 10)
    from sldg.characteristics import constant_2d

    assert cfl_to_dt(1.0, m2, constant_2d(1.0, 1.0)) == pytest.approx(0.05)
    bound = 2.0 * math.pi
    m3 = Mesh2D(-bound, bound, -bound, bound, 16, 16)
    v = rigid_rotation(bound, bound)
    assert cfl_to_dt(2.0, m3, v) == pytest.approx(2.0 * m3.dx / (4.0 * math.pi))
    with pytest.raises(ValueError):
        cfl_to_dt(-1.0, m, constant_1d(1.0))


def test_identity_step():
    mesh = Mesh1D(0.0, 2 * np.pi, 12)
    u = project(np.sin, mesh, 2)
    st = Stepper(mesh, 2, zero_field(1), eps=0.0, tab="dirk3")
    out = st.step(u, 0.37)
    assert np.max(np.abs(out.coeffs - u.coeffs)) < 1e-13
    assert out.time == pytest.approx(0.37)


def test_pure_transport_equals_remap():
    mesh = Mesh1D(0.0, 2 * np.pi, 16)
    u = project(np.sin, mesh, 2)
    v = constant_1d(1.0)
    dt = 0.3
    st = Stepper(mesh, 2, v, eps=0.0, tab="dirk3")
    out = st.step(u, dt)
    R = assemble_remap_1d(mesh, 2, dt, 0.0, v)
    expect = (R @ u.coeffs.ravel()) / mass_vector(mesh, 2)
    assert np.max(np.abs(out.coeffs.ravel() - expect)) < 1e-14


def test_single_backward_euler_step_conserves_odd_mass():
    mesh = Mesh1D(0.0, 2 * np.pi, 160)
    v = constant_1d(1.0)
    st = Stepper(mesh, 2, v, eps=1.0, tab="be", solver=LinearSolverConfig("gmres", 1e-12))
    u = project(np.sin, mesh, 2)
    out = st.step(u, mesh.dx)
    assert abs(total_mass(out)) < 1e-10


def test_generic_path_matches_hand_coded_dirk2():
    """The two-stage scheme written out stage by stage agrees with the
    generic tableau-driven loop."""
    mesh = Mesh1D(0.0, 2 * np.pi, 20)
    k = 2
    eps = 0.4
    v = sine_1d()
    g = lambda x, t: np.sin(2 * x) * np.exp(-t)
    dt = 0.15
    u = project(np.sin, mesh, k)

    st = Stepper(mesh, k, v, eps=eps, source=g, tab="dirk2",
                 solver=LinearSolverConfig("direct"))
    out = st.step(u, dt)

    nu = 1.0 - math.sqrt(2.0) / 2.0
    mass = mass_vector(mesh, k)
    R10 = assemble_remap_1d(mesh, k, nu * dt, 0.0, v)
    R20 = assemble_remap_1d(mesh, k, dt, 0.0, v)
    R21 = assemble_remap_1d(mesh, k, dt, nu * dt, v)
    g1 = project(lambda x: g(x, nu * dt), mesh, k).coeffs.ravel()
    g2 = project(lambda x: g(x, dt), mesh, k).coeffs.ravel()

    rhs1 = R10 @ u.coeffs.ravel() + nu * dt * mass * g1
    x1 = st.solve_stage(nu * dt * eps, rhs1)
    p1 = st.ldg.apply_flat(x1)
    rhs2 = (
        R20 @ u.coeffs.ravel()
        + (1.0 - nu) * dt * (R21 @ (eps * p1 + g1))
        + nu * dt * mass * g2
    )
    x2 = st.solve_stage(nu * dt * eps, rhs2)
    assert np.max(np.abs(out.coeffs.ravel() - x2)) < 1e-13


def test_direct_step_applies_diffusion_once_per_stage(monkeypatch):
    """Each stage's D x comes from its residual check, and no step builds
    the pre-multiplied operator."""
    mesh = Mesh1D(0.0, 2 * np.pi, 16)
    st = Stepper(mesh, 2, sine_1d(), eps=0.3, source=lambda x, t: np.cos(x) * t,
                 tab="dirk4", solver=LinearSolverConfig("direct"))
    calls = []
    apply_flat = LDGOperator.apply_flat
    monkeypatch.setattr(LDGOperator, "apply_flat",
                        lambda self, x: calls.append(x) or apply_flat(self, x))
    st.step(project(np.sin, mesh, 2), 0.2)
    assert len(calls) == tableau("dirk4").stages
    assert "op" not in st.ldg.__dict__


@pytest.mark.parametrize("ndim", [1, 2])
def test_gmres_step_applies_factored_sweeps_once_per_stage(ndim, monkeypatch):
    """MINRES's products run on the pre-multiplied operator; the factored
    sweeps run once per stage, for the residual check whose D x feeds the
    later stages."""
    if ndim == 1:
        mesh, v = Mesh1D(0.0, 2 * np.pi, 16), sine_1d()
        g, u = (lambda x, t: np.cos(x) * t), project(np.sin, mesh, 2)
    else:
        mesh, v = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 6, 5), constant_2d(1.0, 0.5)
        g = lambda x, y, t: np.cos(x + y) * t
        u = project(lambda x, y: np.sin(x) * np.cos(y), mesh, 2)
    st = Stepper(mesh, 2, v, eps=0.3, source=g, tab="dirk4", solver=LinearSolverConfig("gmres"))
    calls = []
    apply_flat = LDGOperator.apply_flat
    monkeypatch.setattr(LDGOperator, "apply_flat",
                        lambda self, x: calls.append(x) or apply_flat(self, x))
    st.step(u, 0.2)
    assert len(calls) == tableau("dirk4").stages
    assert st.last_iterations > 0 and "op" in st.ldg.__dict__


def test_solve_stage_zero_eps_is_mass_inverse():
    mesh = Mesh1D(0.0, 2 * np.pi, 10)
    st = Stepper(mesh, 1, constant_1d(1.0), eps=0.0)
    rhs = np.arange(20, dtype=float)
    x = st.solve_stage(0.0, rhs)
    assert np.allclose(x, rhs / mass_vector(mesh, 1))
    assert st.last_residual == 0.0
    assert st.last_iterations == 0


def test_solve_stage_residual_contract():
    mesh = Mesh1D(0.0, 2 * np.pi, 30)
    tol = 1e-10
    st = Stepper(mesh, 2, constant_1d(1.0), eps=1.0,
                 solver=LinearSolverConfig("gmres", tol))
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(90)
    gamma = 0.05
    x = st.solve_stage(gamma, rhs)
    resid = np.linalg.norm(st.mass * st._apply_system(gamma, x) - rhs)
    assert resid <= tol * max(1.0, np.linalg.norm(rhs))
    assert st.last_iterations > 0


def _stage_system(ndim):
    """The stepper, the matvec of I - gamma D and the right-hand side b of a
    k = 2 backward-Euler stage on a remapped noisy field."""
    rng = np.random.default_rng(5)
    if ndim == 1:
        mesh, v = Mesh1D(0.0, 2 * np.pi, 24), sine_1d()
        u = project(np.sin, mesh, 2)
    else:
        mesh, v = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 6, 5), constant_2d(1.0, 0.5)
        u = project(lambda x, y: np.sin(x) * np.cos(y), mesh, 2)
    st = Stepper(mesh, 2, v, eps=0.7, tab="be", solver=LinearSolverConfig("gmres", 1e-12))
    u.coeffs += 0.2 * rng.standard_normal(u.coeffs.shape)
    b = (st._remap(0.2, 0.0) @ u.coeffs.ravel()) / st.mass
    return st, partial(st._apply_system, 0.7 * 0.2), b


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("flux", [FluxChoice(x, y) for x in FLUX_CHOICES for y in FLUX_CHOICES],
                         ids=lambda f: f"{f.x}-{f.y}")
def test_krylov_product_matches_factored_sweeps(ndim, k, flux):
    # MINRES multiplies by the pre-multiplied op; the residual check by the
    # factored sweeps.  Both must be the same I - gamma D to rounding.
    if ndim == 1:
        mesh, v = Mesh1D(0.0, 2 * np.pi, 8), constant_1d(1.0)
    else:
        mesh, v = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 7, 6), constant_2d(1.0, 0.5)
    st = Stepper(mesh, k, v, eps=1.0, flux=flux)
    rng = np.random.default_rng(k)
    for gamma in (1e-3, 0.3, 10.0):
        x = rng.standard_normal(st.mass.size)
        ref = x - gamma * st.ldg.apply_flat(x)
        assert np.linalg.norm(st._apply_system(gamma, x) - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("ndim", [1, 2])
def test_minres_matches_scipy_on_symmetrized_stage(ndim):
    # with S = diag(sqrt(mass)), S (I - gamma D) S^-1 is symmetric; scipy's
    # minres on it, started from 0, has the iterates S x_j of minres in the
    # mass inner product
    st, matvec, b = _stage_system(ndim)
    sq = np.sqrt(st.mass)
    sym = spla.LinearOperator((b.size, b.size), matvec=lambda y: sq * matvec(y / sq),
                              dtype=np.float64)
    for j in (1, 5, 20):
        x, its, converged = timeint.minres(matvec, st.mass, b, None, 1e-300, j)
        y, _ = spla.minres(sym, sq * b, rtol=1e-300, maxiter=j)
        assert (its, converged) == (j, False)
        assert np.linalg.norm(x - y / sq) <= 1e-13 * np.linalg.norm(y / sq)


def test_minres_zero_rhs():
    b = np.zeros(6)
    x, its, converged = timeint.minres(lambda v: 2.0 * v, np.ones(6), b, np.ones(6), 1e-12, 100)
    assert (its, converged) == (0, True) and not x.any()


def test_minres_lucky_breakdown():
    # b is an eigenvector of a diagonal A, and with power-of-two weights every
    # product is exact: the first Lanczos step leaves beta = 0, the residual
    # estimate is zero and one iteration solves the system exactly
    d = np.array([3.0, -1.5, 4.0, 7.0])
    w = np.array([1.0, 4.0, 0.25, 16.0])
    b = np.array([0.0, 0.0, 3.0, 0.0])
    x, its, converged = timeint.minres(lambda v: d * v, w, b, None, 1e-12, 100)
    assert (its, converged) == (1, True)
    assert np.array_equal(d * x, b)
    # a singular system the Krylov space closes on ends the solve unconverged
    x, its, converged = timeint.minres(lambda v: np.array([0.0, 1.0]) * v, np.ones(2),
                                       np.array([1.0, 0.0]), None, 1e-12, 100)
    assert (its, converged) == (1, False) and not x.any()


def test_minres_restarts_until_true_residual_meets_rtol():
    # weights spread over twelve decades make the w-norm blind to most of
    # the residual, so the first pass stops with the Euclidean residual far
    # above the threshold and later passes tighten their inner threshold
    n = 60
    d = np.linspace(1.0, 4.0, n)
    w = np.logspace(0.0, -12.0, n)
    b = np.cos(np.arange(float(n)))
    calls = []
    x, its, converged = timeint.minres(lambda v: calls.append(1) or d * v, w, b, None, 1e-12, 6000)
    assert converged
    assert np.linalg.norm(b - d * x) <= 1e-12 * np.linalg.norm(b)
    assert len(calls) - its >= 2       # one true residual after each pass


@pytest.mark.parametrize("ndim", [1, 2])
def test_minres_indefinite_stage_meets_residual_contract(ndim):
    # gamma < 0 gives I - gamma D eigenvalues of both signs; MINRES needs
    # only symmetry, not definiteness
    st, _, b = _stage_system(ndim)
    gamma = -0.4
    sq = np.sqrt(st.mass)
    A = np.eye(b.size) - gamma * st.ldg.op.toarray()
    lam = np.linalg.eigvalsh(0.5 * (sq[:, None] * A / sq + (sq[:, None] * A / sq).T))
    assert lam.min() < -1.0 and lam.max() > 0.0 and np.abs(lam).min() > 1e-2
    rhs = st.mass * b
    x = st.solve_stage(gamma, rhs)
    resid = np.linalg.norm(st.mass * st._apply_system(gamma, x) - rhs)
    assert resid <= st.solver.tol * max(1.0, np.linalg.norm(rhs))
    assert st.last_iterations > 0


def test_solver_config_rejects_bad_tolerance():
    for tol in (0.0, -1e-12, float("nan"), float("inf")):
        for method in ("gmres", "direct"):
            with pytest.raises(ValueError, match="positive and finite"):
                LinearSolverConfig(method, tol)


def test_stepper_rejects_unknown_mode():
    for mesh, v in ((Mesh1D(0.0, 1.0, 4), constant_1d(1.0)),
                    (Mesh2D(0.0, 1.0, 0.0, 1.0, 4, 4), constant_2d(1.0, 0.5))):
        with pytest.raises(ValueError, match="'bogus'"):
            Stepper(mesh, 1, v, mode="bogus")


def test_solver_failure_raises(monkeypatch):
    monkeypatch.setattr(timeint, "MINRES_MAXITER", 3)
    mesh = Mesh1D(0.0, 2 * np.pi, 40)
    st = Stepper(mesh, 2, constant_1d(1.0), eps=1.0, solver=LinearSolverConfig("gmres", 1e-14))
    rng = np.random.default_rng(1)
    with pytest.raises(SolverError, match=r"in 3 iterations at gamma=10\.0, residual \d\.\d{3}e"):
        st.solve_stage(10.0, rng.standard_normal(120))


@pytest.mark.parametrize("tab", ["be", "dirk2", "dirk3", "dirk4"])
def test_mass_conservation_1d(tab):
    mesh = Mesh1D(0.0, 2 * np.pi, 24)
    v = sine_1d()
    tol = 1e-12
    st = Stepper(mesh, 2, v, eps=0.7, tab=tab, solver=LinearSolverConfig("gmres", tol))
    rng = np.random.default_rng(5)
    u = project(np.sin, mesh, 2)
    u.coeffs += 0.2 * rng.standard_normal(u.coeffs.shape)
    norm_u = np.linalg.norm(u.coeffs)
    for _ in range(3):
        m0 = total_mass(u)
        u = st.step(u, 0.2)
        assert abs(total_mass(u) - m0) <= 10.0 * tol * max(1.0, norm_u)


def test_mass_conservation_2d():
    # conservation by upstream tiling requires a velocity consistent with
    # the periodic torus; the swirling deformation is
    from sldg.characteristics import swirling

    mesh = Mesh2D(-math.pi, math.pi, -math.pi, math.pi, 10, 10)
    v = swirling(1.0)
    tol = 1e-12
    st = Stepper(mesh, 1, v, eps=0.5, tab="dirk2", solver=LinearSolverConfig("gmres", tol))
    u = project(lambda x, y: np.cos(x) ** 2 * np.cos(y), mesh, 1)
    m0 = total_mass(u)
    for _ in range(2):
        u = st.step(u, 0.12)
    assert abs(total_mass(u) - m0) <= 20.0 * tol * max(1.0, np.linalg.norm(u.coeffs))


@pytest.mark.parametrize("k", [0, 1, 2])
def test_l2_monotonicity_backward_euler(k):
    mesh = Mesh1D(0.0, 2 * np.pi, 32)
    v = constant_1d(1.0)
    eps = 0.1
    st = Stepper(mesh, k, v, eps=eps, tab="be", solver=LinearSolverConfig("direct"))
    rng = np.random.default_rng(k + 10)
    u = project(np.sin, mesh, k)
    u.coeffs = rng.standard_normal(u.coeffs.shape)
    dt = cfl_to_dt(5.0, mesh, v)
    mass = mass_vector(mesh, k)

    def l2(field):
        return math.sqrt(float(field.coeffs.ravel() @ (mass * field.coeffs.ravel())))

    for _ in range(20):
        before = l2(u)
        u = st.step(u, dt)
        assert l2(u) <= before + 1e-12


def test_run_truncates_final_step():
    mesh = Mesh1D(0.0, 2 * np.pi, 16)
    st = Stepper(mesh, 1, constant_1d(1.0), eps=0.0)
    u = project(np.sin, mesh, 1)
    out = st.run(u, 1.0, 0.3)
    assert out.time == pytest.approx(1.0, abs=1e-14)
    exact = lambda x, t: np.sin(x - t)
    from sldg.core import norms

    assert norms(out, exact, 1.0)[1] < 2e-2


def test_time_dependent_velocity_cache_cleared():
    from sldg.characteristics import swirling

    mesh = Mesh2D(-np.pi, np.pi, -np.pi, np.pi, 8, 8)
    v = swirling(1.0)
    st = Stepper(mesh, 1, v, eps=0.0, tab="dirk2")
    u = project(lambda x, y: np.cos(x) * np.cos(y), mesh, 1)
    m0 = total_mass(u)
    u = st.step(u, 0.1)
    u = st.step(u, 0.1)     # different stage times: geometries must be rebuilt
    assert abs(total_mass(u) - m0) < 1e-11
    assert u.time == pytest.approx(0.2)


def test_time_dependent_step_assembles_each_pair_once_and_caches_none(monkeypatch):
    # no (t_hi, t_lo) pair recurs, so no operator is kept
    from sldg.characteristics import swirling
    from sldg.remap2d_matrix import assemble_remap_2d

    mesh = Mesh2D(-np.pi, np.pi, -np.pi, np.pi, 8, 8)
    st = Stepper(mesh, 1, swirling(1.0), eps=0.1, tab="dirk4")
    pairs = []

    def assemble(mesh, k, t_hi, t_lo, v, mode):
        assert not st._remap_cache
        pairs.append((t_hi, t_lo))
        return assemble_remap_2d(mesh, k, t_hi, t_lo, v, mode=mode)

    monkeypatch.setattr(timeint, "assemble_remap_2d", assemble)
    u = st.step(project(lambda x, y: np.cos(x) * np.cos(y), mesh, 1), 0.1)
    assert not st._remap_cache
    # DIRK4's dense tableau: stage ii remaps from the step start and from all ii earlier stages
    t = [0.0] + [0.1 * c for c in st.tableau.c]
    expect = [(t[ii + 1], t[jj]) for ii in range(5) for jj in range(ii + 1)]
    assert pairs == expect
    # three more steps, the last one truncated
    st.run(u, 0.35, 0.1)
    assert len(pairs) == len(set(pairs)) == 60
    assert not st._remap_cache


def test_time_dependent_step_holds_no_operator_while_assembling(monkeypatch):
    # each operator is dropped once applied, so what the step holds when an
    # assembly starts is a few vectors, less than one operator's bytes
    import tracemalloc

    from sldg.characteristics import swirling
    from sldg.remap2d_matrix import assemble_remap_2d

    mesh = Mesh2D(-np.pi, np.pi, -np.pi, np.pi, 16, 16)
    st = Stepper(mesh, 2, swirling(1.0), eps=0.1, tab="dirk4", mode="qc",
                 solver=LinearSolverConfig("direct"))
    held, sizes = [], []

    def assemble(*args, **kwargs):
        held.append(tracemalloc.get_traced_memory()[0])
        R = assemble_remap_2d(*args, **kwargs)
        sizes.append(R.data.nbytes + R.indices.nbytes + R.indptr.nbytes)
        return R

    monkeypatch.setattr(timeint, "assemble_remap_2d", assemble)
    u = st.step(project(lambda x, y: np.cos(x) * np.cos(y), mesh, 2), 0.1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        held.clear()
        st.step(u, 0.1)
    finally:
        tracemalloc.stop()
    assert len(held) == 15
    assert max(held) - base < min(sizes)


def test_time_independent_cache_keeps_only_this_steps_operators(monkeypatch):
    mesh = Mesh1D(0.0, 2 * np.pi, 16)
    assembled = []
    monkeypatch.setattr(timeint, "assemble_remap_1d",
                        lambda *args: assembled.append(args) or assemble_remap_1d(*args))
    st = Stepper(mesh, 1, sine_1d(), eps=0.1, tab="dirk4")
    u = st.step(project(np.sin, mesh, 1), 0.1)
    first = dict(st._remap_cache)
    assert len(first) == len(assembled) == 10
    u = st.step(u, 0.1)
    assert len(assembled) == 10
    assert st._remap_cache.keys() == first.keys()
    assert all(st._remap_cache[key] is R for key, R in first.items())
    # a new dt leaves only the new step's operators
    fresh = Stepper(mesh, 1, sine_1d(), eps=0.1, tab="dirk4")
    fresh.step(u, 0.07)
    u = st.step(u, 0.07)
    assert st._remap_cache.keys() == fresh._remap_cache.keys()
    assert not st._remap_cache.keys() & first.keys()
    # a dt that differs below the keys' rounding is the same dt
    second = dict(st._remap_cache)
    count = len(assembled)
    st.step(u, 0.07 + 3e-14)
    assert len(assembled) == count
    assert st._remap_cache.keys() == second.keys()
    assert all(st._remap_cache[key] is R for key, R in second.items())


@pytest.mark.parametrize("method", ["direct", "gmres"])
@pytest.mark.parametrize("ndim", [1, 2])
def test_source_mass_budget(ndim, method):
    # on a periodic mesh the remap and the diffusion conserve mass, so the
    # mass changes by exactly what the DIRK weights integrate of the source
    from sldg.characteristics import constant_2d

    T = 1.0
    if ndim == 1:
        mesh = Mesh1D(0.0, 2 * np.pi, 40)
        v = sine_1d()
        g = lambda x, t: 1.0 + np.cos(x) + t
        u0 = project(np.sin, mesh, 2)
        budget = 2 * np.pi * (T + 0.5 * T**2)
    else:
        mesh = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 10, 10)
        v = constant_2d(1.0, 0.5)
        g = lambda x, y, t: 1.0 + np.cos(x + y) * np.exp(-t)
        u0 = project(lambda x, y: np.sin(x) * np.cos(y), mesh, 2)
        budget = 4 * np.pi**2 * T
    st = Stepper(mesh, 2, v, eps=0.5, source=g, solver=LinearSolverConfig(method, 1e-12))
    uT = st.run(u0, T, cfl_to_dt(1.0, mesh, v))
    assert st.source_mass == pytest.approx(budget, rel=1e-12)
    drift = total_mass(uT) - total_mass(u0)
    assert abs(drift - st.source_mass) < 1e-10
    # a second run on the same stepper (caches warm) counts from its own start
    uT2 = st.run(u0, T, cfl_to_dt(1.0, mesh, v))
    assert st.source_mass == pytest.approx(budget, rel=1e-12)
    assert abs(total_mass(uT2) - total_mass(u0) - st.source_mass) < 1e-10


def test_stepper_rejects_negative_diffusion():
    mesh = Mesh1D(0.0, 2 * np.pi, 8)
    for eps in (-1e-3, float("nan")):
        with pytest.raises(ValueError, match="nonnegative"):
            Stepper(mesh, 1, constant_1d(1.0), eps=eps)


# odd and even cell counts; 7x6 and 6x5 put the rfft Nyquist column on
# either axis of the transform
_PERIODIC_MESHES = [
    Mesh1D(0.0, 2 * np.pi, 7),
    Mesh1D(0.0, 2 * np.pi, 8),
    Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 7, 6),
    Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 6, 5),
]


def _direct_stepper(mesh, k, orientation="uminus_qplus"):
    v = constant_1d(1.0) if mesh.ndim == 1 else constant_2d(1.0, 0.5)
    return Stepper(mesh, k, v, eps=1.0, solver=LinearSolverConfig("direct"),
                   flux=FluxChoice(orientation, orientation))


@pytest.mark.parametrize("mesh", _PERIODIC_MESHES, ids=lambda m: "x".join(map(str, m.shape)))
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("orientation", ["uminus_qplus", "uplus_qminus"])
def test_direct_solve_matches_splu(mesh, k, orientation):
    # sparse LU of the assembled I - gamma D is the reference; the Fourier
    # solve must also be backward stable for that matrix, to a few ulps
    st = _direct_stepper(mesh, k, orientation)
    n = st.mass.size
    rng = np.random.default_rng(k)
    for gamma in (1e-3, 0.3, 10.0):
        b = rng.standard_normal(n)
        A = (sp.identity(n, format="csc") - gamma * st.ldg.op).tocsc()
        ref = spla.splu(A).solve(b)
        x = st.solve_stage(gamma, st.mass * b)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        scale = spla.norm(A, np.inf) * np.abs(x).max() + np.abs(b).max()
        assert np.abs(A @ x - b).max() <= 2e-15 * scale
    assert set(st._system_cache) == {1e-3, 0.3, 10.0}


@pytest.mark.parametrize("mesh", _PERIODIC_MESHES, ids=lambda m: "x".join(map(str, m.shape)))
def test_direct_solve_preserves_mass(mesh):
    st = _direct_stepper(mesh, 2)
    rng = np.random.default_rng(4)
    for gamma in (1e-3, 0.3, 10.0):
        b = 1.0 + rng.standard_normal(st.mass.size)
        x = st.solve_stage(gamma, st.mass * b)
        m_b = total_mass(DGField(mesh, 2, b))
        assert abs(total_mass(DGField(mesh, 2, x)) - m_b) <= 1e-14 * abs(m_b)
        assert st.last_iterations == 0


def test_direct_solve_names_singular_block():
    # k = 0 on four unit cells: the symbol at the Nyquist wavenumber m = 2 is
    # exactly -4, so gamma = -1/4 makes that block of I - gamma D singular
    st = _direct_stepper(Mesh1D(0.0, 4.0, 4), 0)
    assert st.ldg.symbol()[2, 0, 0] == -4.0
    with pytest.raises(SolverError, match=r"gamma=-0.25.*wavenumber \(2,\)"):
        st.solve_stage(-0.25, np.ones(4))
    with pytest.raises(SolverError, match=r"gamma=nan.*wavenumber \(0,\)"):
        st.solve_stage(float("nan"), np.ones(4))
    assert not st._system_cache


_IMPORT_FLOOR = """
import sys
from sldg.bench import make_problem
from sldg.core import project
from sldg.timeint import LinearSolverConfig, Stepper, cfl_to_dt

def loaded():
    return sorted(m for m in sys.modules if m.startswith(("scipy.linalg", "scipy.sparse.linalg")))

def step(problem, n, k, method):
    p = make_problem(problem)
    mesh = p.mesh(n)
    st = Stepper(mesh, k, p.velocity, eps=p.eps, source=p.g, solver=LinearSolverConfig(method))
    st.step(project(p.u0, mesh, k), cfl_to_dt(1.0, mesh, p.velocity))
    return st

step("ex34", 8, 2, "direct")
step("ex32", 40, 1, "direct")
assert not loaded(), loaded()
assert step("ex34", 8, 1, "gmres").last_iterations > 0
assert "scipy.linalg.blas" in sys.modules and "scipy.sparse.linalg" not in sys.modules, loaded()
import sldg.timeint
import scipy.sparse.linalg
assert sldg.timeint.spla is scipy.sparse.linalg
"""


def test_import_floor_loads_scipy_linalg_only_on_the_krylov_path():
    # direct steps in 1D and 2D load neither scipy.linalg nor scipy.sparse.linalg;
    # a MINRES stage solve loads the BLAS wrappers, and timeint.spla still
    # resolves to scipy.sparse.linalg for perfbench/tracing.py
    src = str(Path(timeint.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", _IMPORT_FLOOR], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
