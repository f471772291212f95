"""Diagonally implicit Runge-Kutta stepping along characteristics.

Every stage solves a backward-Euler-like system: the new stage coefficients
are determined by the remapped old solution plus time-weighted remaps of the
diffusion and source fields of the earlier stages, with the implicit
diffusion contribution of the current stage on the left-hand side.  Because
the tableaus are stiffly accurate, the final stage is the step solution.

Upstream geometries (one sparse remap operator per ordered pair of stage
times) are cached and, for velocity fields without explicit time dependence,
reused across steps.  The stage systems ``(I - gamma D) x = b`` are solved
either by unpreconditioned GMRES on the factored LDG sweeps or, with the
``direct`` solver, exactly: on the uniform periodic mesh ``I - gamma D`` is
block-circulant, so ``rfftn`` over the cells splits it into one d x d block
per wavenumber.  The block inverses are computed on the first direct solve
for each distinct diagonal coefficient and cached; a solve is then a forward
transform, a batched block product and an inverse transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
import scipy.sparse.linalg as spla

from .characteristics import VelocityField
from .core import DGField, mass_vector, project, total_mass
from .ldg import FluxChoice, LDGOperator, assemble_ldg_1d, assemble_ldg_2d
from .remap1d import assemble_remap_1d
from .remap2d_matrix import assemble_remap_2d


@dataclass(frozen=True)
class ButcherTableau:
    """Lower-triangular RK coefficients with nonzero diagonal."""

    name: str
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

    @property
    def stages(self) -> int:
        return self.b.size

    def validate(self, tol: float = 1e-14) -> None:
        s = self.stages
        if self.A.shape != (s, s) or self.c.shape != (s,):
            raise ValueError("inconsistent tableau shapes")
        if np.max(np.abs(np.triu(self.A, 1))) > 0.0:
            raise ValueError("tableau is not lower triangular")
        if np.min(np.abs(np.diag(self.A))) == 0.0:
            raise ValueError("tableau has a zero diagonal entry")
        if np.max(np.abs(self.A[-1] - self.b)) > tol:
            raise ValueError("tableau is not stiffly accurate")
        if np.max(np.abs(self.A.sum(axis=1) - self.c)) > tol:
            raise ValueError("tableau row sums do not match abscissae")


def _dirk2() -> ButcherTableau:
    nu = 1.0 - math.sqrt(2.0) / 2.0
    A = np.array([[nu, 0.0], [1.0 - nu, nu]])
    return ButcherTableau("dirk2", A, A[-1].copy(), np.array([nu, 1.0]))


def _dirk3() -> ButcherTableau:
    g = 0.435866521508459
    b1 = -1.5 * g * g + 4.0 * g - 0.25
    b2 = 1.5 * g * g - 5.0 * g + 1.25
    A = np.array([[g, 0.0, 0.0], [(1.0 - g) / 2.0, g, 0.0], [b1, b2, g]])
    return ButcherTableau("dirk3", A, A[-1].copy(), np.array([g, (1.0 + g) / 2.0, 1.0]))


def _dirk4() -> ButcherTableau:
    A = np.array(
        [
            [1 / 4, 0, 0, 0, 0],
            [1 / 2, 1 / 4, 0, 0, 0],
            [17 / 50, -1 / 25, 1 / 4, 0, 0],
            [371 / 1360, -137 / 2720, 15 / 544, 1 / 4, 0],
            [25 / 24, -49 / 48, 125 / 16, -85 / 12, 1 / 4],
        ]
    )
    c = np.array([1 / 4, 3 / 4, 11 / 20, 1 / 2, 1.0])
    return ButcherTableau("dirk4", A, A[-1].copy(), c)


_TABLEAUS: dict[str, Callable[[], ButcherTableau]] = {
    "be": lambda: ButcherTableau("be", np.array([[1.0]]), np.array([1.0]), np.array([1.0])),
    "dirk2": _dirk2,
    "dirk3": _dirk3,
    "dirk4": _dirk4,
}


def tableau(name: str) -> ButcherTableau:
    try:
        tab = _TABLEAUS[name]()
    except KeyError:
        raise ValueError(f"unknown tableau {name!r}; choose from {sorted(_TABLEAUS)}") from None
    tab.validate()
    return tab


GMRES_RESTART = 60     # Krylov dimension between GMRES restarts
GMRES_MAXITER = 5000   # GMRES restart cycles before a stage solve fails


@dataclass(frozen=True)
class LinearSolverConfig:
    """Stage-system solver selection.

    ``gmres`` is unpreconditioned restarted GMRES with relative threshold
    ``tol`` (the paper's solver), restarted every ``GMRES_RESTART``
    iterations; ``direct`` is the exact block-diagonal Fourier solve of the
    periodic system.  Both must meet ``tol`` on the residual.
    """

    method: str = "gmres"
    tol: float = 1e-12

    def __post_init__(self):
        if self.method not in ("gmres", "direct"):
            raise ValueError("solver method must be 'gmres' or 'direct'")
        if self.tol <= 0.0:
            raise ValueError("solver tolerance must be positive")


class SolverError(RuntimeError):
    """Stage system failed to reach the requested residual."""


def cfl_to_dt(cfl: float, mesh, v: VelocityField) -> float:
    """Time step realizing a prescribed CFL number for the given field."""
    if cfl <= 0.0:
        raise ValueError("CFL must be positive")
    denom = sum(s / w for s, w in zip(v.max_speed, mesh.widths))
    if denom == 0.0:
        raise ValueError("zero velocity bound: choose dt directly")
    return cfl / denom


def _first_bad_block(system: np.ndarray) -> tuple[int, ...] | None:
    """Wavenumber, in mesh axis order, of the first block without a finite inverse."""
    for idx in np.ndindex(system.shape[:-2]):
        try:
            with np.errstate(all="ignore"):
                if not np.isfinite(np.linalg.inv(system[idx])).all():
                    return idx[::-1]
        except np.linalg.LinAlgError:
            return idx[::-1]
    return None


class Stepper:
    """Advances one convection-diffusion problem on a fixed mesh.

    Holds the assembled diffusion operator, the per-geometry remap matrices
    and, for the direct solver, the Fourier block inverses of the implicit
    systems.  Meshes are periodic and ``eps`` must be nonnegative.
    ``source_mass`` is the mass the source term has added since ``run``
    last started (or since construction, for bare ``step`` calls), as the
    tableau's weights integrate it; a step that raises adds nothing.  The
    remap and the diffusion operator conserve mass, so ``total_mass``
    changes by that much over a run, to the stage-solve tolerance.  Instances are not thread safe; use one
    stepper per concurrent run.
    """

    def __init__(self, mesh, k: int, velocity: VelocityField, eps: float = 0.0,
                 source: Callable | None = None, tab: ButcherTableau | str = "dirk4",
                 solver: LinearSolverConfig | None = None, flux: FluxChoice | None = None,
                 mode: str = "quad"):
        self.mesh = mesh
        self.k = k
        self.ndim = mesh.ndim
        self.velocity = velocity
        self.eps = float(eps)
        if not self.eps >= 0.0:
            raise ValueError(f"diffusion coefficient must be nonnegative, got {eps!r}")
        self.source = source
        self.tableau = tableau(tab) if isinstance(tab, str) else tab
        self.tableau.validate()
        self.solver = solver or LinearSolverConfig()
        self.mode = mode
        self.mass = mass_vector(mesh, k)
        self.ldg: LDGOperator = (assemble_ldg_1d, assemble_ldg_2d)[self.ndim - 1](mesh, k, flux)
        self._remap_cache: dict = {}
        self._system_cache: dict = {}
        self.last_residual = 0.0
        self.last_dx = None
        self.source_mass = 0.0

    # -- remap operators ----------------------------------------------------

    def _remap(self, t_hi: float, t_lo: float):
        """Sparse remap operator for the pair (t_hi -> t_lo); None = identity."""
        if abs(t_hi - t_lo) < 1e-14:
            return None
        if self.velocity.time_dependent:
            key = (round(t_hi, 12), round(t_lo, 12))
        else:
            key = round(t_hi - t_lo, 12)
        R = self._remap_cache.get(key)
        if R is None:
            assemble = (assemble_remap_1d, partial(assemble_remap_2d, mode=self.mode))[self.ndim - 1]
            R = assemble(self.mesh, self.k, t_hi, t_lo, self.velocity)
            self._remap_cache[key] = R
        return R

    def _apply_remap(self, R, coeffs: np.ndarray) -> np.ndarray:
        if R is None:
            return self.mass * coeffs.ravel()
        return R @ coeffs.ravel()

    # -- implicit stage systems ----------------------------------------------

    def _apply_system(self, gamma: float, x: np.ndarray) -> np.ndarray:
        """(I - gamma D) x through the factored sweeps (exact nullspace)."""
        return x - gamma * self.ldg.apply_flat(x)

    def solve_stage(self, gamma: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (M - gamma * M D) x = rhs to the configured residual.

        ``last_dx`` keeps D x from the residual check (None when gamma is
        0 and no residual is formed), so callers need not apply D again.
        """
        self.last_dx = None
        if gamma == 0.0:
            self.last_residual = 0.0
            return rhs / self.mass
        b = rhs / self.mass
        if self.solver.method == "direct":
            x = self._fourier_solve(gamma, b)
        else:
            x = self._gmres(gamma, b)
        dx = self.ldg.apply_flat(x)
        resid = np.linalg.norm(self.mass * (x - gamma * dx) - rhs)
        bound = self.solver.tol * max(1.0, np.linalg.norm(rhs))
        if resid > bound:
            if self.solver.method == "gmres":
                x = self._gmres(gamma, b, tighten=100.0, x0=x)
                dx = self.ldg.apply_flat(x)
                resid = np.linalg.norm(self.mass * (x - gamma * dx) - rhs)
            if resid > bound:
                raise SolverError(
                    f"stage solve residual {resid:.3e} exceeds {bound:.3e}"
                )
        self.last_residual = float(resid)
        self.last_dx = dx
        return x

    def _fourier_solve(self, gamma: float, b: np.ndarray) -> np.ndarray:
        """Exact (I - gamma D)^-1 b, one d x d block per rfftn wavenumber."""
        inv = self._system_inverse(gamma)
        shape = self.mesh.shape[::-1]
        axes = tuple(range(self.ndim))
        bh = np.fft.rfftn(b.reshape(shape + (-1,)), axes=axes)
        xh = (inv @ bh[..., None])[..., 0]
        return np.fft.irfftn(xh, s=shape, axes=axes).ravel()

    def _system_inverse(self, gamma: float) -> np.ndarray:
        key = round(gamma, 15)
        inv = self._system_cache.get(key)
        if inv is None:
            symbol = self.ldg.symbol()
            with np.errstate(all="ignore"):
                system = np.eye(symbol.shape[-1]) - gamma * symbol
                try:
                    inv = np.linalg.inv(system)
                except np.linalg.LinAlgError:
                    inv = None
            if inv is None or not np.isfinite(inv).all():
                raise SolverError(f"I - gamma*D is not invertible at gamma={gamma!r}: first "
                                  f"bad block at wavenumber {_first_bad_block(system)}")
            self._system_cache[key] = inv
        return inv

    def _gmres(self, gamma: float, b: np.ndarray, tighten: float = 1.0, x0=None) -> np.ndarray:
        op = spla.LinearOperator(
            (b.size, b.size),
            matvec=lambda x: self._apply_system(gamma, np.asarray(x, dtype=float)),
            dtype=np.float64,
        )
        rtol = self.solver.tol / tighten
        x, info = spla.gmres(op, b, x0=x0, rtol=rtol, atol=0.25 * rtol * np.linalg.norm(b),
                             restart=GMRES_RESTART, maxiter=GMRES_MAXITER)
        if info > 0:
            resid = np.linalg.norm(self._apply_system(gamma, x) - b)
            raise SolverError(f"GMRES exhausted {info} iterations, residual {resid:.3e}")
        if info < 0:
            raise SolverError("GMRES reported an illegal input or breakdown")
        return x

    # -- stepping -------------------------------------------------------------

    def step(self, u: DGField, dt: float) -> DGField:
        """One DIRK step from u.time to u.time + dt."""
        t = u.time
        if self.velocity.time_dependent:
            self._remap_cache.clear()
        A, c = self.tableau.A, self.tableau.c
        s = self.tableau.stages

        if self.eps == 0.0 and self.source is None:
            load = self._apply_remap(self._remap(t + dt, t), u.coeffs)
            return DGField(self.mesh, self.k, (load / self.mass).reshape(u.coeffs.shape), t + dt)

        # stage_f[j] is stage j's explicit term eps D x_j + g_j (None if neither)
        stage_f: list[np.ndarray | None] = [None] * s
        added = 0.0
        x = u.coeffs.ravel()
        for ii in range(s):
            t_ii = t + c[ii] * dt
            rhs = self._apply_remap(self._remap(t_ii, t), u.coeffs)
            for jj in range(ii):
                if A[ii, jj] != 0.0 and stage_f[jj] is not None:
                    rhs = rhs + A[ii, jj] * dt * self._apply_remap(
                        self._remap(t_ii, t + c[jj] * dt), stage_f[jj]
                    )
            g = None
            if self.source is not None:
                proj = project(lambda *x: self.source(*x, t_ii), self.mesh, self.k)
                added += self.tableau.b[ii] * dt * total_mass(proj)
                g = proj.coeffs.ravel()
                rhs = rhs + A[ii, ii] * dt * (self.mass * g)
            x = self.solve_stage(A[ii, ii] * dt * self.eps, rhs)
            stage_f[ii] = g
            if self.eps != 0.0:
                dx = self.ldg.apply_flat(x) if self.last_dx is None else self.last_dx
                stage_f[ii] = self.eps * dx if g is None else self.eps * dx + g
        self.source_mass += added
        return DGField(self.mesh, self.k, x.reshape(u.coeffs.shape), t + dt)

    def run(self, u0: DGField, T: float, dt: float,
            callback: Callable[[DGField], None] | None = None) -> DGField:
        """March from u0.time to T with fixed dt and a truncated final step."""
        u = u0
        self.source_mass = 0.0
        remaining = T - u.time
        if remaining <= 0.0:
            return u
        nsteps = max(1, math.ceil(remaining / dt - 1e-9))
        for n in range(nsteps):
            step_dt = dt if n < nsteps - 1 else T - u.time
            u = self.step(u, step_dt)
            if callback is not None:
                callback(u)
        return u
