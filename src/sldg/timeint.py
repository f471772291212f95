"""Diagonally implicit Runge-Kutta stepping along characteristics.

Every stage solves a backward-Euler-like system: the new stage coefficients
are determined by the remapped old solution plus time-weighted remaps of the
diffusion and source fields of the earlier stages, with the implicit
diffusion contribution of the current stage on the left-hand side.  Because
the tableaus are stiffly accurate, the final stage is the step solution.

Each stage remaps from the step start and from the earlier stage times,
one sparse remap operator per ordered pair of times.  With a time-dependent
velocity every pair is used once, so its operator is assembled, applied and
dropped, and at most one is alive at a time; otherwise an operator depends
only on its duration and is cached for as long as the step size does not
change.

The stage systems ``(I - gamma D) x = b`` are solved either iteratively
or, with the ``direct`` solver, exactly: on the uniform periodic mesh
``I - gamma D`` is block-circulant, so ``rfftn`` over the cells splits it
into one d x d block per wavenumber.  The block inverses are computed on
the first direct solve for each distinct diagonal coefficient and cached;
a solve is then a forward transform, a batched block product and an
inverse transform.

The iterative solver is the paper's unpreconditioned GMRES, run in the mass
inner product.  ``M D`` is symmetric (``ldg.dissipativity_check`` states
``(D u, u)_M = -|q|^2``), so ``I - gamma D`` is self-adjoint in that inner
product, GMRES's Hessenberg matrix is tridiagonal and GMRES becomes MINRES
(Paige & Saunders, SIAM J. Numer. Anal. 12:617, 1975): it minimizes the
residual's mass norm over the same Krylov space, with a three-term
recurrence instead of orthogonalization against every earlier basis vector.
The Euclidean residual still decides when a solve is done.  ``minres`` is
this module's own; the tests compare its iterates with
``scipy.sparse.linalg.minres`` on the symmetrized system.

``ldg.LDGOperator`` applies D as a block stencil.  The Krylov products use
its CSR matrix ``op``, built on the first iterative solve (the direct solver
never builds it).  The residual check and the D x that feeds later stages run
the stencil (``apply_flat``), which keeps constants in the nullspace to
rounding: D x carries no mass, whichever product the recurrence ran on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .characteristics import VelocityField
from .core import DGField, mass_vector, project, total_mass
from .ldg import FluxChoice, LDGOperator, assemble_ldg_1d, assemble_ldg_2d
from .remap1d import assemble_remap_1d
from .remap2d_matrix import assemble_remap_2d


def __getattr__(name: str):
    # perfbench/tracing.py reads and replaces ``spla``, so it loads on first
    # use; ROADMAP item 1 deletes this hook together with the tracer's proxy
    if name != "spla":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import scipy.sparse.linalg
    return scipy.sparse.linalg


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


# iterations, over all passes, before a stage solve fails; the benchmark's
# stages take about 145, and a hopeless stage gives up within seconds
MINRES_MAXITER = 6000


@dataclass(frozen=True)
class LinearSolverConfig:
    """Stage-system solver selection.

    ``gmres`` is the paper's solver, unpreconditioned GMRES with relative
    threshold ``tol``.  The stage operator is self-adjoint in the mass inner
    product, where GMRES reduces to MINRES, so it runs as this module's
    ``minres``, which gives up after ``MINRES_MAXITER`` iterations.
    ``direct`` is the exact block-diagonal Fourier solve of the periodic
    system.  Both must meet ``tol`` on the residual, so ``tol`` must be
    positive and finite.
    """

    method: str = "gmres"
    tol: float = 1e-12

    def __post_init__(self):
        if self.method not in ("gmres", "direct"):
            raise ValueError("solver method must be 'gmres' or 'direct'")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"solver tolerance must be positive and finite, got {self.tol!r}")


def minres(matvec: Callable[[np.ndarray], np.ndarray], w: np.ndarray, b: np.ndarray,
           x0: np.ndarray | None, rtol: float, maxiter: int) -> tuple[np.ndarray, int, bool]:
    """MINRES for A x = b, with A given by ``matvec`` and self-adjoint in the
    inner product ``<u, v> = u @ (w * v)`` for positive weights ``w``.

    Returns x, the number of Lanczos iterations and whether the true
    residual meets ``|b - A x| <= rtol |b|`` in the Euclidean norm.  A pass
    runs the Lanczos recurrence from the current residual and updates x by
    Givens rotations of the tridiagonal (Paige & Saunders 1975, in the form
    of Elman, Silvester & Wathen's Algorithm 2.4).  It ends when the
    recurrence's estimate of the residual's w-norm meets an inner threshold
    (``rtol`` times the w-norm of b at first); an exact breakdown makes that
    estimate zero.  The true residual then decides; if it falls short, the
    threshold shrinks by the factor it missed by and a new pass starts from
    x.  ``maxiter`` caps the iterations of all passes together, and a
    singular tridiagonal on a closed Krylov space ends the solve.  A zero b
    gives x = 0 without iterating.

    Each iteration updates its vectors in place, the axpys by level-1 BLAS,
    so ``matvec`` must return a new float64 array, which becomes the next
    Lanczos vector.
    """
    from scipy.linalg.blas import daxpy, dscal   # so only the Krylov path loads scipy.linalg
    n = b.size
    bnrm = float(np.linalg.norm(b))
    if bnrm == 0.0:
        return np.zeros(n), 0, True
    atol = rtol * bnrm
    x = np.zeros(n) if x0 is None else np.array(x0, dtype=float)
    r = b - matvec(x) if x.any() else b.copy()
    rnorm = float(np.linalg.norm(r))
    ptol = rtol * math.sqrt(b @ (w * b))
    its = 0
    while rnorm > atol and its < maxiter:
        wv = w * r
        eta = math.sqrt(r @ wv)       # the residual's w-norm, estimated, up to sign
        v, beta = r, 0.0
        v /= eta
        wv /= eta
        v_old, d_old, d = np.zeros(n), np.zeros(n), np.zeros(n)
        c_old, s_old, c, s = 1.0, 0.0, 1.0, 0.0
        while its < maxiter:
            p = matvec(v)
            alpha = float(wv @ p)
            p = daxpy(v, p, a=-alpha)
            p = daxpy(v_old, p, a=-beta)
            wp = np.multiply(w, p, out=wv)
            beta_next = math.sqrt(p @ wp)
            # rotate the new column (beta, alpha, beta_next) of the tridiagonal
            a0 = c * alpha - c_old * s * beta
            a1 = math.hypot(a0, beta_next)
            a2 = s * alpha + c_old * c * beta
            a3 = s_old * beta
            its += 1
            if a1 == 0.0:       # singular on a closed Krylov space: no pass gets further
                return x, its, float(np.linalg.norm(b - matvec(x))) <= atol
            c_old, s_old, c, s = c, s, a0 / a1, beta_next / a1
            # d_new = (v - a3 d_old - a2 d) / a1, written over d_old
            d_new = dscal(-a3, d_old)
            d_new = daxpy(v, d_new)
            d_new = daxpy(d, d_new, a=-a2)
            d_old, d = d, dscal(1.0 / a1, d_new)
            x = daxpy(d, x, a=c * eta)
            eta *= -s
            if abs(eta) <= ptol:
                break
            v_old, v, wv, beta = v, p, wp, beta_next
            v /= beta_next
            wv /= beta_next
        r = b - matvec(x)
        rnorm = float(np.linalg.norm(r))
        ptol *= atol / max(rnorm, atol)
    return x, its, rnorm <= atol


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

    Holds the diffusion operator's stencil blocks, the remap matrices of a
    time-independent velocity (kept for as long as ``dt`` does not change;
    a time-dependent velocity's are never reused, so none is kept) and,
    for the direct solver, the Fourier block inverses of the implicit
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
        if mode not in ("quad", "qc"):
            raise ValueError(f"upstream cell mode must be 'quad' or 'qc', got {mode!r}")
        self.mode = mode
        self.mass = mass_vector(mesh, k)
        self.ldg: LDGOperator = (assemble_ldg_1d, assemble_ldg_2d)[self.ndim - 1](mesh, k, flux)
        self._remap_cache: dict = {}
        self._remap_dt = None
        self._system_cache: dict = {}
        self.last_residual = 0.0
        self.last_iterations = 0
        self.last_dx = None
        self.source_mass = 0.0

    # -- remap operators ----------------------------------------------------

    def _remap(self, t_hi: float, t_lo: float):
        """Sparse remap operator for the pair (t_hi -> t_lo).

        A time-dependent velocity's operator is returned uncached: its pair
        of times recurs in no other product.  Otherwise the operator depends
        on the duration alone and is cached by it.
        """
        # looked up on each call: perfbench/tracing.py replaces these module names
        assemble = (assemble_remap_1d, partial(assemble_remap_2d, mode=self.mode))[self.ndim - 1]
        if self.velocity.time_dependent:
            return assemble(self.mesh, self.k, t_hi, t_lo, self.velocity)
        # a key from a Python float: round() on an np.float64 is several times slower
        key = round(float(t_hi - t_lo), 12)
        R = self._remap_cache.get(key)
        if R is None:
            R = self._remap_cache[key] = assemble(self.mesh, self.k, t_hi, t_lo, self.velocity)
        return R

    # -- implicit stage systems ----------------------------------------------

    def _apply_system(self, gamma: float, x: np.ndarray) -> np.ndarray:
        """(I - gamma D) x through the pre-multiplied ``ldg.op``, one sparse product.

        This is MINRES's matvec.  ``op`` moves constants out of the nullspace
        by rounding, which costs the Krylov recurrence nothing; the residual
        check and D x in ``solve_stage`` use the stencil sweeps.
        """
        y = self.ldg.op @ x
        y *= -gamma
        y += x
        return y

    def solve_stage(self, gamma: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (M - gamma * M D) x = rhs to the configured residual.

        ``last_dx`` keeps D x from the residual check (None when gamma is
        0 and no residual is formed), so callers need not apply D again.
        ``last_residual`` is that residual's norm and ``last_iterations``
        the number of MINRES iterations the solve took, the retry at a
        tighter threshold included (0 for ``direct`` and for gamma = 0).
        """
        self.last_dx = None
        if gamma == 0.0:
            self.last_residual = 0.0
            self.last_iterations = 0
            return rhs / self.mass
        b = rhs / self.mass
        its = 0
        if self.solver.method == "direct":
            x = self._fourier_solve(gamma, b)
        else:
            x, its = self._minres(gamma, b)
        dx = self.ldg.apply_flat(x)
        resid = np.linalg.norm(self.mass * (x - gamma * dx) - rhs)
        bound = self.solver.tol * max(1.0, np.linalg.norm(rhs))
        if resid > bound:
            if self.solver.method == "gmres":
                x, more = self._minres(gamma, b, tighten=100.0, x0=x)
                its += more
                dx = self.ldg.apply_flat(x)
                resid = np.linalg.norm(self.mass * (x - gamma * dx) - rhs)
            if resid > bound:
                raise SolverError(
                    f"stage solve residual {resid:.3e} exceeds {bound:.3e}"
                )
        self.last_residual = float(resid)
        self.last_iterations = its
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
        key = round(float(gamma), 15)
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

    def _minres(self, gamma: float, b: np.ndarray, tighten: float = 1.0,
                x0=None) -> tuple[np.ndarray, int]:
        """Solve (I - gamma D) x = b by ``minres`` in the mass inner product,
        from x0 to the relative tolerance ``solver.tol / tighten``; returns x
        and the iteration count."""
        x, its, converged = minres(partial(self._apply_system, gamma), self.mass, b, x0,
                                   self.solver.tol / tighten, MINRES_MAXITER)
        if not converged:
            resid = np.linalg.norm(self._apply_system(gamma, x) - b)
            raise SolverError(f"MINRES did not converge in {MINRES_MAXITER} iterations at "
                              f"gamma={float(gamma)!r}, residual {resid:.3e}")
        return x, its

    # -- stepping -------------------------------------------------------------

    def step(self, u: DGField, dt: float) -> DGField:
        """One DIRK step from u.time to u.time + dt."""
        t = u.time
        A, c = self.tableau.A, self.tableau.c
        s = self.tableau.stages
        # pure transport: no stage feeds a later one, so only the last stage counts
        explicit = self.eps != 0.0 or self.source is not None
        stages = range(0 if explicit else s - 1, s)
        # the cached durations are fractions of one dt: drop them when it changes
        dt_key = round(float(dt), 12)
        if dt_key != self._remap_dt:
            self._remap_cache.clear()
            self._remap_dt = dt_key

        # stage_f[j] is stage j's explicit term eps D x_j + g_j (None if neither)
        stage_f: list[np.ndarray | None] = [None] * s
        added = 0.0
        x = u.coeffs.ravel()
        for ii in stages:
            t_ii = t + c[ii] * dt
            rhs = self._remap(t_ii, t) @ u.coeffs.ravel()
            for jj in range(ii):
                if A[ii, jj] != 0.0 and stage_f[jj] is not None:
                    rhs = rhs + A[ii, jj] * dt * (self._remap(t_ii, t + c[jj] * dt) @ stage_f[jj])
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
