"""Benchmark problems, convergence studies and result emission.

The registry holds the linear convection-diffusion test problems used by the
command-line drivers: constant and variable-coefficient 1D transport,
constant 2D transport, rigid-body rotation with a manufactured Gaussian
source, and the time-reversing swirling deformation of a cosine bell, plus
qualitative variants advecting a slotted disk / cone / hump profile.

Reported error tables follow the convention of the reference results this
suite reproduces: L1 and L2 are averaged over the domain measure (L1 / |O|
and sqrt(L2^2 / |O|)) while Linf is the plain maximum over the error
quadrature nodes.  Convergence orders are log-ratios between consecutive
mesh rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .characteristics import (
    VelocityField,
    constant_1d,
    constant_2d,
    rigid_rotation,
    sine_1d,
    swirling,
)
from .core import DGField, Mesh, norms, project, total_mass
from .ldg import FluxChoice
from .timeint import LinearSolverConfig, Stepper, cfl_to_dt


@dataclass(frozen=True)
class Problem:
    """One benchmark configuration of the convection-diffusion equation."""

    name: str
    ndim: int
    domain: tuple
    velocity: VelocityField
    eps: float
    u0: Callable
    g: Callable | None = None
    exact: Callable | None = None
    T: float = 1.0

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        """(lo, hi) of every axis."""
        return tuple(zip(self.domain[::2], self.domain[1::2]))

    def mesh(self, n: int) -> Mesh:
        return Mesh(self.domain[::2], self.domain[1::2], (n,) * self.ndim)

    @property
    def volume(self) -> float:
        return math.prod(hi - lo for lo, hi in self.bounds)


def _cosine_bell(r0: float, cx: float, cy: float) -> Callable:
    def u0(x, y):
        r = np.sqrt((x - cx) ** 2 + (y - cy) ** 2)
        return np.where(r < r0, r0 * np.cos(np.pi * r / (2.0 * r0)) ** 6, 0.0)

    return u0


def disk_cone_hump(halfwidth: float) -> Callable:
    """Slotted disk, cone and cosine hump scaled to a square of given half width.

    The reference layout lives on a half width of pi; radii and centers scale
    linearly with the domain.
    """
    s = halfwidth / math.pi
    r0 = 0.3 * math.pi * s
    disk_c = (0.0, 0.5 * math.pi * s)
    cone_c = (0.0, -0.5 * math.pi * s)
    hump_c = (0.5 * math.pi * s, 0.0)
    bell = _cosine_bell(r0, *hump_c)

    def u0(x, y):
        rd = np.sqrt((x - disk_c[0]) ** 2 + (y - disk_c[1]) ** 2)
        slot = (np.abs(x - disk_c[0]) < r0 / 6.0) & (y < disk_c[1] + 2.0 * r0 / 3.0)
        disk = np.where((rd < r0) & ~slot, 1.0, 0.0)
        rc = np.sqrt((x - cone_c[0]) ** 2 + (y - cone_c[1]) ** 2)
        cone = np.where(rc < r0, 1.0 - rc / r0, 0.0)
        return disk + cone + bell(x, y) / r0

    return u0


def make_problem(name: str, eps: float | None = None, T: float | None = None) -> Problem:
    """Instantiate a registered problem with its diffusion and final time."""
    if name == "ex31":
        e = 1.0 if eps is None else eps
        return Problem(
            name, 1, (0.0, 2.0 * math.pi), constant_1d(1.0), e,
            u0=np.sin,
            exact=lambda x, t: np.sin(x - t) * np.exp(-e * t),
            T=1.0 if T is None else T,
        )
    if name == "ex32":
        e = 1.0 if eps is None else eps
        return Problem(
            name, 1, (0.0, 2.0 * math.pi), sine_1d(), e,
            u0=np.sin,
            g=lambda x, t: np.sin(2.0 * x) * np.exp(-e * t),
            exact=lambda x, t: np.sin(x) * np.exp(-e * t),
            T=1.0 if T is None else T,
        )
    if name == "ex33":
        e = 1.0 if eps is None else eps
        return Problem(
            name, 2, (0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi), constant_2d(1.0, 1.0), e,
            u0=lambda x, y: np.sin(x + y),
            exact=lambda x, y, t: np.sin(x + y - 2.0 * t) * np.exp(-2.0 * e * t),
            T=1.0 if T is None else T,
        )
    if name == "ex34":
        e = 1.0 if eps is None else eps
        bound = 2.0 * math.pi

        def exact(x, y, t):
            return np.exp(-(x**2 + 3.0 * y**2 + 2.0 * e * t))

        def g(x, y, t):
            return (6.0 * e - 4.0 * x * y - 4.0 * e * (x**2 + 9.0 * y**2)) * exact(x, y, t)

        return Problem(
            name, 2, (-bound, bound, -bound, bound), rigid_rotation(bound, bound), e,
            u0=lambda x, y: exact(x, y, 0.0), g=g, exact=exact,
            T=1.0 if T is None else T,
        )
    if name == "ex35":
        e = 1.0 if eps is None else eps
        Tf = 0.1 if T is None else T
        return Problem(
            name, 2, (-math.pi, math.pi, -math.pi, math.pi), swirling(Tf), e,
            u0=_cosine_bell(0.3 * math.pi, 0.3 * math.pi, 0.0),
            T=Tf,
        )
    if name == "ex34_shapes":
        e = 0.01 if eps is None else eps
        bound = 2.0 * math.pi
        return Problem(
            name, 2, (-bound, bound, -bound, bound), rigid_rotation(bound, bound), e,
            u0=disk_cone_hump(bound), T=1.0 if T is None else T,
        )
    if name == "ex35_shapes":
        e = 0.01 if eps is None else eps
        Tf = 1.5 if T is None else T
        return Problem(
            name, 2, (-math.pi, math.pi, -math.pi, math.pi), swirling(Tf), e,
            u0=disk_cone_hump(math.pi), T=Tf,
        )
    raise ValueError(f"unknown problem {name!r}")


PROBLEMS = ("ex31", "ex32", "ex33", "ex34", "ex35", "ex34_shapes", "ex35_shapes")


# ---------------------------------------------------------------------------
# study drivers
# ---------------------------------------------------------------------------

# a temporal study fits its slopes over this many of the largest CFLs
FIT_POINTS = 4


@dataclass(frozen=True)
class StudyConfig:
    """Parameters of one convergence or qualitative study."""

    problem: str
    k: int = 2
    tableau: str = "dirk4"
    meshes: tuple = (10, 20, 40, 80, 160)
    cfl: float | tuple = 1.0
    eps: float | None = None
    flux: str = "uminus_qplus"
    mode: str = "quad"
    solver: LinearSolverConfig = field(default_factory=LinearSolverConfig)
    T: float | None = None
    reference: int | None = None      # spatial: fine-mesh reference resolution
    cfl_ref: float | None = None      # temporal: self-reference CFL
    dt_dx: float | None = None        # time step as a multiple of dx (overrides cfl)
    out: str | None = None
    plot_points: int = 100
    cuts: tuple = ()

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.meshes, self.meshes[1:])):
            raise ValueError("mesh list must be strictly increasing")


@dataclass
class ResultRow:
    """One line of a convergence table (orders blank on the first row)."""

    label: str
    n: float
    l1: float
    l2: float
    linf: float
    l1_order: float | None = None
    l2_order: float | None = None
    linf_order: float | None = None
    seconds: float = 0.0
    mass_defect: float = 0.0    # |m(T) - m(0) - source mass|


@dataclass
class StudyResult:
    config: StudyConfig
    rows: list
    slopes: dict | None = None
    files: list | None = None
    field: DGField | None = None
    masses: list | None = None


def table_norms(field: DGField, exact: Callable, t: float, volume: float):
    """Domain-averaged L1/L2 and plain Linf, the convention of the tables."""
    l1, l2, linf = norms(field, exact, t)
    return l1 / volume, l2 / math.sqrt(volume), linf


def order_between(e_prev: float, e_cur: float, n_prev: float, n_cur: float) -> float:
    """Convergence order from two (mesh, error) pairs."""
    return math.log(e_prev / e_cur) / math.log(n_cur / n_prev)


def fit_slope(xs, es) -> float:
    """Least-squares slope of log(error) against log(x)."""
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(es, float)), 1)[0])


def _stepper(problem: Problem, mesh, cfg: StudyConfig) -> Stepper:
    return Stepper(
        mesh, cfg.k, problem.velocity, eps=problem.eps, source=problem.g,
        tab=cfg.tableau, solver=cfg.solver, flux=FluxChoice(cfg.flux, cfg.flux),
        mode=cfg.mode,
    )


def _time_step(problem: Problem, mesh, cfg: StudyConfig, cfl: float) -> float:
    if cfg.dt_dx is not None:
        return cfg.dt_dx * mesh.dx
    return cfl_to_dt(cfl, mesh, problem.velocity)


def _mass_defect(stepper: Stepper, u0: DGField, u: DGField) -> float:
    """Mass change not accounted for by the source term."""
    return abs(total_mass(u) - total_mass(u0) - stepper.source_mass)


def _run_single(problem: Problem, cfg: StudyConfig, n: int, cfl: float,
                snap_dt: bool = False):
    mesh = problem.mesh(n)
    stepper = _stepper(problem, mesh, cfg)
    dt = _time_step(problem, mesh, cfg, cfl)
    if snap_dt:
        # temporal-order measurement: make dt divide T exactly, so the
        # truncated final step cannot distort the step-size scaling
        dt = problem.T / max(1, round(problem.T / dt))
    u0 = project(problem.u0, mesh, cfg.k)
    t0 = time.perf_counter()
    uT = stepper.run(u0, problem.T, dt)
    seconds = time.perf_counter() - t0
    return uT, seconds, _mass_defect(stepper, u0, uT), dt


def _reference_exact(problem: Problem, cfg: StudyConfig, n: int, cfl: float) -> Callable:
    """Errors against a reference run when no closed form is available."""
    ref_field = _run_single(problem, cfg, n, cfl)[0]
    return lambda *xt: ref_field.evaluate(*xt[:-1])


def _first_cfl(cfg: StudyConfig):
    return cfg.cfl[0] if isinstance(cfg.cfl, tuple) else cfg.cfl


def run_spatial_study(cfg: StudyConfig) -> StudyResult:
    """Errors and orders over a refined sequence of meshes at fixed CFL."""
    problem = make_problem(cfg.problem, cfg.eps, cfg.T)
    if problem.exact is not None:
        exact = problem.exact
    elif cfg.reference is not None:
        exact = _reference_exact(problem, cfg, cfg.reference, _first_cfl(cfg))
    else:
        raise ValueError("spatial study needs an exact solution or a reference mesh")
    cfl = _first_cfl(cfg)

    def one(n):
        uT, seconds, defect, _ = _run_single(problem, cfg, n, cfl)
        l1, l2, linf = table_norms(uT, exact, problem.T, problem.volume)
        label = f"{n}^2" if problem.ndim == 2 else str(n)
        return ResultRow(label, n, l1, l2, linf, seconds=seconds, mass_defect=defect)

    rows = [one(n) for n in cfg.meshes]
    for prev, cur in zip(rows, rows[1:]):
        cur.l1_order = order_between(prev.l1, cur.l1, prev.n, cur.n)
        cur.l2_order = order_between(prev.l2, cur.l2, prev.n, cur.n)
        cur.linf_order = order_between(prev.linf, cur.linf, prev.n, cur.n)
    result = StudyResult(cfg, rows)
    if cfg.out:
        result.files = emit_spatial(result, Path(cfg.out))
    return result


def run_temporal_study(cfg: StudyConfig) -> StudyResult:
    """Errors against the CFL number on one mesh, with fitted slopes."""
    problem = make_problem(cfg.problem, cfg.eps, cfg.T)
    if not isinstance(cfg.cfl, tuple):
        raise ValueError("temporal study needs a tuple of CFL values")
    n = cfg.meshes[-1]
    if problem.exact is not None:
        exact = problem.exact
    elif cfg.cfl_ref is not None:
        exact = _reference_exact(problem, cfg, n, cfg.cfl_ref)
    else:
        raise ValueError("temporal study needs an exact solution or cfl_ref")

    rows = []
    eff_dt = {}
    for cfl in cfg.cfl:
        uT, seconds, defect, dt = _run_single(problem, cfg, n, cfl, snap_dt=True)
        l1, l2, linf = table_norms(uT, exact, problem.T, problem.volume)
        rows.append(ResultRow(f"{cfl:g}", cfl, l1, l2, linf, seconds=seconds, mass_defect=defect))
        eff_dt[cfl] = dt
    fit = sorted(rows, key=lambda r: r.n)[-FIT_POINTS:]
    slopes = {
        "l1": fit_slope([eff_dt[r.n] for r in fit], [r.l1 for r in fit]),
        "l2": fit_slope([eff_dt[r.n] for r in fit], [r.l2 for r in fit]),
    }
    result = StudyResult(cfg, rows, slopes=slopes)
    if cfg.out:
        result.files = emit_temporal(result, Path(cfg.out))
    return result


def run_qualitative(cfg: StudyConfig) -> StudyResult:
    """Advance one configuration and dump plot-ready samples and mass history."""
    problem = make_problem(cfg.problem, cfg.eps, cfg.T)
    n = cfg.meshes[-1]
    mesh = problem.mesh(n)
    stepper = _stepper(problem, mesh, cfg)
    dt = _time_step(problem, mesh, cfg, _first_cfl(cfg))
    u0 = project(problem.u0, mesh, cfg.k)
    masses = [(0.0, total_mass(u0))]
    defects = [0.0]

    def record(u):
        masses.append((u.time, total_mass(u)))
        defects.append(_mass_defect(stepper, u0, u))

    t0 = time.perf_counter()
    uT = stepper.run(u0, problem.T, dt, callback=record)
    seconds = time.perf_counter() - t0
    rows = [ResultRow(str(n), n, 0.0, 0.0, 0.0, seconds=seconds, mass_defect=max(defects))]
    result = StudyResult(cfg, rows)
    if cfg.out:
        result.files = emit_qualitative(result, uT, masses, Path(cfg.out))
    result.field = uT
    result.masses = masses
    return result


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.6e}"


def _fmt_order(v: float | None) -> str:
    return "" if v is None else f"{v:.2f}"


def emit_spatial(result: StudyResult, out: Path) -> list:
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    stem = f"spatial_{cfg.problem}_k{cfg.k}_{cfg.tableau}_{cfg.mode}"
    csv = out / f"{stem}.csv"
    lines = ["mesh,L1,L1_order,L2,L2_order,Linf,Linf_order,seconds"]
    for r in result.rows:
        lines.append(
            f"{r.label},{_fmt(r.l1)},{_fmt_order(r.l1_order)},{_fmt(r.l2)},"
            f"{_fmt_order(r.l2_order)},{_fmt(r.linf)},{_fmt_order(r.linf_order)},{r.seconds:.3f}"
        )
    csv.write_text("\n".join(lines) + "\n")
    plot = out / f"{stem}.gp"
    plot.write_text(
        "set datafile separator ','\n"
        "set logscale xy\n"
        "set key left bottom\n"
        f"set title 'spatial convergence: {cfg.problem} k={cfg.k}'\n"
        "set xlabel 'cells per direction'\n"
        "set ylabel 'error'\n"
        f"plot '{csv.name}' using 1:2 with linespoints title 'L1', \\\n"
        f"     '{csv.name}' using 1:4 with linespoints title 'L2', \\\n"
        f"     '{csv.name}' using 1:6 with linespoints title 'Linf'\n"
    )
    return [csv, plot]


def emit_temporal(result: StudyResult, out: Path) -> list:
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    stem = f"temporal_{cfg.problem}_k{cfg.k}_{cfg.tableau}"
    csv = out / f"{stem}.csv"
    lines = ["cfl,L1,L2,Linf,seconds"]
    for r in result.rows:
        lines.append(f"{r.label},{_fmt(r.l1)},{_fmt(r.l2)},{_fmt(r.linf)},{r.seconds:.3f}")
    csv.write_text("\n".join(lines) + "\n")
    plot = out / f"{stem}.gp"
    slope = result.slopes["l1"] if result.slopes else 0.0
    plot.write_text(
        "set datafile separator ','\n"
        "set logscale xy\n"
        f"set title 'temporal convergence: {cfg.problem} {cfg.tableau} (fitted L1 slope {slope:.2f})'\n"
        "set xlabel 'CFL'\n"
        "set ylabel 'error'\n"
        f"plot '{csv.name}' using 1:2 with linespoints title 'L1'\n"
    )
    return [csv, plot]


def emit_qualitative(result: StudyResult, field: DGField, masses, out: Path) -> list:
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    stem = f"qualitative_{cfg.problem}_k{cfg.k}_{cfg.mode}"
    mesh = field.mesh
    npts = cfg.plot_points
    mass_csv = out / f"{stem}_mass.csv"
    mass_csv.write_text(
        "\n".join(["t,mass"] + [f"{t:.8e},{m:.16e}" for t, m in masses]) + "\n"
    )
    snap = out / f"{stem}_snapshot.csv"
    if mesh.ndim == 1:
        xs = np.linspace(mesh.lower[0], mesh.upper[0], 4 * npts, endpoint=False)
        vals = field.evaluate(xs)
        snap.write_text(
            "\n".join(["x,u"] + [f"{p:.8e},{v:.8e}" for p, v in zip(xs, vals)]) + "\n"
        )
        return [snap, mass_csv]
    X, Y = np.meshgrid(*(np.linspace(lo, hi, npts, endpoint=False)
                         for lo, hi in zip(mesh.lower, mesh.upper)), indexing="ij")
    U = field.evaluate(X, Y)
    rows = ["x,y,u"]
    for i in range(npts):
        for j in range(npts):
            rows.append(f"{X[i, j]:.8e},{Y[i, j]:.8e},{U[i, j]:.8e}")
    snap.write_text("\n".join(rows) + "\n")
    files = [snap]

    for axis, value in cfg.cuts:
        cut = out / f"{stem}_cut_{axis}_{value:g}.csv"
        along = 1 if axis == "x" else 0     # a cut at x = value runs along y
        ts = np.linspace(mesh.lower[along], mesh.upper[along], 4 * npts, endpoint=False)
        pts = [np.full_like(ts, value), np.full_like(ts, value)]
        pts[along] = ts
        vals = field.evaluate(*pts)
        lines = [f"{'xy'[along]},u"] + [f"{p:.8e},{v:.8e}" for p, v in zip(ts, vals)]
        cut.write_text("\n".join(lines) + "\n")
        files.append(cut)

    plot = out / f"{stem}.gp"
    plot.write_text(
        "set datafile separator ','\n"
        f"set title 'snapshot: {cfg.problem} k={cfg.k}'\n"
        "set view map\n"
        f"splot '{snap.name}' using 1:2:3 with points palette pointtype 5 pointsize 0.4\n"
    )
    return files + [mass_csv, plot]
