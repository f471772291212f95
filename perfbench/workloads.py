"""The benchmark's workloads: set-up, timed solve and correctness checks.

Every workload is a deterministic analytic problem from the solver's own
registry, driven only through the public API: ``bench.make_problem``,
``Problem.mesh``, ``timeint.Stepper``, ``core.project``, ``Stepper.run``,
``bench.table_norms`` and ``core.total_mass``.  The checks are made from
outside the program, against closed-form solutions, the closed-form mass
budget of the source term, mass conservation, and a fine-mesh reference
solution recomputed by ``reference.py``.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import NamedTuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "sldg" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no solver sources at {ROOT / 'src' / 'sldg'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from sldg.bench import make_problem, table_norms  # noqa: E402
from sldg.core import DGField, project, total_mass  # noqa: E402
from sldg.remap1d import GeometryError  # noqa: E402
from sldg.timeint import LinearSolverConfig, SolverError, Stepper, cfl_to_dt, tableau  # noqa: E402

FAILURES = (SolverError, GeometryError)

REFERENCE_FILE = HERE / "swirl_qc_reference.npz"

# Table 6 of the paper: QC upstream cells, ex35 at 100^2, L1 = 2.48e-7.
# Scaled third-order to a coarser mesh it is the magnitude the swirl-qc
# error must have against the recomputed reference.
TABLE6_QC_L1 = 2.48e-7
TABLE6_N = 100
# Window around that magnitude: wide enough for the pre-asymptotic 40^2
# mesh and for a genuine accuracy gain, narrow enough that a broken remap
# (or a reference that is a copy of the solution) falls outside it.
TABLE6_WINDOW = (0.2, 2.0)


@dataclass(frozen=True)
class Workload:
    """One fixed configuration of a registered problem."""

    name: str
    problem: str
    k: int
    mode: str
    solver: LinearSolverConfig
    n: int
    cfl: float
    eps: float = 1.0
    tab: str = "dirk4"
    # closed-form cases: L1 errors above this fail the run.  Set to twice
    # the error the solver reached when the benchmark was written, so a
    # defect that doubles the error fails while the l1_error metric's own
    # bound catches smaller drifts.
    l1_limit: float | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("swirl-qc", "ex35", 2, "qc", LinearSolverConfig("direct"), 40, 1.0),
        Workload("rotate-direct", "ex34", 2, "quad", LinearSolverConfig("direct"), 60, 10.0,
                 l1_limit=4.0e-6),
        Workload("rotate-gmres", "ex34", 2, "quad", LinearSolverConfig("gmres", 1e-12), 40, 10.0,
                 l1_limit=1.4e-5),
        Workload("line-source", "ex32", 1, "quad", LinearSolverConfig("direct"), 2000, 1.0,
                 l1_limit=2.4e-7),
    )
}


@dataclass
class Case:
    """Everything set-up builds for one solve."""

    workload: Workload
    problem: object
    mesh: object
    stepper: Stepper
    u0: DGField
    dt: float


def setup(w: Workload) -> Case:
    """Problem, mesh, stepper (LDG assembly, mass vector) and initial field."""
    problem = make_problem(w.problem, eps=w.eps)
    mesh = problem.mesh(w.n)
    stepper = Stepper(mesh, w.k, problem.velocity, eps=problem.eps, source=problem.g,
                      tab=w.tab, solver=w.solver, mode=w.mode)
    u0 = project(problem.u0, mesh, w.k)
    return Case(w, problem, mesh, stepper, u0, cfl_to_dt(w.cfl, mesh, problem.velocity))


def solve(case: Case):
    """Run the stepper to T; returns the final field and the step end times."""
    ends: list[float] = []
    uT = case.stepper.run(case.u0, case.problem.T, case.dt,
                          callback=lambda u: ends.append(u.time))
    return uT, ends


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------

def load_reference():
    """The recomputed fine-mesh ex35 QC solution and its settings."""
    with np.load(REFERENCE_FILE, allow_pickle=False) as data:
        meta = {key: data[key].item() for key in data.files if key != "coeffs"}
        coeffs = data["coeffs"]
    if int(meta["n"]) != TABLE6_N:
        raise SystemExit(f"perfbench: {REFERENCE_FILE.name} is at {meta['n']}^2, not the "
                         f"{TABLE6_N}^2 of Table 6; rerun perfbench/reference.py")
    problem = make_problem("ex35", eps=meta["eps"], T=meta["T"])
    return DGField(problem.mesh(int(meta["n"])), int(meta["k"]), coeffs, meta["T"]), meta


def table6_magnitude(n: int) -> float:
    """The paper's QC L1 error at 100^2 scaled third-order to n^2 cells."""
    return TABLE6_QC_L1 * (TABLE6_N / n) ** 3


def rotation_source_budget(eps: float, starts, ends, tab: str = "dirk4") -> float:
    """Mass the ex34 source adds, integrated with the tableau's weights.

    Over the plane the source integrates to -2*eps*pi/sqrt(3)*exp(-2*eps*t)
    (the Gaussian's tails beyond the domain are below 1e-17).  The remap
    and the LDG operator conserve mass, so the discrete mass changes by
    this quadrature of the closed-form source integral, up to the error of
    projecting the source onto the mesh.
    """
    tb = tableau(tab)
    rate = -2.0 * eps * math.pi / math.sqrt(3.0)
    total = 0.0
    for t0, t1 in zip(starts, ends):
        h = t1 - t0
        total += sum(b * h * rate * math.exp(-2.0 * eps * (t0 + c * h)) for b, c in zip(tb.b, tb.c))
    return total


# tolerances of the mass checks (absolute, in units of the field's mass)
ROTATE_BUDGET_TOL = 1e-6      # measured gap 6e-8 at 40^2; exact-vs-DIRK4 gap 1.1e-5
LINE_MASS_TOL = 1e-9          # measured drift 1.1e-11 over 319 steps; |u|_L1 = 4
SWIRL_MASS_RTOL = 1e-12       # measured relative drift ~1e-15


class Check(NamedTuple):
    """One verdict; ``limit`` is the largest value the checked quantity may take."""

    name: str
    passed: bool
    detail: str
    limit: float


def check(case: Case, uT: DGField, ends, reference=None):
    """Run the workload's checks; returns (l1_error, [Check, ...]).

    The l1 check bounds the domain-averaged L1 error and the mass check an
    absolute mass error, each by the ``limit`` it reports.
    """
    w, problem = case.workload, case.problem
    m0, mT = total_mass(case.u0), total_mass(uT)
    results = []
    if problem.exact is not None:
        l1 = table_norms(uT, problem.exact, problem.T, problem.volume)[0]
        results.append(Check("l1", l1 <= w.l1_limit, f"L1 {l1:.3e} <= {w.l1_limit:.1e}",
                             w.l1_limit))
    else:
        ref, _ = reference if reference is not None else load_reference()
        exact = lambda x, y, t: ref.evaluate(x, y)
        l1 = table_norms(uT, exact, problem.T, problem.volume)[0]
        lo, hi = (f * table6_magnitude(w.n) for f in TABLE6_WINDOW)
        results.append(Check("l1", lo <= l1 <= hi,
                             f"L1 vs reference {l1:.3e} in [{lo:.2e}, {hi:.2e}]", hi))

    if w.problem == "ex34":
        starts = [case.u0.time] + list(ends[:-1])
        budget = rotation_source_budget(problem.eps, starts, ends, w.tab)
        gap = abs((mT - m0) - budget)
        results.append(Check("mass", gap <= ROTATE_BUDGET_TOL,
                             f"m(T)-m(0) {mT - m0:.9f} vs source budget {budget:.9f}, "
                             f"gap {gap:.2e}", ROTATE_BUDGET_TOL))
    elif w.problem == "ex32":
        drift = abs(mT - m0)
        results.append(Check("mass", drift <= LINE_MASS_TOL, f"|m(T)-m(0)| {drift:.2e}",
                             LINE_MASS_TOL))
    else:
        drift, tol = abs(mT - m0), SWIRL_MASS_RTOL * abs(m0)
        results.append(Check("mass", drift <= tol, f"|m(T)-m(0)|/m(0) {drift / abs(m0):.2e}",
                             tol))
    return float(l1), [c._replace(passed=bool(c.passed)) for c in results]
