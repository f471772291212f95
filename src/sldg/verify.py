"""Property suites: fast numerical checks of the solver's structural invariants.

Each check returns (name, passed, detail).  ``run_all`` prints one line per
check and is wired to the ``verify`` CLI subcommand; the whole suite runs in
well under a minute on small meshes.
"""

from __future__ import annotations

import math

import numpy as np

from .characteristics import constant_1d, constant_2d, rigid_rotation, sine_1d, swirling, trace_back
from .core import Basis, Mesh1D, Mesh2D, QuadratureRule, gauss_rule, mass_vector, project
from .ldg import FluxChoice, assemble_ldg_1d, assemble_ldg_2d, dissipativity_check
from .remap1d import assemble_remap_1d, build_upstream_1d, split_subintervals
from .remap2d import build_upstream_2d, clip_upstream, region_area
from .remap2d_matrix import assemble_remap_2d
from .timeint import tableau


def sutherland_hodgman(poly: np.ndarray, rect: tuple) -> np.ndarray:
    """Clip a polygon against an axis-aligned rectangle (independent oracle)."""
    x0, x1, y0, y1 = rect
    half_planes = [
        (lambda p: p[0] >= x0, lambda a, b: _cut(a, b, 0, x0)),
        (lambda p: p[0] <= x1, lambda a, b: _cut(a, b, 0, x1)),
        (lambda p: p[1] >= y0, lambda a, b: _cut(a, b, 1, y0)),
        (lambda p: p[1] <= y1, lambda a, b: _cut(a, b, 1, y1)),
    ]
    pts = [tuple(p) for p in poly]
    for inside, cut in half_planes:
        if not pts:
            return np.zeros((0, 2))
        out = []
        for a, b in zip(pts, pts[1:] + pts[:1]):
            ain, bin_ = inside(a), inside(b)
            if ain:
                out.append(a)
                if not bin_:
                    out.append(cut(a, b))
            elif bin_:
                out.append(cut(a, b))
        pts = out
    return np.array(pts) if pts else np.zeros((0, 2))


def _cut(a, b, axis: int, level: float):
    t = (level - a[axis]) / (b[axis] - a[axis])
    p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
    return (level, p[1]) if axis == 0 else (p[0], level)


def shoelace(poly: np.ndarray) -> float:
    if len(poly) < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def check_basis_orthogonality() -> tuple:
    worst = 0.0
    for k in (0, 1, 2):
        for ndim in (1, 2):
            rule = QuadratureRule.gauss(k + 2, ndim)
            phi = Basis(k, ndim).eval(*rule.nodes.T)
            gram = np.einsum("q,qm,ql->ml", rule.weights, phi, phi)
            off = gram - np.diag(np.diag(gram))
            worst = max(worst, np.max(np.abs(off)) / np.min(np.diag(gram)))
    return "basis orthogonality", worst < 1e-14, f"max off-diagonal {worst:.2e}"


def check_gauss_exactness() -> tuple:
    worst = 0.0
    for n in range(1, 8):
        nodes, weights = gauss_rule(n)
        # integrate t^(2n-1) over [0,1] by mapping the reference rule
        t = nodes + 0.5
        approx = float(np.sum(weights * t ** (2 * n - 1)))
        exact = 1.0 / (2.0 * n)
        worst = max(worst, abs(approx - exact) / exact)
    return "gauss exactness", worst < 1e-14, f"max relative error {worst:.2e}"


def check_rk4_order() -> tuple:
    v = sine_1d()
    exact = 2.0 * math.atan(math.exp(-1.0) * math.tan(math.pi / 4.0))
    errs = []
    for substeps in (4, 8, 16):
        x = trace_back(np.array([math.pi / 2.0]), 1.0, 0.0, v, substeps)
        errs.append(abs(float(x[0]) - exact))
    ratios = [errs[i] / errs[i + 1] for i in range(2)]
    ok = all(8.0 <= r <= 32.0 for r in ratios)
    return "rk4 tracer 4th order", ok, f"refinement ratios {ratios[0]:.1f}, {ratios[1]:.1f}"


def check_remap1d_tiling() -> tuple:
    mesh = Mesh1D(0.0, 2.0 * math.pi, 16)
    v = sine_1d()
    cover = np.zeros(mesh.n)
    worst_local = 0.0
    for j in range(mesh.n):
        up = build_upstream_1d(mesh, j, 0.4, 0.0, v, 2)
        subs = split_subintervals(up, mesh)
        total = sum(s.hi - s.lo for s in subs)
        worst_local = max(worst_local, abs(total - (up.hi - up.lo)))
        for s in subs:
            cover[s.cell] += s.hi - s.lo
    worst_global = float(np.max(np.abs(cover - mesh.dx)))
    ok = worst_local < 1e-12 and worst_global < 1e-12
    return "1d remap tiling", ok, f"local {worst_local:.2e}, cover {worst_global:.2e}"


def check_remap1d_translation() -> tuple:
    mesh = Mesh1D(0.0, 2.0 * math.pi, 16)
    k = 2
    rng = np.random.default_rng(42)
    u = project(np.sin, mesh, k)
    u.coeffs += 0.3 * rng.standard_normal(u.coeffs.shape)
    shift = 0.37
    R = assemble_remap_1d(mesh, k, shift, 0.0, constant_1d(1.0))
    got = (R @ u.coeffs.ravel()) / mass_vector(mesh, k)
    ref = _project_translate_1d(u, shift).ravel()
    err = float(np.max(np.abs(got - ref)))
    return "1d remap translation exactness", err < 1e-11, f"coefficient error {err:.2e}"


def _project_translate_1d(u, shift: float) -> np.ndarray:
    """Exact projection of the periodic translate, split at the breakpoints."""
    mesh, k = u.mesh, u.k
    basis = Basis(k, 1)
    nodes, weights = gauss_rule(k + 2)
    off = np.mod(shift / mesh.dx, 1.0)
    coeffs = np.zeros((mesh.n, k + 1))
    for j in range(mesh.n):
        a = mesh.x_a + j * mesh.dx
        pieces = [(a, a + off * mesh.dx), (a + off * mesh.dx, a + mesh.dx)]
        for lo, hi in pieces:
            if hi - lo <= 0:
                continue
            x = 0.5 * (lo + hi) + (hi - lo) * nodes
            xi = (x - a) / mesh.dx - 0.5
            coeffs[j] += (hi - lo) * np.einsum(
                "q,q,qd->d", weights, u.evaluate(x - shift), basis.eval(xi)
            )
    return coeffs / (basis.mass_diag()[None, :] * mesh.dx)


def check_remap2d_translation() -> tuple:
    mesh = Mesh2D(0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi, 8, 8)
    k = 1
    rng = np.random.default_rng(3)
    u = project(lambda x, y: np.sin(x) * np.cos(y), mesh, k)
    u.coeffs += 0.3 * rng.standard_normal(u.coeffs.shape)
    # whole-cell shifts make the translated field a coefficient rotation
    sx, sy = 3 * mesh.dx, 2 * mesh.dy
    R = assemble_remap_2d(mesh, k, 1.0, 0.0, constant_2d(sx, sy), "quad")
    got = ((R @ u.coeffs.ravel()) / mass_vector(mesh, k)).reshape(u.coeffs.shape)
    ix = np.tile(np.arange(mesh.nx), mesh.ny)
    iy = np.repeat(np.arange(mesh.ny), mesh.nx)
    src = mesh.cell_index(ix - 3, iy - 2)
    err = float(np.max(np.abs(got - u.coeffs[src])))
    return "2d remap translation exactness", err < 1e-11, f"coefficient error {err:.2e}"


def check_remap2d_tiling() -> tuple:
    mesh = Mesh2D(-math.pi, math.pi, -math.pi, math.pi, 6, 6)
    v = swirling(1.5)
    worst = 0.0
    for mode in ("quad", "qc"):
        cover = np.zeros(mesh.ncells)
        for j in range(mesh.ncells):
            up = build_upstream_2d(mesh, j, 0.3, 0.0, v, 2, mode)
            for r in clip_upstream(up, mesh):
                cover[r.cell] += region_area(r)
        worst = max(worst, float(np.max(np.abs(cover - mesh.dx * mesh.dy))))
    return "2d remap tiling", worst < 1e-10, f"cover defect {worst:.2e}"


def check_green_vs_clipping() -> tuple:
    mesh = Mesh2D(-2.0 * math.pi, 2.0 * math.pi, -2.0 * math.pi, 2.0 * math.pi, 8, 8)
    v = rigid_rotation()
    worst = 0.0
    for j in (9, 27, 44, 61):
        up = build_upstream_2d(mesh, j, 0.25, 0.0, v, 1, "quad")
        corners = up.feet[:4]
        for r in clip_upstream(up, mesh):
            rect = (
                mesh.x_a + r.ix * mesh.dx, mesh.x_a + (r.ix + 1) * mesh.dx,
                mesh.y_a + r.iy * mesh.dy, mesh.y_a + (r.iy + 1) * mesh.dy,
            )
            oracle = shoelace(sutherland_hodgman(corners, rect))
            worst = max(worst, abs(region_area(r) - oracle))
    return "green area vs polygon clipping", worst < 1e-11, f"max difference {worst:.2e}"


def check_ldg_energy() -> tuple:
    rng = np.random.default_rng(11)
    worst = 0.0
    mesh = Mesh1D(0.0, 2.0 * math.pi, 16)
    for k in (0, 1, 2):
        op = assemble_ldg_1d(mesh, k, FluxChoice())
        u = rng.standard_normal(mesh.n * (k + 1))
        s, qsq = dissipativity_check(op, u)
        worst = max(worst, abs(s + qsq) / qsq)
        if s > 0:
            return "ldg energy identity", False, f"positive production {s:.2e}"
    mesh2 = Mesh2D(0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi, 6, 5)
    op2 = assemble_ldg_2d(mesh2, 2)
    u2 = rng.standard_normal(mesh2.ncells * 6)
    s2, qsq2 = dissipativity_check(op2, u2)
    worst = max(worst, abs(s2 + qsq2) / qsq2)
    ok = worst < 1e-11 and s2 <= 0
    return "ldg energy identity", ok, f"relative defect {worst:.2e}"


def check_tableaus() -> tuple:
    try:
        for name in ("be", "dirk2", "dirk3", "dirk4"):
            tableau(name).validate(1e-14)
    except ValueError as exc:
        return "tableau invariants", False, str(exc)
    return "tableau invariants", True, "be/dirk2/dirk3/dirk4 valid to 1e-14"


ALL_CHECKS = (
    check_basis_orthogonality,
    check_gauss_exactness,
    check_rk4_order,
    check_remap1d_tiling,
    check_remap1d_translation,
    check_remap2d_translation,
    check_remap2d_tiling,
    check_green_vs_clipping,
    check_ldg_energy,
    check_tableaus,
)


def run_all(verbose: bool = True) -> bool:
    ok = True
    for check in ALL_CHECKS:
        name, passed, detail = check()
        ok = ok and passed
        if verbose:
            print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    return ok
