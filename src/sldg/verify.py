"""Property suites: fast numerical checks of the solver's structural invariants.

Each check returns (name, passed, detail).  ``run_all`` prints one line per
check and is wired to the ``verify`` CLI subcommand; the whole suite runs in
well under a minute on small meshes.

The module also holds the reference the 2D remap assembler is checked
against: a curved clipping oracle (``clip_chain``, ``clip_to_rect``,
``green_integral``, ``clipped_rows``) that forms every overlap of an upstream cell with a
background cell as a closed chain of quadratic segments and integrates it
by Green's theorem, independently of the assembler's global anchoring and
piece assignment.
"""

from __future__ import annotations

import math

import numpy as np

from .characteristics import SNAP_TOL, constant_1d, constant_2d, sine_1d, swirling, trace_back
from .core import Basis, Mesh1D, Mesh2D, QuadratureRule, gauss_rule, mass_vector, project
from .ldg import FluxChoice, assemble_ldg_1d, assemble_ldg_2d, dissipativity_check
from .remap1d import assemble_remap_1d, fit_tests, traced_interval_points
from .remap2d_matrix import assemble_remap_2d, cell_edges, traced_cell_points, tracked_points
from .timeint import tableau


def _restrict(seg: np.ndarray, s0: float, s1: float) -> np.ndarray:
    """The sub-arc [s0, s1] of a quadratic segment (2, 3), reparametrized onto [0, 1]."""
    c, b, a = seg[:, 0], seg[:, 1], seg[:, 2]
    h = s1 - s0
    return np.stack([c + s0 * (b + s0 * a), h * (b + 2.0 * a * s0), a * h * h], axis=-1)


def _crossings(c: float, b: float, a: float) -> list:
    """Roots of c + b s + a s^2 inside (0, 1), free of cancellation for small a.

    An apex within SNAP_TOL of zero is a double root.  The coefficients are
    first scaled by the power of two that brings max(|a|, |b|) into
    [1/2, 1), which is exact and keeps b * b from underflowing.
    """
    if abs(c) > 2.0 * (abs(a) + abs(b)):
        return []           # |b s + a s^2| <= |a| + |b| on [0, 1]; this also bounds the scaled c
    shift = -math.frexp(max(abs(a), abs(b)))[1]
    c, b, a = math.ldexp(c, shift), math.ldexp(b, shift), math.ldexp(a, shift)
    if a == 0.0:
        roots = [-c / b] if b != 0.0 else []
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            apex = -b / (2.0 * a)
            touch = abs(math.ldexp(disc / (4.0 * a), -shift)) <= SNAP_TOL and 0.0 < apex < 1.0
            return [apex] if touch else []
        q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
        roots = [q / a] + ([c / q] if q != 0.0 else [])
    return sorted(r for r in roots if 0.0 < r < 1.0)


def clip_chain(segs: np.ndarray, axis: int, level: float, sign: float) -> np.ndarray:
    """Clip a closed chain of quadratic segments (n, 2, 3) to sign * (coord - level) >= 0.

    Each segment is split where it crosses the line, the pieces whose
    midpoint lies inside are kept, and every gap is closed by a straight
    segment along the line.  A ray from a point off the line, directed away
    from it, never meets the line: inside, it crosses the result where it
    crossed the chain, and outside it crosses nothing.  So the result winds
    around the part of the chain's region inside the half-plane, also when
    that region is not convex.
    """
    pieces, inside = [], []
    for seg in segs:
        cuts = [0.0] + _crossings(seg[axis, 0] - level, seg[axis, 1], seg[axis, 2]) + [1.0]
        for s0, s1 in zip(cuts[:-1], cuts[1:]):
            piece = _restrict(seg, s0, s1)
            pieces.append(piece)
            mid = piece[axis, 0] + 0.5 * piece[axis, 1] + 0.25 * piece[axis, 2]
            inside.append(sign * (mid - level) >= 0.0)
    n = len(pieces)
    out = []
    for i in np.flatnonzero(inside):
        out.append(pieces[i])
        if not inside[(i + 1) % n]:
            j = next(m % n for m in range(i + 2, i + n + 1) if inside[m % n])
            end, start = pieces[i].sum(axis=1), pieces[j][:, 0]
            out.append(np.stack([end, start - end, np.zeros(2)], axis=-1))
    return np.array(out).reshape(-1, 2, 3)


def clip_to_rect(segs: np.ndarray, x0: float, x1: float, y0: float, y1: float) -> np.ndarray:
    """Clip a closed chain of quadratic segments to the rectangle [x0, x1] x [y0, y1]."""
    for axis, level, sign in ((0, x0, 1.0), (0, x1, -1.0), (1, y0, 1.0), (1, y1, -1.0)):
        segs = clip_chain(segs, axis, level, sign)
    return segs


def green_integral(segs: np.ndarray, f, x0: float, n: int) -> np.ndarray:
    """Contour integral of Q dy over a closed chain, Q(x, y) = int_x0^x f(t, y) dt.

    By Green's theorem this is the integral of f over the region the chain
    winds around.  ``f`` maps coordinate arrays to values of shape
    (..., *m); the n-point Gauss rule serves both the contour and the inner
    antiderivative, so the result is exact when 2n - 1 bounds the degree of
    Q dy along quadratic segments.
    """
    nodes, weights = gauss_rule(n)
    s = nodes + 0.5
    x = segs[:, 0, 0, None] + s * (segs[:, 0, 1, None] + s * segs[:, 0, 2, None])   # (S, G)
    y = segs[:, 1, 0, None] + s * (segs[:, 1, 1, None] + s * segs[:, 1, 2, None])
    dy = segs[:, 1, 1, None] + 2.0 * s * segs[:, 1, 2, None]
    vals = f(x0 + (x - x0)[..., None] * s, y[..., None])                            # (S, G, T, *m)
    q = np.einsum("sgt...,t->sg...", vals, weights)
    return np.einsum("g,sg,sg...->...", weights, (x - x0) * dy, q)


def clipped_rows(mesh: Mesh2D, k: int, t_end: float, t_start: float, v, mode: str,
                 cells) -> np.ndarray:
    """Rows of the 2D remap operator for ``cells``, shape (len(cells), d, ncells * d).

    An independent oracle for ``assemble_remap_2d``: it takes the traced
    feet, test fits and edge curves (all in cell-index coordinates) from
    the assembler's module, clips each upstream cell against the four
    half-planes of every unit square [ix, ix + 1] x [iy, iy + 1] its Bezier
    control points reach, integrates each closed overlap by
    ``green_integral`` with Q anchored at that square's left edge, and
    scales the result by the cell area.  Quad cells are the case of zero
    curvature.  Mode-0 entries are overlap areas.
    """
    basis = Basis(k, 2)
    d = basis.dim
    ref = tracked_points(mode, k)
    feet = traced_cell_points(mesh, t_end, t_start, v, ref)
    centers, cfit = fit_tests(feet, k, np.array(ref))
    edges = cell_edges(feet, mode)
    rows = np.zeros((len(cells), d, mesh.ncells * d))
    for r, j in enumerate(cells):
        e = edges[j]
        ctrl = np.concatenate([e[..., 0], e[..., 0] + 0.5 * e[..., 1], e.sum(axis=-1)])
        lo = np.floor(ctrl.min(axis=0)).astype(int)
        hi = np.ceil(ctrl.max(axis=0)).astype(int)
        for iy in range(lo[1], hi[1]):
            for ix in range(lo[0], hi[0]):
                chain = clip_to_rect(e, ix, ix + 1, iy, iy + 1)
                if not len(chain):
                    continue

                def f(x, y, j=j, ix=ix, iy=iy):
                    psi = basis.eval(x - centers[j, 0], y - centers[j, 1]) @ cfit[j].T
                    phi = basis.eval(x - ix - 0.5, y - iy - 0.5)
                    return psi[..., :, None] * phi[..., None, :]

                c = mesh.cell_index(ix, iy)
                rows[r, :, c * d:(c + 1) * d] += green_integral(chain, f, ix, 2 * k + 2)
    return rows * (mesh.dx * mesh.dy)


def clipped_loads(mesh: Mesh2D, u, t_end: float, t_start: float, v, mode: str,
                  cells) -> np.ndarray:
    """Remap loads (len(cells), d) of ``cells`` from the clipping oracle."""
    return clipped_rows(mesh, u.k, t_end, t_start, v, mode, cells) @ u.coeffs.ravel()


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
    rc = traced_interval_points(mesh, 2, 0.4, 0.0, v)
    lengths = assemble_remap_1d(mesh, 2, 0.4, 0.0, v).tocsr()[::3, ::3].toarray()   # mode-0 entries
    worst_local = float(np.max(np.abs(lengths.sum(axis=1) - mesh.dx * (rc[:, -1] - rc[:, 0]))))
    worst_global = float(np.max(np.abs(lengths.sum(axis=0) - mesh.dx)))
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
        rows = clipped_rows(mesh, 2, 0.3, 0.0, v, mode, range(mesh.ncells))
        areas = rows[:, 0, ::6]                  # mode-0 entries of the six k = 2 modes
        worst = max(worst, float(np.max(np.abs(areas.sum(axis=0) - mesh.dx * mesh.dy))))
    return "2d remap tiling", worst < 1e-10, f"cover defect {worst:.2e}"


def check_remap2d_vs_clipping() -> tuple:
    # the swirl bends the upstream edges, so QC curvature enters the loads
    mesh = Mesh2D(-math.pi, math.pi, -math.pi, math.pi, 8, 8)
    v = swirling(1.5)
    cells = [9, 27, 44, 61]
    worst = 0.0
    for mode in ("quad", "qc"):
        R = assemble_remap_2d(mesh, 1, 0.3, 0.0, v, mode)
        rows = R.tocsr()[[3 * j + m for j in cells for m in range(3)]].toarray()
        oracle = clipped_rows(mesh, 1, 0.3, 0.0, v, mode, cells).reshape(rows.shape)
        worst = max(worst, float(np.max(np.abs(rows - oracle))))
    return "2d remap vs curved clipping", worst < 1e-11, f"max difference {worst:.2e}"


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
    check_remap2d_vs_clipping,
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
