"""Property tests of the 2D remap assembler on random divergence-free fields.

Each example draws a stream function psi = sum c sin(p x + q y + phi) with
one to three modes, a 4-7 x 4-7 mesh on [0, 2 pi]^2, the degree, the upstream
cell shape and the CFL number.  The assembly must either raise GeometryError
or tile the mesh, agree with the clipping oracle on every cell of the first
and last row and column (the cells whose edges lie on the periodic seam)
and conserve mass in a diffusive step.

The edge splitter is checked on its own on random quadratic edges whose
control points are often on the half-cell lattice, so that edges end on
grid lines and pass through grid vertices.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sldg.characteristics import VelocityField, snap_index
from sldg.core import Basis, DGField, Mesh2D, total_mass
from sldg.remap1d import GeometryError
from sldg.remap2d_matrix import (END_MARGIN, assemble_remap_2d, eval_quadratic, quadratic_through,
                                 split_edges_at_gridlines)
from sldg.timeint import LinearSolverConfig, Stepper
from sldg.verify import _crossings, clipped_rows

modes = st.tuples(
    st.floats(-1.0, 1.0),                   # c
    st.integers(-2, 2),                     # p
    st.integers(-2, 2),                     # q
    st.floats(0.0, 2.0 * math.pi),          # phi
)


def stream_velocity(terms) -> VelocityField:
    """(a, b) = (d psi / dy, -d psi / dx), divergence-free by construction."""

    def fn(x, y, t):
        a = np.zeros_like(np.asarray(x, float))
        b = np.zeros_like(a)
        for c, p, q, phi in terms:
            w = c * np.cos(p * x + q * y + phi)
            a = a + q * w
            b = b - p * w
        return a, b

    speed = (sum(abs(c * q) for c, _, q, _ in terms), sum(abs(c * p) for c, p, _, _ in terms))
    return VelocityField(2, fn, speed, False, "stream function")


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    terms=st.lists(modes, min_size=1, max_size=3),
    nx=st.integers(4, 7),
    ny=st.integers(4, 7),
    k=st.integers(0, 2),
    mode=st.sampled_from(["quad", "qc"]),
    cfl=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_remap_invariants_on_random_fields(terms, nx, ny, k, mode, cfl, seed):
    mesh = Mesh2D(0.0, 2.0 * math.pi, 0.0, 2.0 * math.pi, nx, ny)
    v = stream_velocity(terms)
    rate = sum(s / w for s, w in zip(v.max_speed, mesh.widths))
    # a near-zero field would give a huge step, and no geometry is wrong there
    dt = min(cfl / rate, 1.0) if rate > 0.0 else 1.0
    d = Basis(k, 2).dim
    area = mesh.dx * mesh.dy
    rng = np.random.default_rng(seed)
    try:
        R = assemble_remap_2d(mesh, k, dt, 0.0, v, mode)
        cover = np.asarray(R.tocsr()[::d, ::d].sum(axis=0)).ravel()
        assert np.max(np.abs(cover - area)) <= 1e-12 * area

        i, j = np.arange(mesh.ncells) % nx, np.arange(mesh.ncells) // nx
        cells = np.flatnonzero((i == 0) | (i == nx - 1) | (j == 0) | (j == ny - 1))
        rows = R.tocsr()[[j * d + m for j in cells for m in range(d)]].toarray()
        oracle = clipped_rows(mesh, k, dt, 0.0, v, mode, cells).reshape(rows.shape)
        assert np.max(np.abs(rows - oracle)) <= 1e-12 * np.max(np.abs(R.data))

        u = DGField(mesh, k, rng.standard_normal((mesh.ncells, d)))
        stepper = Stepper(mesh, k, v, eps=0.5, tab="dirk2", solver=LinearSolverConfig("direct"),
                          mode=mode)
        after = stepper.step(u, dt)
        scale = area * np.sum(np.abs(u.coeffs[:, 0]))
        assert abs(total_mass(after) - total_mass(u)) <= 1e-11 * scale
    except GeometryError:
        pass


# coordinates far below a cell width only make the discriminant underflow
coordinate = st.one_of(st.floats(-3.0, 3.0).filter(lambda x: x == 0.0 or abs(x) > 1e-9),
                       st.integers(-6, 6).map(lambda i: 0.5 * i))
point = st.tuples(coordinate, coordinate)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(edges=st.lists(st.tuples(point, point, point), min_size=1, max_size=6))
def test_split_edges_tile_and_match_reference_crossings(edges):
    coeffs = quadratic_through(*(np.array(p, float) for p in zip(*edges)))
    eid, s0, s1 = split_edges_at_gridlines(coeffs)
    for e, edge in enumerate(coeffs):
        a, b = s0[eid == e], s1[eid == e]
        # ordered along the edge, no gaps, no overlaps
        assert a.size >= 1 and a[0] == 0.0 and b[-1] == 1.0 and np.all(b[:-1] == a[1:])
        assert np.all(b > a)

        # the cuts are the scalar reference crossings of every grid line
        ref = [0.0]
        for axis in (0, 1):
            reach = eval_quadratic(edge[axis], np.linspace(0.0, 1.0, 65))
            for level in range(math.floor(reach.min()) - 1, math.ceil(reach.max()) + 2):
                ref += _crossings(edge[axis, 0] - level, edge[axis, 1], edge[axis, 2])
        ref = np.array([r for r in ref if r == 0.0 or END_MARGIN < r < 1.0 - END_MARGIN])
        assert np.all(np.min(np.abs(a[:, None] - ref[None, :]), axis=1) <= 1e-12)
        assert np.all(np.min(np.abs(ref[:, None] - a[None, :]), axis=1) <= 1e-12)

        # each piece lies in the closed background cell of its snapped
        # midpoint, the cell the assembler gives it
        inner = a[:, None] + (b - a)[:, None] * np.linspace(0.05, 0.95, 7)
        at = snap_index(eval_quadratic(edge[:, None, None, :], inner))       # (2, pieces, 7)
        cell = np.floor(at[..., 3:4])
        assert np.all((at >= cell) & (at <= cell + 1.0))
