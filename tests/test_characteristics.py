import math

import numpy as np
import pytest

from sldg.characteristics import (
    CELL_POINTS_4,
    CELL_POINTS_9,
    cell_lattice,
    constant_1d,
    constant_2d,
    default_substeps,
    rigid_rotation,
    sine_1d,
    swirling,
    trace_back,
    zero_field,
)
from sldg.core import Mesh1D, Mesh2D
from sldg.remap1d import traced_interval_points
from sldg.remap2d_matrix import traced_cell_points


def test_constant_field_exact():
    x = trace_back(np.array([1.0]), 0.5, 0.0, constant_1d(1.0), 1)
    assert x[0] == pytest.approx(0.5, abs=1e-15)


def test_zero_velocity_identity():
    pts = np.linspace(0.0, 5.0, 11)
    out = trace_back(pts, 2.0, 0.0, zero_field(1), 7)
    assert np.array_equal(out, pts)


def test_rotation_quarter_turn():
    fx, fy = trace_back((np.array([1.0]), np.array([0.0])), np.pi / 2, 0.0, rigid_rotation(), 64)
    assert fx[0] == pytest.approx(0.0, abs=1e-6)
    assert fy[0] == pytest.approx(-1.0, abs=1e-6)


def test_rotation_corner_eighth_turn():
    fx, fy = trace_back((np.array([1.0]), np.array([1.0])), np.pi / 4, 0.0, rigid_rotation(), 64)
    assert fx[0] == pytest.approx(math.sqrt(2.0), abs=1e-6)
    assert fy[0] == pytest.approx(0.0, abs=1e-6)


def test_sine_field_analytic():
    # dx/dt = sin x integrates to tan(x/2) = tan(x0/2) e^(t - t0)
    x = trace_back(np.array([np.pi / 2]), 1.0, 0.0, sine_1d(), 64)
    expect = 2.0 * math.atan(math.tan(np.pi / 4) * math.exp(-1.0))
    assert x[0] == pytest.approx(expect, abs=1e-6)


def test_rk4_substep_convergence():
    exact = 2.0 * math.atan(math.exp(-1.0))
    errs = [
        abs(trace_back(np.array([np.pi / 2]), 1.0, 0.0, sine_1d(), s)[0] - exact)
        for s in (4, 8, 16)
    ]
    for e0, e1 in zip(errs, errs[1:]):
        assert 8.0 < e0 / e1 < 32.0


def test_group_property():
    v = sine_1d()
    p = np.array([1.1, 2.3, 4.0])
    mid = trace_back(p, 2.0, 1.2, v, 32)
    two = trace_back(mid, 1.2, 0.0, v, 48)
    direct = trace_back(p, 2.0, 0.0, v, 80)
    assert np.max(np.abs(two - direct)) < 1e-10


def test_forward_tracing_supported():
    # round trip cancels up to the RK4 truncation level
    v = sine_1d()
    back = trace_back(np.array([1.0]), 1.0, 0.4, v, 16)
    again = trace_back(back, 0.4, 1.0, v, 16)
    assert again[0] == pytest.approx(1.0, abs=1e-8)


def test_default_substeps_policy():
    assert default_substeps(0.0) == 4
    assert default_substeps(1.0) == 4
    assert default_substeps(12.1) == 49


@pytest.mark.parametrize("k", [0, 1, 2])
def test_interval_feet_zero_velocity(k):
    # rows hold each cell's left end, midpoint (k != 1) and right end, in
    # index coordinates
    mesh = Mesh1D(0.0, 1.0, 4)
    feet = traced_interval_points(mesh, k, 1.0, 0.0, zero_field(1))
    offsets = [0.0, 1.0] if k == 1 else [0.0, 0.5, 1.0]
    assert np.array_equal(feet, np.arange(4)[:, None] + np.array(offsets)[None, :])


def test_interval_feet_uniform_shift():
    mesh = Mesh1D(0.0, 1.0, 4)
    dt = 0.3 * mesh.dx
    feet = traced_interval_points(mesh, 2, dt, 0.0, constant_1d(1.0), substeps=4)
    want = np.arange(4)[:, None] + np.array([0.0, 0.5, 1.0])[None, :] - 0.3
    assert np.max(np.abs(feet - want)) < 1e-14


def test_interval_feet_monotone_for_smooth_field():
    mesh = Mesh1D(0.0, 2 * np.pi, 10)
    feet = traced_interval_points(mesh, 2, 0.1, 0.0, sine_1d())
    assert np.all(np.diff(feet, axis=1) > 0)
    # neighbours share their common end's foot bitwise
    assert np.array_equal(feet[1:, 0], feet[:-1, -1])


def test_cell_lattice_shares_points():
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 4, 3)
    for ref, r in ((CELL_POINTS_4, 1), (CELL_POINTS_9, 2)):
        points, index = cell_lattice(mesh, ref)
        assert points[0].size == (r * 4 + 1) * (r * 3 + 1)
        assert index.shape == (mesh.ncells, len(ref))
        # cell 5 = (1, 1): its right corners are cell 6's left corners
        assert index[5, 1] == index[6, 0] and index[5, 2] == index[6, 3]
        # and its top corners are cell 9's bottom corners
        assert index[5, 3] == index[9, 0] and index[5, 2] == index[9, 1]


def test_cell_points_ordering_and_identity():
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 4, 4)
    four = traced_cell_points(mesh, 1.0, 0.0, zero_field(2), CELL_POINTS_4, 1)[5]
    # counterclockwise corners of cell (1, 1), in index coordinates
    corners = np.array([[1.0, 1.0], [2.0, 1.0], [2.0, 2.0], [1.0, 2.0]])
    assert np.array_equal(four, corners)
    nine = traced_cell_points(mesh, 1.0, 0.0, zero_field(2), CELL_POINTS_9, 1)[5]
    assert np.array_equal(nine[:4], corners)
    # then the edge midpoints (bottom, right, top, left), then the center
    mids = np.array([[1.5, 1.0], [2.0, 1.5], [1.5, 2.0], [1.0, 1.5], [1.5, 1.5]])
    assert np.max(np.abs(nine[4:] - mids)) < 1e-15


@pytest.mark.parametrize("ref", [CELL_POINTS_4, CELL_POINTS_9])
def test_cell_points_constant_shift(ref):
    mesh = Mesh2D(0.0, 1.0, 0.0, 1.0, 4, 4)
    dt = 0.2
    feet = traced_cell_points(mesh, dt, 0.0, constant_2d(1.0, 1.0), ref, 8)[5]
    src = np.array([1.5, 1.5]) + np.array(ref)
    assert np.max(np.abs(feet - (src - dt / mesh.dx))) < 1e-14


@pytest.mark.parametrize("ref", [CELL_POINTS_4, CELL_POINTS_9])
@pytest.mark.parametrize("v, t_end, t_start", [
    (swirling(1.0), 0.45, 0.15),
    (rigid_rotation(math.pi, math.pi), 0.3, 0.0),
])
def test_cell_points_match_per_cell_trace(v, t_end, t_start, ref):
    # every cell's gathered feet, in index coordinates, are its own
    # reference points traced one by one, moved as a whole by the periods
    # that bring the corners' bounding box midpoint into the domain
    mesh = Mesh2D(-math.pi, math.pi, -math.pi, math.pi, 8, 8)
    substeps = 6
    feet = traced_cell_points(mesh, t_end, t_start, v, ref, substeps)
    ix, iy = np.meshgrid(np.arange(8), np.arange(8), indexing="xy")
    centers = np.stack([-math.pi + mesh.dx * (ix.ravel() + 0.5),
                        -math.pi + mesh.dy * (iy.ravel() + 0.5)], axis=-1)
    src = centers[:, None, :] + np.array(ref)[None] * np.array(mesh.widths)
    direct = np.stack(trace_back((src[..., 0], src[..., 1]), t_end, t_start, v, substeps), axis=-1)
    periods = (feet - (direct - mesh.lower) / mesh.widths) / mesh.shape
    shift = np.rint(periods)
    assert np.max(np.abs(periods - shift)) < 1e-12
    assert np.all(shift == shift[:, :1])                # one shift per cell
    mid = 0.5 * (feet[:, :4].min(axis=1) + feet[:, :4].max(axis=1))
    assert np.all((mid >= 0) & (mid < 8))
    if v.name == "rigid rotation":
        assert np.any(shift != 0)                       # some cells wrap a period


def test_swirling_reverses():
    T = 1.5
    v = swirling(T)
    p = (np.array([0.4]), np.array([-0.3]))
    # the time integral of the modulation vanishes over [0, T]
    out = trace_back(p, T, 0.0, v, 256)
    assert out[0][0] == pytest.approx(0.4, abs=1e-5)
    assert out[1][0] == pytest.approx(-0.3, abs=1e-5)
