"""Velocity fields and backward characteristic tracing.

Characteristic feet solve the final-value problem dx/dt = a(x, t) with the
position prescribed at the later time; the classical RK4 scheme with a fixed
number of substeps integrates the trajectory.  Tracing is vectorized over
points, and feet are returned unwrapped (periodic wrapping is the remap
geometry's job).  The remap assemblers trace one lattice per time pair and
gather every cell's points from it by offset (``cell_lattice``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import cell_multi_index

# Gauss-Lobatto interpolation points on the reference cell, by degree.
# For k = 0 the single point is the cell midpoint.
GL_POINTS = {0: (0.0,), 1: (-0.5, 0.5), 2: (-0.5, 0.0, 0.5)}

# The one geometric tolerance, in cell widths.  Traced feet within it of the
# half-cell lattice they are traced from are snapped onto it, so a foot that
# lands on a grid line or a cell midpoint lands there exactly and cell
# assignment is stable; the 2D edge splitter merges crossings this close.
SNAP_TOL = 1e-12

# Reference positions of the traced cell points in 2D: counterclockwise
# corners first, then edge midpoints (bottom, right, top, left), then center.
CELL_POINTS_4 = ((-0.5, -0.5), (0.5, -0.5), (0.5, 0.5), (-0.5, 0.5))
CELL_POINTS_9 = CELL_POINTS_4 + ((0.0, -0.5), (0.5, 0.0), (0.0, 0.5), (-0.5, 0.0), (0.0, 0.0))


@dataclass(frozen=True)
class VelocityField:
    """Analytic advection field with a per-direction speed bound.

    ``fn`` maps (x, t) -> a for 1D fields and (x, y, t) -> (a, b) for 2D
    fields, operating on numpy arrays.  ``max_speed`` bounds |a| (and |b|)
    over the domain and time window and feeds the CFL -> dt conversion;
    ``time_dependent`` marks fields whose geometry cannot be reused across
    time intervals of equal length.
    """

    ndim: int
    fn: Callable
    max_speed: tuple[float, ...]
    time_dependent: bool = False
    name: str = "custom"

    def __call__(self, *args):
        return self.fn(*args)


def constant_1d(speed: float = 1.0) -> VelocityField:
    return VelocityField(1, lambda x, t: np.full_like(np.asarray(x, float), speed),
                         (abs(speed),), False, f"constant({speed})")


def sine_1d() -> VelocityField:
    return VelocityField(1, lambda x, t: np.sin(x), (1.0,), False, "sin(x)")


def zero_field(ndim: int) -> VelocityField:
    def fn(*xt):
        a = tuple(np.zeros_like(np.asarray(x, float)) for x in xt[:-1])
        return a if ndim > 1 else a[0]

    return VelocityField(ndim, fn, (0.0,) * ndim, False, "zero")


def constant_2d(ax: float = 1.0, ay: float = 1.0) -> VelocityField:
    def fn(x, y, t):
        x = np.asarray(x, float)
        return np.full_like(x, ax), np.full_like(x, ay)

    return VelocityField(2, fn, (abs(ax), abs(ay)), False, f"constant({ax},{ay})")


def rigid_rotation(xmax: float = 2.0 * math.pi, ymax: float = 2.0 * math.pi) -> VelocityField:
    """(a, b) = (-y, x); speed bounds follow from the domain extents."""
    return VelocityField(2, lambda x, y, t: (-y, x), (ymax, xmax), False, "rigid rotation")


def swirling(T: float) -> VelocityField:
    """Time-reversing swirling deformation on [-pi, pi]^2."""

    def fn(x, y, t):
        f = math.cos(math.pi * t / T) * math.pi
        a = -np.cos(x / 2.0) ** 2 * np.sin(y) * f
        b = np.sin(x) * np.cos(y / 2.0) ** 2 * f
        return a, b

    return VelocityField(2, fn, (math.pi, math.pi), True, f"swirling(T={T})")


def default_substeps(cfl: float) -> int:
    """RK4 substep count keeping the tracing error below the DIRK4 error."""
    return max(4, int(math.ceil(4.0 * max(cfl, 0.0))))


def substeps_for(mesh, v: VelocityField, t_end: float, t_start: float) -> int:
    """Substep policy expressed through the interval's effective CFL number."""
    span = abs(t_end - t_start)
    return default_substeps(span * max(s / w for s, w in zip(v.max_speed, mesh.widths)))


def _axes(a) -> tuple:
    """Points or rates as a tuple of per-axis arrays; 1D ones come bare."""
    return a if isinstance(a, tuple) else (a,)


def trace_back(points, t_end: float, t_start: float, v: VelocityField, substeps: int):
    """Solve the characteristic ODE from (points, t_end) to t_start with RK4.

    1D fields take and return an array; 2D fields take and return a pair of
    arrays.  ``t_start`` may exceed ``t_end`` (the trajectory is then followed
    forward), which intermediate Runge-Kutta stages require.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")

    def rate(x, t):
        return _axes(v(*x, t))

    def ahead(x, k, step):
        return tuple(xi + step * ki for xi, ki in zip(x, k, strict=True))

    h = (t_start - t_end) / substeps
    x = tuple(np.array(p, dtype=float, copy=True) for p in _axes(points))
    t = t_end
    for _ in range(substeps):
        k1 = rate(x, t)
        k2 = rate(ahead(x, k1, 0.5 * h), t + 0.5 * h)
        k3 = rate(ahead(x, k2, 0.5 * h), t + 0.5 * h)
        k4 = rate(ahead(x, k3, h), t + h)
        x = tuple(xi + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                  for xi, a, b, c, d in zip(x, k1, k2, k3, k4, strict=True))
        t += h
    return x if isinstance(points, tuple) else x[0]


def snap_index(r: np.ndarray) -> np.ndarray:
    """Snap index-space coordinates within SNAP_TOL of the half-cell lattice onto it.

    A point snapped onto a cell midpoint stays inside its cell, so cell
    assignment by ``floor`` is that of snapping onto grid lines alone.
    """
    rounded = np.round(2.0 * r) / 2.0
    return np.where(np.abs(r - rounded) < SNAP_TOL, rounded, r)


def cell_lattice(mesh, ref) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The lattice holding every cell's reference points, traced once for all cells.

    ``ref`` lists reference positions in [-1/2, 1/2]^ndim (scalars in 1D).
    The lattice is the node grid when every position is a cell vertex and
    the half-grid otherwise, so neighbouring cells share the feet of their
    common points bitwise.  Returns the lattice coordinates, one flat array
    per axis, and the (ncells, npts) lattice index of every cell's points.
    """
    ref = np.asarray(ref, dtype=float).reshape(len(ref), mesh.ndim)
    r = 1 if np.all(np.abs(ref) == 0.5) else 2
    offsets = np.rint(r * (ref + 0.5)).astype(int)
    size = tuple(r * n + 1 for n in mesh.shape)
    axes = [lo + w * (np.arange(m) / r) for lo, w, m in zip(mesh.lower, mesh.widths, size)]
    points = tuple(g.ravel() for g in np.meshgrid(*axes, indexing="ij"))
    cells = cell_multi_index(mesh)
    index = np.ravel_multi_index(
        tuple(r * c[:, None] + offsets[None, :, a] for a, c in enumerate(cells)), size
    )
    return points, index
