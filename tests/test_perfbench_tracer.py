"""The benchmark's tracer still finds every call site it wraps.

``perfbench/tracing.py`` replaces names in the solver's modules
(``timeint.assemble_remap_2d``, ``remap2d_matrix.trace_back``,
``LDGOperator.apply_flat`` and so on) for the length of a ``with`` block.
A call site that is renamed makes the tracer fail to install; one that is
bypassed leaves its per-layer counts at zero.
"""

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import sldg.timeint
from sldg.characteristics import constant_2d, sine_1d
from sldg.core import Mesh1D, Mesh2D, project
from sldg.timeint import LinearSolverConfig, Stepper

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing

        yield tracing
    finally:
        sys.path.remove(PERFBENCH)


def _problem(ndim):
    if ndim == 1:
        mesh = Mesh1D(0.0, 2 * np.pi, 16)
        return mesh, sine_1d(), lambda x, t: np.cos(x) * t, project(np.sin, mesh, 2)
    mesh = Mesh2D(0.0, 2 * np.pi, 0.0, 2 * np.pi, 6, 6)
    u0 = project(lambda x, y: np.sin(x) * np.cos(y), mesh, 2)
    return mesh, constant_2d(1.0, 0.5), lambda x, y, t: np.cos(x + y) * t, u0


@pytest.mark.parametrize("method", ["direct", "gmres"])
@pytest.mark.parametrize("ndim", [1, 2])
def test_tracer_counts_every_layer(tracing, ndim, method):
    mesh, v, g, u0 = _problem(ndim)
    step = sldg.timeint.Stepper.__dict__["step"]
    tracer = tracing.Tracer("smoke")
    with tracer:
        st = Stepper(mesh, 2, v, eps=0.5, source=g, tab="dirk2",
                     solver=LinearSolverConfig(method))
        st.step(u0, 0.1)
    assert sldg.timeint.Stepper.__dict__["step"] is step
    assert sldg.timeint.spla is spla

    m = tracing.layer_metrics(tracer.spans)
    assert m["characteristics.trace_calls"] > 0
    assert m["characteristics.points_traced"] > 0
    assert m["remap1d.assemblies" if ndim == 1 else "remap2d_matrix.assemblies"] > 0
    if ndim == 2:
        assert m["remap2d.pieces"] > 0
    assert m["ldg.op_nnz"] > 0
    assert m["timeint.steps"] == 1
    assert m["timeint.stage_solves"] == 2
    assert m["core.project_calls"] == 2
    assert m["core.basis_eval_calls"] > 0
    if method == "direct":
        # the direct path is a Fourier block solve: no sparse LU runs
        assert m["timeint.lu_factorizations"] == 0 and m["timeint.gmres_calls"] == 0
    else:
        # the iterative solve is timeint's own MINRES: nothing reaches
        # scipy's gmres through the proxied name, each Lanczos step applies
        # the LDG operator, and a traced step iterates exactly as an
        # untraced one
        assert m["timeint.gmres_calls"] == 0
        assert m["ldg.matvecs"] > m["timeint.stage_solves"]
        untraced = Stepper(mesh, 2, v, eps=0.5, source=g, tab="dirk2",
                           solver=LinearSolverConfig(method))
        untraced.step(u0, 0.1)
        assert st.last_iterations == untraced.last_iterations > 0
