"""Spans recorded from outside the solver, at each module boundary.

While a ``Tracer`` is installed, wrappers sit on the names the calling
modules use (``timeint.assemble_remap_2d``, ``remap2d_matrix.trace_back``,
``LDGOperator.apply_flat`` and so on) and record one span per call: name,
start, end, parent span and a tag naming the workload repeat, plus counts
taken from the call's arguments or result.  Spans stay in memory; the
caller writes them out when the run ends.  Leaving the ``with`` block
restores every original attribute, so untraced repeats run the
unmodified program.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import scipy.sparse.linalg as real_spla

import sldg.core
import sldg.ldg
import sldg.remap1d
import sldg.remap2d_matrix
import sldg.timeint

import workloads


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    tag: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _points(args, out):
    pts = args[0]
    n = pts[0].size if isinstance(pts, tuple) else pts.size
    return {"points": int(n)}


def _pieces(args, out):
    return {"pieces": int(out[0].size)}


def _remap(args, out):
    nbytes = out.data.nbytes + out.indices.nbytes + out.indptr.nbytes
    return {"cells": int(args[0].ncells), "nnz": int(out.nnz), "bytes": int(nbytes)}


def _ldg(args, out):
    return {"nnz": int(out.op.nnz)}


def _lu(args, out):
    # entries SuperLU stores for L and U; reading out.L / out.U instead
    # would build both factors as new CSC matrices inside the open spans
    return {"fill": int(out.nnz)}


class _LinalgProxy:
    """``scipy.sparse.linalg`` as ``timeint`` sees it, with splu and gmres wrapped."""

    def __init__(self, tracer: "Tracer"):
        self.splu = tracer.wrap("timeint.splu", real_spla.splu, _lu)
        self.gmres = tracer.wrap("timeint.gmres", real_spla.gmres)

    def __getattr__(self, name):
        return getattr(real_spla, name)


# (owner, attribute, span name, counter) of every wrapped call site
_TARGETS = [
    (sldg.remap2d_matrix, "trace_back", "characteristics.trace_back", _points),
    (sldg.remap1d, "trace_back", "characteristics.trace_back", _points),
    (sldg.remap2d_matrix, "split_edges_at_gridlines", "remap2d.split_edges_at_gridlines", _pieces),
    (sldg.timeint, "assemble_remap_2d", "remap2d_matrix.assemble_remap_2d", _remap),
    (sldg.timeint, "assemble_remap_1d", "remap1d.assemble_remap_1d", _remap),
    (sldg.timeint, "assemble_ldg_1d", "ldg.assemble_ldg_1d", _ldg),
    (sldg.timeint, "assemble_ldg_2d", "ldg.assemble_ldg_2d", _ldg),
    (sldg.ldg.LDGOperator, "apply_flat", "ldg.apply_flat", None),
    (sldg.timeint.Stepper, "step", "timeint.step", None),
    (sldg.timeint.Stepper, "solve_stage", "timeint.solve_stage", None),
    (sldg.timeint, "project", "core.project", None),
    (workloads, "project", "core.project", None),
    (sldg.core.Basis, "eval", "core.Basis.eval", None),
]


class Tracer:
    """Collects the spans of one repeat, labelled ``tag``, while installed."""

    def __init__(self, tag: str):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.tag = tag
        self._saved: list = []

    def wrap(self, name, fn, counter=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1] if stack else None, self.tag, clock())
            spans.append(span)
            stack.append(span.id)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, out)
            return out

        return traced

    def __enter__(self):
        for owner, attr, name, counter in _TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter))
        self._saved.append((sldg.timeint, "spla", sldg.timeint.spla))
        sldg.timeint.spla = _LinalgProxy(self)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its direct children cover."""
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.seconds
    return {s.id: s.seconds - child.get(s.id, 0.0) for s in spans}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced repeat."""
    own = self_seconds(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def group(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.seconds for s in group(name))

    def self_total(name):
        return sum(own[s.id] for s in group(name))

    def count_sum(name, key):
        return sum(s.counts.get(key, 0) for s in group(name))

    # a matvec belongs to GMRES when a gmres span encloses it
    parent = {s.id: s.parent for s in spans}
    gmres_ids = {s.id for s in group("timeint.gmres")}

    def under_gmres(sid):
        while sid is not None:
            if sid in gmres_ids:
                return True
            sid = parent[sid]
        return False

    asm2 = "remap2d_matrix.assemble_remap_2d"
    cells2 = count_sum(asm2, "cells")
    ldg_nnz = count_sum("ldg.assemble_ldg_1d", "nnz") + count_sum("ldg.assemble_ldg_2d", "nnz")
    lu_fill = count_sum("timeint.splu", "fill")
    factorizations = len(group("timeint.splu"))
    pieces = count_sum("remap2d.split_edges_at_gridlines", "pieces")
    return {
        "characteristics.trace_calls": len(group("characteristics.trace_back")),
        "characteristics.points_traced": count_sum("characteristics.trace_back", "points"),
        "characteristics.trace_s": total("characteristics.trace_back"),
        "remap2d.split_s": total("remap2d.split_edges_at_gridlines"),
        "remap2d.pieces": pieces,
        "remap2d.pieces_per_cell": pieces / cells2 if cells2 else 0.0,
        "remap2d_matrix.assemblies": len(group(asm2)),
        "remap2d_matrix.assemble_s": total(asm2),
        "remap2d_matrix.assemble_self_s": self_total(asm2),
        "remap2d_matrix.nnz": count_sum(asm2, "nnz"),
        "remap2d_matrix.bytes_out": count_sum(asm2, "bytes"),
        "remap1d.assemblies": len(group("remap1d.assemble_remap_1d")),
        "remap1d.assemble_s": total("remap1d.assemble_remap_1d"),
        "ldg.assemble_s": total("ldg.assemble_ldg_1d") + total("ldg.assemble_ldg_2d"),
        "ldg.op_nnz": ldg_nnz,
        "ldg.matvecs": len(group("ldg.apply_flat")),
        "ldg.matvec_s": total("ldg.apply_flat"),
        "timeint.steps": len(group("timeint.step")),
        "timeint.step_s": total("timeint.step"),
        "timeint.step_self_s": self_total("timeint.step"),
        "timeint.stage_solves": len(group("timeint.solve_stage")),
        "timeint.stage_solve_s": total("timeint.solve_stage"),
        "timeint.lu_factorizations": factorizations,
        "timeint.lu_factor_s": total("timeint.splu"),
        "timeint.lu_fill": lu_fill,
        # fill of one factor over the operator's nonzeros
        "timeint.lu_fill_ratio": lu_fill / (factorizations * ldg_nnz) if factorizations else 0.0,
        "timeint.gmres_calls": len(group("timeint.gmres")),
        "timeint.gmres_matvecs": sum(1 for s in group("ldg.apply_flat") if under_gmres(s.parent)),
        "timeint.gmres_s": total("timeint.gmres"),
        "timeint.gmres_self_s": self_total("timeint.gmres"),
        "core.project_calls": len(group("core.project")),
        "core.project_s": total("core.project"),
        "core.basis_eval_calls": len(group("core.Basis.eval")),
        "core.basis_eval_s": total("core.Basis.eval"),
    }
