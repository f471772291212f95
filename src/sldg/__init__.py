"""Semi-Lagrangian discontinuous Galerkin solver for convection-diffusion."""

from .bench import PROBLEMS, StudyConfig, make_problem, run_qualitative, run_spatial_study, run_temporal_study
from .characteristics import VelocityField, trace_back
from .core import Basis, DGField, Mesh, Mesh1D, Mesh2D, QuadratureRule, norms, project, total_mass
from .ldg import FluxChoice, assemble_ldg_1d, assemble_ldg_2d
from .timeint import ButcherTableau, LinearSolverConfig, Stepper, cfl_to_dt, tableau

__all__ = [
    "Basis", "ButcherTableau", "DGField", "FluxChoice", "LinearSolverConfig",
    "Mesh", "Mesh1D", "Mesh2D", "PROBLEMS", "QuadratureRule", "Stepper", "StudyConfig",
    "VelocityField", "assemble_ldg_1d", "assemble_ldg_2d", "cfl_to_dt",
    "make_problem", "norms", "project", "run_qualitative", "run_spatial_study",
    "run_temporal_study", "tableau", "total_mass", "trace_back",
]

__version__ = "0.1.0"
