"""Ensemble Robin-Robin domain decomposition for the steady Stokes-Darcy system.

The package solves the coupled free-flow / porous-media problem with
Beavers-Joseph interface coupling for an ensemble of hydraulic-conductivity
samples.  All samples share one Stokes and one Darcy coefficient matrix
(built from ensemble means), so each matrix is factorized once and reused
across samples and iterations; sample deviations are lagged to the right-hand
side.  Robin transmission parameters can be chosen by the closed-form
min-max optimizer.
"""

from .mesh import Rect, Mesh, InterfacePairing, build_rect_mesh, pair_interface
from .sparsela import SubdomainOperator, factorize, factorization_count
from .robin_params import (
    FrequencyBand,
    convergence_factor,
    frequency_band,
    optimized_delta_d,
    worst_case_rho,
    symbol_iteration,
)
from .random_field import RandomFieldSpec, Draw, kl_eigenvalues, evaluate_k, draw_samples
from .stokes_fem import StokesSpace, StokesElements, build_stokes_space, assemble_stokes_operator
from .darcy_fem import DarcySpace, build_darcy_space, assemble_darcy_operator
from .interface_state import update_robin, stopping_norm
from .ensemble_driver import (
    SampleParams,
    EnsembleContext,
    EnsembleDiagnostics,
    SolveReport,
    make_context,
    run_ensemble_ddm,
    run_traditional_ddm,
    check_converged_residual,
)
from .manufactured import ManufacturedSolution
from .norms import error_norms, error_rows, convergence_order

__all__ = [
    "Rect", "Mesh", "InterfacePairing", "build_rect_mesh", "pair_interface",
    "SubdomainOperator", "factorize", "factorization_count",
    "FrequencyBand", "convergence_factor", "frequency_band",
    "optimized_delta_d", "worst_case_rho", "symbol_iteration",
    "RandomFieldSpec", "Draw", "kl_eigenvalues", "evaluate_k", "draw_samples",
    "StokesSpace", "StokesElements", "build_stokes_space", "assemble_stokes_operator",
    "DarcySpace", "build_darcy_space", "assemble_darcy_operator",
    "update_robin", "stopping_norm",
    "SampleParams", "EnsembleContext", "EnsembleDiagnostics", "SolveReport",
    "make_context", "run_ensemble_ddm", "run_traditional_ddm", "check_converged_residual",
    "ManufacturedSolution",
    "error_norms", "error_rows", "convergence_order",
]
