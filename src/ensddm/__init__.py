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
from .sparsela import SparseMatrix, Factorization, SubdomainOperator, factorize, factorization_count
from .robin_params import (
    FrequencyBand,
    SymbolState,
    convergence_factor,
    frequency_band,
    optimized_delta_d,
    worst_case_rho,
    symbol_iteration,
)
from .random_field import RandomFieldSpec, Draw, kl_eigenvalues, evaluate_k, draw_samples, mc_expectation
from .stokes_fem import StokesSpace, build_stokes_space, assemble_stokes_operator
from .darcy_fem import DarcySpace, build_darcy_space, assemble_darcy_operator
from .interface_state import TraceFunction, RobinTraceState, init_state, update_robin, stopping_norm
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
from .manufactured import ManufacturedSolution, exact_solution, manufactured_forcing
from .norms import error_norms, convergence_order

__all__ = [
    "Rect", "Mesh", "InterfacePairing", "build_rect_mesh", "pair_interface",
    "SparseMatrix", "Factorization", "SubdomainOperator", "factorize", "factorization_count",
    "FrequencyBand", "SymbolState", "convergence_factor", "frequency_band",
    "optimized_delta_d", "worst_case_rho", "symbol_iteration",
    "RandomFieldSpec", "Draw", "kl_eigenvalues", "evaluate_k", "draw_samples", "mc_expectation",
    "StokesSpace", "build_stokes_space", "assemble_stokes_operator",
    "DarcySpace", "build_darcy_space", "assemble_darcy_operator",
    "TraceFunction", "RobinTraceState", "init_state", "update_robin", "stopping_norm",
    "SampleParams", "EnsembleContext", "EnsembleDiagnostics", "SolveReport",
    "make_context", "run_ensemble_ddm", "run_traditional_ddm", "check_converged_residual",
    "ManufacturedSolution", "exact_solution", "manufactured_forcing",
    "error_norms", "convergence_order",
]
