"""Deterministic-equivalent spectral analysis of sample covariance matrices
with arbitrary per-column means and covariances."""

__version__ = "0.1.0"

from .contour import (
    ContourSpec,
    ProjectionResult,
    contour_solves,
    eigenvalue_count,
    project_functional,
    project_functionals,
    write_projection_csv,
)
from .equivalent import (
    DensityGrid,
    SupportEstimate,
    density_grid,
    r_tilde,
    stieltjes_g,
    support_scan,
)
from .fixedpoint import (
    FixedPointResult,
    NonConvergenceError,
    SolverOptions,
    apply_Iz,
    continuation_solve,
    contraction_factor,
    lambda_derivative,
    psi_matrix,
    solve_lambda,
)
from .model import (
    Column,
    Dense,
    Diagonal,
    EnsembleModel,
    ModelError,
    RotatedFamily,
    ScaledIdentity,
    load_model,
    random_orthogonal,
)
from .qve import QveProblem, qve_residual, solve_qve
from .semimetric import DomainError, UpperDiagonal, d_s, in_solver_domain, stieltjes_lipschitz_check
from .empirical import (
    ComparisonReport,
    FunctionalRow,
    FunctionalSpec,
    SampleBatch,
    compare,
    sample_batch,
    empirical_projection,
    empirical_stieltjes,
    resolvent_identity_check,
    sample_matrix,
    spectrum,
)

__all__ = [name for name in dir() if not name.startswith("_")]
