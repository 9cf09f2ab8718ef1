"""Gradient-type density models on the unit hypercube.

The density is the Hessian determinant of a cosine-series convex potential;
its gradient transports the density to the uniform one.  The package covers
feasible-region geometry, determinant-maximization estimation (including a
lasso-type sparse variant and a graphical Gaussian baseline), exact
rejection sampling, and quadrature reproduction of closed-form moments.
"""

from .analysis import (
    DensityGrid,
    QuadratureRule,
    beta122,
    beta123,
    cond_mutual_info,
    correlation,
    density_grid,
    fisher_numeric,
    integrate,
    marginal_density,
    table1,
)
from .errors import (
    ConstantColumnError,
    DataError,
    DomainError,
    IndefiniteHessianError,
    InfeasibleStartError,
    LineSearchError,
    NumericalError,
    ResourceLimitError,
    SgmError,
    SingularHessianError,
)
from .feasibility import (
    LatticeRegion,
    LitRegion,
    fejer_kernel,
    fejer_reconstruct,
    lattice_feasible,
    lit_margin,
    ma2_feasible,
    min_eig_grid,
    scale_km,
)
from .estimators import (
    CVResult,
    FitResult,
    Scaler,
    cross_validate,
    fit_gauss_lasso,
    fit_mixm,
    fit_sgm,
    partial_correlations,
    predictive_loglik,
    preprocess,
)
from .maxdet import AffineMatrix, MaxDetProblem, SolveReport
from .model import (
    FrequencySet,
    fisher_closed_1d,
    fisher_closed_corr,
    fisher_origin,
    standard_freq_set,
)
from .sampling import (
    RejectionInfo,
    rejection_bound,
    sample_benchmark5,
    sample_mixm,
    sample_sgm,
)

__version__ = "0.1.0"

__all__ = [
    "AffineMatrix",
    "CVResult",
    "ConstantColumnError",
    "DataError",
    "DensityGrid",
    "DomainError",
    "FitResult",
    "FrequencySet",
    "IndefiniteHessianError",
    "InfeasibleStartError",
    "LatticeRegion",
    "LineSearchError",
    "LitRegion",
    "MaxDetProblem",
    "NumericalError",
    "QuadratureRule",
    "RejectionInfo",
    "ResourceLimitError",
    "Scaler",
    "SgmError",
    "SingularHessianError",
    "SolveReport",
    "beta122",
    "beta123",
    "cond_mutual_info",
    "correlation",
    "cross_validate",
    "density_grid",
    "fejer_kernel",
    "fejer_reconstruct",
    "fisher_closed_1d",
    "fisher_closed_corr",
    "fisher_numeric",
    "fisher_origin",
    "fit_gauss_lasso",
    "fit_mixm",
    "fit_sgm",
    "integrate",
    "lattice_feasible",
    "lit_margin",
    "ma2_feasible",
    "marginal_density",
    "min_eig_grid",
    "partial_correlations",
    "predictive_loglik",
    "preprocess",
    "rejection_bound",
    "sample_benchmark5",
    "sample_mixm",
    "sample_sgm",
    "scale_km",
    "standard_freq_set",
    "table1",
]
