"""Gradient-type density models on the unit hypercube.

The density is the Hessian determinant of a cosine-series convex potential;
its gradient transports the density to the uniform one.  The package covers
feasible-region geometry, determinant-maximization estimation (including a
lasso-type sparse variant and a graphical Gaussian baseline), exact
rejection sampling, and quadrature reproduction of closed-form moments.
"""

from types import ModuleType as _ModuleType

from .analysis import (
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
    NumericalError,
    ResourceLimitError,
    SgmError,
    SingularHessianError,
    SolverError,
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
    cross_validate,
    fit_gauss_lasso,
    fit_mixm,
    fit_sgm,
    partial_correlations,
    predictive_loglik,
    preprocess,
)
from .model import (
    FrequencySet,
    fisher_closed_1d,
    fisher_closed_corr,
    fisher_origin,
    standard_freq_set,
)
from .sampling import (
    rejection_bound,
    sample_benchmark5,
    sample_mixm,
    sample_sgm,
)

__version__ = "0.1.0"

# every public name imported above, listed once
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))
