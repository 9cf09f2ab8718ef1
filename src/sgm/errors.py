"""Exception hierarchy shared across the package."""


class SgmError(Exception):
    """Base class for all package-specific errors."""


class DataError(SgmError):
    """Malformed or unusable input data (CSV layout, shapes, empty input)."""


class ConstantColumnError(DataError):
    """A data column has zero standard deviation and cannot be standardized."""


class NumericalError(SgmError):
    """Base class for numerical failures (factorization, domain, budgets)."""


class DomainError(NumericalError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class IndefiniteHessianError(DomainError):
    """The model Hessian has a negative eigenvalue: the parameter is infeasible."""


class SingularHessianError(NumericalError):
    """The model Hessian could not be factorized where positive definiteness is required."""


class ResourceLimitError(NumericalError):
    """A configured cost cap (lattice size, quadrature dimension) was exceeded."""


class InfeasibleStartError(NumericalError):
    """The zero vector is not strictly feasible for the posed problem."""


class SolverError(NumericalError):
    """The MAXDET Newton system could not be factorized even with the escalating
    ridge, or an iterate left the domain (a factor stack failed Cholesky)."""
