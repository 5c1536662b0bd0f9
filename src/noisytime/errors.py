"""Exception and warning types shared across the package."""


class NoisytimeError(Exception):
    """Base class for all errors raised by this package."""


class NotHermitian(NoisytimeError):
    """Matrix is not Hermitian within tolerance.

    Attributes:
        violation: largest absolute deviation |M[k,l] - conj(M[l,k])| found.
    """

    def __init__(self, violation, message=None):
        self.violation = violation
        super().__init__(message or f"matrix is not Hermitian (max violation {violation:.3e})")


class TraceNotOne(NoisytimeError):
    """Density matrix trace differs from one beyond tolerance."""

    def __init__(self, violation, message=None):
        self.violation = violation
        super().__init__(message or f"trace differs from 1 by {violation:.3e}")


class NotPositive(NoisytimeError):
    """Density matrix has an eigenvalue below the positivity floor."""

    def __init__(self, violation, message=None):
        self.violation = violation
        super().__init__(message or f"matrix has negative eigenvalue {violation:.3e}")


class DimensionMismatch(NoisytimeError):
    """Operands have incompatible dimensions or level structure."""


class KernelNotPSD(NoisytimeError):
    """Correlation matrix has an eigenvalue below the PSD tolerance.

    Attributes:
        min_eigenvalue: the offending eigenvalue.
    """

    def __init__(self, min_eigenvalue, message=None):
        self.min_eigenvalue = min_eigenvalue
        super().__init__(
            message
            or f"correlation matrix is not positive semidefinite (min eigenvalue {min_eigenvalue:.3e})"
        )


class KernelAsymmetric(NoisytimeError):
    """Damping-rate table is not symmetric."""


class StepTooLarge(NoisytimeError):
    """ODE step produced a local error estimate above the allowed bound, or the
    grid would need more substeps than the integrator allows."""


class GridMismatch(NoisytimeError):
    """Two time series were evaluated on different grids."""


class ConfigError(NoisytimeError):
    """Scenario configuration is invalid.

    Carries the path of the offending field, e.g. ``noise.correlation.tau``.
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class DissipativeTraceLoss(UserWarning):
    """A damping kernel with nonzero diagonal makes the evolution lose trace."""
