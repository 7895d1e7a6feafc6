"""Exception types shared across the package."""


class SlnfibError(Exception):
    """Base class for all package errors."""


class DimensionError(SlnfibError, ValueError):
    """Matrix or element dimensions are incompatible or out of range."""


class SingularInput(SlnfibError, ValueError):
    """A decomposition received a (numerically) singular matrix."""


class LogDomain(SlnfibError, ValueError):
    """matrix_log called outside its convergence region ||a - I|| < 1."""


class InputError(SlnfibError, ValueError):
    """Malformed or inconsistent user-supplied data (CLI exit code 2)."""


class CheckFailed(SlnfibError, RuntimeError):
    """A runtime verification failed (CLI exit code 3)."""


class BudgetInfeasible(SlnfibError, RuntimeError):
    """No rational approximation exists within the requested budget."""
