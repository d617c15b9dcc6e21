"""Exception hierarchy shared across the package."""


class CopulamixError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CopulamixError, ValueError):
    """An argument lies outside the documented domain."""


class EvaluationError(CopulamixError, ArithmeticError):
    """A quantity exists but cannot be evaluated at the requested point."""


class DensityUnavailableError(CopulamixError):
    """The absolutely continuous density is not computable for this copula."""


class FoldDepthError(CopulamixError, RuntimeError):
    """Numeric fold nesting exceeded the configured cap."""


class UnsupportedCopulaError(CopulamixError):
    """The requested operation is not defined for this copula."""


class DegenerateSampleError(CopulamixError, ZeroDivisionError):
    """Sample moments make the requested statistic undefined."""


class ConfigError(CopulamixError, ValueError):
    """Experiment configuration is malformed or inconsistent."""


class ConvergenceWarning(RuntimeWarning):
    """A numeric routine stopped at its iteration cap with components unsolved."""
