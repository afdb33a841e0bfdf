"""Exception hierarchy shared across the package."""


class PitcalError(Exception):
    """Base class for all package-specific errors."""


class InvalidGrid(PitcalError):
    """Grid points are not strictly increasing, finite, or long enough."""


class InvalidDensity(PitcalError):
    """Density values are negative or otherwise unusable."""


class DegenerateDensity(PitcalError):
    """Density has no positive mass after clipping."""


class InvalidBandwidth(PitcalError):
    """Kernel bandwidth must be strictly positive."""


class LengthMismatch(PitcalError):
    """Paired sequences differ in length."""


class InsufficientData(PitcalError):
    """Not enough calibration points for the requested neighborhood."""


class InsufficientCalibration(PitcalError):
    """Too few conformal scores for the requested miscoverage level."""


class TrainingDiverged(PitcalError):
    """Network training produced a non-finite loss."""


class DegenerateRecalibration(PitcalError):
    """The recalibrated CDF is constant and cannot be inverted."""


class HpdSearchFailed(PitcalError):
    """Density-threshold bisection did not converge."""


class NonStationaryVar(PitcalError):
    """VAR coefficients have companion-matrix spectral radius >= 1."""


class ConfigError(PitcalError):
    """A run configuration references an unknown component or field."""
