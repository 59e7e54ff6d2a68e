"""Exception and warning types shared across the package.

Array evaluations do not raise per point: they keep one error slot per point,
None where the point evaluated and the SeaLossError it raises otherwise.
"""

import numpy as np


class SeaLossError(Exception):
    """Base class for all sealoss errors."""


class NoSpecularPoint(SeaLossError):
    """The link is at or beyond the radio horizon, so no sea reflection exists."""


class NumericalFailure(SeaLossError):
    """An iterative solver failed to reach its convergence contract."""


class AntennaTooHigh(SeaLossError):
    """Antenna height exceeds the validity ceiling of the Bullington method."""


class FrequencyOutOfRange(SeaLossError):
    """Frequency outside the model's supported range."""


class UnsupportedTimePercentage(SeaLossError, NotImplementedError):
    """Only the median (T_pc = 50) path of the reduced ITU model is computed."""


class NoCoverage(SeaLossError):
    """The link budget fails even at the minimum evaluation distance."""


class UnboundedRange(SeaLossError):
    """The link budget still holds at the search cap distance."""

    def __init__(self, cap_m: float):
        super().__init__(f"link budget holds at the {cap_m / 1000.0:.0f} km search cap")
        self.cap_m = cap_m


class EmptyLog(SeaLossError):
    """Measurement log contains no header line."""


class HeaderMismatch(SeaLossError):
    """Measurement log header does not match the expected columns."""


class MissingCalibration(SeaLossError):
    """Operation requires calibrated RSSI but calibration was not applied."""


class AlreadyCalibrated(SeaLossError):
    """A non-identity calibration table was applied to already-calibrated records."""


class NoValidSamples(SeaLossError):
    """No usable (distance, path loss) samples remain after filtering."""


class DegenerateFit(SeaLossError):
    """Least-squares fit is underdetermined (all sample distances equal)."""


class LengthMismatch(SeaLossError):
    """Paired vectors have different lengths."""


class ConfigError(SeaLossError):
    """Campaign configuration file is missing, unreadable or invalid."""


class BullingtonValidityWarning(UserWarning):
    """Antenna height exceeds the scaled validity ceiling outside the 868 MHz band."""


def no_errors(n: int) -> np.ndarray:
    """Error slots for n points, all empty."""
    return np.full(n, None, dtype=object)


def failed(errors: np.ndarray) -> np.ndarray:
    """Mask of the points whose slot holds an error."""
    return np.not_equal(errors, None)


def raise_first(errors: np.ndarray) -> None:
    """Raise the first point's error, if any point has one."""
    for exc in errors:
        if exc is not None:
            raise exc
