"""Exception and warning types shared across the package.

Array evaluations do not raise per point: they return one uint8 reason code
per point, OK (0) where the point evaluated.  REASONS maps every other code to
the SeaLossError a scalar call raises there and its message template.
"""

import numpy as np


class SeaLossError(Exception):
    """Base class for all sealoss errors."""


class NoSpecularPoint(SeaLossError):
    """The link is at or beyond the radio horizon, so no sea reflection exists."""


class NumericalFailure(SeaLossError):
    """A numerical result the model cannot use, such as a two-ray field sum that cancels to zero."""


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


# Reason codes of array evaluations: per-point failures, then failures of a
# whole context.  uint8, so that arrays of them stay uint8.
OK, BEYOND_HORIZON, COLLAPSED, ZERO_FIELD = np.arange(4, dtype=np.uint8)
ANTENNA_TOO_HIGH, FREQUENCY_OUT_OF_RANGE, UNSUPPORTED_TIME_PERCENTAGE = np.uint8([4, 5, 6])

# Each failure's exception class and message template, the one home of both.
REASONS = {
    BEYOND_HORIZON: (NoSpecularPoint, "d = {d:.1f} m is at or beyond the horizon ({d_h:.1f} m)"),
    COLLAPSED: (NoSpecularPoint, "grazing geometry collapsed at d = {d:.1f} m"),
    ZERO_FIELD: (NumericalFailure, "two-ray field sum cancels to zero at d = {d:.1f} m"),
    ANTENNA_TOO_HIGH: (AntennaTooHigh, "antenna height {h_max:.1f} m exceeds the {ceiling:.0f} m "
                                       "Bullington ceiling at {mhz:.0f} MHz"),
    FREQUENCY_OUT_OF_RANGE: (FrequencyOutOfRange,
                             "{mhz:.1f} MHz outside the 30 MHz - 50 GHz model range"),
    UNSUPPORTED_TIME_PERCENTAGE: (UnsupportedTimePercentage, "only the median (T_pc = 50) path "
                                                             "is computed by the reduced model"),
}
