"""Over-sea RF path-loss models and LPWAN measurement-campaign analysis.

Models: free space, plane-earth two-ray, round-earth two-ray with a composed
sea reflection (REL), Bullington plane-earth-plus-shadow, reduced ITU-R
P.2001, and log-distance.  Plus the campaign pipeline: log ingest, RSSI
calibration, GPS geolocation, link-budget conversion, least-squares fitting
and RMSE/MAE model comparison.
"""

from .errors import (
    AlreadyCalibrated,
    AntennaTooHigh,
    BullingtonValidityWarning,
    ConfigError,
    DegenerateFit,
    EmptyLog,
    FrequencyOutOfRange,
    HeaderMismatch,
    LengthMismatch,
    MissingCalibration,
    NoCoverage,
    NoSpecularPoint,
    NoValidSamples,
    NumericalFailure,
    SeaLossError,
    UnboundedRange,
    UnsupportedTimePercentage,
)
from .geometry import (
    EARTH_RADIUS,
    SPEED_OF_LIGHT,
    EarthModel,
    GeoPoint,
    LinkGeometry,
    ReflectionGeometry,
    critical_distance,
    fresnel60_distance,
    great_circle_distance,
    horizon_distance,
    specular_points,
    wavelength,
)
from .ingest import (
    CalibrationTable,
    CampaignConfig,
    ExclusionZone,
    MeasurementRecord,
    ParsedLog,
    Records,
    apply_calibration,
    builtin_data_path,
    geolocate,
    load_campaign,
    parse_log,
    rssi_to_pathloss,
    to_sample_set,
)
from .metrics import (
    ErrorReport,
    SampleSet,
    bin_samples,
    compare_models,
    fit_log_distance,
    mae,
    rmse,
)
from .models import (
    MODEL_IDS,
    ItuParams,
    LogDistanceParams,
    ModelContext,
    ModelCurve,
    RadioConfig,
    evaluate_model,
    free_space_loss,
    log_distance_loss,
    losses,
    max_range,
    smooth_earth_diffraction_loss,
    sweep,
)
from .sea import (
    EffectiveReflection,
    Polarization,
    SeaState,
    divergence_factor,
    effective_reflection_at,
    fresnel_reflection,
    roughness_factor,
    shadowing_factor,
)

__version__ = "0.1.0"
