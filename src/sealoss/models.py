"""Path-loss models for over-sea links.

Free space, plane-earth two-ray, round-earth two-ray with an effective
reflection coefficient (the REL family), Bullington's plane-earth-plus-shadow
method, a reduced ITU-R P.2001 evaluation (free space plus spherical-earth
diffraction under median conditions), and the empirical log-distance model.
All models return loss in dB as a function of distance.

Every model is written once, as a kernel over arrays of distances, and
reached through one entry: losses() evaluates a model at many distances in
one pass, recording per point a reason code (errors.REASONS) for the
SeaLossError that evaluate_model, the one scalar entry, raises there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    ANTENNA_TOO_HIGH,
    FREQUENCY_OUT_OF_RANGE,
    OK,
    UNSUPPORTED_TIME_PERCENTAGE,
    ZERO_FIELD,
    BullingtonValidityWarning,
    ConfigError,
    NoCoverage,
    UnboundedRange,
)
from .geometry import (
    EarthModel,
    LinkGeometry,
    check_heights,
    distances,
    fresnel60_distance,
    horizon_distance,
    like,
    point_errors,
    specular_points,
    wavelength,
)
from .sea import Polarization, SeaState, effective_reflection_at

MODEL_IDS = (
    "free-space",
    "two-ray-flat",
    "two-ray-round",
    "rel",
    "bullington",
    "itu",
    "log-distance",
)

# Sea-water constants used by the spherical-earth diffraction term.
SEA_PERMITTIVITY = 80.0
SEA_CONDUCTIVITY = 5.0

MAX_RANGE_CAP = 100_000.0  # m; search cap for link-budget range solving

# Bullington's plane-earth method is stated for antennas below 15 m at
# 868 MHz; the ceiling scales as f^(-1/3) away from that band.
_BULLINGTON_CEILING_M = 15.0
_BULLINGTON_BAND = (768e6, 968e6)


@dataclass(frozen=True)
class RadioConfig:
    """Link hardware: frequency, powers, gains and receiver sensitivity (dB units)."""

    frequency: float
    tx_power: float
    tx_antenna_gain: float = 0.0
    rx_antenna_gain: float = 0.0
    polarization_loss: float = 0.0
    rx_sensitivity: float = -138.0

    def __post_init__(self):
        if not self.frequency > 0:
            raise ValueError("frequency must be positive")
        if self.polarization_loss < 0:
            raise ValueError("polarization loss must be non-negative")
        for name in ("tx_power", "tx_antenna_gain", "rx_antenna_gain", "rx_sensitivity"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def gains(self) -> float:
        """Transmit power plus antenna gains less polarization loss, in dB(m)."""
        return self.tx_power + self.tx_antenna_gain + self.rx_antenna_gain - self.polarization_loss

    @property
    def budget(self) -> float:
        """Maximum tolerable path loss: powers and gains against sensitivity."""
        return self.gains - self.rx_sensitivity


@dataclass(frozen=True)
class LogDistanceParams:
    """Log-distance model: loss L_p0 at reference d_0 plus 10 n per decade."""

    n: float
    l_p0: float
    d_0: float

    def __post_init__(self):
        if not self.d_0 > 0:
            raise ValueError("reference distance must be positive")
        if not (math.isfinite(self.n) and math.isfinite(self.l_p0)):
            raise ValueError("parameters must be finite")


@dataclass(frozen=True)
class ItuParams:
    """Reduced ITU-R P.2001 inputs: annual time percentage and median k-factor."""

    time_percentage: float = 50.0
    median_effective_radius_factor: float = 4.0 / 3.0

    def __post_init__(self):
        if not 0.0 < self.time_percentage < 100.0:
            raise ValueError("time percentage must lie in (0, 100)")
        if not self.median_effective_radius_factor > 0:
            raise ValueError("median effective radius factor must be positive")


@dataclass(frozen=True, eq=False)
class ModelCurve:
    """A model over a distance grid as read-only float64 arrays; unevaluable points are skipped, not faked."""

    model_id: str
    distances: np.ndarray
    losses: np.ndarray
    skipped: tuple = ()

    def __post_init__(self):
        distances, losses = np.array(self.distances, dtype=float), np.array(self.losses, dtype=float)
        if len(distances) != len(losses):
            raise ValueError("distances and losses must have equal length")
        if not (np.diff(distances) > 0).all():
            raise ValueError("distances must be strictly increasing")
        if not np.isfinite(losses).all():
            raise ValueError("losses must be finite")
        for name, a in (("distances", distances), ("losses", losses)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)


@dataclass(frozen=True)
class ModelContext:
    """Everything the model family needs besides the distance.

    The antenna heights and earth model act as the link template;
    geometry_at(d) gives the link geometry at a distance or an array of them.
    Heights outside (0, MAX_ANTENNA_HEIGHT] raise ValueError for every model.
    """

    h_t: float
    h_r: float
    frequency: float
    earth: EarthModel = field(default_factory=EarthModel)
    sea: SeaState = field(default_factory=SeaState)
    polarization: Polarization = Polarization.VERTICAL
    itu: ItuParams = field(default_factory=ItuParams)
    log_distance: LogDistanceParams | None = None

    def __post_init__(self):
        check_heights(self.h_t, self.h_r)

    def geometry_at(self, d) -> LinkGeometry:
        return LinkGeometry(h_t=self.h_t, h_r=self.h_r, d=d, earth=self.earth)


def _errors(g: LinkGeometry, frequency: float, reasons: np.ndarray):
    """Yield the SeaLossError of every failed point of g, in order."""
    return point_errors(g, reasons, mhz=frequency / 1e6, ceiling=_BULLINGTON_CEILING_M)


def _failing(d: np.ndarray, code):
    """The losses and reasons of a context that fails with one code at every point."""
    return np.full(d.shape, np.nan), np.full(d.shape, code)


def free_space_loss(d, frequency: float):
    """Free-space path loss 20 log10(4 pi d / lambda) in dB."""
    return like(d, 20.0 * np.log10(4.0 * math.pi * distances(d) / wavelength(frequency)))


def _two_ray_db(l, r, reflection, frequency: float):
    """Two-ray losses and reasons given direct lengths l, reflected lengths r and coefficients R."""
    lam = wavelength(frequency)
    phase = 2.0 * math.pi * (r - l) / lam
    # 1/l overflows only for equal heights at a subnormal distance.
    with np.errstate(over="ignore"):
        field_sum = 1.0 / l + reflection * np.exp(1j * phase) / r
    magnitude = np.abs(field_sum)
    # |1/l + R e^{j phi}/r| >= 1/l - |R|/r > 0 for |R| <= 1 and r > l, but far
    # out r - l can round to exactly 0, and with R = -1 the two terms cancel.
    zero = magnitude == 0.0
    with np.errstate(divide="ignore"):
        loss = 20.0 * math.log10(4.0 * math.pi / lam) - 20.0 * np.log10(magnitude)
    loss[zero] = np.nan
    # Where 1/l overflowed the reflected term is below its rounding: free space over l.
    over = np.isinf(magnitude)
    loss[over] = 20.0 * np.log10(4.0 * math.pi * l[over] / lam)
    return loss, np.where(zero, ZERO_FIELD, OK)


def _two_ray_flat(d, h_t: float, h_r: float, frequency: float, reflection: complex = -1.0):
    """Plane-earth two-ray losses and reasons at the distance array d, any reflection coefficient.

    The direct ray has length sqrt(d^2 + (h_t - h_r)^2), the reflected one
    sqrt(d^2 + (h_t + h_r)^2) via the image point; equal antenna gain is
    assumed toward both rays.  reflection = 0 degenerates to free space over
    the direct-ray length.  A point where the field sum cancels to zero
    carries ZERO_FIELD.
    """
    l, r = np.hypot(d, h_t - h_r), np.hypot(d, h_t + h_r)
    return _two_ray_db(l, r, complex(reflection), frequency)


def _two_ray_round(g: LinkGeometry, frequency: float, sea: SeaState, pol: Polarization):
    """Two-ray losses and reasons in the round-earth geometry with the effective sea reflection.

    Ray lengths come from the specular point on the curved sea at each
    distance; a point with no specular point carries specular_points' reason.
    """
    rg, reasons = specular_points(g)
    ok = reasons == OK
    r_eff = effective_reflection_at(rg, g, frequency, sea, pol)
    loss = np.full(reasons.size, np.nan)
    loss[ok], reasons[ok] = _two_ray_db(rg.l, rg.x + rg.x_prime, r_eff.value, frequency)
    return loss, reasons


def _first_term_diffraction(
    d_m,
    h_t: float,
    h_r: float,
    radius_m,
    frequency: float,
    polarization: Polarization,
):
    """First-term residue-series smooth-sphere attenuation, dB over free space.

    Normalized-coordinate form (distance term F(X) plus height-gain terms
    G(Y)) with the surface-admittance factor K and ground parameter beta for
    sea water (SEA_PERMITTIVITY, SEA_CONDUCTIVITY); the inner formulas are
    bound to GHz / km / m units.  d_m and radius_m may be arrays of the same
    shape.
    """
    f_ghz = frequency / 1e9
    a_km = radius_m / 1000.0
    d_km = d_m / 1000.0
    k_factor = (
        0.036
        * (a_km * f_ghz) ** (-1.0 / 3.0)
        * ((SEA_PERMITTIVITY - 1.0) ** 2 + (18.0 * SEA_CONDUCTIVITY / f_ghz) ** 2) ** (-1.0 / 4.0)
    )
    if polarization is not Polarization.HORIZONTAL:
        k_factor = k_factor * math.sqrt(SEA_PERMITTIVITY ** 2 + (18.0 * SEA_CONDUCTIVITY / f_ghz) ** 2)
    k2 = k_factor * k_factor
    beta = (1.0 + 1.6 * k2 + 0.67 * k2 * k2) / (1.0 + 4.5 * k2 + 1.53 * k2 * k2)

    # Both branches are evaluated everywhere; np.where keeps the valid one.
    with np.errstate(divide="ignore", invalid="ignore"):
        x_norm = 21.88 * beta * (f_ghz / a_km ** 2) ** (1.0 / 3.0) * d_km
        f_x = np.where(
            x_norm >= 1.6,
            11.0 + 10.0 * np.log10(x_norm) - 17.6 * x_norm,
            -20.0 * np.log10(x_norm) - 5.6488 * x_norm ** 1.425,
        )

        def height_gain(h: float):
            y_norm = 0.9575 * beta * (f_ghz ** 2 / a_km) ** (1.0 / 3.0) * h
            b = beta * y_norm
            g_y = np.where(
                b > 2.0,
                17.6 * np.sqrt(b - 1.1) - 5.0 * np.log10(b - 1.1) - 8.0,
                20.0 * np.log10(b + 0.1 * b ** 3),
            )
            return np.maximum(g_y, 2.0 + 20.0 * np.log10(k_factor))

        return -f_x - height_gain(h_t) - height_gain(h_r)


def smooth_earth_diffraction_loss(g: LinkGeometry, frequency: float):
    """Smooth-sea spherical-earth diffraction loss in dB over free space.

    First-term residue-series attenuation, vertical-polarized, over sea water
    with the link's effective earth radius; floored at 0 dB where the term
    would predict gain at short range.
    """
    loss = _first_term_diffraction(
        distances(g.d), g.h_t, g.h_r, g.earth.effective_radius, frequency, Polarization.VERTICAL
    )
    return like(g.d, np.maximum(0.0, loss))


def _beyond_horizon(g: LinkGeometry, frequency: float):
    """Free space plus the full (vertical-polarized) smooth-sphere diffraction."""
    return free_space_loss(g.d, frequency) + smooth_earth_diffraction_loss(g, frequency)


def _log_bridge(d, d_60: float, d_h: float, end_value: float):
    """Diffraction onset bridged linearly in log10(d) from 0 at d_60 to end_value at d_h."""
    if d_60 >= d_h:
        return np.zeros(d.shape)
    frac = (np.log10(d) - math.log10(d_60)) / (math.log10(d_h) - math.log10(d_60))
    return np.where(d <= d_60, 0.0, end_value * np.minimum(frac, 1.0))


def _bridged(g: LinkGeometry, frequency: float, base, horizon_value):
    """base(g inside the horizon) plus the bridge from 0 at d_60 to horizon_value(g at d_h).

    horizon_value gives the bridge's end value and its reason code; where that
    code is not OK every point inside the horizon carries it, with a nan loss.
    Beyond the horizon the loss is free space plus the smooth-sphere diffraction.
    """
    d = distances(g.d)
    d_h = horizon_distance(g)
    beyond = d >= d_h
    loss, reasons = np.empty(d.shape), np.zeros(d.shape, np.uint8)
    if beyond.any():
        loss[beyond] = _beyond_horizon(replace(g, d=d[beyond]), frequency)
    inside = ~beyond
    if inside.any():
        end_value, end_reason = horizon_value(replace(g, d=d_h))
        if end_reason != OK:
            loss[inside], reasons[inside] = np.nan, end_reason
            return loss, reasons
        base_loss, reasons[inside] = base(replace(g, d=d[inside]))
        d_60 = fresnel60_distance(g, frequency)
        loss[inside] = base_loss + _log_bridge(d[inside], d_60, d_h, end_value)
    return loss, reasons


def _bullington(g: LinkGeometry, frequency: float):
    """Plane-earth two-ray over a perfect conductor plus a shadow-loss correction.

    Within the horizon the loss is the plane-earth two-ray result with R = -1;
    the shadow loss relative to that plane-earth field is bridged linearly in
    log10(d) from 0 at the 60 %-clearance distance to its horizon value, and
    beyond the horizon the loss is free space plus the smooth-sphere
    diffraction term.  Both seams are continuous by construction.  The
    diffraction term is always the vertical-polarized one.  Where the
    plane-earth field cancels at d_h the horizon value is undefined, and
    every point inside the horizon carries ZERO_FIELD.

    Every point carries ANTENNA_TOO_HIGH above the 15 m validity ceiling near
    868 MHz; at other frequencies a BullingtonValidityWarning is emitted
    above the f^(-1/3)-scaled ceiling instead.
    """
    h_max = max(g.h_t, g.h_r)
    if _BULLINGTON_BAND[0] <= frequency <= _BULLINGTON_BAND[1]:
        if h_max > _BULLINGTON_CEILING_M:
            return _failing(distances(g.d), ANTENNA_TOO_HIGH)
    else:
        ceiling = _BULLINGTON_CEILING_M * (868e6 / frequency) ** (1.0 / 3.0)
        if h_max > ceiling:
            warnings.warn(
                f"antenna height {h_max:.1f} m exceeds the scaled Bullington ceiling "
                f"{ceiling:.1f} m at {frequency / 1e6:.0f} MHz",
                BullingtonValidityWarning,
                stacklevel=3,
            )

    def horizon_value(at_d_h: LinkGeometry):
        flat, reason = _two_ray_flat(distances(at_d_h.d), g.h_t, g.h_r, frequency)
        return _beyond_horizon(at_d_h, frequency) - flat.item(), reason.item()

    return _bridged(
        g, frequency, lambda inner: _two_ray_flat(inner.d, g.h_t, g.h_r, frequency), horizon_value
    )


def _rel(g: LinkGeometry, frequency: float, sea: SeaState, pol: Polarization):
    """Round-earth two-ray with an effective sea reflection plus diffraction onset.

    The two-ray term uses the composed reflection coefficient (Fresnel x
    roughness x shadowing x divergence); the smooth-sphere diffraction loss is
    bridged in from 0 at the 60 %-clearance distance to its full horizon value
    at d_h.  Beyond the horizon, where no specular point exists, the loss
    degrades gracefully to free space plus the full diffraction term.  pol
    sets the reflection only: the diffraction term is always the
    vertical-polarized one.
    """
    return _bridged(
        g, frequency,
        lambda inner: _two_ray_round(inner, frequency, sea, pol),
        lambda at_d_h: (smooth_earth_diffraction_loss(at_d_h, frequency), OK),
    )


def _itu_spherical_diffraction(
    d_m,
    h_t: float,
    h_r: float,
    radius_m: float,
    frequency: float,
    polarization: Polarization,
):
    """Spherical-earth diffraction loss with marginal-LoS interpolation.

    Beyond the marginal line-of-sight distance the first term applies
    directly; inside it, the smallest clearance of the curved-earth ray is
    compared with the clearance needed for zero diffraction loss, and the
    first term evaluated at the effective radius that would make the path
    marginally line-of-sight is scaled accordingly.  km / m units inside;
    d_m is an array.
    """
    a_km = radius_m / 1000.0
    d_km = d_m / 1000.0
    lam = wavelength(frequency)

    def first_term(d_m, adft_km):
        return _first_term_diffraction(d_m, h_t, h_r, adft_km * 1000.0, frequency, polarization)

    loss = np.zeros(d_m.shape)
    d_los = math.sqrt(2.0 * a_km) * (math.sqrt(0.001 * h_t) + math.sqrt(0.001 * h_r))
    far = d_km >= d_los
    if far.any():
        loss[far] = np.maximum(0.0, first_term(d_m[far], a_km))
    # A distance that underflows to 0 km is clear of the earth.
    near = ~far & (d_km > 0.0)
    if not near.any():
        return loss

    # Inside d_los: smallest clearance between the curved-earth path and the
    # direct ray.  Its position b is the trigonometric root of a cubic, which
    # cancels as m -> 0 (0 * inf at m = 0); below m = 1e-11 b's limit c is
    # the closer value.
    d_km = d_km[near]
    c = (h_t - h_r) / (h_t + h_r)
    m = 250.0 * d_km * d_km / (a_km * (h_t + h_r))
    m_cubic = np.maximum(m, 1e-11)
    third = np.arccos(1.5 * c * np.sqrt(3.0 * m_cubic / (m_cubic + 1.0) ** 3)) / 3.0
    root = 2.0 * np.sqrt((m_cubic + 1.0) / (3.0 * m_cubic)) * np.cos(math.pi / 3.0 + third)
    b = np.where(m < 1e-11, c, root)
    d_se1 = 0.5 * d_km * (1.0 + b)
    d_se2 = d_km - d_se1
    h_se = (
        (h_t - 500.0 * d_se1 * d_se1 / a_km) * d_se2
        + (h_r - 500.0 * d_se2 * d_se2 / a_km) * d_se1
    ) / d_km
    h_req = 17.456 * np.sqrt(d_se1 * d_se2 * lam / d_km)
    # Only a path whose clearance falls short of h_req loses anything: the
    # first term at the radius that makes it marginally line-of-sight, scaled.
    short = h_se <= h_req
    a_marginal = 500.0 * (d_km[short] / (math.sqrt(h_t) + math.sqrt(h_r))) ** 2
    marginal = first_term(d_m[near][short], a_marginal)
    near_loss = np.zeros(d_km.shape)
    near_loss[short] = np.where(marginal < 0.0, 0.0, (1.0 - h_se[short] / h_req[short]) * marginal)
    loss[near] = near_loss
    return loss


def _itu(g: LinkGeometry, frequency: float, itu: ItuParams, polarization: Polarization):
    """Reduced ITU-R P.2001 loss: free space plus spherical-sea diffraction.

    Only the normal-propagation path under median conditions is evaluated;
    the diffraction term uses the model's own median effective radius factor
    rather than the link's.  Every point carries FREQUENCY_OUT_OF_RANGE
    outside 30 MHz-50 GHz and UNSUPPORTED_TIME_PERCENTAGE for any time
    percentage other than 50.
    """
    d = distances(g.d)
    if not 30e6 <= frequency <= 50e9:
        return _failing(d, FREQUENCY_OUT_OF_RANGE)
    if itu.time_percentage != 50.0:
        return _failing(d, UNSUPPORTED_TIME_PERCENTAGE)
    radius_m = itu.median_effective_radius_factor * g.earth.true_radius
    diffraction = _itu_spherical_diffraction(d, g.h_t, g.h_r, radius_m, frequency, polarization)
    return free_space_loss(d, frequency) + diffraction, np.zeros(d.shape, np.uint8)


def log_distance_loss(d, p: LogDistanceParams):
    """Empirical log-distance loss L_p0 + 10 n log10(d / d_0)."""
    return like(d, p.l_p0 + 10.0 * p.n * np.log10(distances(d) / p.d_0))


def losses(model_id: str, ctx: ModelContext, d) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate one model at every distance of d in one vectorized pass.

    What depends on the context only (wavelength, horizon and 60 %-clearance
    distances, the horizon-value diffraction, the validity checks) is
    computed once per call.  Returns the losses in dB and a uint8 reason code
    per point: 0 where the point evaluated, else the errors.REASONS code of
    the SeaLossError that evaluate_model raises there, and the point's loss
    is nan.  A domain error of the whole context (e.g. AntennaTooHigh) is
    every point's code.  ConfigError and non-positive distances raise.
    """
    d = distances(d)
    if model_id == "free-space":
        return free_space_loss(d, ctx.frequency), np.zeros(d.shape, np.uint8)
    if model_id == "two-ray-flat":
        return _two_ray_flat(d, ctx.h_t, ctx.h_r, ctx.frequency)
    if model_id == "two-ray-round":
        return _two_ray_round(ctx.geometry_at(d), ctx.frequency, ctx.sea, ctx.polarization)
    if model_id == "rel":
        return _rel(ctx.geometry_at(d), ctx.frequency, ctx.sea, ctx.polarization)
    if model_id == "bullington":
        return _bullington(ctx.geometry_at(d), ctx.frequency)
    if model_id == "itu":
        return _itu(ctx.geometry_at(d), ctx.frequency, ctx.itu, ctx.polarization)
    if model_id == "log-distance":
        if ctx.log_distance is None:
            raise ConfigError("log-distance model requires fitted parameters in the context")
        return log_distance_loss(d, ctx.log_distance), np.zeros(d.shape, np.uint8)
    raise ConfigError(f"unknown model id: {model_id!r}")


def evaluate_model(model_id: str, ctx: ModelContext, d: float) -> float:
    """Evaluate one model at a single distance: losses() on one point, raising its SeaLossError."""
    loss, reasons = losses(model_id, ctx, d)
    if reasons.any():
        raise next(_errors(ctx.geometry_at(distances(d)), ctx.frequency, reasons))
    return like(d, loss)


def distance_grid(d_min: float, d_max: float, n_points: int, spacing: str = "log") -> list:
    """Distance grid with exact endpoints, linear or logarithmic."""
    d_min, d_max = float(d_min), float(d_max)
    if not 0 < d_min < d_max:
        raise ValueError("require 0 < d_min < d_max")
    if n_points < 2:
        raise ValueError("need at least two grid points")
    if spacing == "linear":
        step = (d_max - d_min) / (n_points - 1)
        grid = [d_min + i * step for i in range(n_points)]
    elif spacing == "log":
        lg_min, lg_max = math.log10(d_min), math.log10(d_max)
        step = (lg_max - lg_min) / (n_points - 1)
        grid = [10.0 ** (lg_min + i * step) for i in range(n_points)]
    else:
        raise ValueError(f"unknown spacing: {spacing!r}")
    grid[0], grid[-1] = d_min, d_max
    return grid


def sweep(
    model_id: str,
    ctx: ModelContext,
    d_min: float,
    d_max: float,
    n_points: int,
    spacing: str = "log",
) -> ModelCurve:
    """Evaluate a model over a distance grid into a ModelCurve.

    Distances where the model raises a domain error (e.g. a beyond-horizon
    two-ray) are recorded in the curve's skipped list rather than fabricated.
    The whole grid is one vectorized evaluation.
    """
    grid = np.asarray(distance_grid(d_min, d_max, n_points, spacing))
    loss, reasons = losses(model_id, ctx, grid)
    bad = reasons != OK
    errors = _errors(ctx.geometry_at(grid), ctx.frequency, reasons) if bad.any() else ()
    skipped = tuple((d, f"{type(e).__name__}: {e}") for d, e in zip(grid[bad].tolist(), errors))
    return ModelCurve(model_id=model_id, distances=grid[~bad], losses=loss[~bad], skipped=skipped)


# The scan grid of max_range, 2048 log-spaced points from 1 m to MAX_RANGE_CAP.
_RANGE_GRID = np.asarray(distance_grid(1.0, MAX_RANGE_CAP, 2048, "log"))
_RANGE_GRID.flags.writeable = False
# Interior points per refinement round of max_range.
_RANGE_SECTIONS = np.arange(1, 33) / 33.0


def max_range(model_id: str, ctx: ModelContext, radio: RadioConfig) -> float:
    """Largest distance at which the link budget still closes, in metres.

    A dense logarithmic scan from 1 m to MAX_RANGE_CAP locates the outermost
    distance where the predicted loss stays within the budget (robust against
    the oscillatory two-ray region).  The crossing is then refined by
    k-section: each round evaluates 32 interior points of the bracket at once
    and keeps the outermost closes-to-fails step, until no float lies inside
    the bracket.

    Raises the model's domain error (e.g. AntennaTooHigh) for a context it
    cannot evaluate at all, NoCoverage if the budget fails even at 1 m and
    UnboundedRange if it still holds at the search cap.
    """
    budget = radio.budget

    def closes(d) -> np.ndarray:
        return losses(model_id, ctx, d)[0] <= budget  # a failed point's nan never closes

    loss, reasons = losses(model_id, ctx, _RANGE_GRID)
    if reasons[0] >= ANTENNA_TOO_HIGH:  # a whole-context failure, which every point carries
        raise next(_errors(ctx.geometry_at(_RANGE_GRID[:1]), ctx.frequency, reasons[:1]))
    ok = loss <= budget
    if ok[-1]:
        raise UnboundedRange(MAX_RANGE_CAP)
    if not ok.any():
        raise NoCoverage(f"budget {budget:.1f} dB fails even at 1 m")
    last = np.flatnonzero(ok)[-1]
    lo, hi = _RANGE_GRID[last], _RANGE_GRID[last + 1]
    while True:
        inner = lo + (hi - lo) * _RANGE_SECTIONS
        inner = inner[(lo < inner) & (inner < hi)]
        if inner.size == 0:
            return float(lo)
        # The bracket ends are known: lo closes, hi fails.
        points = np.concatenate(([lo], inner, [hi]))
        ok = np.concatenate(([True], closes(inner), [False]))
        last = np.flatnonzero(ok)[-1]
        lo, hi = points[last], points[last + 1]
