"""Earth and link geometry for over-sea radio paths.

Great-circle distances, the round-earth two-ray reflection geometry, and the
characteristic link distances: the critical distance d_c where the two-ray
interference pattern stops oscillating, the radio-horizon distance d_h, and
the 60 %-first-Fresnel-zone clearance distance d_60.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import BEYOND_HORIZON, COLLAPSED, NOT_CONVERGED, OK, REASONS

SPEED_OF_LIGHT = 299_792_458.0  # m/s
EARTH_RADIUS = 6_371_000.0      # mean earth radius, m

# Antenna heights must stay far below the earth radius for the parabolic
# (tangent-plane) approximations used here; 10 km keeps h/r_e < 2e-3.
MAX_ANTENNA_HEIGHT = 10_000.0


def as_array(x) -> np.ndarray:
    """x (a number or a sequence of them) as a 1-D float array."""
    return np.atleast_1d(np.asarray(x, dtype=float))


def distances(d) -> np.ndarray:
    """Distances in metres as a 1-D float array; every one must be positive."""
    d = as_array(d)
    if not (d > 0).all():
        raise ValueError("distance must be positive")
    return d


def like(x, values):
    """values as they are when x is an array, as a Python number when x is a number.

    The scalar API computes through one-point arrays, so a scalar call runs
    the same numpy loops as an array call and gives the same bits.
    """
    return values if np.ndim(x) else np.asarray(values).item()


def wavelength(frequency: float) -> float:
    """Free-space wavelength in metres for a frequency in Hz."""
    if frequency <= 0:
        raise ValueError("frequency must be positive")
    return SPEED_OF_LIGHT / frequency


@dataclass(frozen=True)
class EarthModel:
    """Spherical earth with an effective-radius factor for refraction.

    The effective radius k * true_radius is used wherever the geometry or
    diffraction needs an earth radius; k = 1 means no refraction correction,
    k = 4/3 is the conventional median-atmosphere value.
    """

    true_radius: float = EARTH_RADIUS
    effective_radius_factor: float = 1.0

    def __post_init__(self):
        if not self.true_radius > 0:
            raise ValueError("true_radius must be positive")
        if not self.effective_radius_factor > 0:
            raise ValueError("effective_radius_factor must be positive")

    @property
    def effective_radius(self) -> float:
        return self.effective_radius_factor * self.true_radius


@dataclass(frozen=True)
class GeoPoint:
    """WGS-less spherical latitude/longitude in degrees."""

    latitude: float
    longitude: float

    def __post_init__(self):
        if not -90.0 <= self.latitude <= 90.0:
            raise ValueError(f"latitude out of range: {self.latitude}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ValueError(f"longitude out of range: {self.longitude}")


@dataclass(frozen=True)
class LinkGeometry:
    """A transmitter/receiver pair over the sea.

    h_t and h_r are the antenna heights above the sea surface and d the
    great-circle distance between the antennas' surface projections, or a 1-D
    array of such distances (one geometry per distance).
    """

    h_t: float
    h_r: float
    d: float
    earth: EarthModel = field(default_factory=EarthModel)

    def __post_init__(self):
        if not self.h_t > 0 or not self.h_r > 0:
            raise ValueError("antenna heights must be positive")
        if self.h_t > MAX_ANTENNA_HEIGHT or self.h_r > MAX_ANTENNA_HEIGHT:
            raise ValueError(f"antenna heights above {MAX_ANTENNA_HEIGHT} m are not supported")
        if not np.all(self.d > 0):
            raise ValueError("distance must be positive")


@dataclass(frozen=True)
class ReflectionGeometry:
    """Two-ray geometry at the specular point on the curved sea.

    x and x_prime are the slant lengths of the two reflected-ray segments,
    l the direct-ray length, h_t_prime / h_r_prime the antenna heights above
    the plane tangent to the earth at the specular point, and grazing_angle
    the angle between the reflected ray and that tangent plane.  ground_x and
    ground_x_prime are the along-surface distances to the specular point.
    Every field is a number, or a 1-D array with one entry per distance.
    """

    x: float
    x_prime: float
    l: float
    h_t_prime: float
    h_r_prime: float
    grazing_angle: float
    ground_x: float
    ground_x_prime: float

    def __post_init__(self):
        if not np.all(self.grazing_angle > 0):
            raise ValueError("grazing angle must be positive within the horizon")
        # Reflected path can never beat the direct path (Minkowski).
        if np.any(self.x + self.x_prime < self.l):
            raise ValueError("reflected path shorter than direct path")


def haversine_distance(lat_a, lon_a, lat_b, lon_b, radius: float) -> np.ndarray:
    """Haversine great-circle distances in metres between (lat_a, lon_a) and (lat_b, lon_b).

    Arguments are degrees, numbers or arrays that broadcast together; the
    result is an array.  The haversine form is used for numerical stability
    at the short ranges a measurement campaign produces.
    """
    phi_a = np.radians(lat_a)
    phi_b = np.radians(lat_b)
    dphi = np.radians(np.subtract(lat_b, lat_a))
    dlam = np.radians(np.subtract(lon_b, lon_a))
    s_phi = np.sin(dphi / 2.0)
    s_lam = np.sin(dlam / 2.0)
    h = s_phi * s_phi + np.cos(phi_a) * np.cos(phi_b) * (s_lam * s_lam)
    return 2.0 * radius * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def great_circle_distance(a: GeoPoint, b: GeoPoint, earth: EarthModel | None = None) -> float:
    """Haversine great-circle distance in metres on the true earth radius.

    The effective-radius factor is a refraction construct and deliberately
    does not enter surface distances.
    """
    earth = earth or EarthModel()
    return haversine_distance(
        a.latitude, a.longitude, b.latitude, b.longitude, earth.true_radius
    ).item()


def critical_distance(g: LinkGeometry, wavelength: float) -> float:
    """Distance 4 h_t h_r / lambda beyond which two-ray interference stops oscillating."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    return 4.0 * g.h_t * g.h_r / wavelength


def horizon_distance(g: LinkGeometry) -> float:
    """Great-circle distance at which the direct ray grazes the sea surface."""
    r_e = g.earth.effective_radius
    return r_e * (math.acos(r_e / (r_e + g.h_t)) + math.acos(r_e / (r_e + g.h_r)))


def fresnel60_distance(g: LinkGeometry, frequency: float) -> float:
    """Largest distance with 60 % first-Fresnel-zone clearance, in metres.

    Empirical closed form with the frequency in Hz; the raw expression yields
    kilometres, validated against a geometric clearance-sweep oracle in the
    test suite (the agreement is ~6 %, every other unit reading is off by
    orders of magnitude).
    """
    if frequency <= 0:
        raise ValueError("frequency must be positive")
    root_sum = math.sqrt(g.h_t) + math.sqrt(g.h_r)
    num = 1.5949e-10 * frequency * g.h_t * g.h_r * root_sum
    den = 3.89e-11 * frequency * g.h_t * g.h_r + 4.1 * root_sum
    return 1000.0 * num / den


def _specular_ground_distance(h_t: float, h_r: float, d: np.ndarray, r_e: float):
    """Roots of the specular-point cubic in (0, d) by a Newton/bisection hybrid.

    The cubic is p(x) = 2x^3 - 3dx^2 + c1 x + c0.  p(0) = 2 r_e h_t d > 0 and
    p(d) = -2 r_e h_r d < 0, so (0, d) always brackets the single physical
    root.  Every point takes Newton steps whenever they stay inside its
    bracket, bisection otherwise, and stops once its residual is below 1e-10
    of the largest term's magnitude.  Returns the roots (nan where the solve
    failed), the reason codes, and the last residuals and their scales.  Each
    point's steps depend on that point only, so a one-point solve gives the
    same bits.
    """
    c1 = d * d - 2.0 * r_e * (h_t + h_r)
    c0 = 2.0 * r_e * h_t * d
    floor = np.maximum(np.abs(c0), 1.0)
    lo, hi = np.zeros(d.shape), d
    x = d * h_t / (h_t + h_r)  # flat-earth image point as the seed
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(201):
            x2 = x * x
            cubic, quadratic, linear = 2.0 * x2 * x, 3.0 * d * x2, c1 * x
            p = cubic - quadratic + linear + c0
            scale = np.maximum(
                np.maximum(np.abs(cubic), np.abs(quadratic)), np.maximum(np.abs(linear), floor)
            )
            done = np.abs(p) <= 1e-10 * scale
            if step == 200 or done.all():
                break
            # A converged point keeps its x (so it stays converged); its
            # bracket no longer matters.
            above = p > 0
            lo = np.where(above, x, lo)
            hi = np.where(above, hi, x)
            dp = 6.0 * x2 - 6.0 * d * x + c1
            x_new = x - p / dp
            newton = (dp != 0.0) & (lo < x_new) & (x_new < hi)
            x = np.where(done, x, np.where(newton, x_new, 0.5 * (lo + hi)))
    return np.where(done, x, np.nan), np.where(done, OK, NOT_CONVERGED), p, scale


def specular_points(g: LinkGeometry):
    """The round-earth specular reflection geometry at every distance of g.

    Array form of reflection_geometry.  Returns the ReflectionGeometry of the
    points that have one (arrays over those points, in order) and the
    per-point reason codes: BEYOND_HORIZON at or beyond the horizon,
    COLLAPSED where the grazing geometry collapses, NOT_CONVERGED where the
    cubic solve fails.
    """
    d = distances(g.d)
    beyond = d >= horizon_distance(g)
    reasons = np.where(beyond, BEYOND_HORIZON, OK)
    r_e = g.earth.effective_radius
    x_g = np.full(d.shape, np.nan)
    x_g[~beyond], reasons[~beyond], _, _ = _specular_ground_distance(g.h_t, g.h_r, d[~beyond], r_e)
    xp_g = d - x_g
    h_t_p = g.h_t - x_g * x_g / (2.0 * r_e)
    h_r_p = g.h_r - xp_g * xp_g / (2.0 * r_e)
    x, x_p, l = np.hypot(x_g, h_t_p), np.hypot(xp_g, h_r_p), np.hypot(d, h_t_p - h_r_p)
    # Numerically indistinguishable from the horizon: within rounding of it the
    # tangent-plane heights or the reflected-path excess x + x' - l go negative.
    reasons[(reasons == OK) & ((h_t_p <= 0.0) | (h_r_p <= 0.0) | (x + x_p < l))] = COLLAPSED
    ok = reasons == OK
    x, x_p, l, x_g, xp_g, h_t_p, h_r_p = (a[ok] for a in (x, x_p, l, x_g, xp_g, h_t_p, h_r_p))
    rg = ReflectionGeometry(
        x=x,
        x_prime=x_p,
        l=l,
        h_t_prime=h_t_p,
        h_r_prime=h_r_p,
        grazing_angle=np.arctan2(h_t_p, x_g),
        ground_x=x_g,
        ground_x_prime=xp_g,
    )
    return rg, reasons


def point_errors(g: LinkGeometry, reasons: np.ndarray, **values):
    """Yield the SeaLossError of every failed point of g, in order.

    values holds the call's message values; h_max, d_h (once, if needed) and a
    non-converged point's residual and scale (by a one-point solve) join them.
    """
    d = distances(g.d)
    values["h_max"] = max(g.h_t, g.h_r)
    if (reasons == BEYOND_HORIZON).any():
        values["d_h"] = horizon_distance(g)
    for i in np.flatnonzero(reasons).tolist():
        values["d"], code = d.item(i), reasons.item(i)
        if code == NOT_CONVERGED:
            solve = _specular_ground_distance(g.h_t, g.h_r, d[i:i + 1], g.earth.effective_radius)
            values.update(residual=solve[2][0], scale=solve[3][0])
        cls, template = REASONS[code]
        yield cls(template.format_map(values))


def reflection_geometry(g: LinkGeometry) -> ReflectionGeometry:
    """Solve the round-earth specular reflection geometry for a within-horizon link.

    The specular ground distance is the root of the standard small-angle cubic
    2x^3 - 3dx^2 + (d^2 - 2 r_e (h_t + h_r))x + 2 r_e h_t d = 0; heights above
    the tangent plane at that point are h' = h - x^2 / (2 r_e) and the ray
    lengths follow from the tangent-plane triangle.

    Raises:
        NoSpecularPoint: if d is at or beyond the horizon distance.
        NumericalFailure: if the cubic solver does not converge.
    """
    rg, reasons = specular_points(g)
    if reasons.any():
        raise next(point_errors(g, reasons))
    if np.ndim(g.d):
        return rg
    return replace(rg, **{name: value.item() for name, value in vars(rg).items()})
