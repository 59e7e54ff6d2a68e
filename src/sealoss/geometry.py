"""Earth and link geometry for over-sea radio paths.

Great-circle distances, the round-earth two-ray reflection geometry, and the
characteristic link distances: the critical distance d_c where the two-ray
interference pattern stops oscillating, the radio-horizon distance d_h, and
the 60 %-first-Fresnel-zone clearance distance d_60.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BEYOND_HORIZON, COLLAPSED, OK, REASONS

SPEED_OF_LIGHT = 299_792_458.0  # m/s
EARTH_RADIUS = 6_371_000.0      # mean earth radius, m

# Antenna heights must stay far below the earth radius for the parabolic
# (tangent-plane) approximations used here; 10 km keeps h/r_e < 2e-3.
MAX_ANTENNA_HEIGHT = 10_000.0


def check_heights(h_t: float, h_r: float) -> None:
    """Raise ValueError unless both antenna heights lie in (0, MAX_ANTENNA_HEIGHT] metres."""
    if not h_t > 0 or not h_r > 0:
        raise ValueError("antenna heights must be positive")
    if h_t > MAX_ANTENNA_HEIGHT or h_r > MAX_ANTENNA_HEIGHT:
        raise ValueError(f"antenna heights above {MAX_ANTENNA_HEIGHT} m are not supported")


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

    A number goes through the same one-point array code as an array does
    (evaluate_model, the component functions), so it gets the same bits.
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
        check_heights(self.h_t, self.h_r)
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
    Every field is a 1-D array with one entry per solved point.
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


def specular_points(g: LinkGeometry):
    """The round-earth specular reflection geometry at every distance of g.

    The specular ground distance is the root of the standard small-angle cubic
    2x^3 - 3dx^2 + (d^2 - 2 r_e (h_t + h_r))x + 2 r_e h_t d = 0; heights above
    the tangent plane at that point are h' = h - x^2 / (2 r_e) and the ray
    lengths follow from the tangent-plane triangle.  Returns the
    ReflectionGeometry of the points that have one (arrays over those points,
    in order) and the per-point reason codes: BEYOND_HORIZON at or beyond the
    horizon, COLLAPSED where rounding makes the grazing geometry collapse just
    inside it.
    """
    d = distances(g.d)
    beyond = d >= horizon_distance(g)
    reasons = np.where(beyond, BEYOND_HORIZON, OK)
    r_e = g.earth.effective_radius
    # Within the horizon the cubic has three real roots: x_g in (0, d), one
    # below 0 and one above d.  The trigonometric (Viete) form gives the outer
    # two without cancellation, and x_g follows from the roots' product,
    # -r_e h_t d (the trigonometric form of x_g itself cancels).  The clip
    # only absorbs rounding: there the arccos argument lies in [-1, 1].
    d_in = d[~beyond]
    c = 2.0 * np.sqrt((r_e * (g.h_t + g.h_r) + 0.25 * d_in * d_in) / 3.0)
    third = np.arccos(np.clip(2.0 * r_e * (g.h_r - g.h_t) * d_in / c**3, -1.0, 1.0)) / 3.0
    above_d = 0.5 * d_in + c * np.cos(third)
    below_0 = 0.5 * d_in + c * np.cos(third + 2.0 * np.pi / 3.0)
    x_g = np.full(d.shape, np.nan)
    x_g[~beyond] = -r_e * g.h_t * d_in / (below_0 * above_d)
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

    values holds the call's message values; each point's d, h_max and (once,
    if needed) d_h join them.
    """
    d = distances(g.d)
    values["h_max"] = max(g.h_t, g.h_r)
    if (reasons == BEYOND_HORIZON).any():
        values["d_h"] = horizon_distance(g)
    for i in np.flatnonzero(reasons).tolist():
        values["d"] = d.item(i)
        cls, template = REASONS[reasons.item(i)]
        yield cls(template.format_map(values))
