"""Electrical and statistical description of the sea surface.

Everything that turns the ideal reflection coefficient of the two-ray model
into an effective one: lossy-dielectric Fresnel coefficients for sea water,
Miller-Brown-Vegh specular roughness attenuation, Smith shadowing by the
surface slopes, and the spherical-earth divergence factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import (
    LinkGeometry,
    ReflectionGeometry,
    as_array,
    like,
    reflection_geometry,
    wavelength,
)

VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m


class Polarization(str, Enum):
    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"
    # Circular links take the vertical coefficient for the specular term; the
    # 3 dB polarisation mismatch belongs in the link budget, not here.
    CIRCULAR = "circular"


@dataclass(frozen=True)
class SeaState:
    """Statistical roughness and electrical parameters of the sea surface.

    sigma_h is the surface-HEIGHT standard deviation in metres (the
    conventional pairing with an RMS slope; some texts blur the two) and
    beta_0 the RMS surface slope in radians; sigma_h = beta_0 = 0 is a
    perfectly smooth sea.  The defaults are placeholder values for a
    moderately rough sea and UHF sea water, not measured constants.
    """

    sigma_h: float = 0.1
    beta_0: float = 0.05
    relative_permittivity: float = 70.0
    conductivity: float = 5.0

    def __post_init__(self):
        if self.sigma_h < 0 or self.beta_0 < 0:
            raise ValueError("roughness parameters must be non-negative")
        if not self.relative_permittivity > 1:
            raise ValueError("relative permittivity must exceed 1")
        if self.conductivity < 0:
            raise ValueError("conductivity must be non-negative")

    def complex_permittivity(self, frequency: float) -> complex:
        """eps_r - j sigma / (2 pi f eps_0) for the e^{+j omega t} convention."""
        return complex(
            self.relative_permittivity,
            -self.conductivity / (2.0 * math.pi * frequency * VACUUM_PERMITTIVITY),
        )


@dataclass(frozen=True)
class EffectiveReflection:
    """Composed reflection coefficient with its component breakdown retained.

    Every field is a number, or a 1-D array with one entry per specular point.
    """

    magnitude: float
    phase: float
    fresnel: complex
    roughness: float
    shadowing: float
    divergence: float

    def __post_init__(self):
        recomposed = abs(self.fresnel) * self.roughness * self.shadowing * self.divergence
        if np.any(abs(self.magnitude - recomposed) > 1e-12):
            raise ValueError("magnitude does not equal the product of its components")

    @property
    def components(self) -> dict:
        return {
            "fresnel": self.fresnel,
            "roughness": self.roughness,
            "shadowing": self.shadowing,
            "divergence": self.divergence,
        }

    @property
    def value(self) -> complex:
        """The effective coefficient as a complex number (or array)."""
        return like(self.magnitude, self.magnitude * np.exp(1j * as_array(self.phase)))


def fresnel_reflection(
    grazing_angle,
    frequency: float,
    sea: SeaState,
    pol: Polarization = Polarization.VERTICAL,
):
    """Fresnel reflection coefficient of the lossy sea at a grazing angle (or array).

    Standard smooth-surface coefficients for a dielectric with complex
    permittivity eps = eps_r - j sigma/(2 pi f eps_0).  Circular polarisation
    is evaluated with the vertical coefficient (dominant co-polar term of the
    sea reflection; documented simplification).  Both linear coefficients tend
    to -1 at grazing incidence.
    """
    psi = as_array(grazing_angle)
    if not np.all((0.0 < psi) & (psi <= math.pi / 2.0)):
        raise ValueError("grazing angle must lie in (0, pi/2]")
    eps = sea.complex_permittivity(frequency)
    sin_psi = np.sin(psi)
    cos2_psi = np.cos(psi) ** 2
    root = np.sqrt(eps - cos2_psi)
    if pol is Polarization.HORIZONTAL:
        return like(grazing_angle, (sin_psi - root) / (sin_psi + root))
    return like(grazing_angle, (eps * sin_psi - root) / (eps * sin_psi + root))


# exp(-x) I0(x) is evaluated directly up to here; np.i0 overflows past ~713.
_I0E_SERIES_FROM = 700.0

_erfc = np.frompyfunc(math.erfc, 1, 1)


def _i0e(x: np.ndarray) -> np.ndarray:
    """Exponentially scaled modified Bessel function exp(-x) I0(x) for x >= 0.

    Above _I0E_SERIES_FROM the first four terms of the large-argument series
    exp(-x) I0(x) ~ (1 + 1/(8x) + 9/(128x^2) + 225/(3072x^3)) / sqrt(2 pi x)
    replace the direct product, whose I0 factor would overflow; the omitted
    terms are below 1e-12 relative there.
    """
    small = np.minimum(x, _I0E_SERIES_FROM)
    large = np.maximum(x, _I0E_SERIES_FROM)
    inv = 1.0 / large
    series = 1.0 + inv * (1.0 / 8.0 + inv * (9.0 / 128.0 + inv * (225.0 / 3072.0)))
    return np.where(
        x <= _I0E_SERIES_FROM,
        np.exp(-small) * np.i0(small),
        series / np.sqrt(2.0 * math.pi * large),
    )


def roughness_factor(
    grazing_angle,
    wavelength: float,
    sea: SeaState,
    method: str = "miller-brown",
):
    """Specular scattering attenuation of a rough sea, in [0, 1].

    Miller-Brown-Vegh: rho = exp(-2 g^2) I0(2 g^2) with the Rayleigh roughness
    parameter g = 2 pi sigma_h sin(psi) / lambda.  method="ament" gives the
    plain exp(-2 g^2) factor instead.  grazing_angle may be an array.
    """
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    g = 2.0 * math.pi * sea.sigma_h * np.sin(as_array(grazing_angle)) / wavelength
    if method == "miller-brown":
        return like(grazing_angle, _i0e(2.0 * g * g))
    if method == "ament":
        return like(grazing_angle, np.exp(-2.0 * g * g))
    raise ValueError(f"unknown roughness method: {method!r}")


def shadowing_factor(grazing_angle, sea: SeaState):
    """Smith shadowing function for a Gaussian-slope surface, in [0, 1].

    S = (1 - erfc(v)/2) / (Lambda(v) + 1) with v = tan(psi) / (sqrt(2) beta_0)
    and Lambda(v) = (exp(-v^2) / (v sqrt(pi)) - erfc(v)) / 2.  A zero RMS
    slope means no shadowing.  grazing_angle may be an array.
    """
    psi = as_array(grazing_angle)
    if np.any(psi <= 0):
        raise ValueError("grazing angle must be positive")
    if sea.beta_0 == 0.0:
        return like(grazing_angle, np.ones_like(psi))
    # A tiny beta_0 sends v to inf, where Lambda is 0 and S exactly 1; the
    # overflow on the way there is expected, not a fault.
    with np.errstate(over="ignore"):
        v = np.tan(psi) / (math.sqrt(2.0) * sea.beta_0)
        erfc_v = _erfc(v).astype(float)
        lam = (np.exp(-v * v) / (v * math.sqrt(math.pi)) - erfc_v) / 2.0
    return like(grazing_angle, (1.0 - erfc_v / 2.0) / (lam + 1.0))


def divergence_factor(rg: ReflectionGeometry, g: LinkGeometry):
    """Amplitude reduction of the reflected ray from defocusing by the convex earth.

    Classical spherical-earth form D = [1 + 2 x x' / (r_e (x + x') sin psi)]^(-1/2)
    evaluated with the tangent-plane quantities of the reflection geometry.
    Only g's earth model is used.
    """
    r_e = g.earth.effective_radius
    x, xp = as_array(rg.ground_x), as_array(rg.ground_x_prime)
    term = 2.0 * x * xp / (r_e * (x + xp) * np.sin(as_array(rg.grazing_angle)))
    return like(rg.ground_x, 1.0 / np.sqrt(1.0 + term))


def effective_reflection_at(
    rg: ReflectionGeometry,
    g: LinkGeometry,
    frequency: float,
    sea: SeaState,
    pol: Polarization = Polarization.VERTICAL,
) -> EffectiveReflection:
    """Compose Fresnel x roughness x shadowing x divergence at solved specular points.

    The roughness factor is Miller-Brown's.  rg holds numbers or arrays (one
    entry per point); only g's earth model is used.
    """
    psi = rg.grazing_angle
    fresnel = fresnel_reflection(psi, frequency, sea, pol)
    rho = roughness_factor(psi, wavelength(frequency), sea)
    shadow = shadowing_factor(psi, sea)
    div = divergence_factor(rg, g)
    return EffectiveReflection(
        magnitude=abs(fresnel) * rho * shadow * div,
        phase=like(psi, np.angle(fresnel)),
        fresnel=fresnel,
        roughness=rho,
        shadowing=shadow,
        divergence=div,
    )


def effective_reflection(
    g: LinkGeometry,
    frequency: float,
    sea: SeaState,
    pol: Polarization = Polarization.VERTICAL,
) -> EffectiveReflection:
    """Compose Fresnel x roughness x shadowing x divergence for a link.

    Every factor stays on the result (EffectiveReflection.components), so the
    contributions are auditable one at a time.  Raises NoSpecularPoint
    beyond the horizon (propagated from the geometry).  For an array of
    distances every field is an array.
    """
    return effective_reflection_at(reflection_geometry(g), g, frequency, sea, pol)
