"""Independent brute-force oracles used to check the library's closed forms.

Everything here deliberately avoids the implementation paths it checks:
exact-sphere ray geometry instead of the small-angle cubic, clearance sweeps
instead of the empirical 60 %-clearance formula, series/Monte-Carlo
evaluation instead of special functions.
"""

from __future__ import annotations

import csv
import io
import math
from datetime import datetime, timezone

import numpy as np

VACUUM_PERMITTIVITY = 8.8541878128e-12


# --- specular point on an exact sphere -------------------------------------

def _delta_path(angles, a_ref, h_t, h_r, theta, r_e):
    """path(angles) - path(a_ref) on the exact circle, cancellation-free.

    Uses (A - A*) / (sqrt(A) + sqrt(A*)) per leg so the comparison keeps full
    float precision even where the path function is extremely flat.
    """
    rt = r_e + h_t
    rr = r_e + h_r
    a = np.asarray(angles)
    a_t, a_t0 = a, a_ref
    a_r, a_r0 = theta - a, theta - a_ref
    lt, lt0 = _leg(r_e, rt, h_t, a_t), _leg(r_e, rt, h_t, a_t0)
    lr, lr0 = _leg(r_e, rr, h_r, a_r), _leg(r_e, rr, h_r, a_r0)
    # A - A* = 2 r_e rad (cos a* - cos a) = 4 r_e rad sin((a+a*)/2) sin((a-a*)/2)
    d_t = 4.0 * r_e * rt * np.sin(0.5 * (a_t + a_t0)) * np.sin(0.5 * (a_t - a_t0))
    d_r = 4.0 * r_e * rr * np.sin(0.5 * (a_r + a_r0)) * np.sin(0.5 * (a_r - a_r0))
    return d_t / (lt + lt0) + d_r / (lr + lr0)


def _leg(r_e, radius, h, ang):
    """|surface point - antenna| without the re^2 cancellation: h^2 + 4 r_e rad sin^2(a/2)."""
    s = np.sin(0.5 * np.asarray(ang))
    return np.sqrt(h * h + 4.0 * r_e * radius * s * s)


def specular_ground_distance(h_t: float, h_r: float, d: float, r_e: float,
                             grid_step: float = 0.001, window: float = 0.5) -> float:
    """Ground distance to the reflected-path minimum on the exact sphere.

    Coarse scan followed by shrinking refinements down to a grid_step grid
    over +/- window metres around the minimum.
    """
    theta = d / r_e
    angles = np.linspace(theta * 1e-9, theta * (1.0 - 1e-9), 8001)
    path = (
        _leg(r_e, r_e + h_t, h_t, angles)
        + _leg(r_e, r_e + h_r, h_r, theta - angles)
    )
    a_ref = float(angles[np.argmin(path)])

    half = 2.0 * (angles[1] - angles[0])
    target = grid_step / r_e
    while True:
        lo = max(a_ref - half, theta * 1e-9)
        hi = min(a_ref + half, theta * (1.0 - 1e-9))
        grid = np.linspace(lo, hi, 4001)
        a_ref = float(grid[np.argmin(_delta_path(grid, a_ref, h_t, h_r, theta, r_e))])
        if half <= window / r_e:
            break
        half = max(half / 50.0, window / r_e)
    # Final pass: uniform grid_step grid around the refined minimum.
    n = int(round(2.0 * window / grid_step))
    grid = a_ref + (np.arange(n + 1) - n / 2) * target
    grid = np.clip(grid, theta * 1e-9, theta * (1.0 - 1e-9))
    a_best = float(grid[np.argmin(_delta_path(grid, a_ref, h_t, h_r, theta, r_e))])
    return a_best * r_e


# --- 60 % first-Fresnel-zone clearance --------------------------------------

def clearance_margin(d: float, h_t: float, h_r: float, lam: float, r_e: float,
                     n: int = 4001) -> float:
    """Worst-case clearance above 60 % of the first Fresnel radius along the path."""
    s = np.linspace(d * 1e-6, d * (1.0 - 1e-6), n)
    ray = h_t + (h_r - h_t) * s / d
    bulge = s * (d - s) / (2.0 * r_e)
    fresnel = np.sqrt(lam * s * (d - s) / d)
    return float(np.min(ray - bulge - 0.6 * fresnel))


def fresnel60_clearance_distance(h_t: float, h_r: float, frequency: float,
                                 r_e: float) -> float:
    """Largest distance keeping the first Fresnel zone 60 % clear, by bisection."""
    lam = 299_792_458.0 / frequency
    lo, hi = 1.0, 1.0
    while clearance_margin(hi, h_t, h_r, lam, r_e) > 0.0:
        lo, hi = hi, hi * 2.0
        if hi > 1e7:
            raise AssertionError("clearance never lost; oracle setup is wrong")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if clearance_margin(mid, h_t, h_r, lam, r_e) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# --- Monte-Carlo shadowing over a Gaussian-slope surface --------------------

def monte_carlo_shadowing(grazing_angle: float, rms_slope: float, seed: int = 0,
                          n_points: int = 2 ** 20, samples_per_l: float = 16.0) -> float:
    """Illuminated fraction of a random rough surface at a grazing angle.

    Builds a 1-D Gaussian surface with a Gaussian autocorrelation via FFT
    filtering, rescales it to the exact target RMS slope, then marks a point
    illuminated when the ray leaving it toward +x at the grazing angle clears
    every surface point ahead of it (suffix running-maximum test).
    """
    rng = np.random.default_rng(seed)
    corr_len = math.sqrt(2.0) / rms_slope  # unit height variance
    dx = corr_len / samples_per_l
    k = 2.0 * np.pi * np.fft.rfftfreq(n_points, d=dx)
    spectrum = np.exp(-(k * corr_len) ** 2 / 8.0)
    noise = np.fft.rfft(rng.standard_normal(n_points))
    z = np.fft.irfft(noise * spectrum, n=n_points)
    slope = np.diff(z) / dx
    z *= rms_slope / slope.std()

    u = z - math.tan(grazing_angle) * dx * np.arange(n_points)
    # suffix[i] = max(u[i+1:]); a point is lit when u[i] >= suffix[i]
    running = np.maximum.accumulate(u[::-1])[::-1]  # running[i] = max(u[i:])
    suffix = np.append(running[1:], -np.inf)
    # Skip the tail whose shadow test would be truncated by the array end.
    guard = int(200 * samples_per_l)
    lit = u[:-guard] >= suffix[:-guard]
    return float(np.mean(lit))


# --- special functions and coefficients -------------------------------------

def bessel_i0_series(x: float, terms: int = 60) -> float:
    """Modified Bessel I0 by direct series summation."""
    total, term = 0.0, 1.0
    for k in range(terms):
        if k > 0:
            term *= (x / 2.0) ** 2 / (k * k)
        total += term
    return total


def fresnel_coefficient(grazing_angle: float, frequency: float, eps_r: float,
                        sigma: float, pol: str) -> complex:
    """Fresnel coefficient via refractive index and the from-normal angles."""
    eps = complex(eps_r, -sigma / (2.0 * math.pi * frequency * VACUUM_PERMITTIVITY))
    n2 = np.sqrt(complex(eps))
    theta_i = math.pi / 2.0 - grazing_angle
    cos_i, sin_i = math.cos(theta_i), math.sin(theta_i)
    cos_t = np.sqrt(1.0 - (sin_i / n2) ** 2)
    if pol == "horizontal":
        return complex((cos_i - n2 * cos_t) / (cos_i + n2 * cos_t))
    return complex((n2 * cos_i - cos_t) / (n2 * cos_i + cos_t))


def smith_shadowing(grazing_angle: float, rms_slope: float) -> float:
    """Smith's shadowing formula, coded independently for the MC comparison."""
    from scipy.special import erfc

    v = math.tan(grazing_angle) / (math.sqrt(2.0) * rms_slope)
    lam = (math.exp(-v * v) / (v * math.sqrt(math.pi)) - erfc(v)) / 2.0
    return (1.0 - 0.5 * erfc(v)) / (lam + 1.0)


# --- least squares -----------------------------------------------------------

def normal_equations_fit(distances, losses, d_0: float):
    """Slope/intercept and slope standard error via numpy lstsq."""
    x = 10.0 * np.log10(np.asarray(distances) / d_0)
    y = np.asarray(losses, dtype=float)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    intercept, slope = float(coef[0]), float(coef[1])
    resid = y - design @ coef
    dof = len(y) - 2
    sigma2 = float(resid @ resid) / dof if dof > 0 else 0.0
    cov = sigma2 * np.linalg.inv(design.T @ design)
    return slope, intercept, math.sqrt(max(cov[1, 1], 0.0))


def rmse_two_pass(predicted, measured) -> float:
    total = 0.0
    for p, m in zip(predicted, measured):
        total += (p - m) ** 2
    return math.sqrt(total / len(predicted))


def mae_two_pass(predicted, measured) -> float:
    total = 0.0
    for p, m in zip(predicted, measured):
        total += abs(p - m)
    return total / len(predicted)


# --- per-row measurement ingest ------------------------------------------------

def _reference_timestamp(text: str) -> float:
    text = text.strip()
    try:
        seconds = float(text)
    except ValueError:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.timestamp()
    if not math.isfinite(seconds):
        raise ValueError(text)
    return seconds


def _reference_row(row):
    """(timestamp, lat, lon, rssi) of a log row, or the reason it is rejected."""
    if len(row) < 4:
        return "wrong column count"
    try:
        ts = _reference_timestamp(row[0])
    except ValueError:
        return "bad timestamp"
    try:
        lat, lon, rssi = float(row[1]), float(row[2]), float(row[3])
    except ValueError:
        return "non-numeric field"
    if not -90.0 <= lat <= 90.0:
        return "latitude out of range"
    if not -180.0 <= lon <= 180.0:
        return "longitude out of range"
    if not math.isfinite(rssi):
        return "non-finite rssi"
    return ts, lat, lon, rssi


def _reference_correction(entries, x: float):
    """Interval-loop calibration: (correction, clamped) with edge clamps."""
    if x <= entries[0][0]:
        return entries[0][1], x < entries[0][0]
    if x >= entries[-1][0]:
        return entries[-1][1], x > entries[-1][0]
    for (lv0, c0), (lv1, c1) in zip(entries, entries[1:]):
        if lv0 <= x <= lv1:
            t = (x - lv0) / (lv1 - lv0)
            return c0 + t * (c1 - c0), False
    raise AssertionError("sorted table covers the interval")


def _reference_haversine(lat, lon, bs_lat, bs_lon, radius):
    phi1, phi2 = math.radians(lat), math.radians(bs_lat)
    dphi, dlam = math.radians(bs_lat - lat), math.radians(bs_lon - lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * radius * math.asin(min(1.0, math.sqrt(h)))


def reference_ingest(text: str, entries, bs, radius: float, zones, gains: float,
                     min_distance: float = 1.0):
    """Parse, calibrate, geolocate and budget a log one row at a time.

    entries are the calibration table's (level, correction) pairs in
    ascending order, bs the base station's (lat, lon), zones a sequence of
    (kind, start, end) and gains the link budget's tx power plus gains minus
    polarization loss.  Returns one dict per well-formed row and the rejects
    as (line number, reason).  A row's number is the line it starts on, where
    a bare carriage return also ends a line, as in a file csv reads.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    next(reader)
    rows, rejects = [], []
    next_line = reader.line_num + 1
    for row in reader:
        line_no, next_line = next_line, reader.line_num + 1
        if not row or all(not c.strip() for c in row):
            continue
        parsed = _reference_row(row)
        if isinstance(parsed, str):
            rejects.append((line_no, parsed))
            continue
        ts, lat, lon, raw = parsed
        correction, clamped = _reference_correction(entries, raw)
        flags = ("calibration-clamped",) if clamped else ()
        d = _reference_haversine(lat, lon, bs[0], bs[1], radius)
        excluded = False
        if d < min_distance:
            flags += ("below-minimum",)
            excluded = True
        for kind, start, end in zones:
            if start <= (ts if kind == "time" else d) <= end:
                flags += (f"excluded-{kind}-zone",)
                excluded = True
                break
        calibrated = raw + correction
        rows.append({"timestamp": ts, "latitude": lat, "longitude": lon, "raw_rssi": raw,
                     "calibrated_rssi": calibrated, "distance": d,
                     "path_loss": gains - calibrated, "excluded": excluded, "flags": flags})
    return rows, rejects
