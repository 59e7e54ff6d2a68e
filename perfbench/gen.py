"""Seeded input generator for the benchmark.

Uses numpy only and never imports ``sealoss``: the inputs, and the values the
correctness gate expects from them, must not depend on the program under
test.  The campaign constants below mirror the shipped ``campaign1.json``,
``campaign2.json`` and ``calibration_example.csv``; if those files change, the
gate fails, which is the point.  Given the same seed, every function here
writes byte-identical files on every commit.
"""

from __future__ import annotations

import math

import numpy as np

EARTH_RADIUS = 6_371_000.0
MIN_SAMPLE_DISTANCE = 1.0

EXAMPLE_CALIBRATION = np.array([
    (-140.0, 1.8), (-130.0, 1.2), (-120.0, 0.7), (-110.0, 0.9),
    (-100.0, 0.2), (-90.0, -0.3), (-80.0, -0.6), (-70.0, -0.9),
    (-60.0, -1.1), (-50.0, -1.2), (-40.0, -1.3),
])

# BS position, link-budget gains (tx power + gains - polarization loss) and
# distance exclusion zones of the shipped campaigns.
CAMPAIGNS = {
    "campaign1": {"bs": (55.603, 12.976), "gains": 17.0, "zones": ()},
    "campaign2": {
        "bs": (55.7407, 12.9716),
        "gains": 24.3,
        "zones": ((7950.0, 8060.0), (9900.0, 10100.0)),
    },
}

REJECT_REASONS = (
    "wrong column count",
    "bad timestamp",
    "non-numeric field",
    "latitude out of range",
    "longitude out of range",
    "non-finite rssi",
)

# Per-row shares of the special row kinds in a generated log.
REJECT_SHARE = 0.012
BELOW_MIN_SHARE = 0.005
ZONE_SHARE = 0.01       # per exclusion zone
CLAMP_SHARE = 0.01      # per calibration-table edge

EPOCH0 = 1597482000  # 2020-08-15T09:00:00Z


def haversine(lat, lon, bs_lat, bs_lon):
    """Great-circle distance in metres from (lat, lon) arrays to the BS."""
    phi1 = np.radians(lat)
    phi2 = math.radians(bs_lat)
    dphi = np.radians(bs_lat - lat)
    dlam = np.radians(bs_lon - lon)
    h = np.sin(dphi / 2.0) ** 2 + np.cos(phi1) * math.cos(phi2) * np.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def calibration_correction(raw):
    return np.interp(raw, EXAMPLE_CALIBRATION[:, 0], EXAMPLE_CALIBRATION[:, 1])


def _destination(bs_lat, bs_lon, d, bearing):
    phi1, lam1 = math.radians(bs_lat), math.radians(bs_lon)
    delta = d / EARTH_RADIUS
    phi2 = np.arcsin(np.sin(phi1) * np.cos(delta) + np.cos(phi1) * np.sin(delta) * np.cos(bearing))
    lam2 = lam1 + np.arctan2(
        np.sin(bearing) * np.sin(delta) * np.cos(phi1), np.cos(delta) - np.sin(phi1) * np.sin(phi2)
    )
    return np.degrees(phi2), np.degrees(lam2)


def _format_timestamp(epoch: int, style: int) -> str:
    """ISO-8601 with Z, ISO-8601 with an offset, or epoch seconds."""
    if style == 2:
        return f"{epoch}.{epoch % 100:02d}"
    days, rem = divmod(epoch - EPOCH0, 86400)
    hh, rem = divmod(rem + 9 * 3600, 3600)
    mm, ss = divmod(rem, 60)
    day = 15 + days + hh // 24
    hh %= 24
    if style == 1:
        return f"2020-08-{day:02d}T{(hh + 2) % 24:02d}:{mm:02d}:{ss:02d}+02:00"
    return f"2020-08-{day:02d}T{hh:02d}:{mm:02d}:{ss:02d}Z"


def _bin_edges(d_min: float, d_max: float, n_bins: int):
    edges = np.logspace(math.log10(d_min), math.log10(d_max), n_bins + 1)
    edges[-1] *= 1.0 + 1e-12
    return edges


def make_log(path, campaign: str, n_rows: int, d_lo: float, d_hi: float,
             seed: int, bins: int | None = None) -> dict:
    """Write a measurement log and return what a correct pipeline makes of it.

    Two anchor rows sit at fixed positions at d_lo and d_hi, so the sample
    distance span, and with it the prediction grid, is the same for every
    seed.  With ``bins``, the first and last bins hold only the anchors, so
    the binned span is fixed too.  Sample distances keep a margin from every
    threshold the pipeline applies (1 m, zone edges, bin edges), so rounding
    in the last bit cannot move a row across one.
    """
    camp = CAMPAIGNS[campaign]
    bs_lat, bs_lon = camp["bs"]
    rng = np.random.default_rng([seed, n_rows, int(d_hi)])

    kinds = np.zeros(n_rows, dtype=np.int8)  # 0 sample, 1 reject, 2 below-min, 3 zone
    order = rng.permutation(n_rows - 2) + 2   # rows 0 and 1 are the anchors
    n_rej = max(len(REJECT_REASONS), int(n_rows * REJECT_SHARE))
    n_below = max(1, int(n_rows * BELOW_MIN_SHARE))
    n_zone = max(1, int(n_rows * ZONE_SHARE)) if camp["zones"] else 0
    cut = np.cumsum([n_rej, n_below, n_zone * len(camp["zones"])])
    kinds[order[: cut[0]]] = 1
    kinds[order[cut[0]: cut[1]]] = 2
    kinds[order[cut[1]: cut[2]]] = 3

    # Distances of sample rows: log-uniform, away from the thresholds.
    forbidden = [(0.0, 1.5)] + [(a - 1.0, b + 1.0) for a, b in camp["zones"]]
    anchor_lat = bs_lat - np.degrees(np.array([d_lo, d_hi]) / EARTH_RADIUS)
    anchor_lat = np.array([float(f"{v:.7f}") for v in anchor_lat])
    anchor_d = haversine(anchor_lat, np.full(2, bs_lon), bs_lat, bs_lon)
    if bins:
        edges = _bin_edges(anchor_d[0], anchor_d[1], bins)
        # Written coordinates move a row by up to ~1 cm, hence the absolute margin.
        forbidden += [(0.0, edges[1] * 1.001 + 0.05), (edges[-2] * 0.999 - 0.05, math.inf)]

    def draw(k):
        return np.exp(rng.uniform(math.log(d_lo * 1.01), math.log(d_hi * 0.99), k))

    def refused(x):
        return np.logical_or.reduce([(x > a) & (x < b) for a, b in forbidden])

    d = draw(n_rows)
    bad = refused(d) & (kinds == 0)
    while bad.any():
        d[bad] = draw(int(bad.sum()))
        bad = refused(d) & (kinds == 0)
    zone_idx = np.flatnonzero(kinds == 3)
    for z, (a, b) in enumerate(camp["zones"]):
        part = zone_idx[z::len(camp["zones"])]
        d[part] = rng.uniform(a + 1.0, b - 1.0, len(part))
    below = kinds == 2
    d[below] = rng.uniform(0.05, 0.95, int(below.sum()))

    bearing = np.radians(rng.uniform(100.0, 260.0, n_rows))
    lat, lon = _destination(bs_lat, bs_lon, d, bearing)
    lat_s = [f"{v:.7f}" for v in lat]
    lon_s = [f"{v:.7f}" for v in lon]
    lat_s[0], lat_s[1] = (f"{v:.7f}" for v in anchor_lat)
    lon_s[0] = lon_s[1] = f"{bs_lon:.7f}"
    lat_w = np.array([float(s) for s in lat_s])
    lon_w = np.array([float(s) for s in lon_s])
    dist = haversine(lat_w, lon_w, bs_lat, bs_lon)

    # RSSI: a log-distance loss with scatter, clipped inside the table, plus
    # rows forced beyond each table edge.
    loss = 38.0 + 32.0 * np.log10(np.maximum(dist, 1.0)) + rng.normal(0.0, 3.0, n_rows)
    cal = np.clip(camp["gains"] - loss, -137.0, -43.0)
    raw = cal.copy()
    for _ in range(50):
        raw = cal - calibration_correction(raw)
    clamp_low = order[cut[2]: cut[2] + max(1, int(n_rows * CLAMP_SHARE))]
    clamp_high = order[cut[2] + len(clamp_low): cut[2] + 2 * len(clamp_low)]
    raw[clamp_low] = rng.uniform(-150.0, -140.5, len(clamp_low))
    raw[clamp_high] = rng.uniform(-39.5, -25.0, len(clamp_high))
    raw_s = [f"{v:.2f}" for v in raw]
    raw_w = np.array([float(s) for s in raw_s])

    epochs = EPOCH0 + 3 * np.arange(n_rows) + rng.integers(0, 3, n_rows)
    styles = rng.integers(0, 3, n_rows)

    lines = ["timestamp,lat,lon,rssi_dbm"]
    rejects = []
    reject_rows = np.flatnonzero(kinds == 1)
    for i in range(n_rows):
        ts = _format_timestamp(int(epochs[i]), int(styles[i]))
        if kinds[i] == 1:
            k = int(np.searchsorted(reject_rows, i)) % len(REJECT_REASONS)
            reason = REJECT_REASONS[k]
            row = [ts, lat_s[i], lon_s[i], raw_s[i]]
            if k == 0:
                row = row[:3]
            elif k == 1:
                row[0] = f"ts-{epochs[i]}"
            elif k == 2:
                row[1] = "north"
            elif k == 3:
                row[1] = f"{90.5 + (i % 7):.7f}"
            elif k == 4:
                row[2] = f"{-180.5 - (i % 9):.7f}"
            else:
                row[3] = ("nan", "inf", "-inf")[i % 3]
            rejects.append([i + 2, reason])
            lines.append(",".join(row))
        else:
            lines.append(f"{ts},{lat_s[i]},{lon_s[i]},{raw_s[i]}")
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)

    valid = kinds != 1
    excluded = valid & ((dist < MIN_SAMPLE_DISTANCE) | (kinds == 3))
    use = valid & ~excluded
    path_loss = camp["gains"] - (raw_w + calibration_correction(raw_w))
    sd, sl = dist[use], path_loss[use]
    srt = np.argsort(sd, kind="stable")
    sd, sl = sd[srt], sl[srt]
    clamped = valid & ((raw_w < EXAMPLE_CALIBRATION[0, 0]) | (raw_w > EXAMPLE_CALIBRATION[-1, 0]))
    expect = {
        "rows": n_rows,
        "parsed": int(valid.sum()),
        "rejects": rejects,
        "rejects_by_reason": {r: sum(1 for _, x in rejects if x == r) for r in REJECT_REASONS},
        "excluded": int(excluded.sum()),
        "excluded_below_minimum": int((valid & (dist < MIN_SAMPLE_DISTANCE)).sum()),
        "excluded_zone": int((valid & (kinds == 3)).sum()),
        "clamped": int(clamped.sum()),
        "samples": int(use.sum()),
    }
    if bins:
        edges = _bin_edges(sd.min(), sd.max(), bins)
        idx = np.digitize(sd, edges) - 1
        md, ml = [], []
        for b in range(bins):
            mask = idx == b
            if mask.any():
                md.append(float(sd[mask].mean()))
                ml.append(float(sl[mask].mean()))
        sd, sl = np.array(md), np.array(ml)
    expect["metric_distances"] = sd
    expect["metric_losses"] = sl
    return expect


def expected_fit(distances, losses, d_0: float = 100.0) -> dict:
    """Ordinary least squares of loss against 10 log10(d / d_0)."""
    x = 10.0 * np.log10(distances / d_0)
    sxx = float(np.sum((x - x.mean()) ** 2))
    n = float(np.sum((x - x.mean()) * (losses - losses.mean())) / sxx)
    return {"n": n, "l_p0_db": float(losses.mean() - n * x.mean()), "d_0_m": d_0}


# --- plan-grid link catalogue -------------------------------------------------

CATALOGUE_SEED = 2020_0653
CATALOGUE_SIZE = 64
FREQUENCIES_HZ = (169e6, 433e6, 868e6, 915e6)
POLARIZATIONS = ("vertical", "horizontal", "circular")
SIGMA_H_M = (0.0, 0.05, 0.3, 1.0)
BETA_0_RAD = (0.0, 0.002, 0.05, 0.2)
K_FACTORS = (1.0, 4.0 / 3.0)


def link_catalogue() -> list:
    """The fixed catalogue of planning links that seeds draw from.

    A fixed catalogue lets the benchmark ship per-point reference losses for
    every link any seed can draw.  Budgets put the range crossing anywhere
    from 1 km to beyond the 100 km search cap; one link in sixteen has a
    budget too small to close even at 1 m.
    """
    rng = np.random.default_rng(CATALOGUE_SEED)
    links = []
    for i in range(CATALOGUE_SIZE):
        h_t, h_r = (round(float(v), 3) for v in np.exp(rng.uniform(math.log(0.2), math.log(12.0), 2)))
        f = FREQUENCIES_HZ[int(rng.integers(len(FREQUENCIES_HZ)))]
        d_target = math.exp(rng.uniform(math.log(1e3), math.log(1.5e5)))
        fsl = 20.0 * math.log10(4.0 * math.pi * d_target * f / 299_792_458.0)
        budget = 12.0 if i % 16 == 5 else round(fsl + float(rng.uniform(-6.0, 6.0)), 2)
        links.append({
            "id": i,
            "h_t": h_t,
            "h_r": h_r,
            "frequency_hz": f,
            "polarization": POLARIZATIONS[int(rng.integers(3))],
            "sigma_h_m": SIGMA_H_M[int(rng.integers(4))],
            "beta_0_rad": BETA_0_RAD[int(rng.integers(4))],
            "k_factor": K_FACTORS[int(rng.integers(2))],
            "budget_db": budget,
        })
    return links


def plan_pool(seed: int, size: int) -> list:
    """The seed's draw of links from the catalogue, in op order."""
    links = link_catalogue()
    pick = np.random.default_rng([seed, 7]).choice(len(links), size=size, replace=False)
    return [links[int(i)] for i in pick]


def cli_cycle(seed: int, commands) -> list:
    """The seed's order of the shipped CLI commands within one cycle."""
    return [commands[int(i)] for i in np.random.default_rng([seed, 3]).permutation(len(commands))]
