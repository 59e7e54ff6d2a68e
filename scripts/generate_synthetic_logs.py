#!/usr/bin/env python3
"""Regenerate the synthetic measurement logs and calibration tables in data/.

The logs are committed artifacts; this script records their provenance and
makes them reproducible.  Each log is a straight south-bound GPS track away
from the configured base station, with path loss drawn from the Bullington
model plus Gaussian noise and converted back to raw RSSI through the link
budget and the example calibration table.

With no arguments it rewrites the files under src/sealoss/data/.  With
``--rows N --out PATH`` it writes one N-row log of campaign2's track
instead (same distance span, noise and seed, one row every 17 s), e.g. a
1e6-row log for scale tests:

    python scripts/generate_synthetic_logs.py --rows 1000000 --out big.csv
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from sealoss import CalibrationTable, load_campaign
from sealoss.errors import SeaLossError
from sealoss.ingest import CALIBRATION_HEADER, LOG_HEADER
from sealoss.models import losses

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "sealoss" / "data"

EXAMPLE_CALIBRATION = (
    (-140.0, 1.8), (-130.0, 1.2), (-120.0, 0.7), (-110.0, 0.9),
    (-100.0, 0.2), (-90.0, -0.3), (-80.0, -0.6), (-70.0, -0.9),
    (-60.0, -1.1), (-50.0, -1.2), (-40.0, -1.3),
)

# The shipped log of each campaign: rows, distance span (m), noise (dB), start, seed.
SHIPPED_LOGS = {
    "campaign1": dict(n_rows=315, d_min=100.0, d_max=3020.0, noise_db=2.5,
                      start_iso="2020-07-20T10:00:00", seed=11),
    "campaign2": dict(n_rows=325, d_min=150.0, d_max=9790.0, noise_db=2.0,
                      start_iso="2020-08-15T09:00:00", seed=22),
}


def write_calibration_tables() -> None:
    for name, entries in (("identity", CalibrationTable.identity().entries),
                          ("example", EXAMPLE_CALIBRATION)):
        rows = [",".join(CALIBRATION_HEADER)] + [f"{lv},{c}" for lv, c in entries]
        (DATA_DIR / f"calibration_{name}.csv").write_text("\n".join(rows) + "\n")


def raw_from_calibrated(cal: np.ndarray, table: CalibrationTable) -> np.ndarray:
    """Invert calibrated = raw + correction(raw) by fixed-point iteration."""
    raw = cal
    for _ in range(50):
        raw = cal - table.corrections(raw)[0]
    return raw


def write_log(path: Path, campaign: str, n_rows: int, d_min: float, d_max: float,
              noise_db: float, start_iso: str, seed: int) -> None:
    cfg = load_campaign(campaign)
    table = CalibrationTable(entries=EXAMPLE_CALIBRATION)
    rng = np.random.default_rng(seed)
    d = d_min + np.arange(n_rows) * (d_max - d_min) / (n_rows - 1)
    # Due-south meridian track: the haversine distance is exactly r_e * dlat.
    lat = cfg.bs_position.latitude - np.degrees(d / cfg.earth.true_radius)
    loss, reasons = losses("bullington", cfg.model_context(), d)
    if reasons.any():
        raise SeaLossError(f"bullington fails at {np.count_nonzero(reasons)} of {n_rows} track points")
    raw = raw_from_calibrated(cfg.radio.gains - (loss + rng.normal(0.0, noise_db, n_rows)), table)
    seconds = np.datetime64(start_iso, "s") + 17 * np.arange(n_rows)
    timestamps = np.datetime_as_string(seconds, unit="s")
    lon = f"{cfg.bs_position.longitude:.7f}"
    with open(path, "w") as fh:
        fh.write(",".join(LOG_HEADER) + "\n")
        for i in range(0, n_rows, 100_000):  # a block of rows at a time bounds the memory
            block = zip(timestamps[i:i + 100_000], lat[i:i + 100_000].tolist(), raw[i:i + 100_000].tolist())
            fh.writelines(f"{ts}Z,{y:.7f},{lon},{r:.2f}\n" for ts, y, r in block)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rows", type=int, help="rows of the one log to write (with --out)")
    parser.add_argument("--out", type=Path, help="path of the one log to write (with --rows)")
    args = parser.parse_args(argv)
    if (args.rows is None) != (args.out is None):
        parser.error("--rows and --out go together")
    if args.rows is not None:
        if args.rows < 2:
            parser.error("--rows must be at least 2")
        write_log(args.out, "campaign2", **{**SHIPPED_LOGS["campaign2"], "n_rows": args.rows})
        print(f"wrote {args.rows} rows to {args.out}")
        return
    write_calibration_tables()
    for campaign, spec in SHIPPED_LOGS.items():
        write_log(DATA_DIR / f"synthetic_{campaign}_log.csv", campaign, **spec)
    print(f"wrote data files under {DATA_DIR}")


if __name__ == "__main__":
    main()
