"""Measurement-log ingest: parsing, RSSI calibration, geolocation, link budget.

The pipeline is lossless until the final sample extraction: every parsed
record flows through each stage exactly once, carrying flags instead of being
deleted, so exclusions stay auditable.

External formats:
  measurement log   CSV, header ``timestamp,lat,lon,rssi_dbm`` (extra columns
                    ignored), timestamps ISO-8601 UTC or epoch seconds
  calibration table CSV, header ``reported_rssi_dbm,correction_db``
  campaign config   one JSON document (radio, BS position, heights, sea state,
                    exclusion zones); campaign1.json / campaign2.json ship
                    with the package
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from importlib.resources import files
from pathlib import Path

from .errors import (
    AlreadyCalibrated,
    ConfigError,
    EmptyLog,
    HeaderMismatch,
    MissingCalibration,
    NoValidSamples,
)
from .geometry import MAX_ANTENNA_HEIGHT, EarthModel, GeoPoint, great_circle_distance
from .metrics import SampleSet
from .models import ItuParams, ModelContext, RadioConfig
from .sea import Polarization, SeaState

LOG_HEADER = ("timestamp", "lat", "lon", "rssi_dbm")
CALIBRATION_HEADER = ("reported_rssi_dbm", "correction_db")

# Records closer to the base station than this cannot produce a meaningful
# path-loss sample (log-distance blows up at d -> 0).
MIN_SAMPLE_DISTANCE = 1.0


@dataclass(frozen=True)
class MeasurementRecord:
    """One received frame: time, position, RSSI and the derived quantities."""

    timestamp: float
    position: GeoPoint
    raw_rssi: float
    calibrated_rssi: float | None = None
    distance: float | None = None
    path_loss: float | None = None
    excluded: bool = False
    flags: tuple = ()

    def __post_init__(self):
        if self.path_loss is not None and (self.calibrated_rssi is None or self.distance is None):
            raise ValueError("path_loss requires calibrated_rssi and distance")


@dataclass(frozen=True)
class ParsedLog:
    """Well-formed records plus the rejects (line number, reason, raw line)."""

    records: tuple
    rejects: tuple = ()


@dataclass(frozen=True)
class CalibrationTable:
    """Per-level RSSI corrections from a step-attenuator sweep.

    Corrections are interpolated linearly in dB between table entries and
    clamped to the nearest entry outside the table's range.
    """

    entries: tuple  # ((reported_rssi_dbm, correction_db), ...) sorted ascending

    def __post_init__(self):
        if not self.entries:
            raise ValueError("calibration table must not be empty")
        levels = [lv for lv, _ in self.entries]
        for a, b in zip(levels, levels[1:]):
            if not b > a:
                raise ValueError("reported RSSI levels must be strictly increasing")
        if any(not math.isfinite(c) for _, c in self.entries):
            raise ValueError("corrections must be finite")

    @classmethod
    def identity(cls, lo: float = -150.0, hi: float = 0.0) -> "CalibrationTable":
        return cls(entries=((lo, 0.0), (hi, 0.0)))

    @classmethod
    def from_csv(cls, source) -> "CalibrationTable":
        with _open_text(source) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise EmptyLog("calibration table is empty")
            got = tuple(h.strip().lower() for h in header[:2])
            if got != CALIBRATION_HEADER:
                raise HeaderMismatch(f"expected {','.join(CALIBRATION_HEADER)}, got {','.join(got)}")
            try:
                entries = [(float(row[0]), float(row[1])) for row in reader if row]
            except (ValueError, IndexError) as exc:
                raise ConfigError(f"invalid calibration table: {exc}") from exc
        entries.sort(key=lambda e: e[0])
        return cls(entries=tuple(entries))

    def is_identity(self) -> bool:
        return all(c == 0.0 for _, c in self.entries)

    def correction_at(self, reported_rssi: float) -> tuple[float, bool]:
        """Interpolated correction and whether the level was clamped to the table edge."""
        levels = [lv for lv, _ in self.entries]
        if reported_rssi <= levels[0]:
            return self.entries[0][1], reported_rssi < levels[0]
        if reported_rssi >= levels[-1]:
            return self.entries[-1][1], reported_rssi > levels[-1]
        for (lv0, c0), (lv1, c1) in zip(self.entries, self.entries[1:]):
            if lv0 <= reported_rssi <= lv1:
                t = (reported_rssi - lv0) / (lv1 - lv0)
                return c0 + t * (c1 - c0), False
        raise AssertionError("unreachable: sorted table covers the interval")


@dataclass(frozen=True)
class ExclusionZone:
    """Time interval (UTC seconds) or distance band (metres) to flag as irrelevant."""

    kind: str  # "time" | "distance"
    start: float
    end: float

    def __post_init__(self):
        if self.kind not in ("time", "distance"):
            raise ValueError(f"unknown exclusion zone kind: {self.kind!r}")
        if not self.end > self.start:
            raise ValueError("zone end must exceed start")

    def contains(self, record: MeasurementRecord) -> bool:
        if self.kind == "time":
            return self.start <= record.timestamp <= self.end
        return record.distance is not None and self.start <= record.distance <= self.end


@dataclass(frozen=True)
class CampaignConfig:
    """Everything a campaign analysis needs: station, hardware, sea, geometry."""

    name: str
    bs_position: GeoPoint
    radio: RadioConfig
    tx_height: float
    rx_height: float
    earth: EarthModel = field(default_factory=EarthModel)
    sea: SeaState = field(default_factory=SeaState)
    polarization: Polarization = Polarization.VERTICAL
    itu: ItuParams = field(default_factory=ItuParams)
    exclusion_zones: tuple = ()
    log_distance_reference: float = 100.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.tx_height > 0 or not self.rx_height > 0:
            raise ValueError("antenna heights must be positive")
        if self.tx_height > MAX_ANTENNA_HEIGHT or self.rx_height > MAX_ANTENNA_HEIGHT:
            raise ValueError(f"antenna heights above {MAX_ANTENNA_HEIGHT} m are not supported")
        if not self.log_distance_reference > 0:
            raise ValueError("log-distance reference must be positive")

    def model_context(self, log_distance=None) -> ModelContext:
        return ModelContext(
            h_t=self.tx_height,
            h_r=self.rx_height,
            frequency=self.radio.frequency,
            earth=self.earth,
            sea=self.sea,
            polarization=self.polarization,
            itu=self.itu,
            log_distance=log_distance,
        )

    def to_dict(self) -> dict:
        """Fully resolved configuration (all defaults materialized)."""
        return {
            "name": self.name,
            "bs_position": _section(self.bs_position, _POSITION),
            "radio": _section(self.radio, _RADIO),
            "geometry": {
                **_section(self, _GEOMETRY),
                "earth": _section(self.earth, _EARTH),
            },
            "sea": _section(self.sea, _SEA),
            "polarization": self.polarization.value,
            "itu": _section(self.itu, _ITU),
            "exclusion_zones": [_section(z, _ZONE) for z in self.exclusion_zones],
            "log_distance_reference_m": self.log_distance_reference,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "CampaignConfig":
        """The config a JSON document describes; a missing optional key takes its default.

        Raises ConfigError for a malformed document, naming every key the
        schema does not know (e.g. ``sea.sigma_h``).  metadata is free-form.
        """
        try:
            fields = {"name": "campaign", **_attributes(doc, _CAMPAIGN, "")}
            fields.update(_attributes(fields.pop("geometry"), _GEOMETRY, "geometry."))
            return cls(**{attr: _READ[attr](value) for attr, value in fields.items()})
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid campaign config: {exc}") from exc

    @classmethod
    def from_json(cls, source) -> "CampaignConfig":
        try:
            with _open_text(source) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)


# The campaign JSON schema, one table per section: JSON key -> attribute of the
# object the section describes.  to_dict, from_dict and the unknown-key check
# all read these tables, and a key missing from a document takes the
# dataclass default.  "geometry" holds CampaignConfig's heights and earth.
_CAMPAIGN = {
    "name": "name",
    "bs_position": "bs_position",
    "radio": "radio",
    "geometry": "geometry",
    "sea": "sea",
    "polarization": "polarization",
    "itu": "itu",
    "exclusion_zones": "exclusion_zones",
    "log_distance_reference_m": "log_distance_reference",
    "metadata": "metadata",
}
_POSITION = {"latitude": "latitude", "longitude": "longitude"}
_RADIO = {
    "frequency_hz": "frequency",
    "tx_power_dbm": "tx_power",
    "tx_antenna_gain_dbi": "tx_antenna_gain",
    "rx_antenna_gain_dbi": "rx_antenna_gain",
    "polarization_loss_db": "polarization_loss",
    "rx_sensitivity_dbm": "rx_sensitivity",
}
_GEOMETRY = {"tx_height_m": "tx_height", "rx_height_m": "rx_height", "earth": "earth"}
_EARTH = {"true_radius_m": "true_radius", "effective_radius_factor": "effective_radius_factor"}
_SEA = {
    "sigma_h_m": "sigma_h",
    "beta_0_rad": "beta_0",
    "relative_permittivity": "relative_permittivity",
    "conductivity_s_per_m": "conductivity",
}
_ITU = {
    "time_percentage": "time_percentage",
    "median_effective_radius_factor": "median_effective_radius_factor",
}
_ZONE = {"kind": "kind", "start": "start", "end": "end"}


def _section(obj, table: dict) -> dict:
    """obj as its JSON section: {JSON key: attribute value}."""
    return {key: getattr(obj, attr) for key, attr in table.items()}


def _attributes(doc, table: dict, path: str) -> dict:
    """A JSON section as {attribute: JSON value}; raises ConfigError on unknown keys."""
    if not isinstance(doc, dict):
        where = path.rstrip(".") or "document"
        raise ConfigError(f"invalid campaign config: {where} is not an object")
    unknown = [path + key for key in doc if key not in table]
    if unknown:
        raise ConfigError(f"invalid campaign config: unknown key {', '.join(unknown)}")
    return {table[key]: value for key, value in doc.items()}


def _read_floats(cls, table: dict, path: str):
    """Reader of a section whose attributes are all floats, building a cls."""
    return lambda doc: cls(**{a: float(v) for a, v in _attributes(doc, table, path).items()})


def _zone(doc, path: str) -> ExclusionZone:
    z = _attributes(doc, _ZONE, path)
    return ExclusionZone(kind=z["kind"], start=float(z["start"]), end=float(z["end"]))


# How from_dict reads each CampaignConfig attribute from its JSON value.
_READ = {
    "name": lambda name: name,
    "bs_position": _read_floats(GeoPoint, _POSITION, "bs_position."),
    "radio": _read_floats(RadioConfig, _RADIO, "radio."),
    "tx_height": float,
    "rx_height": float,
    "earth": _read_floats(EarthModel, _EARTH, "geometry.earth."),
    "sea": _read_floats(SeaState, _SEA, "sea."),
    "polarization": Polarization,
    "itu": _read_floats(ItuParams, _ITU, "itu."),
    "exclusion_zones": lambda zones: tuple(
        _zone(z, f"exclusion_zones[{i}].") for i, z in enumerate(zones)
    ),
    "log_distance_reference": float,
    "metadata": dict,
}


def builtin_data_path(name: str) -> Path:
    """Path of a data file shipped with the package (configs, tables, logs)."""
    path = Path(str(files("sealoss").joinpath("data", name)))
    if not path.exists():
        raise ConfigError(f"no built-in data file named {name!r}")
    return path


def load_campaign(name_or_path) -> CampaignConfig:
    """Load a campaign config from a path or a built-in name like ``campaign2``."""
    p = Path(name_or_path)
    if p.exists():
        return CampaignConfig.from_json(p)
    try:
        return CampaignConfig.from_json(builtin_data_path(f"{name_or_path}.json"))
    except ConfigError:
        raise ConfigError(f"no config file or built-in campaign named {name_or_path!r}")


def _open_text(source):
    """Accept an open text stream (left open) or a path to open."""
    if hasattr(source, "read"):
        return nullcontext(source)
    return open(source, "r", encoding="utf-8", newline="")


def _parse_timestamp(text: str) -> float:
    """ISO-8601 (Z or offset) or raw epoch seconds, as UTC seconds; nan/inf are refused."""
    text = text.strip()
    try:
        seconds = float(text)
    except ValueError:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.timestamp()
    if not math.isfinite(seconds):
        raise ValueError(f"non-finite timestamp: {text!r}")
    return seconds


def parse_log(source) -> ParsedLog:
    """Parse a measurement log stream into records plus a rejects list.

    Every malformed row lands in the rejects with its line number and reason;
    nothing is silently dropped.  Raises EmptyLog for a file without a header
    and HeaderMismatch when the leading columns are not the expected ones.
    """
    with _open_text(source) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or all(not c.strip() for c in header):
            raise EmptyLog("measurement log has no header line")
        got = tuple(h.strip().lower() for h in header[: len(LOG_HEADER)])
        if got != LOG_HEADER:
            raise HeaderMismatch(f"expected {','.join(LOG_HEADER)}, got {','.join(got)}")
        records, rejects = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            raw = ",".join(row)
            if len(row) < len(LOG_HEADER):
                rejects.append((line_no, "wrong column count", raw))
                continue
            try:
                ts = _parse_timestamp(row[0])
            except ValueError:
                rejects.append((line_no, "bad timestamp", raw))
                continue
            try:
                lat, lon, rssi = float(row[1]), float(row[2]), float(row[3])
            except ValueError:
                rejects.append((line_no, "non-numeric field", raw))
                continue
            if not -90.0 <= lat <= 90.0:
                rejects.append((line_no, "latitude out of range", raw))
                continue
            if not -180.0 <= lon <= 180.0:
                rejects.append((line_no, "longitude out of range", raw))
                continue
            if not math.isfinite(rssi):
                rejects.append((line_no, "non-finite rssi", raw))
                continue
            records.append(
                MeasurementRecord(timestamp=ts, position=GeoPoint(lat, lon), raw_rssi=rssi)
            )
    if not records:
        warnings.warn("measurement log contains zero well-formed rows", stacklevel=2)
    return ParsedLog(records=tuple(records), rejects=tuple(rejects))


def apply_calibration(records, table: CalibrationTable):
    """Correct raw RSSI values through the step-attenuator error table.

    Clamped extrapolation beyond the table's range is flagged per record.
    Re-applying a non-identity table to already-calibrated records raises
    AlreadyCalibrated; corrections always start from the raw value.
    """
    out = []
    identity = table.is_identity()
    for rec in records:
        if rec.calibrated_rssi is not None and not identity:
            raise AlreadyCalibrated("records already carry calibrated RSSI")
        correction, clamped = table.correction_at(rec.raw_rssi)
        flags = rec.flags
        if clamped and "calibration-clamped" not in flags:
            flags = flags + ("calibration-clamped",)
        out.append(replace(rec, calibrated_rssi=rec.raw_rssi + correction, flags=flags))
    return out


def geolocate(records, cfg: CampaignConfig):
    """Attach great-circle distances from the BS and apply exclusion zones.

    Records inside a configured time or distance zone, or closer than the
    minimum usable distance, are flagged excluded but retained.
    """
    out = []
    for rec in records:
        d = great_circle_distance(rec.position, cfg.bs_position, cfg.earth)
        rec = replace(rec, distance=d)
        flags = rec.flags
        excluded = rec.excluded
        if d < MIN_SAMPLE_DISTANCE:
            flags = flags + ("below-minimum",)
            excluded = True
        for zone in cfg.exclusion_zones:
            if zone.contains(rec):
                flags = flags + (f"excluded-{zone.kind}-zone",)
                excluded = True
                break
        out.append(replace(rec, flags=flags, excluded=excluded))
    return out


def rssi_to_pathloss(records, radio: RadioConfig):
    """Convert calibrated RSSI to path loss through the link budget.

    path_loss = tx_power + tx_gain + (rx_gain - polarization_loss) - rssi.
    Raises MissingCalibration on any uncalibrated record.
    """
    gains = radio.tx_power + radio.tx_antenna_gain + radio.rx_antenna_gain - radio.polarization_loss
    out = []
    for rec in records:
        if rec.calibrated_rssi is None:
            raise MissingCalibration("apply_calibration must run before the link budget")
        out.append(replace(rec, path_loss=gains - rec.calibrated_rssi))
    return out


def to_sample_set(records, source_id: str = "measurements") -> SampleSet:
    """Extract (distance, path loss) pairs, dropping excluded records here only.

    Output is sorted by distance.  Raises NoValidSamples when nothing remains.
    """
    pairs = [
        (rec.distance, rec.path_loss)
        for rec in records
        if not rec.excluded and rec.distance is not None and rec.path_loss is not None
    ]
    if not pairs:
        raise NoValidSamples("no usable samples after exclusions")
    pairs.sort(key=lambda p: p[0])
    return SampleSet(pairs=tuple(pairs), source_id=source_id)
