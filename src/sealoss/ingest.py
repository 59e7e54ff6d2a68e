"""Measurement-log ingest: parsing, RSSI calibration, geolocation, link budget.

The parsed log is a column table, Records: one float64 array per quantity
and a uint8 bitmask of flags, with one entry per well-formed row.  Each stage
takes the table and returns a new one in one vectorized pass.  The pipeline
is lossless until the final sample extraction: every parsed row flows through
each stage exactly once, carrying flags instead of being deleted, so
exclusions stay auditable.  Indexing or iterating a Records builds
MeasurementRecord row views on demand.

parse_log reads the log's bytes once.  A bulk numpy pass converts the lines
of the common forms (plain decimal numbers, ISO timestamps with Z or an
offset), bit for bit as float() and datetime.fromisoformat() would; every
other row goes through _parse_row, which defines the reject reasons; a row
the csv reader itself refuses is rejected with the reader's message.

External formats:
  measurement log   UTF-8 CSV, header ``timestamp,lat,lon,rssi_dbm`` (extra
                    columns ignored), timestamps ISO-8601 UTC or epoch
                    seconds; a row that is not valid UTF-8 is rejected
  calibration table UTF-8 CSV, header ``reported_rssi_dbm,correction_db``
  campaign config   one UTF-8 JSON document (radio, BS position, heights, sea state,
                    exclusion zones); campaign1.json / campaign2.json ship
                    with the package
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import operator
import warnings
from array import array
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from importlib.resources import files
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AlreadyCalibrated,
    ConfigError,
    EmptyLog,
    HeaderMismatch,
    MissingCalibration,
    NoValidSamples,
)
from .geometry import EarthModel, GeoPoint, check_heights, haversine_distance
from .metrics import SampleSet
from .models import ItuParams, ModelContext, RadioConfig
from .sea import Polarization, SeaState

LOG_HEADER = ("timestamp", "lat", "lon", "rssi_dbm")
CALIBRATION_HEADER = ("reported_rssi_dbm", "correction_db")

# Records closer to the base station than this cannot produce a meaningful
# path-loss sample (log-distance blows up at d -> 0).
MIN_SAMPLE_DISTANCE = 1.0


# Record flags, one bit each, in the order the stages set them.
FLAG_NAMES = ("calibration-clamped", "below-minimum", "excluded-time-zone", "excluded-distance-zone")
CLAMPED, BELOW_MINIMUM, TIME_ZONE, DISTANCE_ZONE = (np.uint8(1 << bit) for bit in range(4))
EXCLUDING = BELOW_MINIMUM | TIME_ZONE | DISTANCE_ZONE
_ZONE_FLAG = {"time": TIME_ZONE, "distance": DISTANCE_ZONE}
# The flag names of every bitmask value.
_FLAG_TUPLES = tuple(
    tuple(name for bit, name in enumerate(FLAG_NAMES) if mask >> bit & 1)
    for mask in range(1 << len(FLAG_NAMES))
)


@dataclass(frozen=True)
class MeasurementRecord:
    """One received frame: time, position, RSSI and the derived quantities.

    A row view of Records, built when a Records is indexed or iterated.
    """

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


@dataclass(frozen=True, eq=False)
class Records:
    """The well-formed rows of a log as columns, one entry per row.

    calibrated_rssi, distance and path_loss stay None until the stage that
    computes them has run; flags is a bitmask of the FLAG_NAMES bits.
    Indexing and iteration give MeasurementRecord row views.
    """

    timestamp: np.ndarray
    latitude: np.ndarray
    longitude: np.ndarray
    raw_rssi: np.ndarray
    flags: np.ndarray
    calibrated_rssi: np.ndarray | None = None
    distance: np.ndarray | None = None
    path_loss: np.ndarray | None = None

    def __post_init__(self):
        if self.path_loss is not None and (self.calibrated_rssi is None or self.distance is None):
            raise ValueError("path_loss requires calibrated_rssi and distance")
        if any(c is not None and len(c) != len(self.timestamp) for c in self._columns()):
            raise ValueError("every column needs one entry per row")

    def _columns(self) -> tuple:
        return (self.timestamp, self.latitude, self.longitude, self.raw_rssi, self.flags,
                self.calibrated_rssi, self.distance, self.path_loss)

    @property
    def excluded(self) -> np.ndarray:
        """Per row, whether a flag excludes it from the samples."""
        return (self.flags & EXCLUDING) != 0

    def __len__(self) -> int:
        return len(self.timestamp)

    def __getitem__(self, i) -> MeasurementRecord:
        i = range(len(self))[operator.index(i)]
        return _row_view(*(None if c is None else c[i].item() for c in self._columns()))

    def __iter__(self):
        n = len(self)
        columns = [[None] * n if c is None else c.tolist() for c in self._columns()]
        return (_row_view(*row) for row in zip(*columns))


def _row_view(timestamp, lat, lon, raw, flags, calibrated, distance, path_loss) -> MeasurementRecord:
    return MeasurementRecord(
        timestamp=timestamp,
        position=GeoPoint(lat, lon),
        raw_rssi=raw,
        calibrated_rssi=calibrated,
        distance=distance,
        path_loss=path_loss,
        excluded=bool(flags & EXCLUDING),
        flags=_FLAG_TUPLES[flags],
    )


@dataclass(frozen=True)
class ParsedLog:
    """Well-formed rows as Records plus the rejects (line number, reason, raw line)."""

    records: Records
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
        if any(not math.isfinite(lv) for lv, _ in self.entries):
            raise ValueError("reported RSSI levels must be finite")
        levels = [lv for lv, _ in self.entries]
        for a, b in zip(levels, levels[1:]):
            if not b > a:
                raise ValueError("reported RSSI levels must be strictly increasing")
        if any(not math.isfinite(c) for _, c in self.entries):
            raise ValueError("corrections must be finite")

    @classmethod
    def identity(cls) -> "CalibrationTable":
        """Zero correction from -150 to 0 dBm."""
        return cls(entries=((-150.0, 0.0), (0.0, 0.0)))

    @classmethod
    def from_csv(cls, source) -> "CalibrationTable":
        """The table a CSV describes; raises ConfigError for one that is not a valid table."""
        reader = csv.reader(io.StringIO(_read_text(source), newline=""))
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
        try:
            return cls(entries=tuple(entries))
        except ValueError as exc:
            raise ConfigError(f"invalid calibration table: {exc}") from exc

    def is_identity(self) -> bool:
        return all(c == 0.0 for _, c in self.entries)

    def corrections(self, reported_rssi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Interpolated corrections at each level and where it was clamped to a table edge.

        Between entries lv0 < x <= lv1 the correction is c0 + t (c1 - c0) with
        t = (x - lv0) / (lv1 - lv0); at or beyond an edge it is that edge's
        correction, flagged clamped when strictly beyond.
        """
        levels, corr = np.array(self.entries, dtype=float).T
        x = np.asarray(reported_rssi, dtype=float)
        i = np.clip(np.searchsorted(levels, x, side="left") - 1, 0, max(len(levels) - 2, 0))
        j = np.minimum(i + 1, len(levels) - 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (x - levels[i]) / (levels[j] - levels[i])
            inner = corr[i] + t * (corr[j] - corr[i])
        c = np.where(x <= levels[0], corr[0], np.where(x >= levels[-1], corr[-1], inner))
        return c, (x < levels[0]) | (x > levels[-1])


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

    def contains(self, records: Records) -> np.ndarray:
        """Per row, whether it lies in the zone; no row lies in a distance zone before geolocate."""
        values = records.timestamp if self.kind == "time" else records.distance
        if values is None:
            return np.zeros(len(records), dtype=bool)
        return (self.start <= values) & (values <= self.end)


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
        check_heights(self.tx_height, self.rx_height)
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
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"invalid campaign config: {exc}") from exc

    @classmethod
    def from_json(cls, source) -> "CampaignConfig":
        try:
            doc = json.loads(_read_text(source), parse_constant=_finite, parse_float=_finite)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except ValueError as exc:  # malformed JSON, or an integer too long to parse
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


def _finite(literal: str) -> float:
    """A JSON number or constant (NaN, Infinity) as a float; raises ConfigError unless finite."""
    value = float(literal)
    if not math.isfinite(value):
        raise ConfigError(f"invalid campaign config: {literal} is not a finite number")
    return value


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


def _number(value, path: str) -> float:
    """A JSON number (int or float, not a boolean) as a float; raises ConfigError naming path."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"invalid campaign config: {path} must be a number, not {value!r}")
    return float(value)


def _typed(kind: type, what: str, path: str):
    """Reader of a JSON value that must be of kind (what names it); raises ConfigError naming path."""
    def read(value):
        if not isinstance(value, kind):
            raise ConfigError(f"invalid campaign config: {path} must be {what}, not {value!r}")
        return value
    return read


def _read_floats(cls, table: dict, path: str):
    """Reader of a section whose attributes are all numbers, building a cls."""
    paths = {attr: path + key for key, attr in table.items()}
    return lambda doc: cls(**{a: _number(v, paths[a]) for a, v in _attributes(doc, table, path).items()})


def _zone(doc, path: str) -> ExclusionZone:
    z = _attributes(doc, _ZONE, path)
    return ExclusionZone(kind=z["kind"], **{k: _number(z[k], path + k) for k in ("start", "end")})


# How from_dict reads each CampaignConfig attribute from its JSON value.
_READ = {
    "name": _typed(str, "a string", "name"),
    "bs_position": _read_floats(GeoPoint, _POSITION, "bs_position."),
    "radio": _read_floats(RadioConfig, _RADIO, "radio."),
    "tx_height": lambda h: _number(h, "geometry.tx_height_m"),
    "rx_height": lambda h: _number(h, "geometry.rx_height_m"),
    "earth": _read_floats(EarthModel, _EARTH, "geometry.earth."),
    "sea": _read_floats(SeaState, _SEA, "sea."),
    "polarization": Polarization,
    "itu": _read_floats(ItuParams, _ITU, "itu."),
    "exclusion_zones": lambda zones: tuple(
        _zone(z, f"exclusion_zones[{i}].") for i, z in enumerate(zones)
    ),
    "log_distance_reference": lambda d: _number(d, "log_distance_reference_m"),
    "metadata": lambda m: dict(_typed(dict, "an object", "metadata")(m)),
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


def _read_text(source) -> str:
    """The text of an open text stream (left open), or of the UTF-8 file at a path.

    Raises ConfigError for a file that is not UTF-8.
    """
    if hasattr(source, "read"):
        return source.read()
    try:
        return Path(source).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{source} is not UTF-8 text: {exc}") from exc


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
    """Parse a measurement log into records plus a rejects list.

    source is a path or an open stream.  Every malformed row lands in the
    rejects with its line number and reason; nothing is silently dropped.  A
    row that is not valid UTF-8 is rejected as ``undecodable row``.  Raises
    EmptyLog for a file without a header and HeaderMismatch when the leading
    columns are not the expected ones or the header is not valid UTF-8.
    """
    data = _log_bytes(source)
    if b'"' in data or data.count(b"\r") != data.count(b"\r\n"):
        # With quoted fields or bare \r breaks, csv rows are not the \n lines.
        # Decoded a block at a time, so the log's text is never held whole.
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape",
                                newline="")
        reader = csv.reader(text)
        _check_header(next(reader, None))
        _, columns, rejects = _parse_rows(reader)
    else:
        columns, rejects = _parse_lines(data)
    if not len(columns[0]):
        warnings.warn("measurement log contains zero well-formed rows", stacklevel=2)
    records = Records(*columns, flags=np.zeros(len(columns[0]), dtype=np.uint8))
    return ParsedLog(records=records, rejects=tuple(rejects))


def _log_bytes(source) -> bytes:
    """The bytes of a log path or stream; text read from a stream is encoded as UTF-8."""
    if not hasattr(source, "read"):
        return Path(source).read_bytes()
    data = source.read()
    return data.encode("utf-8", "surrogatepass") if isinstance(data, str) else data


def _check_header(header) -> None:
    """Raise unless header, the log's first csv row, starts with LOG_HEADER."""
    if header is None or all(not c.strip() for c in header):
        raise EmptyLog("measurement log has no header line")
    if not _decodable(",".join(header)):
        raise HeaderMismatch(f"header is not valid UTF-8: {_raw_text(header)}")
    got = tuple(h.strip().lower() for h in header[: len(LOG_HEADER)])
    if got != LOG_HEADER:
        raise HeaderMismatch(f"expected {','.join(LOG_HEADER)}, got {','.join(got)}")


def _decodable(text: str) -> bool:
    """Whether text, decoded with surrogateescape, came from valid UTF-8."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _raw_text(row: list) -> str:
    """A csv row as the text of its line, with undecodable bytes as \\x escapes."""
    return ",".join(row).encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace")


def _parse_row(row: list):
    """A non-blank csv row's (timestamp, lat, lon, rssi), or the reason it is rejected."""
    if not _decodable(",".join(row)):
        return "undecodable row"
    if len(row) < len(LOG_HEADER):
        return "wrong column count"
    try:
        ts = _parse_timestamp(row[0])
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


def _parse_rows(reader):
    """Parse a csv reader's rows one at a time; skip blank rows.

    Each row is numbered by the line of the reader's input it starts on, so a
    row after a quoted field that spans lines keeps its own line number.  A
    row the reader refuses (a field over csv's size limit) is rejected with
    the reader's message and no text; the reader goes on with the next row.
    Returns the accepted rows' line numbers, their timestamp, lat, lon and
    rssi columns, and the rejects.
    """
    lines, values, rejects = array("q"), array("d"), []
    while True:
        line_no = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            rejects.append((line_no, str(exc), ""))
            continue
        if not any(map(str.strip, row)):
            continue
        parsed = _parse_row(row)
        if isinstance(parsed, str):
            rejects.append((line_no, parsed, _raw_text(row)))
        else:
            lines.append(line_no)
            values.extend(parsed)
    columns = np.frombuffer(values, dtype=float).reshape(-1, len(LOG_HEADER)).T
    return lines, [c.copy() for c in columns], rejects


# The bulk pass.  It reads a log whose csv rows are its \n lines in chunks of
# whole lines and proves, with numpy, the lines that have exactly four fields:
# a timestamp of the form YYYY-MM-DDTHH:MM:SS plus Z or +-HH:MM, or a number,
# then three numbers, each -?d+(.d+)? with at most 15 digits, and a latitude
# and longitude in range.  A number is M / 10**k for its digits M and its k
# decimals; M < 10**15 and 10**k are exact doubles, so the one rounding of the
# division gives float()'s bits.  Every other line goes to _parse_row.  Fields
# are read into uint8 matrices with one row per character position, so the
# temporaries are bounded by the chunk size.
_CHUNK_BYTES = 1 << 17
_NUMBER_WIDTH = 17  # '-', 15 digits and '.'
_MAX_DIGITS = 15
_ISO_WIDTH = 25     # YYYY-MM-DDTHH:MM:SS+HH:MM
_PAD = _ISO_WIDTH   # zero bytes around a chunk, so every field's window lies in it
# How far from the right end each position of a right-aligned number is.
_FROM_RIGHT = np.arange(_NUMBER_WIDTH, 0, -1, dtype=np.uint8)[:, None]
_POW10 = 10.0 ** np.arange(_NUMBER_WIDTH)
# The positions of the digits of each part of an ISO timestamp: year, month,
# day, hour, minute, second, offset hours, offset minutes.
_ISO_PARTS = ((0, 1, 2, 3), (5, 6), (8, 9), (11, 12), (14, 15), (17, 18), (20, 21), (23, 24))
_ISO_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_ISO_SEPARATORS = ((4, ord("-")), (7, ord("-")), (10, ord("T")), (13, ord(":")), (16, ord(":")))


def _parse_lines(data: bytes) -> tuple:
    """Columns and rejects of a log whose csv rows are its newline-ended lines."""
    pos = data.find(b"\n") + 1 or len(data)
    _check_header(next(csv.reader([data[:pos].decode("utf-8", "surrogateescape")]), None))
    buf = np.frombuffer(data, dtype=np.uint8)
    line_no = 2
    proven, columns, deferred, deferred_text = [], [], [], []
    while pos < len(data):
        stop = data.rfind(b"\n", pos, pos + _CHUNK_BYTES) + 1 or data.find(b"\n", pos) + 1 or len(data)
        chunk = np.zeros(stop - pos + 2 * _PAD, dtype=np.uint8)
        chunk[_PAD:-_PAD] = buf[pos:stop]
        starts, ends = _line_bounds(chunk)
        ok, proven_columns = _prove(chunk, starts, ends)
        for i in np.flatnonzero(~ok).tolist():
            deferred.append(line_no + i)
            deferred_text.append(data[pos - _PAD + starts[i]:pos - _PAD + ends[i]]
                                 .decode("utf-8", "surrogateescape"))
        proven.append(ok)
        columns.append(proven_columns)
        line_no += len(ok)
        pos = stop
    lines, deferred_columns, rejects = _parse_rows(csv.reader(deferred_text))
    # Line k of the deferred text is the file's line deferred[k - 1].
    lines = [deferred[k - 1] for k in lines]
    rejects = [(deferred[k - 1], *reject) for k, *reject in rejects]
    columns = [np.concatenate(c) for c in zip(*columns)] or deferred_columns
    if lines:
        # A row _parse_row accepted goes after the proven rows of the lines before it.
        proven_lines = 2 + np.flatnonzero(np.concatenate(proven))
        columns = [np.insert(c, np.searchsorted(proven_lines, lines), v)
                   for c, v in zip(columns, deferred_columns)]
    return columns, rejects


def _line_bounds(chunk: np.ndarray) -> tuple:
    """Start and end offsets of the padded chunk's lines, without their line breaks."""
    ends = np.flatnonzero(chunk == ord("\n"))
    if chunk[-_PAD - 1] != ord("\n"):
        ends = np.append(ends, len(chunk) - _PAD)
    starts = np.concatenate(([_PAD], ends[:-1] + 1))
    # The file has no bare \r, so a \r before a line's end is part of its \r\n.
    return starts, ends - (chunk[ends - 1] == ord("\r"))


def _prove(chunk: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple:
    """Which lines the bulk pass proves, and their timestamp, lat, lon and rssi."""
    commas = np.flatnonzero(chunk == ord(","))
    first = np.searchsorted(commas, starts)
    rows = np.flatnonzero(np.searchsorted(commas, ends) - first == 3)
    cuts = commas[first[rows, None] + np.arange(3)].T
    value, ok = _numbers(chunk, np.concatenate((starts[rows], *(cuts + 1))),
                         np.concatenate((*cuts, ends[rows])))
    iso, iso_ok = _iso_seconds(chunk, starts[rows], cuts[0])
    ts, lat, lon, rssi = np.where(iso_ok, iso, value[0]), *value[1:]
    good = (ok[0] | iso_ok) & ok[1:].all(0) & (np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0)
    proven = np.zeros(len(starts), dtype=bool)
    proven[rows[good]] = True
    return proven, tuple(c[good] for c in (ts, lat, lon, rssi))


def _numbers(chunk: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple:
    """Values of the four fields of each line, and which are -?d+(.d+)? with at most 15 digits.

    starts and ends hold the fields' offsets, field by field; each field is
    read right-aligned in _NUMBER_WIDTH positions.
    """
    width = ends - starts
    char = np.ascontiguousarray(sliding_window_view(chunk, _NUMBER_WIDTH)[ends - _NUMBER_WIDTH].T)
    inside = _FROM_RIGHT <= np.minimum(width, _NUMBER_WIDTH + 1).astype(np.uint8)
    digit = char - np.uint8(ord("0"))
    is_digit = (digit < 10) & inside
    is_dot = (char == ord(".")) & inside
    n_digits = is_digit.sum(0, dtype=np.uint8)
    n_dots = is_dot.sum(0, dtype=np.uint8)
    # With one dot, the number of positions right of it.
    decimals = np.where(n_dots == 1, (is_dot * _FROM_RIGHT).sum(0, dtype=np.uint8) - 1, 0)
    negative = chunk[starts] == ord("-")
    ok = ((n_digits + n_dots + negative == width) & (n_digits >= 1) & (n_digits <= _MAX_DIGITS)
          & ((n_dots == 0) | (n_dots == 1) & (decimals >= 1) & (n_digits > decimals)))
    # Drop the dot: the digits left of it move one place right.
    digit *= is_digit
    shifted = np.zeros_like(digit)
    shifted[1:] = digit[:-1]
    digit = np.where((_FROM_RIGHT > decimals) & (n_dots == 1), shifted, digit)
    mantissa = np.zeros(len(starts))
    for row in digit:  # exact: below 2**53 at every step of a valid number
        mantissa *= 10.0
        mantissa += row
    value = mantissa / _POW10[decimals]
    return np.where(negative, -value, value).reshape(4, -1), ok.reshape(4, -1)


def _iso_seconds(chunk: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple:
    """UTC seconds of the fields YYYY-MM-DDTHH:MM:SS plus Z or +-HH:MM, and which are such.

    A field that names no real instant (year 0, month 13, a day past the
    month's end, hour 24, second 60) is not such a field.
    """
    char = np.ascontiguousarray(sliding_window_view(chunk, _ISO_WIDTH)[starts].T)
    width, mark = ends - starts, char[19]
    digit = char - np.uint8(ord("0"))
    is_digit = digit < 10
    zulu = (width == 20) & (mark == ord("Z"))
    offset = ((width == _ISO_WIDTH) & ((mark == ord("+")) | (mark == ord("-")))
              & (char[22] == ord(":")) & is_digit[[20, 21, 23, 24]].all(0))
    ok = (zulu | offset) & is_digit[_ISO_DIGITS].all(0)
    for col, sep in _ISO_SEPARATORS:
        ok &= char[col] == sep
    year, month, day, hour, minute, second, off_h, off_m = (
        functools.reduce(lambda v, col: 10 * v + digit[col], cols, np.zeros(len(starts), np.int64))
        for cols in _ISO_PARTS)
    off_h, off_m = off_h * offset, off_m * offset
    month0 = np.where(ok, (year - 1970) * 12 + month - 1, 0)
    first, after = (m.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
                    for m in (month0, month0 + 1))
    ok &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= after - first)
           & (hour <= 23) & (minute <= 59) & (second <= 59) & (off_h <= 23) & (off_m <= 59))
    utc_offset = np.where(mark == ord("-"), -1, 1) * (off_h * 3600 + off_m * 60)
    seconds = (first + day - 1) * 86400 + hour * 3600 + minute * 60 + second - utc_offset
    return seconds.astype(float), ok


def apply_calibration(records: Records, table: CalibrationTable) -> Records:
    """Correct raw RSSI values through the step-attenuator error table.

    Clamped extrapolation beyond the table's range is flagged per record.
    Re-applying a non-identity table to already-calibrated records raises
    AlreadyCalibrated; corrections always start from the raw value.
    """
    if records.calibrated_rssi is not None and not table.is_identity():
        raise AlreadyCalibrated("records already carry calibrated RSSI")
    correction, clamped = table.corrections(records.raw_rssi)
    return replace(
        records,
        calibrated_rssi=records.raw_rssi + correction,
        flags=records.flags | np.where(clamped, CLAMPED, 0),
    )


def geolocate(records: Records, cfg: CampaignConfig) -> Records:
    """Attach great-circle distances from the BS and apply exclusion zones.

    Records inside a configured time or distance zone, or closer than the
    minimum usable distance, are flagged excluded but retained.  A record in
    several zones carries the flag of the first in config order.
    """
    bs = cfg.bs_position
    distance = haversine_distance(
        records.latitude, records.longitude, bs.latitude, bs.longitude, cfg.earth.true_radius
    )
    located = replace(records, distance=distance)
    flags = records.flags | np.where(distance < MIN_SAMPLE_DISTANCE, BELOW_MINIMUM, 0)
    unzoned = np.ones(len(records), dtype=bool)
    for zone in cfg.exclusion_zones:
        hit = unzoned & zone.contains(located)
        flags |= np.where(hit, _ZONE_FLAG[zone.kind], 0)
        unzoned &= ~hit
    return replace(located, flags=flags)


def rssi_to_pathloss(records: Records, radio: RadioConfig) -> Records:
    """Convert calibrated RSSI to path loss through the link budget.

    path_loss = radio.gains - rssi (tx_power plus both antenna gains, less the
    polarization loss).
    Raises MissingCalibration on uncalibrated records.
    """
    if records.calibrated_rssi is None:
        raise MissingCalibration("apply_calibration must run before the link budget")
    return replace(records, path_loss=radio.gains - records.calibrated_rssi)


def to_sample_set(records: Records) -> SampleSet:
    """The distances and path losses of the records, dropping excluded records here only.

    Output is sorted by distance.  Raises NoValidSamples when nothing remains.
    """
    kept = ~records.excluded
    if records.distance is None or records.path_loss is None or not kept.any():
        raise NoValidSamples("no usable samples after exclusions")
    distance, path_loss = records.distance[kept], records.path_loss[kept]
    order = np.argsort(distance, kind="stable")
    return SampleSet(distance[order], path_loss[order])
