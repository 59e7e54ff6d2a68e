"""parse_log against the per-row reference parser in oracles.py.

parse_log converts the lines it can prove with numpy and parses the rest one
row at a time; these tests check that the split never shows: columns equal
bit for bit and rejects equal, whatever path each row takes.
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from sealoss import HeaderMismatch, parse_log

HEADER = "timestamp,lat,lon,rssi_dbm"
COLUMNS = ("timestamp", "latitude", "longitude", "raw_rssi")


def reference(text: str):
    """The columns and rejects (line, reason, raw) a per-row parse of text gives."""
    rows, rejects = oracles.reference_ingest(text, ((-150.0, 0.0), (0.0, 0.0)), (0.0, 0.0),
                                             6_371_000.0, (), 0.0)
    reader = csv.reader(io.StringIO(text, newline=""))
    raw, start = {}, 1  # the text of each row, by the line it starts on
    for row in reader:
        raw[start], start = ",".join(row), reader.line_num + 1
    columns = [np.array([r[c] for r in rows], dtype=float) for c in COLUMNS]
    return columns, [(line, reason, raw[line]) for line, reason in rejects]


def assert_matches_reference(parsed, text: str) -> None:
    columns, rejects = reference(text)
    assert list(parsed.rejects) == rejects
    for name, want in zip(COLUMNS, columns):
        got = getattr(parsed.records, name)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes(), name  # bit for bit, -0.0 included


digits = st.text("0123456789", min_size=1, max_size=8)
# -?d+(.d+)? around the 15-digit bound, with leading zeros and -0.0.
plain_numbers = st.builds(
    lambda sign, whole, frac: sign + whole + ("." + frac if frac else ""),
    st.sampled_from(["", "-"]), digits, st.one_of(st.just(""), digits),
)


def coordinates(limit: int):
    """Plain numbers mostly within +-limit, some just beyond it."""
    return st.builds(
        lambda sign, whole, frac: f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}",
        st.sampled_from(["", "-"]), st.integers(0, limit + 1).map(str),
        st.text("0123456789", max_size=13),
    )


odd_numbers = st.sampled_from([
    "+5", "1e3", "-2.5E-3", ".5", "5.", "-.5", "-5.", " 5", "5 ", "\t-5", "nan", "-nan", "inf",
    "-inf", "Infinity", "1_0", "-0", "-0.0", "0.000", "007", "0090.5", "", "-", "--1", "1.2.3",
    "1..2", "0x10", "\x00", "5\x00", "\u0665", "\uff15", "\ufeff5", "90", "-90.0", "180",
    "-180.0", "90.000000000001", "180.00000000000001", "123456789012345", "1234567890123456",
    "12345678901234.5", "1234567890123.45", "9007199254740993", "-999999999999999",
])
iso_timestamps = st.builds(
    lambda y, mo, d, h, mi, s, tz: f"{y:04d}-{mo:02d}-{d:02d}T{h:02d}:{mi:02d}:{s:02d}{tz}",
    st.integers(1, 9999), st.integers(1, 12), st.integers(1, 28),
    st.integers(0, 23), st.integers(0, 59), st.integers(0, 59),
    st.sampled_from(["Z", "+02:00", "-05:30", "+23:59", "-00:00"]),
)
# Other ISO forms and impossible dates and times.
odd_timestamps = st.builds(
    lambda y, mo, d, sep, h, mi, s, frac, tz: f"{y:04d}-{mo:02d}-{d:02d}{sep}{h:02d}:{mi:02d}:{s:02d}{frac}{tz}",
    st.sampled_from([0, 1, 1900, 1970, 2000, 2020, 2021, 2024, 9999]),
    st.integers(0, 13), st.integers(0, 32),
    st.sampled_from(["T", "T", "T", " ", "t"]),
    st.integers(0, 24), st.integers(0, 60), st.integers(0, 60),
    st.sampled_from(["", "", "", ".5", ".123456", ",5"]),
    st.sampled_from(["Z", "Z", "+02:00", "-05:30", "+23:59", "-00:00", "+24:00", "+02:60", "",
                     "+0200", "z", "Z+01:00"]),
)
leap_days = st.builds(lambda y, tz: f"{y}-02-29T12:00:00{tz}",
                      st.sampled_from([1900, 2000, 2020, 2021, 2100]), st.sampled_from(["Z", "+01:00"]))
epoch_seconds = st.builds(lambda s, frac: f"{s}.{frac}" if frac else str(s),
                          st.integers(0, 4_000_000_000), st.text("0123456789", max_size=6))
plain_rows = st.builds(
    lambda *fields: ",".join(fields),
    st.one_of(iso_timestamps, epoch_seconds), coordinates(90), coordinates(180), plain_numbers,
)
any_rows = st.builds(
    lambda ts, lat, lon, rssi, n, extra: ",".join([ts, lat, lon, rssi][:n] + extra),
    st.one_of(iso_timestamps, epoch_seconds, odd_timestamps, leap_days, plain_numbers, odd_numbers),
    st.one_of(coordinates(90), plain_numbers, odd_numbers),
    st.one_of(coordinates(180), plain_numbers, odd_numbers),
    st.one_of(plain_numbers, odd_numbers),
    st.sampled_from([4, 4, 4, 4, 4, 3, 2, 1]),
    st.sampled_from([[], [], [], [""], ["snr=7"], ["x", "y"]]),
)
odd_lines = st.sampled_from(["", " ", "\t", ",,,", " , , , ", "\x00", "x", "\u00e9,1,2,3",
                             "\ufeff2020-08-15T09:00:00Z,1,2,3"])
# A '"' anywhere sends the whole file through the csv module.
quoted_lines = st.sampled_from([None, None, None, None, None,
                                '2020-08-15T09:00:00Z,"55.7\n",12.9,-100',
                                '"2020-08-15T09:00:00Z",55.7,"12,9",-100'])


def log_text(header, lines, quoted, eol, final) -> str:
    if quoted:
        lines = lines[: len(lines) // 2] + [quoted] + lines[len(lines) // 2:]
    return header + eol + eol.join(lines) + (eol if final else "")


logs = st.builds(
    log_text,
    st.sampled_from([HEADER, HEADER + ",snr", " Timestamp ,LAT,lon,rssi_dbm"]),
    st.lists(st.one_of(plain_rows, plain_rows, any_rows, any_rows, odd_lines), max_size=40),
    quoted_lines, st.sampled_from(["\n", "\r\n"]), st.booleans(),
)


@pytest.mark.filterwarnings("ignore:measurement log contains zero well-formed rows")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(logs)
def test_matches_the_per_row_reference(text):
    assert_matches_reference(parse_log(io.StringIO(text)), text)


@pytest.mark.filterwarnings("ignore:measurement log contains zero well-formed rows")
@pytest.mark.parametrize("timestamp", [
    "2020-02-29T12:00:00Z", "2000-02-29T12:00:00Z", "2021-02-29T12:00:00Z", "1900-02-29T12:00:00Z",
    "2020-04-30T00:00:00Z", "2020-04-31T00:00:00Z", "2020-12-31T23:59:59Z", "2020-13-01T00:00:00Z",
    "2020-00-10T00:00:00Z", "2020-01-00T00:00:00Z", "2020-01-01T24:00:00Z", "2020-01-01T23:60:00Z",
    "2020-01-01T23:59:60Z", "0000-01-01T00:00:00Z", "0001-01-01T00:00:00+01:00",
    "9999-12-31T23:59:59-01:00", "2020-01-01T00:00:00+24:00", "2020-01-01T00:00:00+02:60",
    "2020-01-01T00:00:00-23:59", "2020-01-01 00:00:00Z", "2020-01-01T00:00:00", "2020-01-01T00:00:00.5Z",
])
def test_timestamp_edges_match_the_reference(timestamp):
    text = f"{HEADER}\n{timestamp},55.7,12.9,-100\n"
    assert_matches_reference(parse_log(io.StringIO(text)), text)


def test_bulk_rows_match_the_reference_across_chunks():
    # Over a megabyte: many chunks, a line longer than a chunk, and rows the
    # bulk pass defers (accepted or rejected) between rows it proves.
    lines = []
    for i in range(30_000):
        ts = f"2020-08-{1 + i % 28:02d}T{i % 24:02d}:{i % 60:02d}:{(7 * i) % 60:02d}Z"
        lines.append([f"{ts},{(i % 1800) / 20 - 45.0},{i / 997:.7f},-{i % 150}.{i % 97}",
                      f"{1597482000 + i}.{i % 10},-{i % 91}.5,{i % 181},+{i % 9}",
                      f"{ts},12.5,181.0,-100",
                      f"2021-02-29T00:00:00Z,1,2,{-i}"][i % 17 % 4])
    lines[12_345] = "1597482000,1,2,3" + ",x" * 200_000
    text = HEADER + "\n" + "\n".join(lines) + "\n"
    parsed = parse_log(io.StringIO(text))
    assert len(parsed.records) > 15_000 and len(parsed.rejects) > 5_000
    assert_matches_reference(parsed, text)


def test_path_and_stream_agree(tmp_path):
    text = HEADER + "\r\n1597482000,55.7,12.9,-100\r\n\r\nnan,1,2,3\r\n+1,-0.0,0,-0"
    path = tmp_path / "log.csv"
    path.write_bytes(text.encode())
    for parsed in (parse_log(path), parse_log(str(path)), parse_log(io.StringIO(text))):
        assert_matches_reference(parsed, text)


def test_bare_carriage_return_ends_a_row_as_in_a_file(tmp_path):
    # A file is read with universal newlines, so a bare \r ends a csv row.
    data = (HEADER + "\n1597482000,55.7,12.9,-100\r1597482001,55.7,12.9,-101\n").encode()
    path = tmp_path / "log.csv"
    path.write_bytes(data)
    parsed = parse_log(path)
    assert parsed.records.timestamp.tolist() == [1597482000.0, 1597482001.0]
    assert parsed.rejects == ()


def test_rejects_numbered_by_the_line_they_start_on():
    # The quoted rssi spans lines 2-3, so the bad row is on line 5, not on csv row 4.
    text = HEADER + '\n1597482000,55.7,12.9,"-90\n.0"\n1597482001,55.7,12.9,-91\nbad,55.7,12.9,-92\n'
    parsed = parse_log(io.StringIO(text))
    assert parsed.records.timestamp.tolist() == [1597482001.0]
    assert parsed.rejects == ((2, "non-numeric field", "1597482000,55.7,12.9,-90\n.0"),
                              (5, "bad timestamp", "bad,55.7,12.9,-92"))
    assert_matches_reference(parsed, text)


class TestUndecodable:
    def test_row_rejected_with_its_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(HEADER.encode() + b"\n1597482000,55.7,12.9,-100\n"
                         b"1597482001,55.7\xff,12.9,-100\n1597482002,55.7,12.9,-100,\xc3\n")
        parsed = parse_log(path)
        assert parsed.records.timestamp.tolist() == [1597482000.0]
        assert parsed.rejects == ((3, "undecodable row", "1597482001,55.7\\xff,12.9,-100"),
                                  (4, "undecodable row", "1597482002,55.7,12.9,-100,\\xc3"))

    def test_row_in_a_quoted_file_rejected(self):
        parsed = parse_log(io.BytesIO(HEADER.encode() + b'\n"1597482000",1,2,3\n1,2\xff,3,4\n'))
        assert len(parsed.records) == 1
        assert parsed.rejects == ((3, "undecodable row", "1,2\\xff,3,4"),)

    def test_valid_multibyte_text_is_not_undecodable(self):
        parsed = parse_log(io.BytesIO(HEADER.encode() + ",note\n1,2,3,4,été\n".encode()))
        assert len(parsed.records) == 1 and parsed.rejects == ()

    def test_header_raises(self):
        with pytest.raises(HeaderMismatch, match="not valid UTF-8"):
            parse_log(io.BytesIO(b"timestamp,lat,lon,rssi_dbm,\xff\n1,2,3,4\n"))


def test_byte_order_mark_header_mismatch():
    # The log is read as UTF-8, not UTF-8-SIG: a BOM is part of the first name.
    for text in ("\ufeff" + HEADER + "\n1,2,3,4\n", "\ufeff" + HEADER + '\n"1",2,3,4\n'):
        with pytest.raises(HeaderMismatch):
            parse_log(io.StringIO(text))
