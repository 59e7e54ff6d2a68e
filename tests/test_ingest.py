import io
import math
from dataclasses import replace

import pytest

import oracles
from sealoss import (
    AlreadyCalibrated,
    CalibrationTable,
    CampaignConfig,
    ConfigError,
    EarthModel,
    EmptyLog,
    ExclusionZone,
    HeaderMismatch,
    ItuParams,
    MissingCalibration,
    NoValidSamples,
    Polarization,
    RadioConfig,
    Records,
    SeaState,
    apply_calibration,
    builtin_data_path,
    geolocate,
    load_campaign,
    parse_log,
    rssi_to_pathloss,
    to_sample_set,
)

HEADER = "timestamp,lat,lon,rssi_dbm\n"


def log_stream(rows):
    return io.StringIO(HEADER + "".join(rows))


def make_records(n=5, rssi=-100.0):
    rows = [f"2020-08-15T09:00:{i:02d}Z,55.70,12.97,{rssi}\n" for i in range(n)]
    return parse_log(log_stream(rows)).records


class TestParseLog:
    def test_shipped_campaign_counts(self):
        # the shipped synthetic logs carry the documented campaign row counts
        assert len(parse_log(builtin_data_path("synthetic_campaign1_log.csv")).records) == 315
        assert len(parse_log(builtin_data_path("synthetic_campaign2_log.csv")).records) == 325

    def test_empty_after_header_warns(self):
        with pytest.warns(UserWarning):
            parsed = parse_log(io.StringIO(HEADER))
        assert len(parsed.records) == 0
        assert parsed.rejects == ()

    def test_no_header_raises(self):
        with pytest.raises(EmptyLog):
            parse_log(io.StringIO(""))

    def test_header_mismatch(self):
        with pytest.raises(HeaderMismatch):
            parse_log(io.StringIO("time,latitude,longitude,rssi\n"))

    def test_latitude_out_of_range_rejected(self):
        with pytest.warns(UserWarning):
            parsed = parse_log(log_stream(["2020-08-15T09:00:00Z,91.0,12.0,-100\n"]))
        assert len(parsed.rejects) == 1
        line_no, reason, _ = parsed.rejects[0]
        assert line_no == 2
        assert reason == "latitude out of range"

    def test_mixed_rejects_never_dropped(self):
        rows = [
            "2020-08-15T09:00:00Z,55.7,12.9,-100\n",
            "not-a-time,55.7,12.9,-100\n",
            "2020-08-15T09:00:17Z,55.7,181.0,-100\n",
            "2020-08-15T09:00:34Z,55.7,12.9,oops\n",
            "2020-08-15T09:00:51Z,55.7\n",
            "2020-08-15T09:01:08Z,55.7,12.9,-101\n",
        ]
        parsed = parse_log(log_stream(rows))
        assert len(parsed.records) == 2
        assert len(parsed.rejects) == 4
        reasons = [r[1] for r in parsed.rejects]
        assert "bad timestamp" in reasons
        assert "longitude out of range" in reasons

    def test_extra_columns_ignored(self):
        parsed = parse_log(log_stream(["2020-08-15T09:00:00Z,55.7,12.9,-100,snr=7,whatever\n"]))
        assert len(parsed.records) == 1

    def test_epoch_timestamps_accepted(self):
        parsed = parse_log(log_stream(["1597482000,55.7,12.9,-100\n"]))
        assert parsed.records[0].timestamp == 1597482000.0

    def test_iso_timestamp_is_utc(self):
        parsed = parse_log(log_stream(["2020-08-15T09:00:00Z,55.7,12.9,-100\n"]))
        assert parsed.records[0].timestamp == 1597482000.0

    def test_non_finite_timestamps_rejected(self):
        # nan/inf parse as floats but can never fall inside a time exclusion zone
        rows = ["nan,55.7,12.9,-100\n", "inf,55.7,12.9,-100\n", "-Infinity,55.7,12.9,-100\n",
                "1597482000,55.7,12.9,-100\n"]
        parsed = parse_log(log_stream(rows))
        assert len(parsed.records) == 1
        assert [(line, reason) for line, reason, _ in parsed.rejects] == [
            (2, "bad timestamp"), (3, "bad timestamp"), (4, "bad timestamp"),
        ]


class TestCalibration:
    def test_identity_table(self):
        records = make_records()
        out = apply_calibration(records, CalibrationTable.identity())
        assert all(r.calibrated_rssi == r.raw_rssi for r in out)

    def test_exact_entry(self):
        table = CalibrationTable(entries=((-120.0, 2.0), (-100.0, 1.0), (-80.0, 0.0)))
        out = apply_calibration(make_records(rssi=-100.0), table)
        assert out[0].calibrated_rssi == -99.0

    def test_midway_interpolation(self):
        table = CalibrationTable(entries=((-110.0, 1.0), (-90.0, 3.0)))
        out = apply_calibration(make_records(rssi=-100.0), table)
        assert out[0].calibrated_rssi == pytest.approx(-98.0, abs=1e-12)

    def test_clamped_extrapolation_flagged(self):
        table = CalibrationTable(entries=((-110.0, 1.0), (-90.0, 3.0)))
        out = apply_calibration(make_records(rssi=-130.0), table)
        assert out[0].calibrated_rssi == -129.0
        assert "calibration-clamped" in out[0].flags

    def test_double_application_rejected(self):
        table = CalibrationTable(entries=((-110.0, 1.0), (-90.0, 3.0)))
        once = apply_calibration(make_records(), table)
        with pytest.raises(AlreadyCalibrated):
            apply_calibration(once, table)
        # identity reapplication is a no-op, not an error
        ident = apply_calibration(make_records(), CalibrationTable.identity())
        again = apply_calibration(ident, CalibrationTable.identity())
        assert [r.calibrated_rssi for r in again] == [r.calibrated_rssi for r in ident]

    def test_from_csv_and_validation(self):
        table = CalibrationTable.from_csv(io.StringIO(
            "reported_rssi_dbm,correction_db\n-120,0.5\n-100,-0.5\n"
        ))
        assert table.entries == ((-120.0, 0.5), (-100.0, -0.5))
        with pytest.raises(HeaderMismatch):
            CalibrationTable.from_csv(io.StringIO("level,corr\n-120,0.5\n"))
        with pytest.raises(ValueError):
            CalibrationTable(entries=((-100.0, 0.0), (-100.0, 1.0)))
        with pytest.raises(ValueError):
            CalibrationTable(entries=())

    def test_non_finite_level_rejected(self):
        # -inf passed validation and turned every interior correction into nan
        with pytest.raises(ValueError, match="finite"):
            CalibrationTable(entries=((-math.inf, 1.0), (-100.0, 0.0)))
        with pytest.raises(ConfigError):
            CalibrationTable.from_csv(io.StringIO(
                "reported_rssi_dbm,correction_db\n-inf,1.0\n-100,0.0\n"
            ))


class TestGeolocate:
    def test_distance_and_below_minimum_flag(self, campaign2):
        bs = campaign2.bs_position
        rows = [f"2020-08-15T09:00:00Z,{bs.latitude},{bs.longitude},-100\n"]
        records = parse_log(log_stream(rows)).records
        out = geolocate(records, campaign2)
        assert out[0].distance == 0.0
        assert "below-minimum" in out[0].flags
        assert out[0].excluded

    def test_meridian_track_distances(self, campaign2):
        # due-south points at exactly r_e * dlat; oracle is the meridian arc
        r_e = campaign2.earth.true_radius
        rows = []
        wanted = [500.0, 1500.0, 4000.0]
        for d in wanted:
            lat = campaign2.bs_position.latitude - math.degrees(d / r_e)
            rows.append(f"2020-08-15T09:00:00Z,{lat:.10f},{campaign2.bs_position.longitude},-100\n")
        out = geolocate(parse_log(log_stream(rows)).records, campaign2)
        for rec, d in zip(out, wanted):
            assert rec.distance == pytest.approx(d, abs=0.1)

    def test_exclusion_zone_retained_not_dropped(self, campaign2):
        r_e = campaign2.earth.true_radius
        lat = campaign2.bs_position.latitude - math.degrees(8000.0 / r_e)
        rows = [f"2020-08-15T09:00:00Z,{lat:.10f},{campaign2.bs_position.longitude},-100\n"]
        out = geolocate(parse_log(log_stream(rows)).records, campaign2)
        assert len(out) == 1
        assert out[0].excluded
        assert any(f.startswith("excluded-distance") for f in out[0].flags)

    def test_time_zone_exclusion(self, campaign2):
        from dataclasses import replace as dc_replace

        from sealoss import ExclusionZone

        cfg = dc_replace(
            campaign2,
            exclusion_zones=(ExclusionZone(kind="time", start=1597482000.0, end=1597482100.0),),
        )
        rows = [
            "2020-08-15T09:00:30Z,55.70,12.97,-100\n",
            "2020-08-15T09:30:00Z,55.70,12.97,-100\n",
        ]
        out = geolocate(parse_log(log_stream(rows)).records, cfg)
        assert out[0].excluded and not out[1].excluded


class TestLinkBudget:
    def radio(self):
        return RadioConfig(frequency=869.5e6, tx_power=18.3, tx_antenna_gain=0.0,
                           rx_antenna_gain=9.0, polarization_loss=3.0, rx_sensitivity=-138.0)

    def ready(self, campaign2, rssi):
        # records must be calibrated and geolocated before the budget stage
        records = apply_calibration(make_records(rssi=rssi), CalibrationTable.identity())
        return geolocate(records, campaign2)

    def test_documented_numbers(self, campaign2):
        out = rssi_to_pathloss(self.ready(campaign2, -120.0), self.radio())
        assert out[0].path_loss == pytest.approx(144.3, abs=1e-9)

    def test_zero_budget_zero_rssi(self, campaign2):
        radio = RadioConfig(frequency=869.5e6, tx_power=0.0, rx_sensitivity=-138.0)
        assert rssi_to_pathloss(self.ready(campaign2, 0.0), radio)[0].path_loss == 0.0

    def test_affine_in_rssi(self, campaign2):
        lo = rssi_to_pathloss(self.ready(campaign2, -110.0), self.radio())
        hi = rssi_to_pathloss(self.ready(campaign2, -100.0), self.radio())
        assert lo[0].path_loss - hi[0].path_loss == pytest.approx(10.0, abs=1e-12)

    def test_missing_calibration(self, campaign2):
        records = geolocate(make_records(), campaign2)
        with pytest.raises(MissingCalibration):
            rssi_to_pathloss(records, self.radio())


class TestSampleExtraction:
    def full_pipeline(self, campaign2, rows):
        records = parse_log(log_stream(rows)).records
        records = apply_calibration(records, CalibrationTable.identity())
        records = geolocate(records, campaign2)
        return rssi_to_pathloss(records, campaign2.radio)

    def track_rows(self, campaign2, distances, rssi=-100.0):
        r_e = campaign2.earth.true_radius
        rows = []
        for i, d in enumerate(distances):
            lat = campaign2.bs_position.latitude - math.degrees(d / r_e)
            rows.append(f"2020-08-15T09:{i // 60:02d}:{i % 60:02d}Z,{lat:.10f},{campaign2.bs_position.longitude},{rssi}\n")
        return rows

    def test_all_excluded_raises(self, campaign2):
        records = self.full_pipeline(campaign2, self.track_rows(campaign2, [8000.0, 8010.0]))
        with pytest.raises(NoValidSamples):
            to_sample_set(records)

    def test_counts_and_sorting(self, campaign2):
        distances = [5000.0, 300.0, 8000.0, 1200.0]  # 8000 m falls in a zone
        records = self.full_pipeline(campaign2, self.track_rows(campaign2, distances))
        samples = to_sample_set(records)
        assert len(samples) == 3
        assert list(samples.distances) == sorted(samples.distances)

    def test_pipeline_lossless_until_extraction(self, campaign2):
        rows = self.track_rows(campaign2, [100.0, 8000.0, 9000.0])
        records = parse_log(log_stream(rows)).records
        n = len(records)
        records = apply_calibration(records, CalibrationTable.identity())
        assert len(records) == n
        records = geolocate(records, campaign2)
        assert len(records) == n
        records = rssi_to_pathloss(records, campaign2.radio)
        assert len(records) == n


class TestRecords:
    def test_columns_fill_in_stage_by_stage(self, campaign2):
        records = make_records(n=3)
        assert isinstance(records, Records) and len(records) == 3
        assert records.calibrated_rssi is None and records.distance is None
        assert records.path_loss is None and not records.flags.any()
        located = geolocate(apply_calibration(records, CalibrationTable.identity()), campaign2)
        assert located.distance.shape == (3,) and located.path_loss is None

    def test_row_views(self):
        records = make_records(n=3, rssi=-101.5)
        assert records[-1] == records[2] == list(records)[2]
        assert records[0].raw_rssi == -101.5 and records[0].flags == ()
        with pytest.raises(IndexError):
            records[3]


T0 = 1597482000.0  # 2020-08-15T09:00:00Z
# Distance zones overlap on 2500-3000 m; the time zone overlaps both.
OVERLAPPING_ZONES = (
    ExclusionZone(kind="distance", start=2000.0, end=3000.0),
    ExclusionZone(kind="time", start=T0 + 100.0, end=T0 + 200.0),
    ExclusionZone(kind="distance", start=2500.0, end=4000.0),
)


def differential_log(cfg) -> str:
    """A log with every reject reason, both timestamp forms, rows below 1 m,
    rows in one or several zones and RSSI at, on and beyond the table knots."""
    bs = cfg.bs_position
    r_e = cfg.earth.true_radius

    def row(ts, d, rssi, dlon=0.0):
        lat = bs.latitude - math.degrees(d / r_e)
        return f"{ts},{lat:.10f},{bs.longitude + dlon:.10f},{rssi}\n"

    rows = [
        row("2020-08-15T09:00:00Z", 500.0, -150.0),           # below the table
        row("1597482010", 1500.0, -30.0),                     # above the table
        row("2020-08-15T11:00:20+02:00", 800.0, -120.0),      # interior knot
        f"1597482030,{bs.latitude},{bs.longitude},-100.0\n",  # at the BS, interior knot
        row("1597482040.5", 0.5, -95.5),                      # below 1 m
        row("2020-08-15T09:01:40Z", 1000.0, -70.0),           # time-zone start
        row("1597482150", 2600.0, -88.8),                     # time + both distance zones
        row("1597482160", 3500.0, -91.25),                    # time + second distance zone
        row("1597482300", 2600.0, -77.7),                     # both distance zones
        row("1597482310", 3500.0, -66.6),                     # second distance zone
        row("1597482120", 0.25, -110.0),                      # below 1 m in the time zone
        row("1597482400", 5000.0, -140.0),                    # bottom edge
        row("1597482410", 6000.0, -40.0, dlon=0.01),          # top edge, off the meridian
        "2020-08-15T09:07:00Z,55.7\n",
        "yesterday,55.7,12.9,-100\n",
        "nan,55.7,12.9,-100\n",
        "2020-08-15T09:07:10Z,55.7,abc,-100\n",
        "2020-08-15T09:07:20Z,91.0,12.9,-100\n",
        "2020-08-15T09:07:30Z,55.7,-181.0,-100\n",
        "2020-08-15T09:07:40Z,55.7,12.9,inf\n",
        "\n",
        ",,,\n",
        row("1597482450", 7000.0, -123.456).rstrip("\n") + ",snr=7\n",
    ]
    return HEADER + "".join(rows)


def within_ulps(a: float, b: float, n: int) -> bool:
    return abs(a - b) <= n * math.ulp(max(abs(a), abs(b)))


class TestAgainstPerRowReference:
    TABLES = {
        "example": CalibrationTable.from_csv(builtin_data_path("calibration_example.csv")),
        "one-entry": CalibrationTable(entries=((-100.0, 0.5),)),
        "identity": CalibrationTable.identity(),
    }

    @pytest.fixture
    def cfg(self, campaign2):
        return replace(campaign2, exclusion_zones=OVERLAPPING_ZONES)

    @pytest.mark.parametrize("table_name", sorted(TABLES))
    def test_stages_match_the_reference(self, cfg, table_name):
        table = self.TABLES[table_name]
        text = differential_log(cfg)
        radio = cfg.radio
        gains = radio.tx_power + radio.tx_antenna_gain + radio.rx_antenna_gain - radio.polarization_loss
        zones = [(z.kind, z.start, z.end) for z in cfg.exclusion_zones]
        bs = (cfg.bs_position.latitude, cfg.bs_position.longitude)
        want, want_rejects = oracles.reference_ingest(
            text, table.entries, bs, cfg.earth.true_radius, zones, gains)

        parsed = parse_log(io.StringIO(text))
        out = rssi_to_pathloss(geolocate(apply_calibration(parsed.records, table), cfg), radio)

        assert [(line, reason) for line, reason, _ in parsed.rejects] == want_rejects
        assert len(want_rejects) == 7 and len(out) == len(want) == 14
        for got, ref in zip(out, want):
            assert got.flags == ref["flags"] and got.excluded == ref["excluded"]
            assert (got.timestamp, got.position.latitude, got.position.longitude, got.raw_rssi) == (
                ref["timestamp"], ref["latitude"], ref["longitude"], ref["raw_rssi"])
            assert got.calibrated_rssi == ref["calibrated_rssi"]
            assert got.path_loss == ref["path_loss"]
            assert within_ulps(got.distance, ref["distance"], 2)

        kept = sorted(((r["distance"], r["path_loss"]) for r in want if not r["excluded"]),
                      key=lambda p: p[0])
        samples = to_sample_set(out)
        pairs = list(zip(samples.distances.tolist(), samples.losses.tolist()))
        assert [l for _, l in pairs] == [l for _, l in kept]
        assert all(within_ulps(a, b, 2) for (a, _), (b, _) in zip(pairs, kept))

    def test_log_covers_every_flag_and_zone_precedence(self, cfg):
        table = self.TABLES["example"]
        records = parse_log(io.StringIO(differential_log(cfg))).records
        out = geolocate(apply_calibration(records, table), cfg)
        flags = [r.flags for r in out]
        assert flags[0] == flags[1] == ("calibration-clamped",)
        assert flags[6] == ("excluded-distance-zone",)  # first zone in config order wins
        assert flags[7] == ("excluded-time-zone",)
        assert flags[10] == ("below-minimum", "excluded-time-zone")
        assert flags[11] == flags[12] == ()

    def test_geolocate_is_idempotent(self, cfg):
        records = parse_log(io.StringIO(differential_log(cfg))).records
        once = geolocate(records, cfg)
        twice = geolocate(once, cfg)
        assert [r.flags for r in twice] == [r.flags for r in once]
        assert twice[3].flags == ("below-minimum",)


class TestCampaignConfig:
    def test_builtin_configs_match_published_hardware(self, campaign1, campaign2):
        for cfg in (campaign1, campaign2):
            assert cfg.radio.frequency == 869.5e6
            assert cfg.tx_height == 0.35
            assert cfg.radio.rx_sensitivity == -138.0
            assert cfg.earth.effective_radius_factor == 1.0
        assert campaign1.radio.tx_power == 17.0
        assert campaign2.radio.tx_power == 18.3
        assert campaign1.rx_height == 2.65
        assert campaign2.rx_height == 5.2
        assert campaign1.radio.polarization_loss == 0.0
        assert campaign2.radio.polarization_loss == 3.0
        assert campaign2.radio.rx_antenna_gain == 9.0

    def test_roundtrip(self, campaign2):
        doc = campaign2.to_dict()
        again = CampaignConfig.from_dict(doc)
        assert again == campaign2

    def test_unknown_campaign(self):
        with pytest.raises(ConfigError):
            load_campaign("campaign99")

    def test_invalid_document(self):
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict({"name": "x"})

    def test_unknown_keys_rejected_with_their_path(self):
        doc = load_campaign("campaign2").to_dict()
        doc["sea"]["sigma_h"] = 9.9  # the schema's key is sigma_h_m
        doc["exclusion_zones"] = [{"kind": "time", "start": 0.0, "end": 1.0, "stop": 2.0}]
        with pytest.raises(ConfigError, match=r"sea\.sigma_h$"):
            CampaignConfig.from_dict(doc)
        del doc["sea"]["sigma_h"]
        with pytest.raises(ConfigError, match=r"exclusion_zones\[0\]\.stop"):
            CampaignConfig.from_dict(doc)
        doc["exclusion_zones"] = []
        doc["geometry"]["earth"]["radius_m"] = 1.0
        with pytest.raises(ConfigError, match=r"geometry\.earth\.radius_m"):
            CampaignConfig.from_dict(doc)

    def test_metadata_is_free_form(self, campaign2):
        doc = campaign2.to_dict()
        doc["metadata"] = {"anything": {"nested": [1, 2]}}
        assert CampaignConfig.from_dict(doc).metadata == doc["metadata"]

    def test_missing_optional_keys_take_the_defaults(self, campaign1):
        doc = campaign1.to_dict()
        for key in ("sea", "itu", "polarization", "exclusion_zones",
                    "log_distance_reference_m", "metadata"):
            del doc[key]
        del doc["geometry"]["earth"]
        for key in ("tx_antenna_gain_dbi", "rx_antenna_gain_dbi", "polarization_loss_db",
                    "rx_sensitivity_dbm"):
            del doc["radio"][key]
        cfg = CampaignConfig.from_dict(doc)
        assert cfg.sea == SeaState() and cfg.itu == ItuParams() and cfg.earth == EarthModel()
        assert cfg.radio == RadioConfig(frequency=869.5e6, tx_power=17.0)
        assert cfg.polarization is Polarization.VERTICAL
        assert (cfg.exclusion_zones, cfg.log_distance_reference, cfg.metadata) == ((), 100.0, {})

    def test_non_finite_sensitivity_rejected(self):
        doc = load_campaign("campaign2").to_dict()
        doc["radio"]["rx_sensitivity_dbm"] = float("-inf")
        with pytest.raises(ConfigError):
            CampaignConfig.from_dict(doc)

    def test_height_above_ceiling_rejected(self):
        for key in ("tx_height_m", "rx_height_m"):
            doc = load_campaign("campaign2").to_dict()
            doc["geometry"][key] = 20_000.0
            with pytest.raises(ConfigError):
                CampaignConfig.from_dict(doc)

    def test_model_context_geometry(self, campaign2):
        ctx = campaign2.model_context()
        g = ctx.geometry_at(1234.0)
        assert (g.h_t, g.h_r, g.d) == (0.35, 5.2, 1234.0)
