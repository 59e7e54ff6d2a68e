import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sealoss
from sealoss import builtin_data_path, load_campaign
from sealoss.cli import main

C2_LOG = str(builtin_data_path("synthetic_campaign2_log.csv"))
C2_CAL = str(builtin_data_path("calibration_example.csv"))


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_dir(path: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


class TestCurves:
    def test_point_in_the_horizon_rounding_band(self, tmp_path, capsys):
        code, _, err = run(["curves", "--config", "campaign1", "--models", "rel",
                            "--dmin", "7922.62", "--dmax", "9000", "--points", "2",
                            "--out", str(tmp_path)], capsys)
        assert code == 0 and "Traceback" not in err
        rel = json.loads((tmp_path / "curves.json").read_text())["curves"]["rel"]
        assert rel["distances_m"] == [9000.0]
        assert rel["skipped"][0]["reason"].startswith("NoSpecularPoint: grazing geometry collapsed")

    def test_subnormal_distances_evaluate(self, tmp_path, capsys):
        # itu once returned nan with no reason below ~1e-100 m, a traceback here
        code, _, err = run(["curves", "--config", "campaign1", "--models", "all",
                            "--dmin", "1e-320", "--dmax", "1", "--points", "5",
                            "--out", str(tmp_path)], capsys)
        assert code == 0 and "Traceback" not in err
        curves = json.loads((tmp_path / "curves.json").read_text())["curves"]
        assert all(len(c["distances_m"]) == 5 and not c["skipped"] for c in curves.values())

    def test_two_point_single_model(self, tmp_path, capsys):
        code, out, _ = run(
            ["curves", "--config", "campaign2", "--models", "free-space",
             "--dmin", "100", "--dmax", "200", "--points", "2", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO((tmp_path / "curve_free-space.csv").read_text())))
        assert rows[0] == ["distance_m", "loss_db", "model_id"]
        assert len(rows) == 3
        assert float(rows[1][0]) == 100.0 and float(rows[2][0]) == 200.0

    def test_rel_sits_above_bullington_on_average(self, tmp_path, capsys):
        code, _, _ = run(
            ["curves", "--config", "campaign2", "--models", "rel,bullington",
             "--dmin", "100", "--dmax", "10000", "--points", "200", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        doc = json.loads((tmp_path / "curves.json").read_text())
        rel = doc["curves"]["rel"]["losses_db"]
        bull = doc["curves"]["bullington"]["losses_db"]
        assert len(rel) == len(bull) == 200
        mean_gap = sum(r - b for r, b in zip(rel, bull)) / len(rel)
        assert mean_gap > 0.0

    def test_deterministic_bytes(self, tmp_path, capsys):
        args = ["curves", "--config", "campaign2", "--dmin", "100", "--dmax", "9000",
                "--points", "64", "--out"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(args + [str(a)], capsys)[0] == 0
        assert run(args + [str(b)], capsys)[0] == 0
        files = read_dir(a)
        assert files == read_dir(b)
        assert len([n for n in files if n.startswith("curve_")]) == 5  # default model family

    def test_missing_config_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("SEALOSS_CONFIG", raising=False)
        code, _, err = run(["curves", "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "config error" in err

    def test_unknown_model_exit_2(self, tmp_path, capsys):
        code, _, _ = run(
            ["curves", "--config", "campaign2", "--models", "psychic",
             "--out", str(tmp_path)], capsys,
        )
        assert code == 2

    def test_all_points_in_domain_error_exit_3(self, tmp_path, capsys):
        # two-ray-round has no specular point anywhere beyond the horizon
        code, _, err = run(
            ["curves", "--config", "campaign2", "--models", "two-ray-round",
             "--dmin", "11000", "--dmax", "20000", "--points", "8", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 3
        assert "no model produced any point" in err

    def test_zero_field_at_the_horizon_skips_bullington_only(self, tmp_path, capsys):
        # On a near-flat earth the plane-earth field cancels at the far-off
        # horizon: bullington has no horizon value and skips its points, and
        # every other model still writes its curve.
        doc = load_campaign("campaign2").to_dict()
        doc["geometry"]["earth"]["effective_radius_factor"] = 1e9
        config = tmp_path / "flat.json"
        config.write_text(json.dumps(doc))
        code, _, err = run(["curves", "--config", str(config), "--models", "all",
                            "--points", "20", "--out", str(tmp_path / "o")], capsys)
        assert code == 0 and "Traceback" not in err
        curves = json.loads((tmp_path / "o" / "curves.json").read_text())["curves"]
        assert curves["bullington"]["distances_m"] == []
        assert all(s["reason"].startswith("NumericalFailure: two-ray field sum cancels to zero")
                   for s in curves["bullington"]["skipped"])
        others = [m for m in curves if m != "bullington"]
        assert len(others) == 5 and all(len(curves[m]["distances_m"]) == 20 for m in others)
        assert all((tmp_path / "o" / f"curve_{m}.csv").is_file() for m in others)

    def test_config_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SEALOSS_CONFIG", "campaign1")
        code, _, _ = run(
            ["curves", "--models", "free-space", "--dmin", "100", "--dmax", "200",
             "--points", "2", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0


class TestAnalyze:
    def analyze(self, tmp_path, capsys, extra=()):
        argv = ["analyze", "--config", "campaign2", "--log", C2_LOG, "--cal", C2_CAL,
                "--out", str(tmp_path)] + list(extra)
        return run(argv, capsys)

    def test_full_pipeline(self, tmp_path, capsys):
        code, out, _ = self.analyze(tmp_path, capsys)
        assert code == 0
        for name in ("fit.json", "comparison.csv", "samples.csv", "predictions.csv", "analysis.json"):
            assert (tmp_path / name).exists()
        for name in ("fit.json", "analysis.json"):  # sorted keys, indent 2, final newline
            text = (tmp_path / name).read_text()
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        doc = json.loads((tmp_path / "analysis.json").read_text())
        # synthetic log is drawn from the bullington curve: exponent near 4
        assert abs(doc["fit"]["n"] - 4.0) < 0.35
        assert doc["pipeline"]["parsed"] == 325
        assert doc["pipeline"]["excluded_records"] == 3
        assert doc["config"]["radio"]["tx_power_dbm"] == 18.3

    def test_comparison_sorted_by_rmse(self, tmp_path, capsys):
        code, _, _ = self.analyze(tmp_path, capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO((tmp_path / "comparison.csv").read_text())))
        rmses = [float(r["rmse_db"]) for r in rows]
        assert rmses == sorted(rmses)
        assert {r["model_id"] for r in rows} >= {"rel", "bullington", "itu", "log-distance"}

    def test_fitted_n_matches_clean_generator_fit(self, tmp_path, capsys):
        # compare the noisy fit against a fit of the noise-free generator curve
        from sealoss import SampleSet, fit_log_distance
        from sealoss.models import distance_grid, evaluate_model

        code, _, _ = self.analyze(tmp_path, capsys)
        assert code == 0
        doc = json.loads((tmp_path / "analysis.json").read_text())
        cfg = load_campaign("campaign2")
        ctx = cfg.model_context()
        grid = distance_grid(150.0, 9790.0, 300, "log")
        clean = SampleSet(grid, [evaluate_model("bullington", ctx, d) for d in grid])
        n_clean = fit_log_distance(clean, 100.0).n
        assert abs(doc["fit"]["n"] - n_clean) < 0.25

    def test_wholly_unevaluable_model_reported_in_band(self, tmp_path, capsys):
        # two-ray-round cannot evaluate a single beyond-horizon sample; the
        # analysis must say so rather than silently dropping the model
        cfg = load_campaign("campaign2")
        log = tmp_path / "far.csv"
        rows = ["timestamp,lat,lon,rssi_dbm"]
        for i, d in enumerate((10_400.0, 11_000.0, 12_000.0)):
            lat = cfg.bs_position.latitude - math.degrees(d / cfg.earth.true_radius)
            rows.append(f"2020-08-15T09:00:{i:02d}Z,{lat:.10f},{cfg.bs_position.longitude},-120.0")
        log.write_text("\n".join(rows) + "\n")
        code, out, _ = run(
            ["analyze", "--config", "campaign2", "--log", str(log),
             "--models", "two-ray-round,itu", "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 0
        assert "no evaluable sample point: two-ray-round" in out
        doc = json.loads((tmp_path / "o" / "analysis.json").read_text())
        assert doc["pipeline"]["unevaluable_models"] == ["two-ray-round"]

    def test_binning_option(self, tmp_path, capsys):
        code, _, _ = self.analyze(tmp_path, capsys, extra=["--bins", "12"])
        assert code == 0
        rows = list(csv.reader(io.StringIO((tmp_path / "samples.csv").read_text())))
        assert len(rows) - 1 <= 12

    def test_deterministic_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert self.analyze(a, capsys)[0] == 0
        assert self.analyze(b, capsys)[0] == 0
        assert read_dir(a) == read_dir(b)

    def test_degenerate_single_distance_exit_4(self, tmp_path, capsys):
        cfg = load_campaign("campaign2")
        lat = cfg.bs_position.latitude - math.degrees(500.0 / cfg.earth.true_radius)
        log = tmp_path / "flat.csv"
        rows = ["timestamp,lat,lon,rssi_dbm"]
        rows += [f"2020-08-15T09:00:{i:02d}Z,{lat:.10f},{cfg.bs_position.longitude},-90.0" for i in range(5)]
        log.write_text("\n".join(rows) + "\n")
        code, _, err = run(
            ["analyze", "--config", "campaign2", "--log", str(log), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 4
        assert "no usable samples" in err

    @pytest.mark.parametrize("body", [
        "",                       # header only
        "-120,0.5\n-120,0.7\n",  # repeated level
        "-120,nan\n-100,0.0\n",  # non-finite correction
        "-inf,1.0\n-100,0.0\n",  # infinite level: every interior correction was nan
    ], ids=["header-only", "repeated-level", "nan-correction", "infinite-level"])
    def test_invalid_calibration_table_exit_2(self, tmp_path, capsys, body):
        cal = tmp_path / "cal.csv"
        cal.write_text("reported_rssi_dbm,correction_db\n" + body)
        code, _, err = run(
            ["analyze", "--config", "campaign2", "--log", C2_LOG, "--cal", str(cal),
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2
        assert err.startswith("config error: invalid calibration table")

    def test_bad_header_exit_2(self, tmp_path, capsys):
        log = tmp_path / "bad.csv"
        log.write_text("t,a,b,c\n1,2,3,4\n")
        code, _, _ = run(
            ["analyze", "--config", "campaign2", "--log", str(log), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2

    def test_undecodable_row_rejected_with_its_line(self, tmp_path, capsys):
        lines = Path(C2_LOG).read_bytes().splitlines(keepends=True)
        log = tmp_path / "bad.csv"
        log.write_bytes(b"".join(lines[:2]) + b"2020-08-15T09:00:34Z,55.7\xff,12.9,-100\n"
                        + b"".join(lines[2:]))
        code, out, err = run(
            ["analyze", "--config", "campaign2", "--log", str(log), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 0 and "Traceback" not in err
        assert "parsed 325 records (1 rejected rows)" in out
        pipeline = json.loads((tmp_path / "o" / "analysis.json").read_text())["pipeline"]
        assert pipeline["rejected_rows"] == [{"line": 3, "reason": "undecodable row"}]

    @pytest.mark.parametrize("quoted", [False, True], ids=["bulk", "quoted"])
    def test_oversized_field_rejected_with_its_line(self, tmp_path, capsys, quoted):
        # csv refuses a field over 131 072 characters; a quote anywhere sends
        # the whole log through the csv-stream fallback instead of the bulk pass
        lines = Path(C2_LOG).read_bytes().splitlines(keepends=True)
        timestamp = b'"2020-08-15T09:00:34Z"' if quoted else b"2020-08-15T09:00:34Z"
        log = tmp_path / "big.csv"
        log.write_bytes(b"".join(lines[:2]) + timestamp + b",55.7,12.9,-100," + b"x" * 140_000
                        + b"\n" + b"".join(lines[2:]))
        code, out, err = run(
            ["analyze", "--config", "campaign2", "--log", str(log), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 0 and "Traceback" not in err
        assert "parsed 325 records (1 rejected rows)" in out
        pipeline = json.loads((tmp_path / "o" / "analysis.json").read_text())["pipeline"]
        assert pipeline["rejected_rows"] == [
            {"line": 3, "reason": "field larger than field limit (131072)"}
        ]

    def test_non_utf8_calibration_table_exit_2(self, tmp_path, capsys):
        cal = tmp_path / "cal.csv"
        cal.write_bytes(b"reported_rssi_dbm,correction_db\n-120,0.5\xff\n-100,0.0\n")
        code, _, err = run(
            ["analyze", "--config", "campaign2", "--log", C2_LOG, "--cal", str(cal),
             "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2
        assert err.startswith("config error: ") and "is not UTF-8 text" in err

    def test_undecodable_header_exit_2(self, tmp_path, capsys):
        log = tmp_path / "bad.csv"
        log.write_bytes(b"timestamp,lat,lon,rssi_dbm,\xe9t\xe9\n1597482000,55.7,12.9,-100\n")
        code, _, err = run(
            ["analyze", "--config", "campaign2", "--log", str(log), "--out", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2
        assert err.startswith("config error: header is not valid UTF-8")


def too_high_config(tmp_path) -> str:
    doc = load_campaign("campaign2").to_dict()
    doc["geometry"]["tx_height_m"] = 20_000.0
    path = tmp_path / "too_high.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_curves_height_above_ceiling_exit_2(tmp_path, capsys):
    code, _, err = run(["curves", "--config", too_high_config(tmp_path),
                        "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "config error" in err


def test_range_names_an_unevaluable_model(tmp_path, capsys):
    # A 16 m antenna at 869.5 MHz is above Bullington's 15 m ceiling.
    doc = load_campaign("campaign2").to_dict()
    doc["geometry"]["tx_height_m"] = 16.0
    path = tmp_path / "tall.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(["range", "--config", str(path), "--models", "all"], capsys)
    assert code == 0
    assert ("bullington: AntennaTooHigh: antenna height 16.0 m exceeds the 15 m "
            "Bullington ceiling at 870 MHz") in out.splitlines()
    assert "itu: max range" in out
    code, _, err = run(["range", "--config", str(path), "--models", "bullington"], capsys)
    assert code == 3
    assert "bullington: AntennaTooHigh" in err


def test_range_height_above_ceiling_exit_2(tmp_path, capsys):
    code, _, err = run(["range", "--config", too_high_config(tmp_path)], capsys)
    assert code == 2
    assert "config error" in err


def test_non_utf8_config_exit_2(tmp_path, capsys):
    doc = load_campaign("campaign2").to_dict()
    doc["name"] = "\u00d8resund"
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
    code, _, err = run(["range", "--config", str(path)], capsys)
    assert code == 2
    assert err.startswith("config error: ") and "is not UTF-8 text" in err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    doc = load_campaign("campaign2").to_dict()
    doc["sea"]["sigma_h"] = 9.9
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(["curves", "--config", str(path), "--out", str(tmp_path / "o")], capsys)
    assert code == 2
    assert "sea.sigma_h" in err


# Each case: command, (config text, its replacement) or None, options, a part of the message.
OUTSIDE_INPUT_CASES = {
    "sigma-nan": ("curves", ('"sigma_h_m": 0.1', '"sigma_h_m": NaN'), [], "NaN is not a finite number"),
    "beta-nan": ("analyze", ('"beta_0_rad": 0.05', '"beta_0_rad": NaN'), [], "NaN is not"),
    "conductivity-nan": ("curves", ('"conductivity_s_per_m": 5.0', '"conductivity_s_per_m": NaN'), [],
                         "NaN is not"),
    "radius-factor-inf": ("curves", ('"effective_radius_factor": 1.0', '"effective_radius_factor": Infinity'),
                          [], "Infinity is not"),
    "frequency-inf": ("range", ('"frequency_hz": 869500000.0', '"frequency_hz": Infinity'), [],
                      "Infinity is not"),
    "power-minus-inf": ("range", ('"tx_power_dbm": 17.0', '"tx_power_dbm": -Infinity'), [],
                        "-Infinity is not"),
    "reference-inf": ("analyze", ('"log_distance_reference_m": 100.0', '"log_distance_reference_m": Infinity'),
                      [], "Infinity is not"),
    "sigma-overflow": ("curves", ('"sigma_h_m": 0.1', '"sigma_h_m": 1e999'), [], "1e999 is not"),
    "sigma-huge-int": ("curves", ('"sigma_h_m": 0.1', '"sigma_h_m": 1' + "0" * 400), [], "too large"),
    "sigma-overlong-int": ("curves", ('"sigma_h_m": 0.1', '"sigma_h_m": 1' + "0" * 5000), [], "digits"),
    "sensitivity-nan": ("range", None, ["--sensitivity", "nan"], "rx_sensitivity must be finite"),
    "sensitivity-inf": ("range", None, ["--sensitivity", "inf"], "rx_sensitivity must be finite"),
    "dmax-inf": ("curves", None, ["--dmax", "inf"], "--dmax"),
    "dmin-above-dmax": ("curves", None, ["--dmin", "200", "--dmax", "100"], "--dmin"),
    "one-point": ("curves", None, ["--points", "1"], "--points"),
    "no-bins": ("analyze", None, ["--bins", "0"], "--bins"),
}


@pytest.mark.parametrize("command, edit, options, message", OUTSIDE_INPUT_CASES.values(),
                         ids=OUTSIDE_INPUT_CASES.keys())
def test_bad_outside_number_exit_2(tmp_path, capsys, command, edit, options, message):
    config = "campaign1"
    if edit:
        text = builtin_data_path("campaign1.json").read_text()
        assert edit[0] in text
        config = tmp_path / "edited.json"
        config.write_text(text.replace(edit[0], edit[1]))
    out_dir = tmp_path / "out"
    argv = [command, "--config", str(config)] + options
    if command == "analyze":
        argv += ["--log", C2_LOG, "--cal", C2_CAL]
    if command != "range":
        argv += ["--out", str(out_dir)]
    code, _, err = run(argv, capsys)
    assert code == 2 and err.startswith("config error: ") and message in err
    assert not out_dir.exists()


def _numeric_keys(node, keys=()):
    """The key path of every number in a config document, metadata aside."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key != "metadata":
                yield from _numeric_keys(value, keys + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _numeric_keys(value, keys + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield keys


def _dotted(keys) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


NUMERIC_KEYS = list(_numeric_keys(load_campaign("campaign2").to_dict()))


@pytest.mark.parametrize("value", ["0.35", "nan", True, None],
                         ids=["string", "nan-string", "true", "null"])
@pytest.mark.parametrize("keys", NUMERIC_KEYS, ids=[_dotted(k) for k in NUMERIC_KEYS])
def test_non_number_config_value_exit_2(tmp_path, capsys, keys, value):
    doc = load_campaign("campaign2").to_dict()
    section = doc
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    config = tmp_path / "typed.json"
    config.write_text(json.dumps(doc))
    code, _, err = run(["range", "--config", str(config)], capsys)
    assert code == 2 and "Traceback" not in err
    assert err.startswith(f"config error: invalid campaign config: {_dotted(keys)} must be a number")


@pytest.mark.parametrize("key, value, message", [
    ("name", [1, 2], "name must be a string, not [1, 2]"),
    ("name", None, "name must be a string, not None"),
    ("name", 3, "name must be a string, not 3"),
    ("metadata", [["a", "b"]], "metadata must be an object, not [['a', 'b']]"),
], ids=["name-list", "name-null", "name-number", "metadata-pairs"])
def test_mistyped_name_or_metadata_exit_2(tmp_path, capsys, key, value, message):
    # a list of pairs once became a dict, and any name was echoed into every artifact
    doc = load_campaign("campaign2").to_dict()
    doc[key] = value
    config = tmp_path / "typed.json"
    config.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    code, _, err = run(["curves", "--config", str(config), "--out", str(out_dir)], capsys)
    assert code == 2 and err == f"config error: invalid campaign config: {message}\n"
    assert not out_dir.exists()


def test_failed_artifact_write_leaves_no_temp_file(tmp_path):
    from sealoss.cli import _write_json

    (tmp_path / "doc.json").write_text("old\n")
    with pytest.raises(TypeError):
        _write_json(tmp_path / "doc.json", {"a": 1, "b": object()})
    assert read_dir(tmp_path) == {"doc.json": b"old\n"}


def test_cli_import_loads_no_scipy():
    src = str(Path(sealoss.__file__).parents[1])
    probe = "import sys, sealoss.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


class TestRange:
    def test_all_models_up_to_the_horizon(self, capsys):
        # two-ray-round is searched right up to campaign1's horizon
        code, out, err = run(["range", "--config", "campaign1", "--models", "all"], capsys)
        assert code == 0 and err == ""
        assert "two-ray-round: max range 7922.7 m" in out

    def test_budget_breakdown(self, capsys):
        code, out, _ = run(["range", "--config", "campaign2"], capsys)
        assert code == 0
        assert "162.3 dB" in out
        assert "free-space" in out and "bullington" in out

    def test_sensitivity_override_extends_range(self, capsys):
        _, out_base, _ = run(["range", "--config", "campaign2", "--models", "itu"], capsys)
        _, out_more, _ = run(
            ["range", "--config", "campaign2", "--models", "itu", "--sensitivity", "-144"],
            capsys,
        )
        base = float(out_base.split("max range")[1].split("m")[0])
        more = float(out_more.split("max range")[1].split("m")[0])
        assert more > base

    def test_no_coverage_exit_5(self, capsys):
        code, _, _ = run(
            ["range", "--config", "campaign2", "--sensitivity", "50"], capsys,
        )
        assert code == 5
