"""Command-line front end: model curves, campaign analysis, link-budget range.

Exit codes form a stable contract: 0 ok, 2 configuration/input error, 3 model
domain error affecting all points, 4 no valid samples, 5 no coverage.  All
artifact files are written atomically (temp then rename) and are byte-stable
for identical inputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path

from .errors import (
    AntennaTooHigh,
    ConfigError,
    DegenerateFit,
    EmptyLog,
    FrequencyOutOfRange,
    HeaderMismatch,
    NoCoverage,
    NoValidSamples,
    SeaLossError,
    UnboundedRange,
    UnsupportedTimePercentage,
)
from .ingest import (
    CalibrationTable,
    CampaignConfig,
    apply_calibration,
    geolocate,
    load_campaign,
    parse_log,
    rssi_to_pathloss,
    to_sample_set,
)
from .metrics import bin_samples, compare_models, fit_log_distance
from .models import MODEL_IDS, max_range, sweep

DEFAULT_CURVE_MODELS = ("free-space", "two-ray-flat", "rel", "bullington", "itu")
CONFIG_ENV_VAR = "SEALOSS_CONFIG"


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    artifacts: tuple
    report: str


def _atomic_write(path: Path, write) -> None:
    """Stream the file through write(text stream) into a temp file, then rename it."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write(fh)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _write_json(path: Path, doc) -> None:
    def write(fh):
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")

    _atomic_write(path, write)


def _write_csv(path: Path, header, rows) -> None:
    def write(fh):
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    _atomic_write(path, write)


def _resolve_config(args) -> CampaignConfig:
    source = args.config or os.environ.get(CONFIG_ENV_VAR)
    if not source:
        raise ConfigError(f"no --config given and {CONFIG_ENV_VAR} is not set")
    return load_campaign(source)


def _parse_models(spec: str | None, default) -> list:
    if not spec or spec == "default":
        return list(default)
    if spec == "all":
        return [m for m in MODEL_IDS if m != "log-distance"]
    models = [m.strip() for m in spec.split(",") if m.strip()]
    for m in models:
        if m not in MODEL_IDS:
            raise ConfigError(f"unknown model {m!r}; choose from {', '.join(MODEL_IDS)}")
    return models


def cmd_curves(args) -> CommandResult:
    """Sweep the selected models over a distance grid into CSV/JSON artifacts."""
    cfg = _resolve_config(args)
    models = _parse_models(args.models, DEFAULT_CURVE_MODELS)
    if not 0 < args.dmin < args.dmax < math.inf:
        raise ConfigError("require 0 < --dmin < --dmax < inf")
    if args.points < 2:
        raise ConfigError("--points must be at least 2")
    ctx = cfg.model_context()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    curves = {}
    lines = []
    for model_id in models:
        curve = sweep(model_id, ctx, args.dmin, args.dmax, args.points, spacing=args.spacing)
        curves[model_id] = curve
        lines.append(
            f"{model_id}: {len(curve.distances)} points"
            + (f", {len(curve.skipped)} skipped" if curve.skipped else "")
        )

    if all(len(c.distances) == 0 for c in curves.values()):
        return CommandResult(3, (), "model domain error: no model produced any point\n" + "\n".join(lines))

    artifacts = []
    for model_id, curve in curves.items():
        path = out_dir / f"curve_{model_id}.csv"
        _write_csv(
            path,
            ("distance_m", "loss_db", "model_id"),
            zip(curve.distances.tolist(), curve.losses.tolist(), repeat(model_id)),
        )
        artifacts.append(path)
    combined = out_dir / "curves.json"
    _write_json(
        combined,
        {
            "config": cfg.to_dict(),
            "grid": {
                "d_min_m": args.dmin,
                "d_max_m": args.dmax,
                "n_points": args.points,
                "spacing": args.spacing,
            },
            "curves": {
                m: {
                    "distances_m": c.distances.tolist(),
                    "losses_db": c.losses.tolist(),
                    "skipped": [{"distance_m": d, "reason": r} for d, r in c.skipped],
                }
                for m, c in curves.items()
            },
        },
    )
    artifacts.append(combined)
    return CommandResult(0, tuple(artifacts), "\n".join(lines))


def cmd_analyze(args) -> CommandResult:
    """Full campaign pipeline: parse, calibrate, geolocate, budget, fit, compare."""
    cfg = _resolve_config(args)
    if not args.log:
        raise ConfigError("analyze requires --log")
    if args.bins is not None and args.bins < 1:
        raise ConfigError("--bins must be at least 1")
    table = CalibrationTable.from_csv(args.cal) if args.cal else CalibrationTable.identity()

    parsed = parse_log(args.log)
    records = apply_calibration(parsed.records, table)
    records = geolocate(records, cfg)
    records = rssi_to_pathloss(records, cfg.radio)
    try:
        samples = to_sample_set(records)
        metric_samples = bin_samples(samples, args.bins) if args.bins else samples
        fit = fit_log_distance(metric_samples, cfg.log_distance_reference)
    except (NoValidSamples, DegenerateFit) as exc:
        return CommandResult(4, (), f"no usable samples: {exc}")

    n_excluded = int(records.excluded.sum())
    ctx = cfg.model_context(log_distance=fit)
    models = _parse_models(args.models, DEFAULT_CURVE_MODELS) + ["log-distance"]
    reports = compare_models(metric_samples, models, ctx)
    unevaluable = [m for m in models if m not in {r.model_id for r in reports}]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts = []

    fit_path = out_dir / "fit.json"
    fit_doc = {"n": fit.n, "l_p0_db": fit.l_p0, "d_0_m": fit.d_0}
    _write_json(fit_path, {"config": cfg.to_dict(), "fit": fit_doc})
    artifacts.append(fit_path)

    comparison_path = out_dir / "comparison.csv"
    _write_csv(
        comparison_path,
        ("model_id", "rmse_db", "mae_db", "n_samples", "n_excluded"),
        [(r.model_id, r.rmse, r.mae, r.n_samples, r.n_excluded) for r in reports],
    )
    artifacts.append(comparison_path)

    samples_path = out_dir / "samples.csv"
    _write_csv(
        samples_path,
        ("distance_m", "path_loss_db"),
        zip(metric_samples.distances.tolist(), metric_samples.losses.tolist()),
    )
    artifacts.append(samples_path)

    predictions_path = out_dir / "predictions.csv"
    d_min, d_max = metric_samples.distances.min(), metric_samples.distances.max()
    pred_rows = []
    for model_id in models:
        curve = sweep(model_id, ctx, d_min, d_max, 200, spacing="log")
        pred_rows.extend(zip(repeat(model_id), curve.distances.tolist(), curve.losses.tolist()))
    _write_csv(predictions_path, ("model_id", "distance_m", "loss_db"), pred_rows)
    artifacts.append(predictions_path)

    analysis_path = out_dir / "analysis.json"
    _write_json(
        analysis_path,
        {
            "config": cfg.to_dict(),
            "fit": fit_doc,
            "reports": [
                {
                    "model_id": r.model_id,
                    "rmse_db": r.rmse,
                    "mae_db": r.mae,
                    "n_samples": r.n_samples,
                    "n_excluded": r.n_excluded,
                }
                for r in reports
            ],
            "pipeline": {
                "parsed": len(parsed.records),
                "rejected_rows": [
                    {"line": line, "reason": reason} for line, reason, _ in parsed.rejects
                ],
                "excluded_records": n_excluded,
                "samples_used": len(metric_samples),
                "binned": bool(args.bins),
                "unevaluable_models": unevaluable,
            },
        },
    )
    artifacts.append(analysis_path)

    width = max(len(r.model_id) for r in reports)
    table_lines = [f"{'model':<{width}}  rmse_db  mae_db  n  excl"]
    for r in reports:
        table_lines.append(
            f"{r.model_id:<{width}}  {r.rmse:7.2f}  {r.mae:6.2f}  {r.n_samples}  {r.n_excluded}"
        )
    report = (
        f"parsed {len(parsed.records)} records ({len(parsed.rejects)} rejected rows), "
        f"{n_excluded} excluded, "
        f"{len(metric_samples)} samples\n"
        f"log-distance fit: n = {fit.n:.3f}, L_p0 = {fit.l_p0:.2f} dB at d_0 = {fit.d_0:.0f} m\n"
        + "\n".join(table_lines)
    )
    if unevaluable:
        report += f"\nmodels with no evaluable sample point: {', '.join(unevaluable)}"
    return CommandResult(0, tuple(artifacts), report)


def cmd_range(args) -> CommandResult:
    """Maximum distance per model where the link budget still closes.

    A model that cannot evaluate the link at all is named with its error; the
    exit code is 3 only when that holds for every selected model.
    """
    cfg = _resolve_config(args)
    radio = cfg.radio
    if args.sensitivity is not None:
        try:
            radio = replace(radio, rx_sensitivity=args.sensitivity)
        except ValueError as exc:
            raise ConfigError(f"--sensitivity: {exc}") from exc
    ctx = cfg.model_context()
    models = _parse_models(args.models, DEFAULT_CURVE_MODELS)

    budget = radio.budget
    lines = [
        "budget = tx {:.1f} + txg {:.1f} + rxg {:.1f} - pol {:.1f} - sens ({:.1f}) = {:.1f} dB".format(
            radio.tx_power,
            radio.tx_antenna_gain,
            radio.rx_antenna_gain,
            radio.polarization_loss,
            radio.rx_sensitivity,
            budget,
        )
    ]
    any_covered = False
    n_unevaluable = 0
    for model_id in models:
        try:
            r = max_range(model_id, ctx, radio)
            lines.append(f"{model_id}: max range {r:.1f} m")
            any_covered = True
        except UnboundedRange as exc:
            lines.append(f"{model_id}: budget holds beyond the {exc.cap_m / 1000:.0f} km cap")
            any_covered = True
        except NoCoverage:
            lines.append(f"{model_id}: no coverage")
        except (AntennaTooHigh, FrequencyOutOfRange, UnsupportedTimePercentage) as exc:
            lines.append(f"{model_id}: {type(exc).__name__}: {exc}")
            n_unevaluable += 1
    exit_code = 3 if n_unevaluable == len(models) else 0 if any_covered else 5
    return CommandResult(exit_code, (), "\n".join(lines))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sealoss",
        description="Over-sea path-loss models and measurement-campaign analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help=f"campaign config path or built-in name (default ${CONFIG_ENV_VAR})")
        p.add_argument("--models", help="comma-separated model list, 'default' or 'all'")

    p_curves = sub.add_parser("curves", help="write model loss curves over a distance grid")
    add_common(p_curves)
    p_curves.add_argument("--dmin", type=float, default=100.0, help="grid start, m")
    p_curves.add_argument("--dmax", type=float, default=10_000.0, help="grid end, m")
    p_curves.add_argument("--points", type=int, default=300, help="grid size")
    p_curves.add_argument("--spacing", choices=("log", "linear"), default="log")
    p_curves.add_argument("--out", required=True, help="output directory")
    p_curves.set_defaults(func=cmd_curves)

    p_analyze = sub.add_parser("analyze", help="run the measurement pipeline on a log")
    add_common(p_analyze)
    p_analyze.add_argument("--log", required=True, help="measurement log CSV")
    p_analyze.add_argument("--cal", help="calibration table CSV (identity if omitted)")
    p_analyze.add_argument("--out", required=True, help="output directory")
    p_analyze.add_argument("--bins", type=int, help="log-spaced distance bins for the metrics")
    p_analyze.set_defaults(func=cmd_analyze)

    p_range = sub.add_parser("range", help="link-budget maximum range per model")
    add_common(p_range)
    p_range.add_argument("--sensitivity", type=float, help="receiver sensitivity override, dBm")
    p_range.set_defaults(func=cmd_range)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result: CommandResult = args.func(args)
    except (ConfigError, EmptyLog, HeaderMismatch, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SeaLossError as exc:
        print(f"model domain error: {exc}", file=sys.stderr)
        return 3
    if result.report:
        stream = sys.stdout if result.exit_code == 0 else sys.stderr
        print(result.report, file=stream)
    for path in result.artifacts:
        print(f"wrote {path}")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
