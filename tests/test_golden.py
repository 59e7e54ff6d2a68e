"""Differential test against artifacts recorded from an earlier, scalar implementation.

The gzipped golden files in tests/data/golden/ hold the `sealoss curves --models all`
and `sealoss analyze --models all` outputs for both shipped campaigns, plus
max_range results.  Re-running the same commands must reproduce every loss,
RMSE and MAE to GOLDEN_TOL_DB, every range to RANGE_RTOL, and every count,
model order, distance and skip reason exactly.

Re-record (only when a change is meant to move the numbers):

    PYTHONPATH=src python tests/test_golden.py --record
"""

import gzip
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from sealoss import (
    NoCoverage,
    UnboundedRange,
    builtin_data_path,
    evaluate_model,
    load_campaign,
    max_range,
)
from sealoss.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
GOLDEN_TOL_DB = 1e-9
# The two-ray losses carry ~5e-8 dB of rounding noise at 15 km (the path
# difference is a difference of two hypots), so near a budget crossing "closes"
# flips back and forth over ~1e-4 m; any crossing inside that band is a right
# answer.  1e-8 relative covers the band on these links.
RANGE_RTOL = 1e-8
CAMPAIGNS = ("campaign1", "campaign2")
GRIDS = {"": [], "-wide": ["--dmin", "1", "--dmax", "100000", "--points", "200"]}
RANGE_MODELS = ("free-space", "two-ray-flat", "rel", "bullington", "itu")
RANGE_SENSITIVITIES = (-138.0, -110.0)


def _run(argv) -> None:
    code = main(argv)
    if code != 0:
        raise AssertionError(f"sealoss {' '.join(argv)} exited {code}")


def curves_docs(tmp: Path) -> dict:
    docs = {}
    for name in CAMPAIGNS:
        for suffix, grid in GRIDS.items():
            out = tmp / f"curves-{name}{suffix}"
            _run(["curves", "--config", name, "--models", "all", "--out", str(out)] + grid)
            docs[name + suffix] = json.loads((out / "curves.json").read_text())
    return docs


def analysis_docs(tmp: Path) -> dict:
    cal = str(builtin_data_path("calibration_example.csv"))
    docs = {}
    for name in CAMPAIGNS:
        log = str(builtin_data_path(f"synthetic_{name}_log.csv"))
        for suffix, extra in (("", []), ("-bins64", ["--bins", "64"])):
            out = tmp / f"analyze-{name}{suffix}"
            _run(["analyze", "--config", name, "--log", log, "--cal", cal,
                  "--models", "all", "--out", str(out)] + extra)
            docs[name + suffix] = json.loads((out / "analysis.json").read_text())
    return docs


def range_docs() -> dict:
    docs = {}
    for name in CAMPAIGNS:
        cfg = load_campaign(name)
        ctx = cfg.model_context()
        for sens in RANGE_SENSITIVITIES:
            radio = replace(cfg.radio, rx_sensitivity=sens)
            row = {}
            for model in RANGE_MODELS:
                try:
                    row[model] = max_range(model, ctx, radio)
                except (UnboundedRange, NoCoverage) as exc:
                    row[model] = type(exc).__name__
            docs[f"{name}@{sens:g}"] = row
    return docs


def compare(got, want, where="") -> list:
    """Floats within GOLDEN_TOL_DB, except distances, which must be identical."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{where}: keys {list(got) if isinstance(got, dict) else got!r} != {list(want)}"]
        return [m for k in want for m in compare(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r:.80} has not the length of {want!r:.80}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in compare(g, w, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float) and "distance" not in where:
        return [] if abs(got - want) <= GOLDEN_TOL_DB else [f"{where}: {got!r} vs {want!r}"]
    return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]


def _load(name: str) -> dict:
    with gzip.open(GOLDEN_DIR / f"{name}.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


def test_curves_match_golden(tmp_path, capsys):
    bad = compare(curves_docs(tmp_path), _load("curves.json"), "curves")
    capsys.readouterr()
    assert not bad, "\n".join(bad[:20])


def test_analysis_matches_golden(tmp_path, capsys):
    bad = compare(analysis_docs(tmp_path), _load("analysis.json"), "analysis")
    capsys.readouterr()
    assert not bad, "\n".join(bad[:20])


def test_max_range_matches_golden():
    want = _load("ranges.json")
    got = range_docs()
    assert list(got) == list(want)
    for key, row in want.items():
        for model, ref in row.items():
            value = got[key][model]
            if isinstance(ref, str):
                assert value == ref, (key, model)
            else:
                assert value == pytest.approx(ref, rel=RANGE_RTOL, abs=0.0), (key, model)


def test_max_range_is_a_budget_crossing():
    # the returned range closes the budget and the next float does not
    for name in CAMPAIGNS:
        cfg = load_campaign(name)
        ctx = cfg.model_context()
        for sens in RANGE_SENSITIVITIES:
            radio = replace(cfg.radio, rx_sensitivity=sens)
            for model in RANGE_MODELS:
                try:
                    r = max_range(model, ctx, radio)
                except (UnboundedRange, NoCoverage):
                    continue
                assert evaluate_model(model, ctx, r) <= radio.budget
                assert evaluate_model(model, ctx, math.nextafter(r, math.inf)) > radio.budget


def record() -> None:
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        docs = {
            "curves.json": curves_docs(Path(tmp)),
            "analysis.json": analysis_docs(Path(tmp)),
            "ranges.json": range_docs(),
        }
    for name, doc in docs.items():
        data = (json.dumps(doc, separators=(",", ":")) + "\n").encode()
        with open(GOLDEN_DIR / f"{name}.gz", "wb") as fh:
            # mtime=0 keeps a re-recording of unchanged results byte-identical.
            with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
                gz.write(data)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
