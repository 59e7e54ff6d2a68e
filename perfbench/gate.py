"""Correctness gate: every op's artifacts or return values against expectations.

Counts (rows, rejects, exclusions, samples, skipped points and their
exception types, per-model sample counts, exit codes) must match exactly.
Floats must lie within FLOAT_TOL_DB of the reference.  The tolerance admits
last-bit changes from re-ordered arithmetic (about 1e-9 dB) and the two-ray
path-difference precision fix: against a 40-digit mpmath two-ray, today's
two-ray-flat is off by about 1.7e-7 dB at 100 km for the campaign-2 heights
and by up to 5.3e-5 dB on the plan-grid catalogue (0.36 m and 0.20 m antennas at
433 MHz, 100 km).  A 1e-3 dB error fails.  The gate never imports sealoss.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import re
from pathlib import Path

import numpy as np

from planworker import PLAN_GRID, PLAN_MODELS, RANGE_MODELS

FLOAT_TOL_DB = 3e-4
RANGE_REL_TOL = 1e-5   # max_range result; a 1e-3 dB loss shift moves it by ~6e-5
REFS_DIR = Path(__file__).resolve().parent / "refs"
Q_STEP_DB = 1e-5       # quantum of the stored plan-grid reference losses

_INT = re.compile(r"-?\d+")


def load_ref(name: str):
    with gzip.open(REFS_DIR / f"{name}.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_ref(name: str, doc) -> None:
    REFS_DIR.mkdir(exist_ok=True)
    data = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    with open(REFS_DIR / f"{name}.json.gz", "wb") as fh:
        # mtime=0 keeps the file byte-identical across re-recordings.
        with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0) as gz:
            gz.write(data)


def _cell(text: str):
    if _INT.fullmatch(text):
        return int(text)
    try:
        return float(text)
    except ValueError:
        return text


def read_csv(path) -> list:
    with open(path, encoding="utf-8", newline="") as fh:
        return [[_cell(c) for c in row] for row in csv.reader(fh)]


def diff(got, ref, where: str = "", tol: float = FLOAT_TOL_DB) -> list:
    """Differences between two parsed documents; a ref of None is not checked.

    Floats compare within ``tol`` (plus 1e-12 relative for large values such as
    distances); everything else compares exactly, except skip reasons, where
    only the exception type before the colon is compared.
    """
    if ref is None:
        return []
    if isinstance(ref, bool) or isinstance(got, bool):
        return [] if got is ref else [f"{where}: {got!r} != {ref!r}"]
    if isinstance(ref, float) or (isinstance(ref, int) and isinstance(got, float)):
        if isinstance(got, (int, float)) and abs(got - ref) <= tol + 1e-12 * abs(ref):
            return []
        return [f"{where}: {got!r} differs from {ref!r}"]
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(ref)}"]
        out = []
        for k in ref:
            out += diff(got[k], ref[k], f"{where}.{k}", tol)
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            n = len(got) if isinstance(got, list) else got
            return [f"{where}: length {n} != {len(ref)}"]
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += diff(g, r, f"{where}[{i}]", tol)
            if len(out) > 5:
                break
        return out
    if where.endswith(".reason") and isinstance(got, str) and isinstance(ref, str):
        got, ref = got.split(":")[0], ref.split(":")[0]
    return [] if got == ref else [f"{where}: {got!r} != {ref!r}"]


def samples_diff(rows, distances, losses) -> list:
    """samples.csv rows against expected (distance, loss) pairs sorted by distance.

    Samples whose distances lie within 1e-6 m of each other may come in either
    order, so both sides are ordered by loss inside such clusters.
    """
    if not rows or rows[0] != ["distance_m", "path_loss_db"]:
        return ["samples.csv: bad header"]
    got = np.array(rows[1:], dtype=float).reshape(-1, 2)
    if len(got) != len(distances):
        return [f"samples.csv: {len(got)} samples, expected {len(distances)}"]
    cluster = np.concatenate([[0], np.cumsum(np.diff(distances) >= 1e-6)])
    exp_o = np.lexsort((losses, cluster))
    got_o = np.lexsort((got[:, 1], cluster))
    out = []
    for col, name, ref in ((0, "distance", distances), (1, "loss", losses)):
        bad = np.flatnonzero(np.abs(got[got_o, col] - ref[exp_o]) > FLOAT_TOL_DB + 1e-12 * np.abs(ref[exp_o]))
        if bad.size:
            i = bad[0]
            out.append(f"samples.csv: {bad.size} {name} values off, first "
                       f"{float(got[got_o[i], col])!r} vs {float(ref[exp_o[i]])!r}")
    return out


def check_curves(out_dir: Path, ref: dict) -> list:
    """`sealoss curves`: curves.json and every curve_<model>.csv."""
    doc = json.loads((out_dir / "curves.json").read_text())
    out = diff(doc, ref, "curves.json")
    for model, curve in ref["curves"].items():
        rows = read_csv(out_dir / f"curve_{model}.csv")
        want = [["distance_m", "loss_db", "model_id"]] + [
            [d, l, model] for d, l in zip(curve["distances_m"], curve["losses_db"])
        ]
        out += diff(rows, want, f"curve_{model}.csv")
    return out


_RANGE_LINE = re.compile(r"(?P<model>[\w-]+): max range (?P<r>[\d.]+) m")


def check_range(stdout: str, ref_lines: list) -> list:
    """`sealoss range`: the budget line exactly, each model's outcome and range."""
    lines = stdout.strip().splitlines()
    if len(lines) != len(ref_lines):
        return [f"range: {len(lines)} lines, expected {len(ref_lines)}"]
    out = []
    for got, want in zip(lines, ref_lines):
        mg, mw = _RANGE_LINE.fullmatch(got), _RANGE_LINE.fullmatch(want)
        if mg and mw and mg["model"] == mw["model"]:
            r, w = float(mg["r"]), float(mw["r"])
            if abs(r - w) > 0.051 + RANGE_REL_TOL * w:
                out.append(f"range: {got!r} vs {want!r}")
        elif got != want:
            out.append(f"range: {got!r} != {want!r}")
    return out


def check_analyze(out_dir: Path, ref: dict, samples=None) -> list:
    """`sealoss analyze`: all five artifacts against the expected documents.

    ``samples`` optionally gives the expected metric samples as arrays, which
    are compared order-robustly instead of ``ref["samples.csv"]``.
    """
    out = []
    for name in ("analysis.json", "fit.json"):
        out += diff(json.loads((out_dir / name).read_text()), ref[name], name)
    for name in ("comparison.csv", "predictions.csv"):
        out += diff(read_csv(out_dir / name), ref[name], name)
    rows = read_csv(out_dir / "samples.csv")
    if samples is not None:
        out += samples_diff(rows, *samples)
    else:
        out += diff(rows, ref["samples.csv"], "samples.csv")
    return out


def comparison_sanity(rows, n_samples: int) -> list:
    """Checks of comparison.csv that need no reference values."""
    out = []
    body = rows[1:]
    rmses = [r[1] for r in body]
    if rmses != sorted(rmses):
        out.append("comparison.csv: not sorted by rmse")
    for model, rmse, mae, n, excl in body:
        if not rmse >= mae - 1e-12 or mae < 0:
            out.append(f"comparison.csv: {model} violates rmse >= mae >= 0")
        if n + excl != n_samples:
            out.append(f"comparison.csv: {model} has {n} + {excl} samples, expected {n_samples}")
    return out


# --- plan-grid ----------------------------------------------------------------

def distance_grid(d_min: float, d_max: float, n: int) -> list:
    """The log-spaced grid with exact endpoints, computed as the program computes it."""
    lg_min, lg_max = math.log10(d_min), math.log10(d_max)
    step = (lg_max - lg_min) / (n - 1)
    grid = [10.0 ** (lg_min + i * step) for i in range(n)]
    grid[0], grid[-1] = d_min, d_max
    return grid


def encode_losses(losses) -> list:
    """Losses quantized to Q_STEP_DB, stored as first value, first and second differences."""
    q = np.round(np.asarray(losses, dtype=float) / Q_STEP_DB).astype(np.int64)
    if q.size < 2:
        return q.tolist()
    return [int(q[0]), int(q[1] - q[0])] + np.diff(q, 2).tolist()


def decode_losses(code) -> np.ndarray:
    c = np.asarray(code, dtype=np.int64)
    if c.size < 2:
        return c * Q_STEP_DB
    first_diffs = np.cumsum(c[1:])
    return np.concatenate([[c[0]], c[0] + np.cumsum(first_diffs)]) * Q_STEP_DB


def plan_summary(curves: dict, ranges: dict) -> dict:
    """The comparable form of one plan-grid op's results.

    ``curves`` maps model id to (distances, losses, skipped) with skipped a
    list of (distance, reason) pairs; ``ranges`` maps model id to a range in
    metres or an outcome name.
    """
    grid = np.array(distance_grid(*PLAN_GRID))
    out = {"curves": {}, "ranges": ranges}
    for model, (distances, losses, skipped) in curves.items():
        skipped_d = np.array([d for d, _ in skipped], dtype=float)
        every = np.sort(np.concatenate([np.asarray(distances, dtype=float), skipped_d]))
        on_grid = every.shape == grid.shape and np.allclose(every, grid, rtol=1e-12, atol=0)
        spans = []
        for i, (_, reason) in zip(np.searchsorted(grid, skipped_d * (1.0 - 1e-9)).tolist(), skipped):
            kind = reason.split(":")[0]
            if spans and spans[-1][1] == i and spans[-1][2] == kind:
                spans[-1][1] = i + 1
            else:
                spans.append([i, i + 1, kind])
        out["curves"][model] = {
            "on_grid": bool(on_grid),
            "skipped": spans,
            "losses": np.asarray(losses, dtype=float),
        }
    return out


def check_plan(summary: dict, ref: dict) -> list:
    """One plan-grid op against the catalogue reference of its link."""
    out = []
    for model in PLAN_MODELS:
        got, want = summary["curves"].get(model), ref["curves"][model]
        if got is None:
            out.append(f"{model}: no curve")
            continue
        if not got["on_grid"]:
            out.append(f"{model}: distances are not the {PLAN_GRID[2]}-point grid")
        if got["skipped"] != want["skipped"]:
            out.append(f"{model}: skipped {got['skipped']} != {want['skipped']}")
            continue
        ref_losses = decode_losses(want["q"])
        if got["losses"].shape != ref_losses.shape:
            out.append(f"{model}: {got['losses'].size} losses, expected {ref_losses.size}")
            continue
        err = np.abs(got["losses"] - ref_losses)
        if err.size and err.max() > FLOAT_TOL_DB:
            i = int(err.argmax())
            out.append(f"{model}: {int((err > FLOAT_TOL_DB).sum())} losses off, worst {err[i]:.3g} dB at index {i}")
    for model in RANGE_MODELS:
        got, want = summary["ranges"].get(model), ref["ranges"][model]
        if isinstance(want, str) or isinstance(got, str):
            if got != want:
                out.append(f"max_range {model}: {got!r} != {want!r}")
        elif not abs(got - want) <= RANGE_REL_TOL * want:
            out.append(f"max_range {model}: {got!r} differs from {want!r}")
    return out
