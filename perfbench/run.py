#!/usr/bin/env python3
"""The sealoss benchmark: four closed-loop workloads, a correctness gate, a layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see perfbench/README.md for why
each exists):

  cli-shipped    one `sealoss` process per op, cycling curves/range/analyze
                 over the shipped campaigns
  analyze-bulk   `sealoss analyze --bins 64` over a generated 3e4-row log
  analyze-dense  unbinned `sealoss analyze --models all` over a 1e4-row log
  plan-grid      in-process sweep + max_range of one catalogue link per op

Every workload is a closed loop with one client.  With --trace 0 the last
stdout line carries the end-to-end metrics, their times corrected for the
host's speed by bare-interpreter probes around every op (README, "Host-speed
correction"); with --trace 1 it carries the per-layer metrics of a run whose
odd ops are traced.  Every op is gated; the
gate's verdict is in "correct", "attempted" and "failed".  Everything the
run writes goes under .bench_build/perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import gate  # noqa: E402
import gen  # noqa: E402

DATA = "src/sealoss/data"
CAL = f"{DATA}/calibration_example.csv"
SETUP_REPS = 10
# Host-speed probe: a bare, isolated interpreter start, taken before every
# untraced op and after the last.  Each op and set-up time is scaled by
# PROBE_REF_S / (mean of the probes just before and just after it), so that
# the host's own drift cancels.  PROBE_REF_S is about the probe's median on
# the host where the benchmark was written.
PROBE_REF_S = 0.05
IMPORTTIME_REPS = 3
PLAN_POOL = 40
REF_SEEDS = range(0, 100)

SHIPPED_COMMANDS = {
    f"{cmd}-{c}": argv
    for c in ("campaign1", "campaign2")
    for cmd, argv in (
        ("curves", ["curves", "--config", c]),
        ("range", ["range", "--config", c]),
        ("analyze", ["analyze", "--config", c, "--log", f"{DATA}/synthetic_{c}_log.csv", "--cal", CAL]),
    )
}

GENERATED = {
    "analyze-bulk": {"campaign": "campaign2", "rows": 30_000, "d_lo": 2.0, "d_hi": 11_000.0,
                     "bins": 64, "models": None},
    "analyze-dense": {"campaign": "campaign1", "rows": 10_000, "d_lo": 1.5, "d_hi": 12_000.0,
                      "bins": None, "models": "all"},
}

SETUP_CODE = {
    "cli-shipped": ["campaign1", "campaign2"],
    "analyze-bulk": ["campaign2"],
    "analyze-dense": ["campaign1"],
    "plan-grid": [],
}

WORKLOADS = ("cli-shipped", "analyze-bulk", "analyze-dense", "plan-grid")

INGEST_STAGES = ("parse_log", "apply_calibration", "geolocate", "rssi_to_pathloss", "to_sample_set")
SWEEP_MODELS = ("free-space", "two-ray-flat", "two-ray-round", "rel", "bullington", "itu", "log-distance")

E2E_UNITS = {"op_p50_s": "s", "op_tail_s": "s", "ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

LAYER_UNITS = {
    "startup.import_s": "s", "startup.import_scipy_s": "s",
    "cli.main_s": "s", "cli.self_s": "s", "cli.artifact_bytes": "bytes",
    **{f"ingest.{st}.s": "s" for st in INGEST_STAGES},
    **{f"ingest.{st}.us_per_row": "us/row" for st in INGEST_STAGES},
    "ingest.rows": "count", "ingest.rejected_rows": "count", "ingest.excluded_records": "count",
    "ingest.clamped_records": "count", "ingest.useful_ratio": "ratio",
    "metrics.bin_samples.s": "s", "metrics.fit_log_distance.s": "s",
    "metrics.compare_models.s": "s", "metrics.compare_models.self_s": "s",
    "metrics.compare_models.excluded_points": "count",
    **{f"models.sweep.{m}.s": "s" for m in SWEEP_MODELS},
    "models.sweep.points": "count", "models.sweep.skipped_points": "count",
    **{f"models.max_range.{m}.s": "s" for m in gate.RANGE_MODELS},
    "models.max_range.evals": "evals/call",
    "models.evaluate_model.calls": "count", "models.evaluate_model.us_per_call": "us/call",
    "geometry.reflection_geometry.per_point": "calls/point",
    "geometry.horizon_distance.per_point": "calls/point",
    "models.smooth_earth_diffraction_loss.per_point": "calls/point",
    "sea.effective_reflection.calls": "count", "sea.effective_reflection.s": "s",
    "trace.overhead_s": "s", "fail_ratio": "ratio",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    # One client and no helper threads: keep numpy's BLAS pool at one thread.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def setup_code(workload: str) -> str:
    lines = ["import sealoss, sealoss.cli, sealoss.models"]
    lines += [f"sealoss.load_campaign({c!r})" for c in SETUP_CODE[workload]]
    if SETUP_CODE[workload]:
        lines.append(f"sealoss.CalibrationTable.from_csv({CAL!r})")
    return "\n".join(lines)


# --- ops ------------------------------------------------------------------------

class CliOp:
    """One `sealoss` command: its arguments and how to gate its outputs."""

    def __init__(self, key, argv, out_dir, check, trace_check=None):
        self.key, self.argv, self.out_dir, self.check = key, argv, out_dir, check
        self.trace_check = trace_check

    def run(self, env, work: Path, traced: bool, op_id: int) -> dict:
        argv = list(self.argv)
        if self.out_dir is not None:
            shutil.rmtree(self.out_dir, ignore_errors=True)
            argv += ["--out", str(self.out_dir)]
        trace_path = work / "child_trace.json"
        if traced:
            trace_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(HERE / "child.py"), str(trace_path), str(op_id), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "sealoss.cli", *argv]
        with open(work / "stdout.txt", "wb") as so, open(work / "stderr.txt", "wb") as se:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=so, stderr=se)
            _, status, usage = os.wait4(proc.pid, 0)
            dt = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        stdout = (work / "stdout.txt").read_text(errors="replace")
        if code != 0:
            err = (work / "stderr.txt").read_text(errors="replace").strip().splitlines()
            fails = [f"exit code {code}: {err[-1] if err else ''}"]
        else:
            try:
                fails = self.check(self.out_dir, stdout)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                fails = [f"unreadable output: {type(exc).__name__}: {exc}"]
        rec = {"key": self.key, "seconds": dt, "cpu_s": usage.ru_utime + usage.ru_stime,
               "traced": traced, "fails": fails[:3], "rss_kb": usage.ru_maxrss}
        if traced and trace_path.is_file():
            doc = json.loads(trace_path.read_text())
            rec["profile"], rec["spans"] = doc["profile"], doc["spans"]
            if self.out_dir is not None and self.out_dir.is_dir():
                rec["profile"]["cli.artifact_bytes"] = sum(p.stat().st_size for p in self.out_dir.iterdir())
            if self.trace_check is not None:
                rec["fails"] += self.trace_check(rec["profile"])[:3]
        return rec


class PlanWorker:
    """The plan-grid worker process (see planworker.py for its protocol)."""

    def __init__(self, env):
        self.env = env
        self.proc = None

    def call(self, link: dict, traced: bool, op_id: int) -> dict:
        if self.proc is None:
            self.proc = subprocess.Popen([sys.executable, str(HERE / "planworker.py")], cwd=ROOT,
                                         env=self.env, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            pickle.dump((link, traced, op_id), self.proc.stdin)
            self.proc.stdin.flush()
            return pickle.load(self.proc.stdout)
        except (EOFError, BrokenPipeError):
            # The worker died inside the op: count the op as failed, start afresh.
            code = self.close()
            return {"error": f"worker exited with code {code}", "seconds": 0.0, "cpu_s": 0.0,
                    "rss_kb": 0}

    def close(self):
        """Stop the worker and wait for it; returns its exit code."""
        if self.proc is None:
            return None
        proc, self.proc = self.proc, None
        try:
            proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        return proc.returncode


class PlanOp:
    """One plan-grid link: run in the worker, gated here against the link's reference."""

    def __init__(self, link: dict, ref: dict, worker: PlanWorker):
        self.key, self.link, self.ref, self.worker = link["id"], link, ref, worker

    def run(self, env, work: Path, traced: bool, op_id: int) -> dict:
        reply = self.worker.call(self.link, traced, op_id)
        if reply["error"] is not None:
            fails = [reply["error"]]
        else:
            fails = gate.check_plan(gate.plan_summary(*reply["result"]), self.ref)
        rec = {"key": self.key, "seconds": reply["seconds"], "cpu_s": reply["cpu_s"],
               "traced": traced, "fails": fails[:3], "rss_kb": reply["rss_kb"]}
        if traced and "profile" in reply:
            rec["profile"], rec["spans"] = reply["profile"], reply["spans"]
        return rec


def shipped_ops(seed: int, work: Path, refs) -> list:
    ops = []
    for key in gen.cli_cycle(seed, sorted(SHIPPED_COMMANDS)):
        ref = refs[key]
        kind = key.split("-")[0]
        if kind == "curves":
            ops.append(CliOp(key, SHIPPED_COMMANDS[key], work / key,
                             lambda out, _stdout, ref=ref: gate.check_curves(out, ref["curves"])))
        elif kind == "range":
            ops.append(CliOp(key, SHIPPED_COMMANDS[key], None,
                             lambda _out, stdout, ref=ref: gate.check_range(stdout, ref["range"])))
        else:
            ops.append(CliOp(key, SHIPPED_COMMANDS[key], work / key,
                             lambda out, _stdout, ref=ref: gate.check_analyze(out, ref["analyze"])))
    return ops


def generated_expectation(workload: str, seed: int, expect: dict, refs) -> tuple:
    """The analyze documents a correct program writes for a generated log.

    Ingest counts, samples, the fit and log-distance predictions come from the
    generator alone; physical-model predictions and the per-model RMSE/MAE
    come from references recorded for the shipped seeds.  Returns the expected
    documents and whether the per-seed references existed.
    """
    spec = GENERATED[workload]
    d, l = expect["metric_distances"], expect["metric_losses"]
    fit = gen.expected_fit(d, l)
    wref = (refs or {}).get(workload, {})
    config = wref.get("config")
    comparison = wref.get("comparison", {}).get(str(seed))
    reports = None
    if comparison is not None:
        reports = [dict(zip(("model_id", "rmse_db", "mae_db", "n_samples", "n_excluded"), row))
                   for row in comparison]
    pred = None
    if "predictions" in wref:
        grid = gate.distance_grid(float(d[0]), float(d[-1]), 200)
        ld = [["log-distance", x, fit["l_p0_db"] + 10.0 * fit["n"] * math.log10(x / fit["d_0_m"])]
              for x in grid]
        pred = [["model_id", "distance_m", "loss_db"]] + wref["predictions"] + ld
    doc = {
        "analysis.json": {
            "config": config,
            "fit": fit,
            "reports": reports,
            "pipeline": {
                "parsed": expect["parsed"],
                "rejected_rows": [{"line": ln, "reason": r} for ln, r in expect["rejects"]],
                "excluded_records": expect["excluded"],
                "samples_used": len(d),
                "binned": bool(spec["bins"]),
                "unevaluable_models": [],
            },
        },
        "fit.json": {"config": config, "fit": fit},
        "comparison.csv": None if comparison is None else
        [["model_id", "rmse_db", "mae_db", "n_samples", "n_excluded"]] + comparison,
        "predictions.csv": pred,
    }
    return doc, comparison is not None and pred is not None


def generated_ops(workload: str, seed: int, work: Path, refs) -> tuple:
    spec = GENERATED[workload]
    log = work / "log.csv"
    t0 = time.perf_counter()
    expect = gen.make_log(log, spec["campaign"], spec["rows"], spec["d_lo"], spec["d_hi"],
                          seed, bins=spec["bins"])
    gen_s = time.perf_counter() - t0
    doc, have_refs = generated_expectation(workload, seed, expect, refs)
    samples = (expect["metric_distances"], expect["metric_losses"])
    n_used = len(samples[0])

    def check(out, _stdout):
        fails = gate.check_analyze(out, doc, samples)
        fails += gate.comparison_sanity(gate.read_csv(out / "comparison.csv"), n_used)
        return fails

    def trace_check(profile):
        # Calibration clamps appear in no artifact; the trace sees them.
        got = {k: profile.get(f"ingest.{m}") for k, m in (("clamped", "clamped_records"), ("samples", "samples"))}
        want = {k: expect[k] for k in got}
        return [] if got == want else [f"trace: ingest counts {got} != {want}"]

    argv = ["analyze", "--config", spec["campaign"], "--log", str(log), "--cal", CAL]
    if spec["bins"]:
        argv += ["--bins", str(spec["bins"])]
    if spec["models"]:
        argv += ["--models", spec["models"]]
    sizes = {"rows": spec["rows"], "samples": expect["samples"], "metric_samples": n_used,
             "expected_counts": {k: expect[k] for k in (
                 "parsed", "rejects_by_reason", "excluded", "excluded_below_minimum",
                 "excluded_zone", "clamped", "samples")}}
    return [CliOp(workload, argv, work / "out", check, trace_check)], gen_s, sizes, have_refs


# --- measurement ----------------------------------------------------------------

def time_setup(code: str, env) -> float:
    """Wall time of one fresh interpreter importing sealoss and loading the workload's inputs."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def time_probe() -> float:
    """Wall time of one bare interpreter start; `-I` keeps the checkout out of it."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "pass"], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def host_corrected(timed: list, probes: list) -> list:
    """Scale each (at, seconds) to the reference host speed of PROBE_REF_S.

    Each time is divided by the mean of the probes that bracket it, so a
    host that runs 20 % slower for a while slows the probes and the ops
    alike and the corrected times stay put.  ``probes`` are (at, seconds)
    in time order, with one before the first timed span and one after the last.
    """
    out = []
    for at, seconds in timed:
        before = [s for a, s in probes if a <= at][-1]
        after = next(s for a, s in probes if a >= at + seconds)
        out.append(seconds * PROBE_REF_S / ((before + after) / 2.0))
    return out


def import_times(env) -> dict:
    """`-X importtime` of `import sealoss`: the sealoss total and the scipy subtree."""
    sealoss_s, scipy_s = [], []
    for _ in range(IMPORTTIME_REPS):
        res = subprocess.run([sys.executable, "-X", "importtime", "-c", "import sealoss"],
                             cwd=ROOT, env=env, check=True, capture_output=True, text=True)
        entries = []
        for line in res.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            entries.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) / 1e6))
        total = scipy = 0.0
        for i, (depth, mod, cum_s) in enumerate(entries):
            if mod == "sealoss":
                total = cum_s
            if mod.split(".")[0] != "scipy":
                continue
            # Entries print after their children: the parent is the next
            # shallower entry.  Sum the scipy entries whose parent is not scipy.
            parent = next((m for d, m, _ in entries[i + 1:] if d < depth), "")
            if parent.split(".")[0] != "scipy":
                scipy += cum_s
        sealoss_s.append(total)
        scipy_s.append(scipy)
    return {"startup.import_s": statistics.median(sealoss_s),
            "startup.import_scipy_s": statistics.median(scipy_s)}


def tail(times: list) -> tuple:
    """Op time at the highest percentile with at least 10 ops beyond it.

    Below 21 ops that percentile would fall under the median; the median is
    reported instead and the percentile says so.
    """
    s = sorted(times)
    n = len(s)
    k = n - 11
    if k < (n - 1) // 2:
        return statistics.median(s), 50.0
    return s[k], 100.0 * (k + 1) / n


def per_layer(ops: list, startup: dict) -> dict:
    """Per-layer metrics: per-op means for each distinct input, then averaged."""
    by_key = {}
    for op in ops:
        if op["traced"] and "profile" in op:
            by_key.setdefault(op["key"], []).append(op)
    keys = sorted(by_key)
    fields = sorted({f for k in keys for op in by_key[k] for f in op["profile"]})

    def mean_of(field):
        vals = [statistics.mean(op["profile"].get(field, 0.0) for op in by_key[k]) for k in keys]
        return statistics.mean(vals) if vals else 0.0

    p = {f: mean_of(f) for f in fields}

    def ratio(a, b, scale=1.0):
        return scale * p.get(a, 0.0) / p[b] if p.get(b) else 0.0

    m = {name: p.get(name, 0.0) for name in LAYER_UNITS}
    m.update(startup)
    for st in INGEST_STAGES:
        m[f"ingest.{st}.us_per_row"] = ratio(f"ingest.{st}.s", f"ingest.{st}.rows", 1e6)
    m["ingest.rows"] = p.get("ingest.parse_log.rows", 0.0)
    m["ingest.useful_ratio"] = ratio("ingest.samples", "ingest.parse_log.rows")
    m["models.max_range.evals"] = ratio("models.max_range.evals", "models.max_range.calls")
    m["models.evaluate_model.us_per_call"] = ratio("models.evaluate_model.s", "models.evaluate_model.calls", 1e6)
    for name in ("geometry.reflection_geometry", "geometry.horizon_distance",
                 "models.smooth_earth_diffraction_loss"):
        m[f"{name}.per_point"] = ratio(f"{name}.calls", "models.evaluate_model.calls")
    traced = [op["seconds"] for op in ops if op["traced"]]
    plain = [op["seconds"] for op in ops if not op["traced"]]
    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    m["fail_ratio"] = sum(bool(op["fails"]) for op in ops) / len(ops)
    return m


def cross_check(ops: list) -> dict:
    """The figures the ROADMAP baseline quoted, as this run measures them."""
    spans = [s for op in ops if op["traced"] for s in op.get("spans", [])]

    def span_ms(name, **attrs):
        xs = [s["end"] - s["start"] for s in spans
              if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items())]
        return round(1e3 * statistics.mean(xs), 3) if xs else None

    out = {
        "sweep_rel_300_ms": span_ms("models.sweep", model="rel", points=300),
        "sweep_bullington_300_ms": span_ms("models.sweep", model="bullington", points=300),
        "sweep_itu_300_ms": span_ms("models.sweep", model="itu", points=300),
        "max_range_rel_ms": span_ms("models.max_range", model="rel"),
    }
    for kind in ("curves", "range", "analyze"):
        plain = [op["seconds"] for op in ops if not op["traced"] and op["key"].startswith(kind + "-")]
        mains = [op["profile"].get("cli.main_s", 0.0) for op in ops
                 if op["traced"] and op["key"].startswith(kind + "-") and "profile" in op]
        if plain:
            out[f"{kind}_process_s"] = round(statistics.median(plain), 4)
        if mains:
            out[f"{kind}_in_process_ms"] = round(1e3 * statistics.mean(mains), 3)
    return out


def provenance(seed: int, sizes: dict, gen_s: float) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = res.stdout.strip() or None
        res = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                             capture_output=True, text=True)
        dirty = bool(res.stdout.strip())
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "git_dirty_src": dirty,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "sizes": sizes,
        "generation_s": round(gen_s, 4),
    }


# --- main -------------------------------------------------------------------------

def run_loop(ops: list, seconds: float, trace: bool, env, work: Path, setup: str = None) -> tuple:
    """Closed loop, one client, for ``seconds`` of op time.

    With trace, each input's untraced op is followed by a traced one, until
    every input has been traced.  With ``setup`` code, SETUP_REPS set-up
    samples are spread evenly over the run, between ops: one before the
    first op and one each further SETUP_REPS-th of the op time; and a
    host probe is taken before every op and after the last.  Neither counts
    as op time.  Every op record and set-up sample carries ``at``, its start in
    seconds since the loop began.  Returns the op records, the (at, seconds)
    set-up samples and the (at, seconds) probes.
    """
    records, setup_times, probes = [], [], []
    traced_keys = set()
    keys = {op.key for op in ops}
    start = time.perf_counter()
    off_clock = 0.0
    probed = False
    i = 0
    while True:
        op_time = time.perf_counter() - start - off_clock
        t0 = time.perf_counter()
        if setup is not None and not probed:
            probes.append((t0 - start, time_probe()))
            probed = True
        elif setup is not None and len(setup_times) < SETUP_REPS and \
                op_time >= len(setup_times) * seconds / SETUP_REPS:
            setup_times.append((t0 - start, time_setup(setup, env)))
        elif op_time >= seconds and not (trace and traced_keys != keys):
            break
        else:
            op = ops[(i // 2 if trace else i) % len(ops)]
            traced = trace and i % 2 == 1
            records.append(dict(op.run(env, work, traced, i), at=t0 - start))
            probed = False
            if traced:
                traced_keys.add(op.key)
            i += 1
            continue
        off_clock += time.perf_counter() - t0
    if setup is not None:
        probes.append((time.perf_counter() - start, time_probe()))
    return records, setup_times, probes


def end_to_end(op_times: list, setup_times: list, records: list) -> dict:
    """The end-to-end metrics from untraced op times and set-up times."""
    return {
        "op_p50_s": statistics.median(op_times),
        "op_tail_s": tail(op_times)[0],
        "ops_per_s": len(op_times) / sum(op_times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024.0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sealoss" / "cli.py").is_file():
        print(f"error: no sealoss sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    notes = []

    gen_s, sizes = 0.0, {}
    if args.workload == "cli-shipped":
        ops = shipped_ops(args.seed, work, gate.load_ref("cli-shipped"))
        sizes = {"commands": [op.key for op in ops], "curve_points": 300}
    elif args.workload in GENERATED:
        ops, gen_s, sizes, have_refs = generated_ops(args.workload, args.seed, work,
                                                      gate.load_ref("analyze"))
        if not have_refs:
            notes.append(f"no references for seed {args.seed}: the float checks of per-model "
                         "RMSE/MAE and the per-model sample counts were skipped")
    else:
        t0 = time.perf_counter()
        pool = gen.plan_pool(args.seed, PLAN_POOL)
        gen_s = time.perf_counter() - t0
        catalogue = gate.load_ref("plan-grid")["links"]
        worker = PlanWorker(env)
        ops = [PlanOp(link, catalogue[str(link["id"])], worker) for link in pool]
        del catalogue
        sizes = {"links": PLAN_POOL, "catalogue": gen.CATALOGUE_SIZE,
                 "points_per_sweep": gate.PLAN_GRID[2], "sweeps_per_op": len(gate.PLAN_MODELS),
                 "max_range_per_op": len(gate.RANGE_MODELS)}

    if args.trace:
        startup = import_times(env)
    try:
        records, setup_times, probes = run_loop(ops, args.seconds, bool(args.trace), env, work,
                                                None if args.trace else setup_code(args.workload))
    finally:
        if args.workload == "plan-grid":
            worker.close()

    plain = [r for r in records if not r["traced"]]
    tail_pct = tail([r["seconds"] for r in plain])[1]
    failed = sum(bool(r["fails"]) for r in records)
    host = {}
    if args.trace:
        metrics = per_layer(records, startup)
        units = LAYER_UNITS
    else:
        metrics = end_to_end(host_corrected([(r["at"], r["seconds"]) for r in plain], probes),
                             host_corrected(setup_times, probes), records)
        units = E2E_UNITS
        host = {
            "probe_ref_s": PROBE_REF_S,
            "probes_at_s": probes,
            "uncorrected": end_to_end([r["seconds"] for r in plain],
                                      [s for _, s in setup_times], records),
        }
    detail = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args.seed, sizes, gen_s),
        "ops": len(records),
        "untraced_ops": len(plain),
        "op_tail_percentile": tail_pct,
        "fail_ratio": failed / len(records),
        "setup_runs_s": [s for _, s in setup_times],
        "host_probe": host,
        "notes": notes,
        "failures": [{"key": r["key"], "fails": r["fails"]} for r in records if r["fails"]][:10],
    }
    if args.trace and args.workload == "cli-shipped":
        detail["baseline_cross_check"] = cross_check(records)
    (work / "result.json").write_text(json.dumps(
        {**detail, "metrics": metrics, "records": [{k: v for k, v in r.items() if k != "spans"} for r in records]},
        indent=1))
    if args.trace:
        spans = [dict(s, key=r["key"]) for r in records for s in r.get("spans", [])]
        (work / "spans.json").write_text(json.dumps(spans))

    for name, value in metrics.items():
        raw = host.get("uncorrected", {}).get(name)
        note = f" (uncorrected {raw:.6g})" if raw is not None and raw != value else ""
        print(f"{name} = {value:.6g} {units[name]}{note}")
    print(f"ops = {len(records)} ({len(plain)} untraced), tail percentile = p{tail_pct:.1f}, "
          f"fail_ratio = {failed / len(records):.6g}")
    for note in notes:
        print(f"note: {note}")
    for f in detail["failures"]:
        print(f"FAILED {f['key']}: {'; '.join(f['fails'])}")
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0




if __name__ == "__main__":
    sys.exit(main())
