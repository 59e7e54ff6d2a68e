#!/usr/bin/env python3
"""Show that the gate catches small errors and admits sanctioned ones.

    python3 perfbench/selfcheck.py

Runs one op of each kind, confirms the gate passes it, then edits one value
of its output and re-runs the gate: a 1e-3 dB change to one loss, or one
missing reject or skipped point, must fail; a 2e-7 dB change must pass.
Exits 0 only if every case behaves so.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import gate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

WORK = run.ROOT / ".bench_build" / "perfbench" / "selfcheck"


def edit_json(path: Path, fn) -> None:
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def edit_csv(path: Path, row: int, col: int, delta: float) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = repr(float(rows[row][col]) + delta)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def cli_cases(rng) -> list:
    """(name, op, edit or None, must pass) for the CLI ops."""
    refs = gate.load_ref("cli-shipped")
    ops = {op.key: op for op in run.shipped_ops(0, WORK, refs)}
    bulk, *_ = run.generated_ops("analyze-bulk", 0, WORK, gate.load_ref("analyze"))
    bulk = bulk[0]

    def curve_loss(delta):
        def fn(doc):
            losses = doc["curves"]["rel"]["losses_db"]
            losses[int(rng.integers(len(losses)))] += delta
        return lambda out: edit_json(out / "curves.json", fn)

    def drop_reject(out):
        edit_json(out / "analysis.json", lambda d: d["pipeline"]["rejected_rows"].pop(
            int(rng.integers(len(d["pipeline"]["rejected_rows"])))))

    def sample_loss(delta):
        return lambda out: edit_csv(out / "samples.csv", 1 + int(rng.integers(64)), 1, delta)

    return [
        ("curves campaign1 as written", ops["curves-campaign1"], None, True),
        ("curves: one rel loss +1e-3 dB", ops["curves-campaign1"], curve_loss(1e-3), False),
        ("curves: one rel loss +2e-7 dB", ops["curves-campaign1"], curve_loss(2e-7), True),
        ("analyze-bulk seed 0 as written", bulk, None, True),
        ("analyze-bulk: one reject missing", bulk, drop_reject, False),
        ("analyze-bulk: one sample loss +1e-3 dB", bulk, sample_loss(1e-3), False),
        ("analyze-bulk: one sample loss +2e-7 dB", bulk, sample_loss(2e-7), True),
    ]


def main() -> int:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    env = run.child_env()
    rng = np.random.default_rng(0)
    ok = True

    def report(name, fails, must_pass):
        nonlocal ok
        good = (not fails) == must_pass
        ok &= good
        verdict = "pass" if not fails else f"fail ({fails[0]})"
        print(f"{'ok ' if good else 'BAD'} {name}: gate says {verdict}")

    for name, op, edit, must_pass in cli_cases(rng):
        rec = op.run(env, WORK, False, 0)
        fails = rec["fails"]
        if edit is not None and not fails:
            edit(op.out_dir)
            fails = op.check(op.out_dir, "")
        report(name, fails, must_pass)

    sys.path.insert(0, str(run.ROOT / "src"))
    import sealoss
    import sealoss.models  # noqa: F401
    from planworker import plan_op

    refs = gate.load_ref("plan-grid")["links"]
    link = next(ln for ln in gen.link_catalogue() if refs[str(ln["id"])]["curves"]["two-ray-round"]["skipped"])
    ref = refs[str(link["id"])]
    curves, ranges = plan_op(sealoss, link)
    report(f"plan-grid link {link['id']} as computed", gate.check_plan(gate.plan_summary(curves, ranges), ref), True)
    for model, delta, must_pass in (("rel", 1e-3, False), ("two-ray-flat", 2e-7, True), ("itu", 1e-9, True)):
        d, losses, skipped = curves[model]
        losses = list(losses)
        losses[int(rng.integers(len(losses)))] += delta
        edited = dict(curves, **{model: (d, tuple(losses), skipped)})
        report(f"plan-grid: one {model} loss +{delta:g} dB",
               gate.check_plan(gate.plan_summary(edited, ranges), ref), must_pass)
    d, losses, skipped = curves["two-ray-round"]
    edited = dict(curves, **{"two-ray-round": (d, losses, skipped[1:])})
    report("plan-grid: one skipped point missing", gate.check_plan(gate.plan_summary(edited, ranges), ref), False)
    print("self-check", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
