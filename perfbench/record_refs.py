#!/usr/bin/env python3
"""Record the gate's reference outputs from the program as it stands.

    python3 perfbench/record_refs.py

Re-records all three of perfbench/refs/*.json.gz together, so they always
come from one state of the program.  The committed references were recorded at
the commit that introduced the benchmark; re-record only when a change is
meant to alter results beyond the gate's tolerance, and say so in the change.
Everything is run in-process, so the figures are the program's own.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

WORK = ROOT / ".bench_build" / "perfbench" / "record"


def cli(argv) -> str:
    import sealoss.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sealoss.cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return buf.getvalue()


def analyze_docs(out: Path) -> dict:
    doc = {name: json.loads((out / name).read_text()) for name in ("analysis.json", "fit.json")}
    for name in ("comparison.csv", "predictions.csv", "samples.csv"):
        doc[name] = gate.read_csv(out / name)
    return doc


def record_cli_shipped() -> None:
    refs = {}
    for key, argv in run.SHIPPED_COMMANDS.items():
        out = WORK / key
        shutil.rmtree(out, ignore_errors=True)
        kind = key.split("-")[0]
        if kind == "range":
            refs[key] = {"range": cli(argv).strip().splitlines()}
            continue
        cli(argv + ["--out", str(out)])
        if kind == "curves":
            refs[key] = {"curves": json.loads((out / "curves.json").read_text())}
        else:
            refs[key] = {"analyze": analyze_docs(out)}
    gate.save_ref("cli-shipped", refs)


def record_analyze() -> None:
    refs = {}
    for workload, spec in run.GENERATED.items():
        entry = {"comparison": {}}
        for seed in run.REF_SEEDS:
            seed_work = WORK / workload
            shutil.rmtree(seed_work, ignore_errors=True)
            seed_work.mkdir(parents=True)
            ops, *_ = run.generated_ops(workload, seed, seed_work, None)
            op = ops[0]
            cli(op.argv + ["--out", str(op.out_dir)])
            doc = analyze_docs(op.out_dir)
            physical = [row for row in doc["predictions.csv"][1:] if row[0] != "log-distance"]
            if "predictions" not in entry:
                entry["config"] = doc["analysis.json"]["config"]
                entry["predictions"] = physical
            elif physical != entry["predictions"]:
                raise SystemExit(f"{workload}: physical-model predictions depend on the seed")
            entry["comparison"][str(seed)] = doc["comparison.csv"][1:]
            # The generator's own expectations must hold before references are trusted.
            fails = op.check(op.out_dir, "")
            if fails:
                raise SystemExit(f"{workload} seed {seed}: generator and program disagree: {fails}")
            print(f"{workload} seed {seed}: ok", flush=True)
        refs[workload] = entry
    gate.save_ref("analyze", refs)


def record_plan_grid() -> None:
    import sealoss
    import sealoss.models  # noqa: F401
    from planworker import plan_op

    links = {}
    for link in gen.link_catalogue():
        summary = gate.plan_summary(*plan_op(sealoss, link))
        links[str(link["id"])] = {
            "curves": {m: {"skipped": c["skipped"], "q": gate.encode_losses(c["losses"])}
                       for m, c in summary["curves"].items()},
            "ranges": summary["ranges"],
        }
        if gate.check_plan(summary, links[str(link["id"])]):
            raise SystemExit(f"link {link['id']}: reference does not round-trip")
    gate.save_ref("plan-grid", {"links": links})


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    os.chdir(ROOT)
    for name, step in (("cli-shipped", record_cli_shipped), ("analyze", record_analyze),
                       ("plan-grid", record_plan_grid)):
        step()
        print(f"recorded {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
