#!/usr/bin/env python3
"""Check that the CLI's outputs at a git revision and in the working tree are byte-identical.

    python scripts/compare_artifacts.py REV

REV is exported with ``git archive`` into a temporary directory.  The same
commands then run in that tree and in the working tree, on both shipped
campaigns:

- ``curves --models all`` on the default grid and with
  ``--dmin 1 --dmax 100000 --points 200``;
- ``analyze --models all`` of the campaign's shipped log with
  ``calibration_example.csv``, unbinned and with ``--bins 20``;
- ``range --models all``.

Every artifact, stdout (with the output directory and the tree's path
replaced by placeholders), stderr and exit code is compared byte for byte.
The script prints each output that differs and exits 1 if any does, else 0.
It writes only to the temporary directory.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAMPAIGNS = ("campaign1", "campaign2")
DATA = Path("src", "sealoss", "data")


def commands(campaign: str) -> dict:
    """{command name: sealoss arguments} for one campaign; data paths are relative to a tree."""
    log, cal = DATA / f"synthetic_{campaign}_log.csv", DATA / "calibration_example.csv"
    curves = ["curves", "--config", campaign, "--models", "all"]
    analyze = ["analyze", "--config", campaign, "--models", "all", "--log", str(log), "--cal", str(cal)]
    return {
        f"{campaign}-curves": curves,
        f"{campaign}-curves-wide": curves + ["--dmin", "1", "--dmax", "100000", "--points", "200"],
        f"{campaign}-analyze": analyze,
        f"{campaign}-analyze-bins20": analyze + ["--bins", "20"],
        f"{campaign}-range": ["range", "--config", campaign, "--models", "all"],
    }


def outputs(tree: Path, out_root: Path) -> dict:
    """{output name: bytes} of every command run with the sealoss package of tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    found = {}
    for campaign in CAMPAIGNS:
        for name, argv in commands(campaign).items():
            out = out_root / name
            if argv[0] != "range":
                argv = argv + ["--out", str(out)]
            proc = subprocess.run(
                [sys.executable, "-m", "sealoss.cli", *argv], cwd=tree, env=env, capture_output=True
            )

            def normalized(text: bytes) -> bytes:
                return text.replace(os.fsencode(out), b"<out>").replace(os.fsencode(tree), b"<tree>")

            found[f"{name}/exit code"] = str(proc.returncode).encode()
            found[f"{name}/stdout"] = normalized(proc.stdout)
            found[f"{name}/stderr"] = normalized(proc.stderr)
            if out.is_dir():
                found.update((f"{name}/{p.name}", p.read_bytes()) for p in sorted(out.iterdir()))
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", metavar="REV", help="git revision to compare the working tree with")
    rev = parser.parse_args().rev
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp, "tree")
        tree.mkdir()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev], capture_output=True)
        if archive.returncode:
            sys.exit(archive.stderr.decode(errors="replace").strip())
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive.stdout, check=True)
        before = outputs(tree, Path(tmp, "out-rev"))
        after = outputs(ROOT, Path(tmp, "out-working-tree"))
    names = sorted(before.keys() | after.keys())
    differ = [name for name in names if before.get(name) != after.get(name)]
    for name in differ:
        if name not in after:
            name += " (only at REV)"
        elif name not in before:
            name += " (only in the working tree)"
        print(name)
    print(f"{len(differ)} of {len(names)} outputs differ from {rev}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
