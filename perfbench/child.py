"""Traced CLI op: install the tracer, run sealoss.cli.main(argv), dump the trace.

    python3 perfbench/child.py TRACE_OUT.json OP_ID -- <sealoss CLI arguments>

Exits with the CLI's exit code, as ``python3 -m sealoss.cli`` would.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    out_path, op_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py TRACE_OUT.json OP_ID -- ARGS...")
    import sealoss.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(int(op_id))
    try:
        code = sealoss.cli.main(argv)
    finally:
        tracer.uninstall()
        doc = {"profile": tracer.op_profile(), "spans": tracer.op_spans()}
        Path(out_path).write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
