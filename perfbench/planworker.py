"""plan-grid worker: one process that plans the links it is sent, one at a time.

Each op builds a fresh ModelContext for its link, sweeps the six physical
models over the 1000-point grid and solves max_range for five of them, as a
planning tool would.  The worker holds no reference data and gates nothing:
it times the op, sends the raw results back and waits for the next link, so
its peak RSS is the program's own working set.

    python3 perfbench/planworker.py

Protocol: stdin carries pickled requests ``(link, traced, op_id)``; for each,
stdout carries one pickled reply with the op's wall and CPU seconds, its
results (or the exception it raised), the worker's peak RSS so far and, for
a traced op, the tracer's profile and spans.  The worker exits at end of input.
"""

from __future__ import annotations

import os
import pickle
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

# What one op computes; the gate reads these too.
PLAN_MODELS = ("free-space", "two-ray-flat", "two-ray-round", "rel", "bullington", "itu")
RANGE_MODELS = ("free-space", "two-ray-flat", "rel", "bullington", "itu")
PLAN_GRID = (100.0, 100_000.0, 1000)


def plan_op(sealoss, link: dict):
    """Sweep and range-solve one link; returns (curves, ranges) for gate.plan_summary."""
    ctx = sealoss.ModelContext(
        h_t=link["h_t"],
        h_r=link["h_r"],
        frequency=link["frequency_hz"],
        earth=sealoss.EarthModel(effective_radius_factor=link["k_factor"]),
        sea=sealoss.SeaState(sigma_h=link["sigma_h_m"], beta_0=link["beta_0_rad"]),
        polarization=sealoss.Polarization(link["polarization"]),
    )
    # Default sensitivity is -138 dBm and gains are 0 dB, so this sets the budget.
    radio = sealoss.RadioConfig(frequency=link["frequency_hz"], tx_power=link["budget_db"] - 138.0)
    curves = {}
    for model in PLAN_MODELS:
        c = sealoss.models.sweep(model, ctx, *PLAN_GRID)
        curves[model] = (c.distances, c.losses, c.skipped)
    ranges = {}
    for model in RANGE_MODELS:
        try:
            ranges[model] = sealoss.models.max_range(model, ctx, radio)
        except (sealoss.UnboundedRange, sealoss.NoCoverage) as exc:
            ranges[model] = type(exc).__name__
    return curves, ranges


def main() -> int:
    import sealoss
    import sealoss.models  # noqa: F401  (the sweep/max_range the tracer rebinds)
    from tracer import Tracer

    requests = sys.stdin.buffer
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    sys.stdout = sys.stderr  # nothing the program prints may corrupt the replies
    tracer = Tracer()
    while True:
        try:
            link, traced, op_id = pickle.load(requests)
        except EOFError:
            break
        if traced:
            tracer.install()
            tracer.begin_op(op_id)
        result = error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = plan_op(sealoss, link)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        reply = {"seconds": time.perf_counter() - t0, "cpu_s": time.process_time() - c0,
                 "result": result, "error": error}
        if traced:
            tracer.uninstall()
            reply["profile"], reply["spans"] = tracer.op_profile(), tracer.op_spans()
        reply["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        pickle.dump(reply, replies)
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
