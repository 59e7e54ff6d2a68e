"""Outside-in tracer: rebinds public sealoss functions to timing wrappers.

Layer boundaries (CLI entry, ingest stages, metrics, sweep, max_range) get one
span per call: name, start, end, parent, op id, plus attributes read from the
call's arguments and result.  Hot inner boundaries (evaluate_model and the
geometry/sea helpers it calls per point) keep a call count and summed time
instead.  A span's self time is its duration minus its child spans and the
outermost hot calls inside it.  Nothing here changes what the wrapped
functions compute.
"""

from __future__ import annotations

import importlib
from time import perf_counter

MODULES = ("sealoss.cli", "sealoss.ingest", "sealoss.metrics", "sealoss.models",
           "sealoss.sea", "sealoss.geometry")

SPANS = {
    # (defining module, name): (span name, attrs(args, result) or None)
    ("sealoss.cli", "main"): ("cli.main", None),
    ("sealoss.ingest", "parse_log"): (
        "ingest.parse_log",
        lambda a, r: {"rows": len(r.records) + len(r.rejects), "rejected": len(r.rejects)},
    ),
    ("sealoss.ingest", "apply_calibration"): (
        "ingest.apply_calibration",
        lambda a, r: {"rows": len(a[0]),
                         "clamped": sum("calibration-clamped" in rec.flags for rec in r)},
    ),
    ("sealoss.ingest", "geolocate"): (
        "ingest.geolocate",
        lambda a, r: {"rows": len(a[0]), "excluded": sum(rec.excluded for rec in r)},
    ),
    ("sealoss.ingest", "rssi_to_pathloss"): (
        "ingest.rssi_to_pathloss", lambda a, r: {"rows": len(a[0])},
    ),
    ("sealoss.ingest", "to_sample_set"): (
        "ingest.to_sample_set", lambda a, r: {"rows": len(a[0]), "samples": len(r)},
    ),
    ("sealoss.metrics", "bin_samples"): ("metrics.bin_samples", None),
    ("sealoss.metrics", "fit_log_distance"): ("metrics.fit_log_distance", None),
    ("sealoss.metrics", "compare_models"): (
        "metrics.compare_models", lambda a, r: {"excluded": sum(x.n_excluded for x in r)},
    ),
    ("sealoss.models", "sweep"): (
        "models.sweep",
        lambda a, r: {"model": a[0], "points": len(r.distances) + len(r.skipped),
                         "skipped": len(r.skipped)},
    ),
    ("sealoss.models", "max_range"): ("models.max_range", lambda a, r: {"model": a[0]}),
}

# Span attribute -> per-op count it adds to.
INGEST_COUNTS = {
    "rejected": "ingest.rejected_rows",
    "clamped": "ingest.clamped_records",
    "excluded": "ingest.excluded_records",
    "samples": "ingest.samples",
}

HOT = {
    ("sealoss.models", "evaluate_model"): "models.evaluate_model",
    ("sealoss.geometry", "horizon_distance"): "geometry.horizon_distance",
    ("sealoss.geometry", "reflection_geometry"): "geometry.reflection_geometry",
    ("sealoss.sea", "effective_reflection"): "sea.effective_reflection",
    ("sealoss.models", "smooth_earth_diffraction_loss"): "models.smooth_earth_diffraction_loss",
}


class Tracer:
    """Spans and hot-call counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, op id, attrs, child seconds]
        self.stack = []
        self.hot = {name: [0, 0.0] for name in HOT.values()}
        self.hot_depth = 0
        self.op = None
        self._saved = []
        self._span0 = 0
        self._hot0 = {name: [0, 0.0] for name in HOT.values()}

    def install(self) -> None:
        """Rebind every traced function in every sealoss module that holds it."""
        mods = [importlib.import_module(m) for m in MODULES]
        targets = [(key, self._span_wrapper(*spec)) for key, spec in SPANS.items()]
        targets += [(key, self._hot_wrapper(name)) for key, name in HOT.items()]
        for (home, name), make in targets:
            original = getattr(importlib.import_module(home), name, None)
            if original is None:
                continue
            wrapped = make(original)
            for mod in mods:
                if getattr(mod, name, None) is original:
                    self._saved.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._saved):
            setattr(mod, name, original)
        self._saved.clear()

    def _span_wrapper(self, span_name, attrs):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                parent = tracer.stack[-1] if tracer.stack else None
                rec = [span_name, 0.0, 0.0, parent, tracer.op, {}, 0.0]
                tracer.stack.append(len(tracer.spans))
                tracer.spans.append(rec)
                evals = tracer.hot["models.evaluate_model"]
                evals0 = evals[0]
                rec[1] = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    rec[5]["outcome"] = type(exc).__name__
                    if span_name == "models.max_range":
                        rec[5]["model"] = args[0]
                    raise
                finally:
                    rec[2] = perf_counter()
                    tracer.stack.pop()
                    if parent is not None:
                        tracer.spans[parent][6] += rec[2] - rec[1]
                    rec[5]["evals"] = evals[0] - evals0
                if attrs is not None:
                    rec[5].update(attrs(args, result))
                return result

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def _hot_wrapper(self, hot_name):
        tracer = self
        stat = self.hot[hot_name]

        def make(fn):
            def wrapper(*args, **kwargs):
                tracer.hot_depth += 1
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stat[0] += 1
                    stat[1] += dt
                    tracer.hot_depth -= 1
                    if tracer.hot_depth == 0 and tracer.stack:
                        tracer.spans[tracer.stack[-1]][6] += dt

            wrapper.__wrapped__ = fn
            return wrapper

        return make

    def begin_op(self, op_id) -> None:
        self.op = op_id
        self._span0 = len(self.spans)
        self._hot0 = {k: list(v) for k, v in self.hot.items()}

    def op_profile(self) -> dict:
        """Per-layer sums of the op begun last, as a flat dict of numbers."""
        p = {}

        def add(key, value):
            p[key] = p.get(key, 0.0) + value

        for name, start, end, _parent, _op, attrs, child in self.spans[self._span0:]:
            dur = end - start
            if name == "cli.main":
                add("cli.main_s", dur)
                add("cli.self_s", dur - child)
            elif name.startswith("ingest."):
                add(name + ".s", dur)
                add(name + ".rows", attrs.get("rows", 0))
                for key, metric in INGEST_COUNTS.items():
                    if key in attrs:
                        add(metric, attrs[key])
            elif name == "metrics.compare_models":
                add(name + ".s", dur)
                add(name + ".self_s", dur - child)
                add(name + ".excluded_points", attrs.get("excluded", 0))
            elif name.startswith("metrics."):
                add(name + ".s", dur)
            elif name == "models.sweep":
                add(f"models.sweep.{attrs['model']}.s", dur)
                add("models.sweep.points", attrs.get("points", 0))
                add("models.sweep.skipped_points", attrs.get("skipped", 0))
            elif name == "models.max_range":
                add(f"models.max_range.{attrs['model']}.s", dur)
                add("models.max_range.calls", 1)
                add("models.max_range.evals", attrs["evals"])
        for name, (calls, secs) in self.hot.items():
            add(name + ".calls", calls - self._hot0[name][0])
            add(name + ".s", secs - self._hot0[name][1])
        return p

    def op_spans(self) -> list:
        """The spans of the op begun last, as dicts."""
        return [
            {"name": n, "start": s, "end": e, "parent": par, "op": op, "attrs": a}
            for n, s, e, par, op, a, _child in self.spans[self._span0:]
        ]
