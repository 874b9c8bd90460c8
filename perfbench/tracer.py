"""Layer spans for one hvacdisagg process, recorded from outside the package.

`Tracer.install()` replaces the public layer functions of the already
imported `hvacdisagg` modules with timing wrappers. A function imported by
name into another module (`from .ingest import read_trends` in `cli`) is
replaced there as well, by identity. Spans stay in memory and are written
out once, by `dump`, when the command has finished.

A span is a dict with its name, start and end (``time.perf_counter``
seconds), the index of its parent span, the run id shared by every span of
one command, and counts taken from the wrapped function's arguments or
result (`IngestStats`, `SubModelFit.n_train`, `DetectionResult`,
`ImpactEstimate`). `BuildingData.row_mask` is called tens of thousands of
times per detection sweep, so it gets a counter on the innermost open span
instead of a span of its own.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

# module -> public functions timed as layer spans. The synth writers that
# are private to synth are timed too, so that `synth.generate` self time is
# the physics alone, without any file writer.
WRAPPED = {
    "config": ("load_run_config", "load_scenario_spec"),
    "building": ("load_metadata", "bind_points", "dump_metadata"),
    "ingest": ("read_points", "read_trends", "read_reference_year",
               "write_points", "write_trends", "write_reference_year"),
    "synth": ("generate", "_write_ground_truth", "_write_truth_powers",
              "_write_run_config"),
    "energy": ("assemble",),
    "calibrate": ("fit_model", "save_model", "load_model",
                  "predict_cooling_vav", "predict_cooling_ahu",
                  "predict_heating"),
    "faults": ("run_all", "write_findings", "read_findings"),
    "impact": ("estimate_all", "prioritize", "build_report",
               "write_report_csv", "format_report"),
}


def _count_read_trends(args, kwargs, result):
    series, stats = result
    stamps = 0
    if series:
        first = min(s.start for s in series.values())
        last = max(s.end for s in series.values())
        stamps = (last - first) // next(iter(series.values())).interval_s
    return {"rows": stats.rows, "rows_skipped": stats.skipped,
            "duplicates": stats.duplicates,
            "unknown_points": stats.unknown_points, "timestamps": stamps}


def _count_write_trends(args, kwargs, result):
    series_list = args[0] if args else kwargs["series_list"]
    return {"rows": sum(int(np.count_nonzero(~np.isnan(s.values)))
                        for s in series_list)}


def _count_bind_points(args, kwargs, result):
    inventory = args[1] if len(args) > 1 else kwargs["point_inventory"]
    return {"points": len(inventory)}


def _count_assemble(args, kwargs, result):
    return {"frame_rows": result.n_rows,
            "units": len(result.vavs) + len(result.ahus)}


def _count_fit_model(args, kwargs, result):
    return {f"{name}.n_train": sub.n_train
            for name, sub in result.submodels.items()}


def _count_run_all(args, kwargs, result):
    return {"findings": len(result.findings),
            "inconclusive": len(result.inconclusive)}


def _count_estimate_all(args, kwargs, result):
    estimable = sum(1 for est in result if est.estimable)
    return {"estimable": estimable, "not_estimable": len(result) - estimable}


COUNTERS = {
    "ingest.read_trends": _count_read_trends,
    "ingest.write_trends": _count_write_trends,
    "building.bind_points": _count_bind_points,
    "energy.assemble": _count_assemble,
    "calibrate.fit_model": _count_fit_model,
    "faults.run_all": _count_run_all,
    "impact.estimate_all": _count_estimate_all,
}


class Tracer:
    """In-memory span recorder for one command of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._open: list = []

    def call(self, name: str, func, *args, **kwargs):
        """Run func inside a span named name; return its result."""
        span = {"name": name, "start": 0.0, "end": 0.0,
                "parent": self._open[-1] if self._open else None,
                "run": self.run_id, "counts": {}}
        index = len(self.spans)
        self.spans.append(span)
        self._open.append(index)
        span["start"] = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        counter = COUNTERS.get(name)
        if counter is not None:
            span["counts"].update(counter(args, kwargs, result))
        return result

    def count(self, key: str, amount: int) -> None:
        """Add to a count on the innermost open span."""
        if self._open:
            counts = self.spans[self._open[-1]]["counts"]
            counts[key] = counts.get(key, 0) + amount

    def _timed(self, name: str, func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            return self.call(name, func, *args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every function in WRAPPED and count `BuildingData.row_mask`."""
        package = [m for n, m in list(sys.modules.items())
                   if n == "hvacdisagg" or n.startswith("hvacdisagg.")]
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(f"hvacdisagg.{module_name}")
            for attr in names:
                original = getattr(module, attr)
                wrapper = self._timed(f"{module_name}.{attr}", original)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

        energy = importlib.import_module("hvacdisagg.energy")
        row_mask = energy.BuildingData.row_mask
        tracer = self

        @functools.wraps(row_mask)
        def counted_row_mask(data, *args, **kwargs):
            tracer.count("row_mask_calls", 1)
            tracer.count("rows_masked", data.n_rows)
            return row_mask(data, *args, **kwargs)

        energy.BuildingData.row_mask = counted_row_mask

    def dump(self, path: str, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": self.spans, **extra}, fh)


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict = {}
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span["start"]
        intervals = sorted((max(spans[c]["start"], span["start"]),
                            min(spans[c]["end"], span["end"]))
                           for c in children.get(index, ()))
        for lo, hi in intervals:
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span["end"] - span["start"] - covered)
    return out
