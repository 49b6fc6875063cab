"""Span tracer that wraps lgequant's public functions from outside the package.

Each wrapped call records a span ``(name, start, end, parent, study)`` in
memory. Wrappers are installed at the module attribute where each caller looks
the function up (``lgequant.realign.plane_intersection`` is what the optimizer
calls, ``lgequant.normalize.polygon_mask`` what normalization calls), and are
removed again by ``Tracer.uninstall``, so an untraced study runs the program
as shipped.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (owner, attribute, span name). ``owner`` is a module path, or
# "module:Class" for a method.
_IN_MEMORY = [
    ("lgequant.pipeline", "run_pipeline", "pipeline.run_pipeline"),
    ("lgequant.pipeline", "myocardium_volume", "pipeline.myocardium_volume"),
    ("lgequant.pipeline", "optimize", "realign.optimize"),
    ("lgequant.pipeline", "iterate_normalization", "normalize.iterate_normalization"),
    ("lgequant.pipeline", "classify", "graphcut.classify"),
    ("lgequant.pipeline", "run_postprocessing", "postprocess.run_postprocessing"),
    ("lgequant.pipeline", "assign_segments", "aha.assign_segments"),
    ("lgequant.pipeline", "quantify", "aha.quantify"),
    ("lgequant.pipeline", "polygon_mask", "raster.polygon_mask"),
]
_CLI = [
    ("lgequant.cli", "cmd_normalize", "cli.normalize"),
    ("lgequant.cli", "cmd_classify", "cli.classify"),
    ("lgequant.cli", "cmd_quantify", "cli.quantify"),
    ("lgequant.cli", "cmd_metrics", "cli.metrics"),
    ("lgequant.cli", "iterate_normalization", "normalize.iterate_normalization"),
    ("lgequant.cli", "classify", "graphcut.classify"),
    ("lgequant.cli", "assign_segments", "aha.assign_segments"),
    ("lgequant.cli", "quantify", "aha.quantify"),
]
_SHARED = [
    ("lgequant.realign", "plane_intersection", "geometry.plane_intersection"),
    ("lgequant.realign", "contiguous_regions", "geometry.contiguous_regions"),
    ("lgequant.realign", "sample_line_values", "geometry.sample_line_values"),
    ("lgequant.normalize", "polygon_mask", "raster.polygon_mask"),
    ("lgequant.normalize", "fit_mixture", "rician.fit_mixture"),
    ("lgequant.postprocess", "polygon_mask", "raster.polygon_mask"),
    # cmd_classify imports polygon_mask and run_postprocessing at call time.
    ("lgequant.raster", "polygon_mask", "raster.polygon_mask"),
    ("lgequant.postprocess", "run_postprocessing", "postprocess.run_postprocessing"),
    ("lgequant.postprocess", "remove_boundary_false_positives",
     "postprocess.remove_boundary_false_positives"),
    ("lgequant.postprocess", "remove_small_components", "postprocess.remove_small_components"),
    ("lgequant.postprocess", "recover_partial_volume", "postprocess.recover_partial_volume"),
    ("lgequant.postprocess", "include_mvo", "postprocess.include_mvo"),
    ("lgequant.maxflow:MaxFlowGraph", "solve", "maxflow.solve"),
]
_IO_SAVE = ("save_dataset", "save_contours", "save_volume_f32", "save_labeling",
            "save_truth", "write_report")
_IO_LOAD = ("load_dataset", "load_contours", "load_volume_f32", "load_labeling",
            "load_truth", "read_report")
_IO = [("lgequant.io", f, f"io.{f}") for f in _IO_SAVE + _IO_LOAD]

TARGETS = _IN_MEMORY + _CLI + _SHARED + _IO

# JSON keys through which lgequant headers name their raw companion files.
_RAW_KEYS = ("pixel_file", "raw_file", "labels_file", "mask_file", "infarct_file")


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def file_bytes(path) -> int:
    """Size of a written lgequant file plus the raw files its header names."""
    path = Path(path)
    total = path.stat().st_size
    if path.suffix != ".json":
        return total
    payload = json.loads(path.read_text())
    entries = payload.get("slices", []) if isinstance(payload, dict) else []
    for entry in [payload, *entries]:
        if not isinstance(entry, dict):
            continue
        for key in _RAW_KEYS:
            name = entry.get(key)
            if isinstance(name, str) and (path.parent / name).exists():
                total += (path.parent / name).stat().st_size
    return total


def _on_result(tracer: "Tracer", name: str, args, kwargs, result):
    """Counters read off a call's arguments and result."""
    if name == "realign.optimize":
        tracer.count("realign.sweeps", result.iterations)
        tracer.count("realign.accepted_moves", len(result.diagnostics["accepted_moves"]))
    elif name == "normalize.iterate_normalization":
        tracer.count("normalize.iterations", result.iterations)
    elif name == "maxflow.solve":
        graph = args[0]
        tracer.count("maxflow.nodes", graph.n)
        tracer.count("maxflow.arcs", len(graph._to) // 2)   # two arcs per add_edge
        tracer.count("maxflow.flow", float(result[0]))
    elif name.startswith("io.save") or name == "io.write_report":
        tracer.count("io.bytes_written", file_bytes(result))
    elif name.startswith("io."):
        path = args[0] if args else next(iter(kwargs.values()))
        tracer.count("io.bytes_read", file_bytes(path))


class Tracer:
    """In-memory span and counter store; spans of one study share its id."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.study = None
        self._stack: list = []
        self._patched: list = []

    def install(self):
        for owner_path, attr, name in TARGETS:
            owner = _owner(owner_path)
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name))
            self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def count(self, key: str, value: float):
        self.counters[(self.study, key)] += value

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.study)
            _on_result(tracer, name, args, kwargs, result)
            return result

        return traced

    def study_metrics(self, study) -> dict:
        """Per-study totals: ``<span>.calls``, ``<span>.s``, counters, self times."""
        out: dict = defaultdict(float)
        child_time: dict = defaultdict(float)
        for name, start, end, parent, sid in self.spans:
            if sid == study and parent >= 0:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, sid) in enumerate(self.spans):
            if sid != study:
                continue
            dur = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += dur
            out[f"self.{name.split('.')[0]}.s"] += dur - child_time[idx]
            if name.startswith("io.save") or name == "io.write_report":
                out["io.save.s"] += dur
            elif name.startswith("io."):
                out["io.load.s"] += dur
        for (sid, key), value in self.counters.items():
            if sid == study:
                out[key] += value
        out["graphcut.build.s"] = out["graphcut.classify.s"] - out["maxflow.solve.s"]
        return dict(out)

    def dump(self, path, meta: dict):
        """Write every recorded span as JSON: one [name, start, end, parent, study] each."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {**meta, "fields": ["name", "start", "end", "parent", "study"],
                   "spans": self.spans}
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
