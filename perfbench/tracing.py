"""In-memory span tracer for the traced benchmark run.

The tracer replaces functions with timing wrappers at the names their
callers look up, records one span per call (name, start, end, parent span,
case id) and derives the per-layer metrics from the spans.  Nothing is
wrapped until ``install`` runs, and ``uninstall`` puts every original back,
so an untraced pass executes the program unchanged.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

import numpy as np

KERNELS = ("lg_samples", "retarder_apply", "stokes_from_hv", "bilinear_sample")

# (module under vecherald, attribute, span name).  Stage functions are
# wrapped in `scenarios`, which binds them at import time; kernels and
# writers are wrapped in their own modules, whose callers reach them as
# module attributes.  Several names may share one span name.
WRAPS = (
    ("scenarios", "run_figure_suite", "scenarios.suite"),
    ("scenarios", "run_scenario", "scenarios.case"),
    ("scenarios", "_summary_rows", "scenarios.summary"),
    ("scenarios", "_write_summary", "scenarios.summary"),
    ("scenarios", "_write_scenario", "fileio.export"),
    ("scenarios", "pump_state", "kets.state"),
    ("scenarios", "spdc_state", "kets.state"),
    ("scenarios", "project_idler_oam0", "kets.state"),
    ("scenarios", "herald", "kets.state"),
    ("scenarios", "_synthesize", "fields.synth"),
    ("scenarios", "translate", "fields.translate"),
    ("scenarios", "lg_mode", "fields.mode"),
    ("scenarios", "gaussian_helical_mode", "fields.mode"),
    ("kets", "lg_mode", "fields.mode"),
    ("kets", "gaussian_helical_mode", "fields.mode"),
    ("scenarios", "stokes_of_field", "polarimetry.stokes"),
    ("scenarios", "simulate_frames", "polarimetry.frames"),
    ("scenarios", "reconstruct_stokes", "polarimetry.reconstruct"),
    ("scenarios", "ellipse_map", "polarimetry.ellipse"),
    ("scenarios", "stokes_homogeneity", "polarimetry.homogeneity"),
    ("scenarios", "find_singularities", "topology.find"),
    ("topology", "find_singularities", "topology.find"),
    ("topology", "disclination_index", "topology.loop"),
    ("scenarios", "rotation_between", "topology.rotation"),
    ("scenarios", "s3_lobe_count", "topology.lobes"),
    ("topology", "s3_lobe_count", "topology.lobes"),
    ("fileio", "write_matrix", "fileio.matrix_write"),
    ("fileio", "write_manifest", "fileio.manifest"),
    ("fileio", "render_ellipse_preview", "fileio.preview"),
    ("fileio", "write_ppm", "fileio.preview"),
    ("fileio", "read_stokes", "fileio.read"),
) + tuple(("kernels", k, "kernels." + k) for k in KERNELS)

# Span name -> per-layer time metric holding the summed span durations.
TIME_METRICS = {
    "fileio.matrix_write": "fileio.matrix_write_s",
    "fileio.manifest": "fileio.manifest_s",
    "fileio.preview": "fileio.preview_s",
    "fileio.read": "fileio.read_s",
    "scenarios.summary": "scenarios.summary_s",
    "topology.find": "topology.find_s",
    "topology.rotation": "topology.rotation_s",
    "topology.lobes": "topology.lobes_s",
    "fields.synth": "fields.synth_s",
    "fields.translate": "fields.translate_s",
    "polarimetry.frames": "polarimetry.frames_s",
    "polarimetry.stokes": "polarimetry.stokes_s",
    "polarimetry.reconstruct": "polarimetry.reconstruct_s",
    "polarimetry.ellipse": "polarimetry.ellipse_s",
    "polarimetry.homogeneity": "polarimetry.homogeneity_s",
    "kets.state": "kets.state_s",
}


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tuple):
        return sum(_nbytes(o) for o in obj)
    return 0


def _candidate_px(smap) -> int:
    """Candidate pixels under find_singularities' default threshold (0.1)."""
    u = np.hypot(smap.s1, smap.s2)
    return int(np.count_nonzero(u[2:-2, 2:-2] < 0.1 * u.max()))


def _counts(span_name: str, args, kwargs, result, dt: float) -> Dict[str, float]:
    """Work counts recorded at the wrapped boundary, outside the span."""
    if span_name == "kernels.bilinear_sample":
        # Computed: coordinates and four gathered neighbours read per sample,
        # one value written.
        values, xs, ys = args[:3]
        return {span_name + ".bytes": xs.nbytes + ys.nbytes
                + 4 * xs.size * values.itemsize + _nbytes(result)}
    if span_name.startswith("kernels."):
        # Computed from array sizes: elementwise kernels read every input
        # element and write every output element once.
        return {span_name + ".bytes": _nbytes(tuple(args)) + _nbytes(result)}
    if span_name == "topology.find":
        return {"topology.candidate_px": _candidate_px(args[0]),
                "topology.singularities": len(result)}
    if span_name == "scenarios.suite":
        return {"scenarios.capacity_s": (kwargs.get("workers") or 1) * dt}
    return {}


class Tracer:
    """Collects spans from the main thread and from suite worker threads."""

    def __init__(self):
        self.spans: List[tuple] = []  # (id, name, start, end, parent, case)
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_top: Optional[tuple] = None
        self._lock = threading.Lock()
        self._saved: List[tuple] = []
        self.t0 = time.perf_counter()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name: str, fn, args, kwargs, case: Optional[str] = None):
        """Run fn(*args, **kwargs) as one span; case defaults to the parent's."""
        stack = self._stack()
        on_main = threading.current_thread() is threading.main_thread()
        # A worker thread starts with an empty stack; its caller is the span
        # the main thread has open (the suite waiting on the pool).
        top = stack[-1] if stack else (None if on_main else self._main_top)
        parent, parent_case = top if top else (None, None)
        sid = next(self._ids)
        frame = (sid, case if case is not None else parent_case)
        stack.append(frame)
        if on_main:
            self._main_top = frame
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            if on_main:
                self._main_top = stack[-1] if stack else None
            self.spans.append((sid, name, t0, t1, parent, frame[1]))
        extra = _counts(name, args, kwargs, result, t1 - t0)
        with self._lock:
            self.counts[name + ".calls"] += 1
            for key, value in extra.items():
                self.counts[key] += value
        return result

    def install(self) -> None:
        for mod_name, attr, span_name in WRAPS:
            mod = importlib.import_module("vecherald." + mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrapper(span_name, original, attr == "run_scenario"))

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, original = self._saved.pop()
            setattr(mod, attr, original)

    def _wrapper(self, span_name: str, fn, names_case: bool):
        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            case = args[0].label if names_case else None
            return self.call(span_name, fn, args, kwargs, case=case)
        return wrapped

    def dump(self) -> List[Dict]:
        return [{"id": sid, "name": name, "start": t0 - self.t0, "end": t1 - self.t0,
                 "parent": parent, "case": case}
                for sid, name, t0, t1, parent, case in sorted(self.spans)]

    def self_times(self) -> Dict[int, float]:
        """Span duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for _, _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out = {}
        for sid, _, t0, t1, _, _ in self.spans:
            covered = 0.0
            end = -np.inf
            for c0, c1 in sorted(children.get(sid, ())):
                c0 = max(c0, end)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out

    def layer_metrics(self, n_passes: int, bytes_written: int,
                      files_written: int) -> Dict[str, float]:
        """Per-layer metrics per traced pass (sums divided by n_passes)."""
        busy = defaultdict(float)
        self_busy = defaultdict(float)
        selfs = self.self_times()
        capacity = self.counts["scenarios.capacity_s"]
        for sid, name, t0, t1, parent, _ in self.spans:
            busy[name] += t1 - t0
            self_busy[name] += selfs[sid]
            if name == "scenarios.case" and parent is None:
                capacity += t1 - t0  # a case the benchmark runs itself, one worker
        c = self.counts
        m = {metric: busy[span] for span, metric in TIME_METRICS.items()}
        m["fileio.other_write_s"] = self_busy["fileio.export"]
        m["fileio.bytes_written"] = float(bytes_written)
        m["fileio.files_written"] = float(files_written)
        m["scenarios.self_s"] = self_busy["scenarios.case"] + self_busy["scenarios.suite"]
        m["topology.candidate_px"] = c["topology.candidate_px"]
        m["topology.loops"] = c["topology.loop.calls"]
        m["topology.singularities"] = c["topology.singularities"]
        m["fields.modes"] = c["fields.mode.calls"]
        for k in KERNELS:
            m[f"kernels.{k}.calls"] = c[f"kernels.{k}.calls"]
            m[f"kernels.{k}.s"] = busy["kernels." + k]
            m[f"kernels.{k}.bytes"] = c[f"kernels.{k}.bytes"]
        m = {k: v / n_passes for k, v in m.items()}
        write_s = sum(m[k] for k in ("fileio.matrix_write_s", "fileio.manifest_s",
                                     "fileio.preview_s", "fileio.other_write_s"))
        m["fileio.write_mb_per_s"] = (m["fileio.bytes_written"] / 1e6 / write_s
                                      if m["fileio.bytes_written"] else 0.0)
        m["scenarios.worker_busy_frac"] = (busy["scenarios.case"] / capacity
                                           if capacity else 0.0)
        m["topology.kept_ratio"] = (c["topology.singularities"] / c["topology.loop.calls"]
                                    if c["topology.loop.calls"] else 0.0)
        return m
