"""Pipeline benchmark for vecherald.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (figure_suites, grid_scaling, noisy_topology) in this
process, or each of them in a fresh child process with ``--workload all``.
The program is imported from ``src/`` of the checkout this file sits in.
Timed passes repeat until they have taken S seconds; every time is a median
over passes.  ``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones.  ``--tiny`` shrinks every grid for a
smoke test and skips the reference comparison.

Lines before the last describe the environment and every metric; the last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any check failed.  Each run also
stores its environment, metrics and (traced) spans under perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("figure_suites", "grid_scaling", "noisy_topology")
SETUP_REPEATS = 4  # fresh-interpreter set-ups timed before each pass

E2E_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
DETAIL_UNITS = {"suite_s": "s", "reanalyze_s": "s", "artifact_mb": "MB",
                "scenario_s": "s",  # one entry per grid size, e.g. scenario_s.1024
                "noisy_s": "s", "net_index_ok_frac": "fraction", "failed_frac": "fraction"}
LAYER_UNITS = {
    "fileio.matrix_write_s": "s", "fileio.manifest_s": "s", "fileio.preview_s": "s",
    "fileio.other_write_s": "s", "fileio.read_s": "s", "fileio.bytes_written": "B",
    "fileio.files_written": "count", "fileio.write_mb_per_s": "MB/s",
    "scenarios.worker_busy_frac": "fraction", "scenarios.self_s": "s",
    "scenarios.summary_s": "s",
    "topology.find_s": "s", "topology.candidate_px": "count", "topology.loops": "count",
    "topology.singularities": "count", "topology.kept_ratio": "fraction",
    "topology.net_index_ok_frac": "fraction", "topology.rotation_s": "s",
    "topology.lobes_s": "s",
    "fields.synth_s": "s", "fields.translate_s": "s", "fields.modes": "count",
    "polarimetry.frames_s": "s", "polarimetry.stokes_s": "s",
    "polarimetry.reconstruct_s": "s", "polarimetry.ellipse_s": "s",
    "polarimetry.homogeneity_s": "s", "kets.state_s": "s",
    "trace.overhead_frac": "fraction",
}
for _k in ("lg_samples", "retarder_apply", "stokes_from_hv", "bilinear_sample"):
    LAYER_UNITS.update({f"kernels.{_k}.calls": "count", f"kernels.{_k}.s": "s",
                        f"kernels.{_k}.bytes": "bytes-computed"})

# What a user pays before the first scenario: a fresh interpreter importing
# the CLI and loading the packaged case lists.
SETUP_CODE = """\
import json, sys
sys.path.insert(0, {src!r})
import vecherald.cli
from importlib import resources
from vecherald.scenarios import ScenarioConfig
for fig in ("fig2", "fig4", "fig5"):
    doc = json.loads(resources.files("vecherald").joinpath(
        "configs/" + fig + ".json").read_text(encoding="utf-8"))
    [ScenarioConfig.from_dict(c) for c in doc["cases"]]
"""


def import_program():
    """Import vecherald from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "vecherald", "__init__.py")):
        raise SystemExit(f"error: no vecherald sources under {SRC}")
    sys.path.insert(0, SRC)
    import vecherald
    if not os.path.abspath(vecherald.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: vecherald imported from {vecherald.__file__}, not {SRC}")
    return vecherald


def git_commit():
    """HEAD of the checkout, read from .git; None outside a git work tree."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), "r", encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:]), "r", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(args) -> dict:
    import numpy
    from vecherald import backend
    return {"nproc": os.cpu_count(), "cpu": cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "backend": backend.BACKEND, "numba_importable": backend.HAS_NUMBA,
            "commit": git_commit(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny}


def measure_setup(repeats: int) -> list:
    code = SETUP_CODE.format(src=SRC)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def run_workload(args) -> int:
    import_program()
    from tracing import Tracer
    from workloads import WORKLOADS

    env = environment(args)
    print("env " + json.dumps(env, sort_keys=True))
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=args.workload + "-", dir=work_root)
    tracer = Tracer()
    plain, traced, setup_times = [], [], []
    measured = 0.0
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, work_dir)
        while True:
            # Set-up is sampled before every pass, so its median spans the
            # same stretch of time as the passes.
            setup_times += measure_setup(1 if args.tiny else SETUP_REPEATS)
            start = time.perf_counter()
            if args.trace and len(plain) > len(traced):
                tracer.install()
                try:
                    traced.append(workload.run_pass(tracer))
                finally:
                    tracer.uninstall()
            else:
                plain.append(workload.run_pass(None))
            measured += time.perf_counter() - start
            if measured >= args.seconds and (traced or not args.trace):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    tally = workload.tally
    e2e = {"setup_s": statistics.median(setup_times),
           "pass_s": statistics.median(p.timed_s for p in plain),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    details = {name: statistics.median(p.parts[name] for p in plain)
               for name in plain[0].parts}
    if plain[0].bytes_written:
        details["artifact_mb"] = statistics.median(p.bytes_written for p in plain) / 1e6
    net_frac = tally.net_ok / tally.net_cases if tally.net_cases else 0.0
    details["net_index_ok_frac"] = net_frac
    details["failed_frac"] = tally.failed / max(tally.attempted, 1)
    layers = {}
    if traced:
        layers = tracer.layer_metrics(len(traced),
                                      sum(p.bytes_written for p in traced),
                                      sum(p.files_written for p in traced))
        layers["topology.net_index_ok_frac"] = net_frac
        layers["trace.overhead_frac"] = (statistics.median(p.timed_s for p in traced)
                                         / e2e["pass_s"] - 1.0)

    print(f"passes untraced={len(plain)} traced={len(traced)}; times are medians over passes")
    for name, value in e2e.items():
        print(f"metric {name} {value:.6g} {E2E_UNITS[name]}")
    for name, value in details.items():
        print(f"detail {name} {value:.6g} {DETAIL_UNITS[name.split('.')[0]]}")
    for name, value in sorted(layers.items()):
        print(f"layer {name} {value:.6g} {LAYER_UNITS[name]}")

    chosen, units = (layers, LAYER_UNITS) if args.trace else (e2e, E2E_UNITS)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in chosen.items()}}
    save_record(args, {"env": env, "end_to_end": e2e, "details": details,
                       "per_layer": layers, "attempted": tally.attempted,
                       "failed": tally.failed,
                       "passes": {"untraced": [vars(p) for p in plain],
                                  "traced": [vars(p) for p in traced]},
                       "spans": tracer.dump()})
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


def save_record(args, record: dict) -> None:
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}.json"
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True)


def run_all(args) -> int:
    """Each workload in its own fresh process, so set-up and memory are its own."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    # Termination unwinds like an error, so temporary exports are removed and
    # set-up children are killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke test: tiny grids, no reference comparison")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
