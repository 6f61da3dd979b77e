"""The benchmark's three workloads and their correctness checks.

Each workload builds its inputs from the benchmark seed, then runs timed
passes through vecherald's public functions.  A pass returns its timed parts
(seconds spent inside program calls) and tallies the checks made after the
clock stops:

* every case's central singularity (index, class, radial lines), S3 lobes,
  rotation and homogeneity against ``reference.json``, recorded from the
  program by ``make_reference.py``;
* for exported runs, a re-read of the ``stokes/`` export whose re-analysis
  must reproduce the in-memory singularity list and lobe count;
* the net winding index inside one waist, which a correct detector conserves
  (reported as an accuracy figure, not counted as a failure).
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import sys
import tempfile
import time
import traceback
from importlib import resources
from typing import Dict, List

import numpy as np

from vecherald import fileio, scenarios, topology
from vecherald.scenarios import ScenarioConfig

FIGURES = ("fig2", "fig4", "fig5")
GRID_SIZES = (256, 512, 1024)
NOISE_RMS = 0.03
NOISY_SIZE = 256
NOISY_SEEDS = 6
TINY_SIZES = (24, 32, 40)  # smoke-test grids; no reference exists for them
WORKERS = min(2, os.cpu_count() or 1)

# Held before any tracing wrapper is installed, so checks never show up as
# program work in a traced pass.
_disclination_index = topology.disclination_index

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")


def load_cases(figure: str) -> Dict:
    """The packaged case list of one figure suite."""
    text = resources.files("vecherald").joinpath(f"configs/{figure}.json").read_text(
        encoding="utf-8")
    return json.loads(text)


def load_reference() -> Dict[str, Dict]:
    with open(REFERENCE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def grid_configs(sizes) -> List[ScenarioConfig]:
    return [ScenarioConfig(label="fp_q05_A", pump_kind="FP", pump_charge=0.5,
                           herald="A", nx=n, ny=n) for n in sizes]


def noisy_configs(n: int) -> List[ScenarioConfig]:
    """Noiseless twins of the noisy cases: FP q=3/2 on D, VV q=1 unheralded."""
    return [ScenarioConfig(label="fp_q15_D", pump_kind="FP", pump_charge=1.5,
                           herald="D", nx=n, ny=n),
            ScenarioConfig(label="vv_q10_none", pump_kind="VV", pump_charge=1.0,
                           herald="none", nx=n, ny=n)]


def reference_configs() -> List[ScenarioConfig]:
    """Every case the benchmark checks against reference.json."""
    return ([ScenarioConfig.from_dict(c) for fig in FIGURES for c in load_cases(fig)["cases"]]
            + grid_configs(GRID_SIZES) + noisy_configs(NOISY_SIZE))


def case_key(cfg: ScenarioConfig) -> str:
    return f"{cfg.label}@{cfg.nx}"


def physics(res) -> Dict:
    """Outputs a detector fix may not change; the singularity count is left out."""
    central = min(res.singularities, key=lambda s: np.hypot(*s.location), default=None)
    return {"index": None if central is None else central.index,
            "class": None if central is None else central.label,
            "radial_lines": None if central is None else central.radial_lines,
            "s3_lobes": res.s3_lobes,
            "rotation": res.rotation,
            "homogeneity": res.homogeneity}


def physics_mismatch(ref: Dict, got: Dict) -> List[str]:
    bad = [k for k in ("index", "class", "radial_lines", "s3_lobes") if ref[k] != got[k]]
    if (ref["rotation"] is None) != (got["rotation"] is None) or (
            ref["rotation"] is not None and abs(ref["rotation"] - got["rotation"]) > 1e-6):
        bad.append("rotation")
    if abs(ref["homogeneity"] - got["homogeneity"]) > 1e-9 * abs(ref["homogeneity"]):
        bad.append("homogeneity")
    return bad


def same_singularities(a, b) -> bool:
    return len(a) == len(b) and all(
        (p.kind, p.index, p.label, p.radial_lines) == (q.kind, q.index, q.label, q.radial_lines)
        and np.hypot(p.location[0] - q.location[0], p.location[1] - q.location[1]) <= 1e-9
        for p, q in zip(a, b))


def net_index(singularities, radius: float) -> float:
    return sum(s.index for s in singularities if np.hypot(*s.location) < radius)


def expected_net_index(smap, radius: float) -> float:
    return _disclination_index(smap, (0.0, 0.0), radius)[0]


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    net_ok: int = 0
    net_cases: int = 0

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {what}", file=sys.stderr)

    def net(self, ok: bool) -> None:
        self.net_cases += 1
        self.net_ok += int(ok)


@dataclasses.dataclass
class Pass:
    parts: Dict[str, float]
    timed_s: float
    bytes_written: int = 0
    files_written: int = 0


class Workload:
    """Common set-up: inputs from the seed, reference, a warm-up run."""

    def __init__(self, seed: int, tiny: bool, work_dir: str):
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.reference = None if tiny else load_reference()
        self.tally = Tally()
        scenarios.run_scenario(ScenarioConfig(herald="A", nx=32, ny=32))

    def check(self, cfg: ScenarioConfig, res) -> None:
        """Compare one case with the reference (skipped on smoke-test grids)."""
        if self.reference is None:
            self.tally.op(True, cfg.label)
            return
        ref = self.reference.get(case_key(cfg))
        bad = ["no reference"] if ref is None else physics_mismatch(ref, physics(res))
        self.tally.op(not bad, f"{case_key(cfg)}: {', '.join(bad)}")

    def run_case(self, cfg: ScenarioConfig):
        """One timed compute-only scenario; returns (seconds, result or None)."""
        t0 = time.perf_counter()
        try:
            res = scenarios.run_scenario(cfg)
        except Exception:  # noqa: BLE001 - counted as a failed operation
            traceback.print_exc()
            res = None
        return time.perf_counter() - t0, res


class FigureSuites(Workload):
    """fig2, fig4 and fig5 with full export, then the `topology --stokes` path."""

    def __init__(self, seed: int, tiny: bool, work_dir: str):
        super().__init__(seed, tiny, work_dir)
        self.docs = {fig: load_cases(fig) for fig in FIGURES}
        if tiny:
            for doc in self.docs.values():
                for case in doc["cases"]:
                    case["grid"] = dict(case["grid"], nx=TINY_SIZES[1], ny=TINY_SIZES[1])

    def run_pass(self, tracer) -> Pass:
        # The seed orders the suites and the cases within each suite.
        figures = list(FIGURES)
        self.rng.shuffle(figures)
        docs = {}
        for fig in figures:
            cases = list(self.docs[fig]["cases"])
            self.rng.shuffle(cases)
            docs[fig] = dict(self.docs[fig], cases=cases)
        out_root = tempfile.mkdtemp(prefix="suites-", dir=self.work_dir)
        try:
            return self._run(docs, out_root, tracer)
        finally:
            shutil.rmtree(out_root)

    def _run(self, docs: Dict, out_root: str, tracer) -> Pass:
        results = {}
        t0 = time.perf_counter()
        for fig, doc in docs.items():
            try:
                results[fig] = scenarios.run_figure_suite(
                    fig, os.path.join(out_root, fig), workers=WORKERS, cases_doc=doc)
            except Exception:  # noqa: BLE001 - counted as failed operations
                traceback.print_exc()
        t1 = time.perf_counter()
        reread = {}
        for res in (r for res_list in results.values() for r in res_list):
            stokes_dir = os.path.join(res.out_dir, "stokes")
            try:
                reread[res.out_dir] = (
                    _reanalyze(stokes_dir) if tracer is None else
                    tracer.call("bench.reanalyze", _reanalyze, (stokes_dir,), {},
                                case=res.config.label))
            except Exception:  # noqa: BLE001 - counted as a failed operation
                traceback.print_exc()
        t2 = time.perf_counter()

        for fig, doc in docs.items():
            if fig not in results:
                for _ in range(2 * len(doc["cases"])):
                    self.tally.op(False, f"{fig} suite")
                continue
            for res in results[fig]:
                self.check(res.config, res)
                found, lobes = reread.get(res.out_dir, (None, None))
                self.tally.op(found is not None and lobes == res.s3_lobes
                              and same_singularities(res.singularities, found),
                              f"{res.config.label}: re-analysis of the export differs")
                self.tally.net(net_index(res.singularities, res.config.waist)
                               == expected_net_index(res.stokes, res.config.waist))
        sizes = [os.path.getsize(os.path.join(d, f))
                 for d, _, files in os.walk(out_root) for f in files]
        return Pass(parts={"suite_s": t1 - t0, "reanalyze_s": t2 - t1},
                    timed_s=t2 - t0, bytes_written=sum(sizes), files_written=len(sizes))


def _reanalyze(stokes_dir: str):
    """What `vecherald topology --stokes DIR` computes from an export."""
    smap = fileio.read_stokes(stokes_dir)
    lobes = topology.s3_lobe_count(smap) if smap.grid.half_width > 1.2 else 0
    return topology.find_singularities(smap), lobes


class GridScaling(Workload):
    """FP q=1/2 heralded on A, compute only, at three grid sizes."""

    def __init__(self, seed: int, tiny: bool, work_dir: str):
        super().__init__(seed, tiny, work_dir)
        self.cfgs = grid_configs(TINY_SIZES if tiny else GRID_SIZES)

    def run_pass(self, tracer) -> Pass:
        # A fixed order, independent of the seed: peak memory depends on
        # which sizes ran before the largest one.
        parts = {}
        for cfg in self.cfgs:
            dt, res = self.run_case(cfg)
            parts[f"scenario_s.{cfg.nx}"] = dt
            if res is None:
                self.tally.op(False, case_key(cfg))
                continue
            self.check(cfg, res)
            self.tally.net(net_index(res.singularities, cfg.waist)
                           == expected_net_index(res.stokes, cfg.waist))
        return Pass(parts=parts, timed_s=sum(parts.values()))


class NoisyTopology(Workload):
    """Two textures under polarimeter noise, six noise seeds each per pass."""

    def __init__(self, seed: int, tiny: bool, work_dir: str):
        super().__init__(seed, tiny, work_dir)
        self.bases = []
        for cfg in noisy_configs(TINY_SIZES[1] if tiny else NOISY_SIZE):
            # The noiseless twin sets the expected net index and is itself
            # checked against the reference; it is not timed.
            res = scenarios.run_scenario(cfg)
            self.check(cfg, res)
            self.bases.append((cfg, expected_net_index(res.stokes, cfg.waist)))

    def run_pass(self, tracer) -> Pass:
        total = 0.0
        for cfg, expected in self.bases:
            for _ in range(NOISY_SEEDS):
                seed = self.rng.randrange(2 ** 31)
                noisy = dataclasses.replace(cfg, label=f"{cfg.label}_noise{seed}",
                                            noise_rms=NOISE_RMS, seed=seed)
                dt, res = self.run_case(noisy)
                total += dt
                self.tally.op(res is not None, noisy.label)
                if res is not None:
                    self.tally.net(net_index(res.singularities, cfg.waist) == expected)
        return Pass(parts={"noisy_s": total}, timed_s=total)


WORKLOADS = {"figure_suites": FigureSuites, "grid_scaling": GridScaling,
             "noisy_topology": NoisyTopology}
