"""End-to-end pipelines: pump, heralded field, polarimetry, topology, export.

A scenario is one fully specified run. Figure suites enumerate case lists
shipped as packaged JSON data and add a summary table. Scenarios are
independent, so the suite can run them on a thread pool; every scenario
writes only inside its own directory.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import fileio
from .fields import (GridSpec, ScalarField, VectorField, gaussian_helical_mode,
                     lg_mode, make_grid, zero_scalar)
from .fields import translate  # noqa: F401 - unused here; perfbench/tracing.py wraps it
from .kets import (PolKet, PumpSpec, SpdcConfig, basis_change,
                   coincidence_probability, degraded_bell_state, herald,
                   ket_to_field, project_idler_oam0, pump_state, spdc_state,
                   visibility_in_basis)
from .polarimetry import (EllipseMap, PolarimeterConfig, StokesMap,
                          ellipse_map, reconstruct_stokes, simulate_frames,
                          stokes_homogeneity, stokes_of_field)
from .qplate import plate_from_preset, qplate_apply_ket
from .topology import (SingularityReport, find_singularities,
                       rotation_between, s3_lobe_count)

HERALD_LABELS = ("none", "H", "V", "D", "A", "L", "R")

# Relative pump phase applied when a config leaves it unset, keyed by 2q.
DEFAULT_PUMP_PHASE = {1: 0.0, 2: np.pi, 3: 0.25 * np.pi}

FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5", "correlations")

_TOP_KEYS = {"label", "pump", "qplate", "herald", "grid", "waist", "envelope",
             "polarimeter", "spdc", "offset"}
_QPLATE_KEYS = {"charge", "retardance", "axis_offset", "input_pol", "input_ell"}


def _check_keys(doc: Dict, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown {where} config keys: {sorted(unknown)}")


@dataclass
class ScenarioConfig:
    """One run: pump family (or plate on a uniform input), herald, analysis."""

    label: str = "scenario"
    pump_kind: str = "FP"
    pump_charge: float = 0.5
    pump_phase: Optional[float] = None
    qplate: Optional[Dict] = None
    herald: str = "none"
    nx: int = 256
    ny: int = 256
    half_width: float = 4.0
    waist: float = 1.0
    envelope: str = "lg"
    angles: Optional[Tuple[float, ...]] = None
    noise_rms: float = 0.0
    seed: int = 0
    crystal_phase: float = 0.0
    spectrum: Optional[Dict[int, complex]] = None
    offset_dx: float = 0.0
    offset_dy: float = 0.0
    offset_applies_to: str = "signal"

    def __post_init__(self):
        if self.herald not in HERALD_LABELS:
            raise ValueError(f"herald must be one of {HERALD_LABELS}, got {self.herald!r}")
        if self.envelope not in ("lg", "gaussian"):
            raise ValueError(f"envelope must be 'lg' or 'gaussian', got {self.envelope!r}")
        for name in ("offset_dx", "offset_dy", "half_width", "waist"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.waist > 0:
            raise ValueError(f"waist must be positive, got {self.waist}")
        if np.hypot(self.offset_dx, self.offset_dy) >= 0.5:
            raise ValueError("offset magnitude must stay under half a waist")
        if self.offset_applies_to not in ("signal", "pump"):
            raise ValueError("offset applies_to must be 'signal' or 'pump'")
        if self.qplate is None:
            PumpSpec(self.pump_kind, self.pump_charge, 0.0)
        else:
            _check_keys(self.qplate, _QPLATE_KEYS, "qplate")
        if self.angles is not None:
            self.angles = tuple(float(a) for a in self.angles)
            if len(self.angles) < 4:
                raise ValueError("need at least 4 analyzer angles")

    def resolved_phase(self) -> float:
        if self.pump_phase is not None:
            return float(self.pump_phase)
        return DEFAULT_PUMP_PHASE.get(int(round(2.0 * self.pump_charge)), 0.0)

    def grid(self) -> GridSpec:
        return make_grid(self.nx, self.ny, self.half_width)

    def polarimeter_config(self) -> PolarimeterConfig:
        if self.angles is None:
            return PolarimeterConfig(noise_rms=self.noise_rms, seed=self.seed)
        return PolarimeterConfig(angles=self.angles, noise_rms=self.noise_rms,
                                 seed=self.seed)

    def spdc_config(self) -> SpdcConfig:
        return SpdcConfig(spectrum=dict(self.spectrum) if self.spectrum else None,
                          crystal_phase=self.crystal_phase)

    @classmethod
    def from_dict(cls, doc: Dict) -> "ScenarioConfig":
        _check_keys(doc, _TOP_KEYS, "scenario")
        pump = doc.get("pump") or {}
        _check_keys(pump, {"kind", "charge", "phase"}, "pump")
        grid = doc.get("grid") or {}
        _check_keys(grid, {"nx", "ny", "half_width"}, "grid")
        pol = doc.get("polarimeter") or {}
        _check_keys(pol, {"angles", "n_angles", "noise_rms", "seed"}, "polarimeter")
        spdc = doc.get("spdc") or {}
        _check_keys(spdc, {"crystal_phase", "spectrum"}, "spdc")
        off = doc.get("offset") or {}
        _check_keys(off, {"dx", "dy", "applies_to"}, "offset")
        angles = pol.get("angles")
        if angles is None and "n_angles" in pol:
            n = int(pol["n_angles"])
            angles = [k * np.pi / n for k in range(n)]
        spectrum = None
        if spdc.get("spectrum"):
            spectrum = {}
            for ell, amp in spdc["spectrum"].items():
                if isinstance(amp, (list, tuple)):
                    spectrum[int(ell)] = complex(amp[0], amp[1])
                else:
                    spectrum[int(ell)] = complex(amp)
        return cls(
            label=str(doc.get("label", "scenario")),
            pump_kind=str(pump.get("kind", "FP")),
            pump_charge=float(pump.get("charge", 0.5)),
            pump_phase=None if pump.get("phase") is None else float(pump["phase"]),
            qplate=doc.get("qplate"),
            herald=str(doc.get("herald", "none")),
            nx=int(grid.get("nx", 256)),
            ny=int(grid.get("ny", 256)),
            half_width=float(grid.get("half_width", 4.0)),
            waist=float(doc.get("waist", 1.0)),
            envelope=str(doc.get("envelope", "lg")),
            angles=None if angles is None else tuple(float(a) for a in angles),
            noise_rms=float(pol.get("noise_rms", 0.0)),
            seed=int(pol.get("seed", 0)),
            crystal_phase=float(spdc.get("crystal_phase", 0.0)),
            spectrum=spectrum,
            offset_dx=float(off.get("dx", 0.0)),
            offset_dy=float(off.get("dy", 0.0)),
            offset_applies_to=str(off.get("applies_to", "signal")),
        )

    def to_dict(self) -> Dict:
        spectrum = None
        if self.spectrum:
            spectrum = {str(ell): [c.real, c.imag]
                        for ell, c in sorted(self.spectrum.items())}
        return {
            "label": self.label,
            "pump": None if self.qplate else {
                "kind": self.pump_kind, "charge": self.pump_charge,
                "phase": self.pump_phase},
            "qplate": self.qplate,
            "herald": self.herald,
            "grid": {"nx": self.nx, "ny": self.ny, "half_width": self.half_width},
            "waist": self.waist,
            "envelope": self.envelope,
            "polarimeter": {
                "angles": None if self.angles is None else list(self.angles),
                "noise_rms": self.noise_rms, "seed": self.seed},
            "spdc": {"crystal_phase": self.crystal_phase, "spectrum": spectrum},
            "offset": {"dx": self.offset_dx, "dy": self.offset_dy,
                       "applies_to": self.offset_applies_to},
        }


@dataclass
class ScenarioResult:
    config: ScenarioConfig
    pump_ket: PolKet
    pump_field: VectorField
    pump_stokes: StokesMap
    heralded_ket: Optional[PolKet]
    field: VectorField
    frames: np.ndarray
    stokes: StokesMap
    ellipses: EllipseMap
    singularities: List[SingularityReport]
    rotation: Optional[float]
    homogeneity: float
    s3_lobes: int
    out_dir: Optional[str] = None


def _pump_ket(cfg: ScenarioConfig) -> PolKet:
    if cfg.qplate is None:
        spec = PumpSpec(cfg.pump_kind, cfg.pump_charge, cfg.resolved_phase())
        return pump_state(spec)
    qp = cfg.qplate
    plate = plate_from_preset(float(qp.get("charge", 0.5)),
                              qp.get("retardance", "half-wave"),
                              float(qp.get("axis_offset", 0.0)))
    seed_pol = str(qp.get("input_pol", "H"))
    seed_ell = int(qp.get("input_ell", 0))
    return qplate_apply_ket(PolKet.from_terms([(seed_pol, seed_ell, 1.0)]), plate)


def _offset_constituent(kl: PolKet) -> Tuple[str, int]:
    """The constituent the non-concentricity shift lands on.

    The vortex constituent (largest |ell|) is the one displaced; on a tie the
    left-circular component is chosen so the pick stays deterministic.
    """
    return max(sorted(kl.terms), key=lambda key: (abs(key[1]), key[0] == "L"))


def _synthesize(k: PolKet, grid: GridSpec, waist: float, envelope: str,
                dx: float, dy: float) -> VectorField:
    """ket_to_field plus an optional transverse shift of one constituent."""
    if dx == 0.0 and dy == 0.0:
        return ket_to_field(k, grid, waist, envelope=envelope)
    kl = basis_change(k, "LR")
    target = _offset_constituent(kl)
    make = lg_mode if envelope == "lg" else gaussian_helical_mode
    slots: Dict[str, Optional[np.ndarray]] = {"L": None, "R": None}
    for key in sorted(kl.terms):
        pol, ell = key
        center = (dx, dy) if key == target else (0.0, 0.0)
        term = kl.terms[key] * make(grid, ell, waist, center=center).samples
        slots[pol] = term if slots[pol] is None else slots[pol] + term
    comp_l, comp_r = (zero_scalar(grid) if slots[pol] is None
                      else ScalarField(grid, slots[pol]) for pol in "LR")
    return VectorField(grid, comp_l, comp_r, basis="LR")


def run_scenario(cfg: ScenarioConfig, out_dir: Optional[str] = None) -> ScenarioResult:
    """Execute one configured run and optionally export all artifacts."""
    grid = cfg.grid()
    pump_ket = _pump_ket(cfg)
    pump_shift = cfg.offset_applies_to == "pump"
    pump_field = _synthesize(pump_ket, grid, cfg.waist, cfg.envelope,
                             cfg.offset_dx if pump_shift else 0.0,
                             cfg.offset_dy if pump_shift else 0.0)
    pump_stokes = stokes_of_field(pump_field)

    if cfg.herald == "none":
        heralded = None
        field = pump_field
    else:
        try:
            pairs = project_idler_oam0(spdc_state(pump_ket, cfg.spdc_config()))
            heralded = herald(pairs, cfg.herald)
        except ValueError as exc:
            raise RuntimeError(
                "herald selection left a zero-norm state; config: "
                + json.dumps(cfg.to_dict(), sort_keys=True)) from exc
        field = _synthesize(heralded, grid, cfg.waist, cfg.envelope,
                            cfg.offset_dx, cfg.offset_dy)

    pcfg = cfg.polarimeter_config()
    frames = simulate_frames(field, pcfg)
    smap = reconstruct_stokes(frames, pcfg, grid)
    em = ellipse_map(smap)
    singulars = find_singularities(smap)
    homog = stokes_homogeneity(smap)
    lobes = s3_lobe_count(smap) if grid.half_width > 1.2 else 0

    rotation = None
    if heralded is not None:
        try:
            rotation = rotation_between(pump_stokes, smap,
                                        r_max=min(2.0, 0.5 * grid.half_width))
        except ValueError:
            rotation = None

    result = ScenarioResult(
        config=cfg, pump_ket=pump_ket, pump_field=pump_field,
        pump_stokes=pump_stokes, heralded_ket=heralded, field=field,
        frames=frames, stokes=smap, ellipses=em, singularities=singulars,
        rotation=rotation, homogeneity=homog, s3_lobes=lobes)
    if out_dir is not None:
        _write_scenario(result, out_dir)
        result.out_dir = out_dir
    return result


def _write_scenario(res: ScenarioResult, out_dir: str) -> None:
    grid = res.stokes.grid
    os.makedirs(out_dir, exist_ok=True)
    for sub in ("pump", "frames", "stokes"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)
    files: List[str] = []

    cfg_doc = res.config.to_dict()
    with open(os.path.join(out_dir, "config.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(cfg_doc, fh, sort_keys=True, indent=2)
        fh.write("\n")
    files.append("config.json")

    fileio.write_ket(os.path.join(out_dir, "pump_ket.json"), res.pump_ket)
    files.append("pump_ket.json")
    if res.heralded_ket is not None:
        fileio.write_ket(os.path.join(out_dir, "heralded_ket.json"), res.heralded_ket)
        files.append("heralded_ket.json")

    files += ["pump/" + n for n in fileio.write_stokes(os.path.join(out_dir, "pump"), res.pump_stokes)]

    for ch, comp in zip(res.field.basis, res.field.component_arrays()):
        fileio.write_complex_matrix(os.path.join(out_dir, f"field_{ch}"), comp, grid)
        files += [f"field_{ch}_re.txt", f"field_{ch}_im.txt"]

    frame_names = fileio.write_frames(os.path.join(out_dir, "frames"), res.frames,
                                      res.config.polarimeter_config().angles, grid)
    files += ["frames/" + n for n in frame_names]

    files += ["stokes/" + n for n in fileio.write_stokes(os.path.join(out_dir, "stokes"), res.stokes)]

    fileio.write_ellipses(os.path.join(out_dir, "ellipses.csv"), res.ellipses)
    files.append("ellipses.csv")
    fileio.write_ppm(os.path.join(out_dir, "preview.ppm"),
                     fileio.render_ellipse_preview(res.stokes, res.ellipses))
    files.append("preview.ppm")
    fileio.write_singularity_report(os.path.join(out_dir, "singularities.json"),
                                    res.singularities)
    files.append("singularities.json")

    metrics = {"homogeneity": res.homogeneity,
               "rotation": res.rotation,
               "s3_lobes": res.s3_lobes,
               "n_singularities": len(res.singularities)}
    with open(os.path.join(out_dir, "metrics.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(metrics, fh, sort_keys=True, indent=2)
        fh.write("\n")
    files.append("metrics.json")

    fileio.write_manifest(out_dir, cfg_doc, files)


def deformation_metric(a: StokesMap, b: StokesMap,
                       intensity_threshold: float = 0.05) -> float:
    """RMS distance between normalized Stokes vectors on the joint bright mask."""
    if a.grid != b.grid:
        raise ValueError("deformation requires a common grid")
    mask = ((a.s0 > intensity_threshold * a.s0.max())
            & (b.s0 > intensity_threshold * b.s0.max()))
    if not mask.any():
        raise ValueError("no overlapping bright pixels")
    acc = 0.0
    for ca, cb in ((a.s1, b.s1), (a.s2, b.s2), (a.s3, b.s3)):
        acc += np.mean((ca[mask] / a.s0[mask] - cb[mask] / b.s0[mask]) ** 2)
    return float(np.sqrt(acc))


def _load_cases(figure: str) -> Dict:
    from importlib import resources
    path = resources.files("vecherald").joinpath(f"configs/{figure}.json")
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


_SUMMARY_COLS = ("label", "pump_kind", "pump_charge", "herald", "offset_dx",
                 "offset_dy", "homogeneity", "rotation", "n_singularities",
                 "index", "class", "radial_lines", "s3_lobes", "deformation")


def _g(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _summary_rows(figure: str, results: List[ScenarioResult]) -> List[List[str]]:
    reference = None
    if figure == "fig4":
        for r in results:
            if r.config.offset_dx == 0.0 and r.config.offset_dy == 0.0:
                reference = r
                break
    rows = []
    for r in results:
        cfg = r.config
        central = min(r.singularities, key=lambda s: np.hypot(*s.location)) \
            if r.singularities else None
        deform = ""
        if reference is not None:
            deform = deformation_metric(reference.stokes, r.stokes)
        rows.append([_g(cfg.label), _g(cfg.pump_kind), _g(cfg.pump_charge),
                     _g(cfg.herald), _g(cfg.offset_dx), _g(cfg.offset_dy),
                     _g(r.homogeneity), _g(r.rotation), _g(len(r.singularities)),
                     _g(central.index if central else ""),
                     _g(central.label if central else ""),
                     _g(central.radial_lines if central else ""),
                     _g(r.s3_lobes), _g(deform)])
    return rows


def _write_summary(path: str, rows: List[List[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_SUMMARY_COLS) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _run_correlations(doc: Dict, out_root: str) -> List[str]:
    th = np.arange(36) * (np.pi / 36)
    files = []
    summary = []
    for case in doc["cases"]:
        label = case["label"]
        b = degraded_bell_state(float(case.get("dephasing", 0.0)),
                                float(case.get("cross_talk", 0.0)),
                                float(case.get("imbalance", 0.0)))
        name = f"{label}_fringes.csv"
        with open(os.path.join(out_root, name), "w", encoding="utf-8",
                  newline="\n") as fh:
            fh.write("basis,idler,theta,probability\n")
            for basis, pair in (("HV", ("H", "V")), ("DA", ("D", "A"))):
                for idler in pair:
                    for t in th:
                        p = coincidence_probability(b, float(t), idler)
                        fh.write(f"{basis},{idler},{t:.17g},{p:.17g}\n")
        files.append(name)
        for basis in ("HV", "DA"):
            summary.append([label, basis, f"{visibility_in_basis(b, basis):.12g}"])
    with open(os.path.join(out_root, "summary.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.write("label,basis,visibility\n")
        for row in summary:
            fh.write(",".join(row) + "\n")
    files.append("summary.csv")
    return files


def run_figure_suite(figure: str, out_root: str,
                     workers: Optional[int] = None,
                     cases_doc: Optional[Dict] = None) -> List[ScenarioResult]:
    """Run every case of one figure and write per-case artifacts + summary.csv.

    cases_doc overrides the packaged case list with the same document shape,
    e.g. to rerun a figure on a coarser grid.
    """
    if figure not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure!r}; choose from {FIGURE_IDS}")
    doc = cases_doc if cases_doc is not None else _load_cases(figure)
    os.makedirs(out_root, exist_ok=True)
    if figure == "correlations":
        files = _run_correlations(doc, out_root)
        fileio.write_manifest(out_root, {"figure": figure, "cases": doc["cases"]}, files)
        return []
    cfgs = [ScenarioConfig.from_dict(c) for c in doc["cases"]]
    dirs = [os.path.join(out_root, c.label) for c in cfgs]
    if workers is not None and workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_scenario, cfgs, dirs))
    else:
        results = [run_scenario(c, d) for c, d in zip(cfgs, dirs)]
    _write_summary(os.path.join(out_root, "summary.csv"),
                   _summary_rows(figure, results))
    fileio.write_manifest(out_root, {"figure": figure,
                                     "cases": [c.to_dict() for c in cfgs]},
                          ["summary.csv"])
    return results
