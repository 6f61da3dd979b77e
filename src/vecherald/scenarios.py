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
from .fields import BASIS_PAIR, GridSpec, VectorField, make_grid
# Unused here; perfbench/tracing.py wraps these names in this module.
from .fields import gaussian_helical_mode, lg_mode, translate  # noqa: F401
from .kets import (POL_LABELS, PolKet, PumpSpec, SpdcConfig, basis_change,
                   coincidence_probability, degraded_bell_state, herald,
                   ket_to_field, project_idler_oam0, pump_state, spdc_state,
                   visibility_in_basis)
from .polarimetry import (EllipseMap, PolarimeterConfig, StokesMap,
                          ellipse_map, reconstruct_stokes, response_matrix,
                          default_angles, simulate_frames, stokes_homogeneity,
                          stokes_of_field)
from .qplate import plate_from_preset, qplate_apply_ket
from .topology import (SingularityReport, find_singularities,
                       rotation_between, s3_lobe_count)

HERALD_LABELS = ("none",) + POL_LABELS

# Relative pump phase applied when a config leaves it unset, keyed by 2q.
DEFAULT_PUMP_PHASE = {1: 0.0, 2: np.pi, 3: 0.25 * np.pi}

FIGURE_IDS = ("fig2", "fig3", "fig4", "fig5", "correlations")

_TOP_KEYS = {"label", "pump", "qplate", "herald", "grid", "waist", "envelope",
             "polarimeter", "spdc", "offset"}
_QPLATE_KEYS = {"charge", "retardance", "axis_offset", "input_pol", "input_ell"}


def _section(value, allowed: Optional[set], where: str) -> Dict:
    """A nested config object ({} when null); allowed=None accepts any key."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{where} config must be an object, got {value!r}")
    unknown = set(value) - allowed if allowed is not None else set()
    if unknown:
        raise ValueError(f"unknown {where} config keys: {sorted(unknown)}")
    return value


def _amplitude(value) -> complex:
    """A spectrum amplitude: a number or an [re, im] pair."""
    if isinstance(value, (list, tuple)):
        if len(value) != 2:
            raise ValueError(f"spectrum amplitude must be [re, im], got {value!r}")
        return complex(value[0], value[1])
    return complex(value)


def _integer(value, name: str) -> int:
    """A config count or seed; int() alone would truncate 64.7 to 64."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, got {value}")
    return int(value)


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
        for name in ("offset_dx", "offset_dy", "waist"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.waist > 0:
            raise ValueError(f"waist must be positive, got {self.waist}")
        if np.hypot(self.offset_dx, self.offset_dy) >= 0.5:
            raise ValueError("offset magnitude must stay under half a waist")
        if self.offset_applies_to not in ("signal", "pump"):
            raise ValueError("offset applies_to must be 'signal' or 'pump'")
        if self.qplate is not None:
            _section(self.qplate, _QPLATE_KEYS, "qplate")
        if self.angles is not None:
            self.angles = tuple(float(a) for a in self.angles)
        # Build what a run builds: each object rejects its own bad values here,
        # before any compute starts.
        self.grid()
        response_matrix(self.polarimeter_config())
        self.spdc_config()
        _pump_ket(self)

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
        _section(doc, _TOP_KEYS, "scenario")
        pump = _section(doc.get("pump"), {"kind", "charge", "phase"}, "pump")
        grid = _section(doc.get("grid"), {"nx", "ny", "half_width"}, "grid")
        pol = _section(doc.get("polarimeter"), {"angles", "n_angles", "noise_rms", "seed"},
                       "polarimeter")
        spdc = _section(doc.get("spdc"), {"crystal_phase", "spectrum"}, "spdc")
        off = _section(doc.get("offset"), {"dx", "dy", "applies_to"}, "offset")
        angles = pol.get("angles")
        if angles is None and "n_angles" in pol:
            angles = default_angles(_integer(pol["n_angles"], "polarimeter.n_angles"))
        spectrum = None
        if spdc.get("spectrum"):
            raw = _section(spdc["spectrum"], None, "spdc.spectrum")
            spectrum = {int(ell): _amplitude(amp) for ell, amp in raw.items()}
        return cls(
            label=str(doc.get("label", "scenario")),
            pump_kind=str(pump.get("kind", "FP")),
            pump_charge=float(pump.get("charge", 0.5)),
            pump_phase=None if pump.get("phase") is None else float(pump["phase"]),
            qplate=doc.get("qplate"),
            herald=str(doc.get("herald", "none")),
            nx=_integer(grid.get("nx", 256), "grid.nx"),
            ny=_integer(grid.get("ny", 256), "grid.ny"),
            half_width=float(grid.get("half_width", 4.0)),
            waist=float(doc.get("waist", 1.0)),
            envelope=str(doc.get("envelope", "lg")),
            angles=None if angles is None else tuple(float(a) for a in angles),
            noise_rms=float(pol.get("noise_rms", 0.0)),
            seed=_integer(pol.get("seed", 0), "polarimeter.seed"),
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
            "pump": None if self.qplate is not None else {
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
    seed_ell = _integer(qp.get("input_ell", 0), "qplate.input_ell")
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
    return ket_to_field(kl, grid, waist, envelope=envelope,
                        centers={_offset_constituent(kl): (dx, dy)})


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
    fileio.write_json(os.path.join(out_dir, "config.json"), cfg_doc)
    files.append("config.json")

    fileio.write_ket(os.path.join(out_dir, "pump_ket.json"), res.pump_ket)
    files.append("pump_ket.json")
    if res.heralded_ket is not None:
        fileio.write_ket(os.path.join(out_dir, "heralded_ket.json"), res.heralded_ket)
        files.append("heralded_ket.json")

    files += ["pump/" + n for n in fileio.write_stokes(os.path.join(out_dir, "pump"), res.pump_stokes)]

    for ch, comp in zip(res.field.basis, (res.field.comp1, res.field.comp2)):
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
    fileio.write_json(os.path.join(out_dir, "metrics.json"), metrics)
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
            for basis in ("HV", "DA"):
                for idler in BASIS_PAIR[basis]:
                    for t in th:
                        p = coincidence_probability(b, float(t), idler)
                        fh.write(f"{basis},{idler},{t:.17g},{p:.17g}\n")
                summary.append([label, basis, f"{visibility_in_basis(b, basis):.12g}"])
        files.append(name)
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
