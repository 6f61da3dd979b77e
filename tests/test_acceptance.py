"""Acceptance checks, one per shipped guarantee, each printing a verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see all ten lines.
"""
import filecmp
import os

import numpy as np

from vecherald.fields import convert_basis, make_grid
from vecherald.kets import (PolKet, PumpSpec, degraded_bell_state,
                            find_visibility_parameters, herald, ket_to_field,
                            max_term_diff, project_idler_oam0, pump_state,
                            spdc_state, visibility_in_basis)
from vecherald.polarimetry import (PolarimeterConfig, reconstruct_stokes,
                                   simulate_frames, stokes_homogeneity,
                                   stokes_of_field)
from vecherald.qplate import QPlateParams, plate_from_preset, qplate_apply_field, \
    qplate_apply_ket
from vecherald.scenarios import (DEFAULT_PUMP_PHASE, ScenarioConfig,
                                 _load_cases, deformation_metric,
                                 run_figure_suite, run_scenario)
from vecherald.topology import (count_radial_lines, find_singularities,
                                radial_line_count, rotation_between)

SQ2 = np.sqrt(2.0)
PUMPS = tuple((kind, q) for kind in ("FP", "VV") for q in (0.5, 1.0, 1.5))


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _pump(kind, q):
    return pump_state(PumpSpec(kind, q, DEFAULT_PUMP_PHASE[int(round(2 * q))]))


def _heralded_ket(kind, q, h):
    return herald(project_idler_oam0(spdc_state(_pump(kind, q))), h)


def _stokes(kind, q, h, n=96, hw=4.0):
    g = make_grid(n, n, hw)
    k = _pump(kind, q) if h is None else _heralded_ket(kind, q, h)
    return stokes_of_field(ket_to_field(k, g))


def test_criterion_01_herald_identities():
    worst = 0.0
    for kind, q in PUMPS:
        phi = DEFAULT_PUMP_PHASE[int(round(2 * q))]
        ll = int(round(2 * q))
        lr = 0 if kind == "FP" else -ll
        e = np.exp(1j * (phi + np.pi))
        wants = {
            "A": PolKet({("L", ll): 1 / SQ2, ("R", lr): e / SQ2}, basis="LR"),
            "D": PolKet({("R", ll): 1 / SQ2, ("L", lr): e / SQ2}, basis="LR"),
            "L": PolKet({("D", ll): 1 / SQ2, ("A", lr): e / SQ2}, basis="DA"),
            "R": PolKet({("A", ll): 1 / SQ2, ("D", lr): e / SQ2}, basis="DA"),
        }
        for h, want in wants.items():
            worst = max(worst, max_term_diff(_heralded_ket(kind, q, h), want))
    _report(1, worst < 1e-12,
            f"herald closed forms over 6 pumps x 4 heralds, max error {worst:.3g}")


def test_criterion_02_plate_unitarity():
    rng = np.random.default_rng(11)
    worst_norm = 0.0
    for _ in range(1000):
        p = QPlateParams(charge=rng.integers(0, 7) / 2,
                         retardance=rng.uniform(0.0, 2.0 * np.pi - 1e-12),
                         axis_offset=rng.uniform(-np.pi, np.pi))
        terms = {}
        for _ in range(int(rng.integers(1, 4))):
            key = (("L", "R")[rng.integers(0, 2)], int(rng.integers(-3, 4)))
            terms[key] = complex(rng.normal(), rng.normal())
        k = PolKet(terms, basis="LR").normalized()
        worst_norm = max(worst_norm, abs(qplate_apply_ket(k, p).norm() - 1.0))

    worst_id = 0.0
    worst_rev = 0.0
    for q in (0.5, 1.0, 1.5):
        for a0 in (0.0, 0.3):
            for pol, ell in (("L", 2), ("R", -1), ("L", 0)):
                k = PolKet({(pol, ell): 1.0}, basis="LR")
                same = qplate_apply_ket(k, QPlateParams(q, 0.0, a0))
                worst_id = max(worst_id, max_term_diff(same, k))
                flip = qplate_apply_ket(k, QPlateParams(q, np.pi, a0))
                kept = np.sqrt(sum(abs(a) ** 2 for (pp, _), a in flip.terms.items()
                                   if pp == pol))
                worst_rev = max(worst_rev, kept)
    ok = worst_norm < 1e-12 and worst_id < 1e-12 and worst_rev < 1e-12
    _report(2, ok, "plate unitarity 1000 draws "
            f"{worst_norm:.3g}, identity {worst_id:.3g}, reversal residual {worst_rev:.3g}")


def test_criterion_03_dual_representation():
    grid = make_grid(256, 256, 4.0)
    plates = (plate_from_preset(0.5, "half-wave"),
              plate_from_preset(1.0, "quarter-wave", 0.2))
    worst = 0.0
    for p in plates:
        for ell in range(-3, 4):
            for pol in ("L", "R"):
                k = PolKet({(pol, ell): 1.0}, basis="LR")
                via_ket = convert_basis(
                    ket_to_field(qplate_apply_ket(k, p), grid, envelope="gaussian"),
                    "HV")
                via_field = convert_basis(
                    qplate_apply_field(ket_to_field(k, grid, envelope="gaussian"), p),
                    "HV")
                for a, b in ((via_ket.comp1, via_field.comp1),
                             (via_ket.comp2, via_field.comp2)):
                    worst = max(worst, float(np.abs(a - b).max()))
    _report(3, worst < 1e-9,
            f"ket vs pointwise plate action on 256^2, |ell|<=3, max diff {worst:.3g}")


def test_criterion_04_polarimeter_roundtrip():
    grid = make_grid(96, 96, 4.0)
    cfg = PolarimeterConfig()
    steps_ok = (len(cfg.angles) == 8
                and max(abs(a - i * np.pi / 8) for i, a in enumerate(cfg.angles)) == 0.0)
    worst = 0.0
    n_fields = 0
    for kind, q in PUMPS:
        for h in ("A", "D", "L", "R"):
            f = ket_to_field(_heralded_ket(kind, q, h), grid)
            want = stokes_of_field(f)
            got = reconstruct_stokes(simulate_frames(f, cfg), cfg, grid)
            scale = want.s0.max()
            for a, b in ((got.s0, want.s0), (got.s1, want.s1),
                         (got.s2, want.s2), (got.s3, want.s3)):
                worst = max(worst, float(np.abs(a - b).max()) / scale)
            n_fields += 1
    ok = steps_ok and n_fields == 24 and worst < 1e-9
    _report(4, ok, f"8-frame reconstruction on {n_fields} fields, max rel error {worst:.3g}")


def test_criterion_05_singularity_classification():
    cases = ((0.5, "D", 0.5, None), (0.5, "A", -0.5, None),
             (1.0, "A", -1.0, "hyperstar"), (1.5, "D", 1.5, None),
             (1.5, "A", -1.5, None))
    seen = {}
    ok = True
    notes = []
    for q, h, want_idx, want_label in cases:
        s = _stokes("FP", q, h)
        reports = find_singularities(s)
        if len(reports) != 1:
            ok = False
            notes.append(f"q={q} {h}: {len(reports)} points")
            continue
        r = reports[0]
        seen[(q, h)] = r.index
        good = (r.index == want_idx and r.residual < 0.05
                and (want_label is None or r.label == want_label))
        try:
            counted = count_radial_lines(s)
            good = good and counted == radial_line_count(r.index) == r.radial_lines
        except ValueError:
            good = False
        if not good:
            ok = False
            notes.append(f"q={q} {h}: idx {r.index} label {r.label} res {r.residual:.3g}")
    ok = ok and seen.get((0.5, "D")) == -seen.get((0.5, "A"))
    detail = ("indices/labels/line counts on 5 heralded maps"
              if ok else "; ".join(notes))
    _report(5, ok, detail)


def test_criterion_06_rotation_law():
    bin_width = 2.0 * np.pi / 256
    errs = []
    for q, n_sym in ((0.5, 3), (1.5, 5)):
        rho = rotation_between(_stokes("FP", q, None), _stokes("FP", q, "A"))
        errs.append(abs(rho - np.pi / n_sym))
    ok = max(errs) < bin_width
    _report(6, ok, f"pump-to-herald rotation pi/3, pi/5; errors {errs[0]:.3g}, {errs[1]:.3g}")


def test_criterion_07_homogeneity_split():
    uniform = []
    structured = []
    for kind, q in (("FP", 0.5), ("VV", 1.0)):
        for h in ("H", "V"):
            uniform.append(stokes_homogeneity(_stokes(kind, q, h, n=64)))
        for h in ("A", "D", "L", "R"):
            structured.append(stokes_homogeneity(_stokes(kind, q, h, n=64)))
    ok = max(uniform) < 1e-6 and min(structured) > 0.1
    _report(7, ok, f"H/V heralds <= {max(uniform):.3g}, "
            f"structured heralds >= {min(structured):.3g}")


def test_criterion_08_fringe_visibilities():
    b = spdc_state(PolKet.from_terms([("D", 0, 1.0)]))
    v_hv = visibility_in_basis(b, "HV")
    v_da = visibility_in_basis(b, "DA")
    ideal_ok = abs(v_hv - 1.0) < 1e-6 and abs(v_da - 1.0) < 1e-6

    dephase, cross = find_visibility_parameters(0.98120, 0.96170)
    tuned = degraded_bell_state(dephasing=dephase, cross_talk=cross)
    err_hv = abs(visibility_in_basis(tuned, "HV") - 0.98120)
    err_da = abs(visibility_in_basis(tuned, "DA") - 0.96170)
    shipped = {c["label"]: c for c in _load_cases("correlations")["cases"]}["degraded"]
    config_ok = (abs(shipped["dephasing"] - dephase) < 1e-9
                 and abs(shipped["cross_talk"] - cross) < 1e-9)
    ok = ideal_ok and err_hv < 1e-6 and err_da < 1e-6 and config_ok
    _report(8, ok, f"ideal visibility {v_hv:.9f}/{v_da:.9f}, "
            f"tuned target errors {err_hv:.3g}/{err_da:.3g}")


def test_criterion_09_offset_deformation():
    base = {"label": "off", "pump": {"kind": "FP", "charge": 0.5}, "herald": "A",
            "grid": {"nx": 64, "ny": 64, "half_width": 4.0}}
    maps = []
    for dx in (0.0, 0.05, 0.10, 0.15):
        cfg = ScenarioConfig.from_dict({**base, "offset": {"dx": dx, "dy": 0.0}})
        maps.append(run_scenario(cfg).stokes)
    vals = [deformation_metric(maps[0], m) for m in maps]
    ok = vals[0] == 0.0 and all(b > a for a, b in zip(vals, vals[1:]))
    _report(9, ok, "deformation at offsets 0..0.15: "
            + ", ".join(f"{v:.5f}" for v in vals))


def test_criterion_10_determinism(tmp_path):
    dirs = [str(tmp_path / "runA"), str(tmp_path / "runB")]
    for d in dirs:
        doc = _load_cases("fig2")
        for case in doc["cases"]:
            case["grid"] = {"nx": 64, "ny": 64, "half_width": 4.0}
        run_figure_suite("fig2", d, workers=2, cases_doc=doc)
    listings = []
    for d in dirs:
        names = []
        for base, _, files in os.walk(d):
            rel = os.path.relpath(base, d)
            names.extend(os.path.normpath(os.path.join(rel, f)) for f in files)
        listings.append(sorted(names))
    same_tree = listings[0] == listings[1]
    _, diff, funny = filecmp.cmpfiles(dirs[0], dirs[1], listings[0], shallow=False)
    ok = same_tree and not diff and not funny and len(listings[0]) > 100
    _report(10, ok, f"two threaded fig2 runs, {len(listings[0])} files byte-identical")
