import json
import os

import numpy as np
import pytest

from vecherald.fields import make_grid
from vecherald.kets import (PumpSpec, basis_change, ket_to_field, pump_state,
                            rotate_ket)
from vecherald.polarimetry import stokes_of_field
from vecherald.scenarios import (ScenarioConfig, _pump_ket, deformation_metric,
                                 run_figure_suite, run_scenario)

SMALL = {"grid": {"nx": 64, "ny": 64, "half_width": 4.0}}


def _cfg(**kw):
    doc = {"label": "t", "pump": {"kind": "FP", "charge": 0.5}, **SMALL}
    doc.update(kw)
    return ScenarioConfig.from_dict(doc)


def test_dict_roundtrip():
    doc = {
        "label": "rt", "pump": {"kind": "VV", "charge": 1.5, "phase": 0.25},
        "herald": "A", "grid": {"nx": 48, "ny": 64, "half_width": 3.5},
        "waist": 0.9, "envelope": "gaussian",
        "polarimeter": {"n_angles": 8, "noise_rms": 0.001, "seed": 7},
        "spdc": {"crystal_phase": 0.3, "spectrum": {"0": [1.0, 0.0], "2": [0.0, 0.5]}},
        "offset": {"dx": 0.1, "dy": -0.05, "applies_to": "pump"},
    }
    cfg = ScenarioConfig.from_dict(doc)
    again = ScenarioConfig.from_dict(cfg.to_dict())
    assert again == cfg
    assert cfg.spectrum == {0: 1.0 + 0j, 2: 0.5j}
    assert len(cfg.angles) == 8
    assert cfg.angles[1] == pytest.approx(np.pi / 8)


def test_validation_errors():
    with pytest.raises(ValueError, match="herald"):
        _cfg(herald="X")
    with pytest.raises(ValueError, match="offset"):
        _cfg(offset={"dx": 0.4, "dy": 0.4})
    with pytest.raises(ValueError, match="unknown scenario"):
        ScenarioConfig.from_dict({"label": "t", "bogus": 1})
    with pytest.raises(ValueError, match="unknown pump"):
        ScenarioConfig.from_dict({"pump": {"q": 0.5}})
    with pytest.raises(ValueError, match="unknown qplate"):
        _cfg(qplate={"delta": 1.0})


def test_default_phase_table():
    assert _cfg().resolved_phase() == 0.0
    assert _cfg(pump={"kind": "FP", "charge": 1.0}).resolved_phase() == np.pi
    assert _cfg(pump={"kind": "FP", "charge": 1.5}).resolved_phase() == np.pi / 4
    assert _cfg(pump={"kind": "FP", "charge": 1.0, "phase": 0.1}).resolved_phase() == 0.1


def test_qplate_pump_route():
    cfg = _cfg(pump=None, qplate={"charge": 0.5, "retardance": "half-wave",
                                  "input_pol": "H", "input_ell": 0})
    res = run_scenario(cfg)
    k = basis_change(res.pump_ket, "LR")
    # H in, half-wave plate: equal-weight opposite-handed pair at ell = +-2q
    assert abs(abs(k.amplitude("R", 1)) - 1 / np.sqrt(2)) < 1e-12
    assert abs(abs(k.amplitude("L", -1)) - 1 / np.sqrt(2)) < 1e-12
    assert abs(k.norm() - 1.0) < 1e-12


def test_empty_qplate_echoes_no_pump():
    cfg = ScenarioConfig.from_dict({"qplate": {}, **SMALL})
    doc = cfg.to_dict()
    assert doc["pump"] is None and doc["qplate"] == {}
    # the echo rebuilds the plate route, not the default pump
    again = ScenarioConfig.from_dict(doc)
    assert _pump_ket(again).terms == _pump_ket(cfg).terms
    assert _pump_ket(cfg).terms != pump_state(PumpSpec("FP", 0.5, 0.0)).terms


def test_herald_none_analyzes_pump():
    res = run_scenario(_cfg())
    assert res.heralded_ket is None
    assert res.rotation is None
    assert np.allclose(res.stokes.s0, res.pump_stokes.s0)


def test_dual_herald_map_relations():
    # A vs D flips the linear azimuth and the handedness (S2, S3 -> -S2, -S3)
    ra = run_scenario(_cfg(herald="A"))
    rd = run_scenario(_cfg(herald="D"))
    scale = ra.stokes.s0.max()
    assert np.max(np.abs(ra.stokes.s0 - rd.stokes.s0)) < 1e-9 * scale
    assert np.max(np.abs(ra.stokes.s1 - rd.stokes.s1)) < 1e-9 * scale
    assert np.max(np.abs(ra.stokes.s2 + rd.stokes.s2)) < 1e-9 * scale
    assert np.max(np.abs(ra.stokes.s3 + rd.stokes.s3)) < 1e-9 * scale


def test_circular_herald_permutes_components():
    # L vs A: same texture with (S2, S3) -> (S3, -S2) component exchange
    ra = run_scenario(_cfg(herald="A"))
    rl = run_scenario(_cfg(herald="L"))
    scale = ra.stokes.s0.max()
    assert np.max(np.abs(rl.stokes.s1 - ra.stokes.s1)) < 1e-9 * scale
    assert np.max(np.abs(rl.stokes.s2 - ra.stokes.s3)) < 1e-9 * scale
    assert np.max(np.abs(rl.stokes.s3 + ra.stokes.s2)) < 1e-9 * scale


def test_pump_transfer_rotation_law():
    # the A-heralded texture is the pump texture rotated by pi/N
    for charge, kind in ((0.5, "FP"), (1.0, "VV")):
        cfg = _cfg(pump={"kind": kind, "charge": charge}, herald="A")
        res = run_scenario(cfg)
        two_q = int(round(2 * charge))
        n_sym = two_q + 2 if kind == "FP" else 2 * (two_q + 1)
        rho = np.pi / n_sym
        rotated = rotate_ket(pump_state(PumpSpec(kind, charge, cfg.resolved_phase())), rho)
        want = stokes_of_field(ket_to_field(rotated, cfg.grid()))
        scale = want.s0.max()
        for got, ref in ((res.stokes.s1, want.s1), (res.stokes.s2, want.s2),
                         (res.stokes.s3, want.s3)):
            assert np.max(np.abs(got - ref)) < 1e-6 * scale
        assert res.rotation == pytest.approx(rho, abs=2 * np.pi / 256)


def test_zero_norm_herald_is_runtime_error():
    cfg = _cfg(herald="A", spdc={"spectrum": {"2": [1.0, 0.0]}})
    with pytest.raises(RuntimeError, match="zero-norm"):
        run_scenario(cfg)


def test_offset_applies_to_pump_shifts_pump_map():
    base = run_scenario(_cfg())
    moved = run_scenario(_cfg(offset={"dx": 0.2, "dy": 0.0, "applies_to": "pump"}))
    assert deformation_metric(base.pump_stokes, moved.pump_stokes) > 0.01


def test_offset_applies_to_signal_keeps_pump_map():
    cfg = _cfg(herald="A", offset={"dx": 0.2, "dy": 0.0, "applies_to": "signal"})
    res = run_scenario(cfg)
    ref = run_scenario(_cfg(herald="A"))
    assert np.allclose(res.pump_stokes.s1, ref.pump_stokes.s1)
    assert deformation_metric(ref.stokes, res.stokes) > 0.01


def test_deformation_metric_basics():
    a = run_scenario(_cfg(herald="A")).stokes
    assert deformation_metric(a, a) == 0.0
    b = run_scenario(_cfg(herald="A", offset={"dx": 0.1, "dy": 0.0})).stokes
    d1 = deformation_metric(a, b)
    c = run_scenario(_cfg(herald="A", offset={"dx": 0.2, "dy": 0.0})).stokes
    d2 = deformation_metric(a, c)
    assert 0.0 < d1 < d2
    other = stokes_of_field(ket_to_field(
        pump_state(PumpSpec("FP", 0.5, 0.0)), make_grid(32, 32, 4.0)))
    with pytest.raises(ValueError, match="grid"):
        deformation_metric(a, other)


def test_figure_suite_writes_artifacts(tmp_path):
    doc = {"cases": [
        {"label": "caseH", "pump": {"kind": "FP", "charge": 0.5},
         "herald": "H", **SMALL},
        {"label": "caseA", "pump": {"kind": "FP", "charge": 0.5},
         "herald": "A", **SMALL},
    ]}
    out = str(tmp_path / "suite")
    results = run_figure_suite("fig5", out, cases_doc=doc)
    assert len(results) == 2
    assert os.path.exists(os.path.join(out, "summary.csv"))
    assert os.path.exists(os.path.join(out, "manifest.json"))
    for label in ("caseH", "caseA"):
        case_dir = os.path.join(out, label)
        for name in ("config.json", "stokes", "frames", "metrics.json",
                     "manifest.json", "preview.ppm"):
            assert os.path.exists(os.path.join(case_dir, name)), (label, name)
    with open(os.path.join(out, "caseH", "metrics.json")) as fh:
        metrics = json.load(fh)
    assert metrics["homogeneity"] < 1e-6
    with open(os.path.join(out, "summary.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert len(lines) == 3
    assert lines[0].startswith("label,")


def test_figure_suite_unknown_id(tmp_path):
    with pytest.raises(ValueError, match="figure"):
        run_figure_suite("fig9", str(tmp_path))


@pytest.mark.parametrize("kind, charge, label", [("FP", 0.5, "A"), ("VV", 1.0, "none"),
                                                 ("FP", 1.5, "D")])
def test_odd_grid_keeps_central_singularity(kind, charge, label):
    # An odd grid samples the beam axis itself; the central singularity must
    # read the same as on the neighbouring even grid.
    central = []
    for n in (63, 64):
        res = run_scenario(ScenarioConfig(pump_kind=kind, pump_charge=charge,
                                          herald=label, nx=n, ny=n))
        s = min(res.singularities, key=lambda s: np.hypot(*s.location))
        central.append((s.kind, s.index, s.label, s.radial_lines))
    assert central[0] == central[1]
