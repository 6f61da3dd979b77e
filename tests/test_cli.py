import filecmp
import json
import os

import pytest

from vecherald.cli import main, parse_and_dispatch

SMALL = ["--set", "grid.nx=48", "--set", "grid.ny=48", "--set", "grid.half_width=3.0"]


def test_help_exits_zero(capsys):
    assert parse_and_dispatch(["--help"]) == 0
    assert "vecherald" in capsys.readouterr().out


def test_bad_subcommand_exits_two(capsys):
    assert parse_and_dispatch(["frobnicate"]) == 2
    capsys.readouterr()


def test_pump_run_with_flags(tmp_path, capsys):
    out = str(tmp_path / "pump")
    code = main(["pump", "--kind", "FP", "--charge", "0.5", "--out", out] + SMALL)
    assert code == 0
    for name in ("config.json", "manifest.json", "preview.ppm",
                 os.path.join("stokes", "s0.txt"), "metrics.json"):
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, "config.json")) as fh:
        doc = json.load(fh)
    assert doc["grid"]["nx"] == 48
    assert doc["pump"]["charge"] == 0.5
    assert doc["herald"] == "none"
    capsys.readouterr()


def test_missing_config_exits_three(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert parse_and_dispatch(["scenario", "--config", missing]) == 3
    err = capsys.readouterr().err
    assert "error: config" in err and "nope.json" in err


def test_unknown_key_exits_three(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"label": "x", "bogus": 1}))
    assert parse_and_dispatch(["scenario", "--config", str(p)]) == 3
    assert "unknown scenario" in capsys.readouterr().err


@pytest.mark.parametrize("override", ["offset.dx=NaN", "waist=-1",
                                      "grid.half_width=Infinity",
                                      "polarimeter.n_angles=3",
                                      "polarimeter.noise_rms=-1",
                                      "polarimeter.n_angles=4.5",
                                      "grid.nx=64.7",
                                      "polarimeter.seed=1.5",
                                      "polarimeter.noise_rms=NaN",
                                      "qplate.charge=0.3",
                                      'qplate.retardance="foo"',
                                      'qplate.input_pol="X"',
                                      "qplate.axis_offset=NaN",
                                      "qplate.input_ell=0.5",
                                      "polarimeter.angles=[0,0,0,0]",
                                      "grid.nx=15",
                                      'spdc.spectrum={"0":[0,0]}',
                                      "spdc.crystal_phase=NaN",
                                      "pump.phase=NaN",
                                      "pump.charge=Infinity",
                                      "pump.charge=null",
                                      'spdc.spectrum={"0":[1]}',
                                      "spdc.spectrum=[1]",
                                      'qplate=["charge"]',
                                      "polarimeter.seed=-1"])
def test_invalid_value_exits_three_before_compute(tmp_path, capsys, override):
    out = tmp_path / "run"
    code = parse_and_dispatch(["herald", "--set", "herald=A", "--set", override,
                               "--out", str(out)])
    assert code == 3
    assert "error: config" in capsys.readouterr().err
    assert not out.exists()


def _tree_names(root):
    names = []
    for base, _, files in os.walk(root):
        rel = os.path.relpath(base, root)
        names.extend(os.path.join(rel, f) for f in files)
    return names


def _assert_same_trees(a, b):
    names = _tree_names(a)
    assert len(names) > 10
    assert sorted(_tree_names(b)) == sorted(names)
    same, diff, funny = filecmp.cmpfiles(a, b, names, shallow=False)
    assert diff == [] and funny == []
    assert sorted(same) == sorted(names)


@pytest.mark.parametrize("flags, overrides", [
    (["pump", "--phase", "0.3"], ["pump", "--set", "pump.phase=0.3"]),
    (["qplate", "--charge", "0.5", "--retardance", "1.0"],
     ["qplate", "--set", "qplate.charge=0.5", "--set", "qplate.retardance=1.0"]),
])
def test_flags_are_set_aliases(tmp_path, capsys, flags, overrides):
    dirs = [str(tmp_path / "flags"), str(tmp_path / "set")]
    for args, d in zip((flags, overrides), dirs):
        assert main(args + SMALL + ["--out", d]) == 0
    _assert_same_trees(*dirs)
    capsys.readouterr()


def test_set_wins_over_flag(tmp_path, capsys):
    out = tmp_path / "q"
    assert main(["qplate", "--charge", "0.5", "--set", "qplate.charge=1.0",
                 "--out", str(out)] + SMALL) == 0
    assert json.loads((out / "config.json").read_text())["qplate"]["charge"] == 1.0
    capsys.readouterr()


def test_bad_flag_choice_exits_two(capsys):
    assert parse_and_dispatch(["pump", "--kind", "XX"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_herald_requires_label(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"pump": {"kind": "FP", "charge": 0.5}}))
    assert parse_and_dispatch(["herald", "--config", str(p)]) == 3
    assert "herald" in capsys.readouterr().err


def test_qplate_requires_parameters(capsys):
    assert parse_and_dispatch(["qplate"]) == 3
    assert "plate parameters" in capsys.readouterr().err


def test_qplate_parameters_from_set(tmp_path, capsys):
    out = tmp_path / "q"
    assert main(["qplate", "--set", "qplate.charge=0.5", "--out", str(out)] + SMALL) == 0
    assert (out / "manifest.json").exists()
    capsys.readouterr()


def test_empty_herald_exits_four(tmp_path, capsys):
    doc = {"label": "t", "pump": {"kind": "FP", "charge": 0.5}, "herald": "A",
           "spdc": {"spectrum": {"2": [1.0, 0.0]}},
           "grid": {"nx": 32, "ny": 32, "half_width": 3.0}}
    p = tmp_path / "c.json"
    p.write_text(json.dumps(doc))
    code = parse_and_dispatch(["herald", "--config", str(p),
                               "--out", str(tmp_path / "o")])
    assert code == 4
    assert "error: runtime" in capsys.readouterr().err


def test_out_root_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("VECHERALD_OUT_ROOT", str(tmp_path / "root"))
    assert main(["pump", "--kind", "FP", "--charge", "0.5"] + SMALL) == 0
    assert os.path.exists(str(tmp_path / "root" / "pump" / "manifest.json"))
    capsys.readouterr()


def test_spdc_export(tmp_path, capsys):
    out = str(tmp_path / "spdc")
    assert main(["spdc", "--out", out, "--set", "pump.kind=FP",
                 "--set", "pump.charge=1.0"]) == 0
    for name in ("pump_ket.json", "biphoton_ket.json", "manifest.json"):
        assert os.path.exists(os.path.join(out, name)), name
    with open(os.path.join(out, "biphoton_ket.json")) as fh:
        doc = json.load(fh)
    assert len(doc["terms"]) > 0
    capsys.readouterr()


def test_topology_on_stokes_export(tmp_path, capsys):
    run_dir = str(tmp_path / "herald")
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"label": "h", "pump": {"kind": "FP", "charge": 0.5},
                             "herald": "A",
                             "grid": {"nx": 64, "ny": 64, "half_width": 3.0}}))
    assert main(["herald", "--config", str(p), "--out", run_dir]) == 0
    topo_dir = str(tmp_path / "topo")
    assert main(["topology", "--stokes", os.path.join(run_dir, "stokes"),
                 "--out", topo_dir]) == 0
    with open(os.path.join(topo_dir, "singularities.json")) as fh:
        doc = json.load(fh)
    assert len(doc["singularities"]) == 1
    assert doc["singularities"][0]["label"] == "star"
    assert os.path.exists(os.path.join(topo_dir, "metrics.json"))
    capsys.readouterr()


def test_repeat_runs_byte_identical(tmp_path, capsys):
    args = ["pump", "--kind", "VV", "--charge", "1.0"] + SMALL
    dirs = [str(tmp_path / "a"), str(tmp_path / "b")]
    for d in dirs:
        assert main(args + ["--out", d]) == 0
    _assert_same_trees(*dirs)
    capsys.readouterr()
