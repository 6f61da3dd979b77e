import json
import os

import numpy as np
import pytest

from vecherald import fileio
from vecherald.fields import make_grid
from vecherald.kets import (BiphotonKet, PolKet, PumpSpec, ket_to_field,
                            project_idler_oam0, pump_state, spdc_state)
from vecherald.polarimetry import (PolarimeterConfig, ellipse_map,
                                   reconstruct_stokes, simulate_frames,
                                   stokes_of_field)


@pytest.fixture(scope="module")
def small_map():
    g = make_grid(48, 48, 3.0)
    f = ket_to_field(pump_state(PumpSpec("FP", 0.5, 0.0)), g)
    return g, f, stokes_of_field(f)


def test_matrix_roundtrip_bit_exact(tmp_path, small_map):
    g, _, s = small_map
    assert fileio.write_grid(str(tmp_path), g) == "grid.json"
    p = str(tmp_path / "m.npy")
    fileio.write_matrix(p, s.s1, g)
    back, g2 = fileio.read_matrix(p)
    assert g2 == g
    assert np.array_equal(back.view(np.uint64), s.s1.view(np.uint64))


def test_matrix_roundtrip_keeps_special_values(tmp_path):
    g = make_grid(16, 16, 2.0)
    fileio.write_grid(str(tmp_path), g)
    nan_payload = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]
    special = [-0.0, 5e-324, -5e-324, 1e300, -1e300, np.inf, -np.inf, np.nan, nan_payload]
    a = np.linspace(-1.0, 1.0, 256).reshape(16, 16)
    a.flat[:len(special)] = special
    p = str(tmp_path / "m.npy")
    fileio.write_matrix(p, a, g)
    back, _ = fileio.read_matrix(p)
    assert np.array_equal(back.view(np.uint64), a.view(np.uint64))
    assert np.array_equal(back.flat[:len(special)].view(np.uint64),
                          np.array(special).view(np.uint64))


def test_matrix_bytes_independent_of_layout_and_stable(tmp_path):
    g = make_grid(16, 16, 2.0)
    field = (np.arange(256.0) - 1j * np.arange(256.0)[::-1]).reshape(16, 16)
    c_order = np.ascontiguousarray(np.real(field))
    inputs = {"c": c_order, "again": c_order, "strided": np.real(field),
              "fortran": np.asfortranarray(c_order)}
    assert not inputs["strided"].flags.c_contiguous
    assert not inputs["fortran"].flags.c_contiguous
    data = {}
    for name, values in inputs.items():
        p = tmp_path / f"{name}.npy"
        fileio.write_matrix(str(p), values, g)
        data[name] = p.read_bytes()
    assert data["c"] == data["again"] == data["strided"] == data["fortran"]


def test_matrix_header_mismatch(tmp_path):
    # The header is the directory's grid.json; the .npy must agree with it.
    g = make_grid(16, 16, 2.0)
    fileio.write_grid(str(tmp_path), g)
    with pytest.raises(ValueError):
        fileio.write_matrix(str(tmp_path / "w.npy"), np.zeros((16, 15)), g)
    bad = {"short.npy": np.zeros((16, 15)), "flat.npy": np.zeros(256),
           "f32.npy": np.zeros((16, 16), np.float32),
           "int.npy": np.zeros((16, 16), np.int64),
           "complex.npy": np.zeros((16, 16), np.complex128)}
    for name, values in bad.items():
        np.save(str(tmp_path / name), values)
        with pytest.raises(ValueError):
            fileio.read_matrix(str(tmp_path / name))
    np.savez(str(tmp_path / "archive.npz"), np.zeros((16, 16)))
    os.replace(str(tmp_path / "archive.npz"), str(tmp_path / "archive.npy"))
    (tmp_path / "empty.npy").write_bytes(b"")
    (tmp_path / "cut.npy").write_bytes((tmp_path / "short.npy").read_bytes()[:-8])
    for name in ("archive.npy", "empty.npy", "cut.npy"):
        with pytest.raises(ValueError):
            fileio.read_matrix(str(tmp_path / name))


def test_matrix_grid_json_required_and_checked(tmp_path):
    g = make_grid(16, 16, 2.0)
    p = str(tmp_path / "m.npy")
    fileio.write_matrix(p, np.zeros((16, 16)), g)
    with pytest.raises(FileNotFoundError):
        fileio.read_matrix(p)
    (tmp_path / "grid.json").write_text('{"nx": 16, "ny": 16}')
    with pytest.raises(ValueError):
        fileio.read_matrix(p)
    fileio.write_grid(str(tmp_path), make_grid(16, 17, 2.0))
    with pytest.raises(ValueError):
        fileio.read_matrix(p)
    fileio.write_grid(str(tmp_path), g)
    assert json.loads((tmp_path / "grid.json").read_text()) == {
        "half_width": 2.0, "nx": 16, "ny": 16}
    assert fileio.read_matrix(p)[1] == g


def test_complex_matrix_pair(tmp_path, small_map):
    g, f, _ = small_map
    fileio.write_grid(str(tmp_path), g)
    stem = str(tmp_path / "field_L")
    paths = fileio.write_complex_matrix(stem, f.comp1, g)
    assert [os.path.basename(p) for p in paths] == ["field_L_re.npy", "field_L_im.npy"]
    back, g2 = fileio.read_complex_matrix(stem)
    assert g2 == g
    assert np.array_equal(back, f.comp1)


def test_ket_json_roundtrip(tmp_path):
    k = pump_state(PumpSpec("VV", 1.5, np.pi / 4))
    p = str(tmp_path / "ket.json")
    fileio.write_ket(p, k)
    back = fileio.read_ket(p)
    assert back.basis == k.basis
    assert set(back.terms) == set(k.terms)
    for key, amp in k.terms.items():
        assert back.terms[key] == pytest.approx(amp)


def test_biphoton_json_roundtrip(tmp_path):
    b = project_idler_oam0(spdc_state(pump_state(PumpSpec("FP", 1.0, np.pi))))
    p = str(tmp_path / "pair.json")
    fileio.write_biphoton(p, b)
    back = fileio.read_biphoton(p)
    assert isinstance(back, BiphotonKet)
    assert set(back.terms) == set(b.terms)
    for key, amp in b.terms.items():
        assert back.terms[key] == pytest.approx(amp)


def test_frames_roundtrip(tmp_path, small_map):
    g, f, _ = small_map
    cfg = PolarimeterConfig()
    frames = simulate_frames(f, cfg)
    d = str(tmp_path / "frames")
    os.makedirs(d)
    names = fileio.write_frames(d, frames, cfg.angles, g)
    assert names == [f"frame_{i:03d}.npy" for i in range(len(cfg.angles))] + [
        "frames.json", "grid.json"]
    assert sorted(os.listdir(d)) == sorted(names)
    back, angles, g2 = fileio.read_frames(d)
    assert g2 == g
    assert angles == pytest.approx(list(cfg.angles))
    assert np.array_equal(back.view(np.uint64), frames.view(np.uint64))


def test_stokes_roundtrip(tmp_path, small_map):
    g, _, s = small_map
    d = str(tmp_path / "stokes")
    os.makedirs(d)
    names = fileio.write_stokes(d, s)
    assert names == ["s0.npy", "s1.npy", "s2.npy", "s3.npy", "grid.json"]
    assert sorted(os.listdir(d)) == sorted(names)
    back = fileio.read_stokes(d)
    assert back.grid == g
    for a, b in ((back.s0, s.s0), (back.s1, s.s1), (back.s2, s.s2), (back.s3, s.s3)):
        assert np.array_equal(a, b)


def test_ellipses_csv(tmp_path, small_map):
    _, _, s = small_map
    em = ellipse_map(s)
    p = str(tmp_path / "ellipses.csv")
    fileio.write_ellipses(p, em, stride=8)
    with open(p) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "x,y,psi,chi,class"
    assert len(lines) > 4
    for line in lines[1:]:
        row = line.split(",")
        assert len(row) == 5
        assert row[4] in ("linear", "left", "right")


def test_ppm_bytes(tmp_path, small_map):
    _, _, s = small_map
    em = ellipse_map(s)
    rgb = fileio.render_ellipse_preview(s, em, stride=12)
    assert rgb.dtype == np.uint8 and rgb.shape == (48, 48, 3)
    p = str(tmp_path / "img.ppm")
    fileio.write_ppm(p, rgb)
    with open(p, "rb") as fh:
        data = fh.read()
    assert data.startswith(b"P6\n48 48\n255\n")
    assert len(data) == len(b"P6\n48 48\n255\n") + 48 * 48 * 3
    with pytest.raises(ValueError):
        fileio.write_ppm(p, rgb.astype(np.float64))


def test_preview_deterministic(small_map):
    _, _, s = small_map
    em = ellipse_map(s)
    a = fileio.render_ellipse_preview(s, em)
    b = fileio.render_ellipse_preview(s, em)
    assert np.array_equal(a, b)


def test_preview_of_noisy_map_clamps_negative_s0():
    g = make_grid(64, 64, 4.0)
    cfg = PolarimeterConfig(noise_rms=0.01, seed=3)
    f = ket_to_field(pump_state(PumpSpec("FP", 0.5, 0.0)), g)
    s = reconstruct_stokes(simulate_frames(f, cfg), cfg, g)
    assert s.s0.min() < 0
    em = ellipse_map(s)
    fileio.render_ellipse_preview(s, em)
    # A stride wider than the grid draws no glyphs, leaving the S0 underlay.
    gray = fileio.render_ellipse_preview(s, em, stride=2 * g.nx)[::-1, :, 0]
    assert gray[s.s0 <= 0].max() == 0 and gray.max() == 170


def test_manifest_stable_across_reruns(tmp_path, small_map):
    g, _, s = small_map
    cfg = {"label": "m", "n": 48}
    docs = []
    for sub in ("a", "b"):
        d = str(tmp_path / sub)
        os.makedirs(d)
        names = fileio.write_stokes(d, s)
        fileio.write_manifest(d, cfg, names)
        with open(os.path.join(d, "manifest.json")) as fh:
            docs.append(json.load(fh))
    assert docs[0] == docs[1]
    assert docs[0]["config_sha256"] == fileio.config_hash(cfg)
    names = [f["name"] for f in docs[0]["files"]]
    assert names == sorted(names) and "grid.json" in names
    for f in docs[0]["files"]:
        assert len(f["sha256"]) == 64 and f["bytes"] > 0


def test_config_hash_key_order_invariant():
    assert fileio.config_hash({"a": 1, "b": [2, 3]}) == fileio.config_hash({"b": [2, 3], "a": 1})
    assert fileio.config_hash({"a": 1}) != fileio.config_hash({"a": 2})


def test_singularity_report_json(tmp_path):
    from vecherald.topology import SingularityReport
    r = SingularityReport(location=(0.0, 0.0), kind="C-point", index=-0.5,
                          raw_index=-0.5004, residual=0.01, label="star",
                          loop_radius=0.25, radial_lines=3)
    p = str(tmp_path / "sing.json")
    fileio.write_singularity_report(p, [r])
    with open(p) as fh:
        doc = json.load(fh)
    (row,) = doc["singularities"]
    assert row["kind"] == "C-point"
    assert row["index"] == -0.5
    assert row["label"] == "star"
    assert row["radial_lines"] == 3
