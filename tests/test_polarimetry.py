import numpy as np
import pytest

from vecherald import kernels
from vecherald.fields import hv_arrays, make_grid, polarized_mode
from vecherald.kets import (PolKet, PumpSpec, herald, ket_to_field,
                            project_idler_oam0, pump_state, spdc_state)
from vecherald.polarimetry import (CLASS_LEFT, CLASS_LINEAR, CLASS_RIGHT,
                                   PolarimeterConfig, StokesMap, default_angles,
                                   ellipse_map, reconstruct_stokes,
                                   response_matrix, simulate_frames,
                                   stokes_homogeneity, stokes_of_field)


def test_default_angles():
    a = default_angles()
    assert len(a) == 8
    assert a[1] == pytest.approx(np.pi / 8)


def test_response_matrix_anchor_rows():
    cfg = PolarimeterConfig(angles=(0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8))
    m = response_matrix(cfg)
    assert np.allclose(m[0], [0.5, 0.5, 0.0, 0.0], atol=1e-12)       # I = (S0+S1)/2
    assert np.allclose(m[2], [0.5, 0.0, 0.0, -0.5], atol=1e-12)      # I = (S0-S3)/2


def test_angle_count_guard():
    with pytest.raises(ValueError):
        PolarimeterConfig(angles=(0.0, 0.1, 0.2))


def test_degenerate_angles_rejected():
    cfg = PolarimeterConfig(angles=(0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        response_matrix(cfg)


def test_left_circular_extinction_at_quarter_turn():
    g = make_grid(48, 48, 4.0)
    f = polarized_mode(g, "L", 0)
    cfg = PolarimeterConfig(angles=(0.0, np.pi / 8, np.pi / 4, 3 * np.pi / 8))
    frames = simulate_frames(f, cfg)
    assert frames[2].max() < 1e-24  # theta = pi/4 extinguishes |L>


@pytest.mark.parametrize("pol", ["H", "V", "D", "A", "L", "R"])
def test_uniform_polarization_roundtrip(pol):
    g = make_grid(48, 48, 4.0)
    f = polarized_mode(g, pol, 0)
    ref = stokes_of_field(f)
    cfg = PolarimeterConfig()
    rec = reconstruct_stokes(simulate_frames(f, cfg), cfg, g)
    for a, b in ((ref.s0, rec.s0), (ref.s1, rec.s1), (ref.s2, rec.s2), (ref.s3, rec.s3)):
        assert np.abs(a - b).max() < 1e-12 * ref.s0.max()


def test_structured_field_roundtrip():
    g = make_grid(64, 64, 4.0)
    k = PolKet.from_terms([("L", 1, 1.0), ("R", 0, 1.0j)], basis="LR").normalized()
    f = ket_to_field(k, g)
    ref = stokes_of_field(f)
    cfg = PolarimeterConfig()
    rec = reconstruct_stokes(simulate_frames(f, cfg), cfg, g)
    err = max(np.abs(x - y).max() for x, y in
              ((ref.s0, rec.s0), (ref.s1, rec.s1), (ref.s2, rec.s2), (ref.s3, rec.s3)))
    assert err < 1e-9 * ref.s0.max()


def _frames_by_retarder_loop(f, cfg):
    """Reference frames: one full retarder_apply per angle, keeping only oh."""
    eh, ev = hv_arrays(f)
    frames = np.empty((len(cfg.angles), f.grid.ny, f.grid.nx), np.float64)
    beta = np.empty((f.grid.ny, f.grid.nx), np.float64)
    for i, th in enumerate(cfg.angles):
        beta.fill(2.0 * th)
        oh, _ = kernels.retarder_apply(eh, ev, beta, 0.5 * np.pi)
        frames[i] = oh.real ** 2 + oh.imag ** 2
    if cfg.noise_rms > 0:
        rng = np.random.default_rng(cfg.seed)
        frames += rng.normal(0.0, cfg.noise_rms * frames.max(), frames.shape)
    return frames


def _fp_q15_heralded_on_d():
    pump = pump_state(PumpSpec("FP", 1.5, 0.25 * np.pi))
    return herald(project_idler_oam0(spdc_state(pump)), "D")


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("ket", [_fp_q15_heralded_on_d,
                                 lambda: pump_state(PumpSpec("VV", 1.0, 0.0))],
                         ids=["fp_q15_D", "vv_q1"])
@pytest.mark.parametrize("noise_rms", [0.0, 0.03])
@pytest.mark.parametrize("angles", [default_angles(), default_angles(5)],
                         ids=["8_angles", "5_angles"])
def test_simulate_frames_matches_retarder_loop(n, ket, noise_rms, angles):
    f = ket_to_field(ket(), make_grid(n, n, 4.0))
    cfg = PolarimeterConfig(angles=angles, noise_rms=noise_rms, seed=3)
    got = simulate_frames(f, cfg)
    want = _frames_by_retarder_loop(f, cfg)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_noise_is_seeded_and_reproducible():
    g = make_grid(32, 32, 4.0)
    f = polarized_mode(g, "D", 0)
    cfg = PolarimeterConfig(noise_rms=0.01, seed=5)
    a = simulate_frames(f, cfg)
    b = simulate_frames(f, cfg)
    assert np.array_equal(a, b)
    c = simulate_frames(f, PolarimeterConfig(noise_rms=0.01, seed=6))
    assert not np.array_equal(a, c)
    # reconstruction stays close under mild noise
    rec = reconstruct_stokes(a, cfg, g)
    ref = stokes_of_field(f)
    assert np.abs(rec.s1 - ref.s1).max() < 0.1 * ref.s0.max()


def test_stokes_map_shape_guard():
    g = make_grid(32, 32, 4.0)
    z = np.zeros((32, 32))
    with pytest.raises(ValueError):
        StokesMap(g, z, z, z, np.zeros((16, 32)))


def test_ellipse_map_classes_and_ranges():
    g = make_grid(32, 32, 4.0)
    for pol, cls in (("H", CLASS_LINEAR), ("L", CLASS_LEFT), ("R", CLASS_RIGHT)):
        em = ellipse_map(stokes_of_field(polarized_mode(g, pol, 0)))
        center = em.handedness[16, 16]
        assert center == cls
    em = ellipse_map(stokes_of_field(polarized_mode(g, "A", 0)))
    assert em.psi[em.mask].min() > -np.pi / 2 - 1e-12
    assert em.psi[em.mask].max() <= np.pi / 2 + 1e-12
    # |A> is the -45 degree linear state
    assert np.allclose(em.psi[em.mask], -np.pi / 4, atol=1e-9)
    # |V> folds onto +pi/2 in the half-open azimuth range
    em_v = ellipse_map(stokes_of_field(polarized_mode(g, "V", 0)))
    assert np.allclose(em_v.psi[em_v.mask], np.pi / 2, atol=1e-9)


def test_homogeneity_metric():
    g = make_grid(48, 48, 4.0)
    assert stokes_homogeneity(stokes_of_field(polarized_mode(g, "D", 1))) < 1e-12
    k = PolKet.from_terms([("L", 1, 1.0), ("R", 0, 1.0)], basis="LR").normalized()
    structured = stokes_of_field(ket_to_field(k, g))
    assert stokes_homogeneity(structured) > 0.1
