import numpy as np
import pytest

from vecherald import kernels
from vecherald.fields import (GridSpec, ScalarField, VectorField, convert_basis,
                              gaussian_helical_mode, hv_arrays, lg_mode,
                              make_grid, overlap, polarized_mode, power,
                              superpose, translate, vector_power)


def test_grid_axes_and_pitch():
    g = make_grid(64, 32, 4.0)
    assert g.x_axis()[0] == -4.0 and g.x_axis()[-1] == 4.0
    assert g.y_axis().size == 32
    assert g.pitch_x == pytest.approx(8.0 / 63)
    assert g.pixel_area == pytest.approx(g.pitch_x * g.pitch_y)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(8, 64, 4.0)
    with pytest.raises(ValueError):
        GridSpec(64, 64, 0.0)
    with pytest.raises(ValueError):
        GridSpec(64, 64, np.inf)


@pytest.mark.parametrize("ell", [-3, -1, 0, 2])
def test_lg_mode_unit_power(ell):
    g = make_grid(128, 128, 4.0)
    m = lg_mode(g, ell)
    assert power(m) == pytest.approx(1.0, abs=1e-9)


def test_lg_ring_radius():
    g = make_grid(256, 256, 4.0)
    m = lg_mode(g, 2)
    iy, ix = np.unravel_index(np.argmax(np.abs(m.samples)), m.samples.shape)
    r = np.hypot(g.x_axis()[ix], g.y_axis()[iy])
    assert r == pytest.approx(1.0, abs=2 * g.pitch_x)  # sqrt(|l|/2) w0


def test_lg_orthogonality():
    g = make_grid(128, 128, 4.0)
    assert abs(overlap(lg_mode(g, 1), lg_mode(g, 2))) < 1e-12
    assert overlap(lg_mode(g, 1), lg_mode(g, 1)).real == pytest.approx(1.0, abs=1e-9)


def _closed_form(make, x, y, ell, waist):
    if make is lg_mode:
        return kernels.lg_samples(x, y, ell, waist)
    return (kernels.lg_samples(x, y, 0, waist).real.astype(np.complex128)
            * np.exp(1j * ell * np.arctan2(y, x)))


@pytest.mark.parametrize("make", [lg_mode, gaussian_helical_mode],
                         ids=lambda f: f.__name__)
def test_center_shift_exact(make):
    # A shifted mode is the closed form at (x - dx, y - dy) scaled by the
    # centred mode's 1/norm, bit for bit; the window clips the shifted mode.
    g = make_grid(96, 96, 2.0)
    dx, dy = 0.9, -0.6
    xg, yg = g.meshes()
    centred = _closed_form(make, xg, yg, 1, 1.0)
    scale = 1.0 / np.sqrt(np.sum(np.abs(centred) ** 2) * g.pixel_area)
    shifted = make(g, 1, center=(dx, dy))
    assert np.array_equal(shifted.samples,
                          _closed_form(make, xg - dx, yg - dy, 1, 1.0) * scale)
    assert np.array_equal(make(g, 1).samples, centred * scale)
    assert power(shifted) < 0.99


def test_translate_shift_limit():
    g = make_grid(64, 64, 4.0)
    with pytest.raises(ValueError):
        translate(lg_mode(g, 0), 3.0, 0.0)
    for make in (lg_mode, gaussian_helical_mode):
        for center in ((2.0, 0.0), (0.0, -2.5), (np.nan, 0.0)):
            with pytest.raises(ValueError):
                make(g, 1, center=center)


def test_superpose_unit_power_and_basis():
    g = make_grid(96, 96, 4.0)
    a = polarized_mode(g, "H", 0)
    b = polarized_mode(g, "V", 1)
    out = superpose([(a, 1.0), (b, 1.0j)])
    assert out.basis == "HV"
    assert vector_power(out) == pytest.approx(1.0, abs=1e-9)


def test_superpose_mixes_bases():
    g = make_grid(96, 96, 4.0)
    a = polarized_mode(g, "H", 0)
    b = polarized_mode(g, "L", 0)  # stored in LR basis
    out = superpose([(a, 1.0), (b, -1.0)])
    # H - L = H - (H + iV)/sqrt2, so a V component must appear
    _, v = hv_arrays(out)
    assert np.abs(v).max() > 0.01


def test_superpose_rejects_zero_sum():
    g = make_grid(64, 64, 4.0)
    a = polarized_mode(g, "H", 0)
    with pytest.raises(ValueError):
        superpose([(a, 1.0), (a, -1.0)])


def test_convert_basis_roundtrip():
    g = make_grid(64, 64, 4.0)
    f = superpose([(polarized_mode(g, "H", 1), 0.8), (polarized_mode(g, "V", 0), 0.6j)])
    back = convert_basis(convert_basis(f, "LR"), "HV")
    ah, av = hv_arrays(f)
    bh, bv = hv_arrays(back)
    assert np.abs(ah - bh).max() < 1e-12
    assert np.abs(av - bv).max() < 1e-12


def test_circular_label_stokes_signs():
    # |L> must give S3=+S0 under the declared conventions
    g = make_grid(32, 32, 2.0)
    f = polarized_mode(g, "L", 0)
    eh, ev = hv_arrays(f)
    s3 = -2.0 * np.imag(eh * np.conj(ev))
    s0 = np.abs(eh) ** 2 + np.abs(ev) ** 2
    assert np.allclose(s3, s0, atol=1e-12)


def test_gaussian_helical_closed_family():
    # multiplying by a pure phase keeps the envelope in the family
    g = make_grid(64, 64, 4.0)
    m1 = gaussian_helical_mode(g, 1)
    m3 = gaussian_helical_mode(g, 3)
    xg, yg = g.meshes()
    phase = np.exp(2j * np.arctan2(yg, xg))
    assert np.abs(m1.samples * phase - m3.samples).max() < 1e-12
