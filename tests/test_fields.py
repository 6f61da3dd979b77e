import numpy as np
import pytest

from vecherald import kernels
from vecherald.fields import (GridSpec, VectorField, convert_basis,
                              gaussian_helical_mode, hv_arrays, lg_mode,
                              make_grid, overlap, polarized_mode, power,
                              translate)
from vecherald.kets import PolKet, ket_to_field


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
    assert power(g, m) == pytest.approx(1.0, abs=1e-9)


def test_lg_ring_radius():
    g = make_grid(256, 256, 4.0)
    m = lg_mode(g, 2)
    iy, ix = np.unravel_index(np.argmax(np.abs(m)), m.shape)
    r = np.hypot(g.x_axis()[ix], g.y_axis()[iy])
    assert r == pytest.approx(1.0, abs=2 * g.pitch_x)  # sqrt(|l|/2) w0


def test_lg_orthogonality():
    g = make_grid(128, 128, 4.0)
    assert abs(overlap(g, lg_mode(g, 1), lg_mode(g, 2))) < 1e-12
    assert overlap(g, lg_mode(g, 1), lg_mode(g, 1)).real == pytest.approx(1.0, abs=1e-9)


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
    assert np.array_equal(shifted, _closed_form(make, xg - dx, yg - dy, 1, 1.0) * scale)
    assert np.array_equal(make(g, 1), centred * scale)
    assert power(g, shifted) < 0.99


def test_translate_shift_limit():
    g = make_grid(64, 64, 4.0)
    with pytest.raises(ValueError):
        translate(g, lg_mode(g, 0), 3.0, 0.0)
    for make in (lg_mode, gaussian_helical_mode):
        for center in ((2.0, 0.0), (0.0, -2.5), (np.nan, 0.0)):
            with pytest.raises(ValueError):
                make(g, 1, center=center)


def test_convert_basis_roundtrip():
    g = make_grid(64, 64, 4.0)
    f = ket_to_field(PolKet.from_terms([("H", 1, 0.8), ("V", 0, 0.6j)]), g)
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
    assert np.abs(m1 * phase - m3).max() < 1e-12


@pytest.mark.parametrize("make", [lg_mode, gaussian_helical_mode],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("ell, waist", [(1.5, 1.0), (1, 0.0), (1, -1.0), (1, np.nan)])
def test_mode_rejects_bad_ell_and_waist(make, ell, waist):
    g = make_grid(32, 32, 4.0)
    with pytest.raises(ValueError):
        make(g, ell, waist=waist)


def test_vector_field_checks_components():
    g = make_grid(32, 16, 4.0)
    ok = np.zeros((16, 32), np.complex128)
    with pytest.raises(ValueError, match="comp2 shape"):
        VectorField(g, ok, np.zeros((32, 16), np.complex128))
    with pytest.raises(ValueError, match="basis"):
        VectorField(g, ok, ok, basis="XY")
    real = np.ones((16, 32))
    vf = VectorField(g, real, ok)
    assert vf.comp1.dtype == np.complex128 and np.array_equal(vf.comp1, real)
    assert vf.comp2 is ok
