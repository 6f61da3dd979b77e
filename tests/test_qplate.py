import numpy as np
import pytest

from vecherald.fields import hv_arrays, make_grid
from vecherald.kets import PolKet, basis_change, ket_to_field, max_term_diff
from vecherald.qplate import (PRESET_RETARDANCE, QPlateParams,
                              plate_from_preset, qplate_apply_field,
                              qplate_apply_ket)


def test_params_validation():
    with pytest.raises(ValueError):
        QPlateParams(0.3, np.pi)  # charge must be half-integer
    with pytest.raises(ValueError):
        QPlateParams(0.5, -0.1)
    with pytest.raises(ValueError):
        QPlateParams(0.5, 2 * np.pi)
    with pytest.raises(ValueError):
        QPlateParams(0.5, np.pi, np.nan)
    QPlateParams(0.0, np.pi)  # degenerate uniform waveplate is allowed


def test_presets():
    assert plate_from_preset(1.0, "half-wave").retardance == pytest.approx(np.pi)
    assert plate_from_preset(1.0, "quarter-wave").retardance == pytest.approx(np.pi / 2)
    assert plate_from_preset(1.0, 1.0).retardance == pytest.approx(1.0)
    with pytest.raises(ValueError):
        plate_from_preset(1.0, "third-wave")
    assert set(PRESET_RETARDANCE) == {"half-wave", "quarter-wave"}


def test_unitarity_random_draws():
    rng = np.random.default_rng(3)
    for _ in range(200):
        k = PolKet({("L", int(rng.integers(-3, 4))): complex(rng.normal(), rng.normal()),
                    ("R", int(rng.integers(-3, 4))): complex(rng.normal(), rng.normal())},
                   basis="LR").normalized()
        p = QPlateParams(float(rng.choice([0.5, 1.0, 1.5])),
                         float(rng.uniform(0, 2 * np.pi)),
                         float(rng.uniform(0, np.pi)))
        assert abs(qplate_apply_ket(k, p).norm() - 1.0) < 1e-12


def test_identity_at_zero_retardance():
    k = PolKet.from_terms([("H", 1, 0.6), ("V", -1, 0.8j)])
    out = qplate_apply_ket(k, QPlateParams(1.5, 0.0, 0.7))
    assert max_term_diff(out, k) < 1e-12


def test_half_wave_full_conversion():
    # delta = pi flips handedness and shifts the orbital index by +-2q
    a0 = 0.2
    out = qplate_apply_ket(PolKet({("L", 1): 1.0}, basis="LR"),
                           QPlateParams(1.0, np.pi, a0))
    assert set(out.terms) == {("R", 3)}
    assert out.amplitude("R", 3) == pytest.approx(1j * np.exp(2j * a0))
    out = qplate_apply_ket(PolKet({("R", 0): 1.0}, basis="LR"),
                           QPlateParams(0.5, np.pi, a0))
    assert set(out.terms) == {("L", -1)}
    assert out.amplitude("L", -1) == pytest.approx(1j * np.exp(-2j * a0))


def test_quarter_wave_composition():
    # two quarter-wave plates of equal charge and axis compose to a half-wave
    k = PolKet.from_terms([("L", 0, 0.6), ("R", 2, 0.8j)], basis="LR")
    quarter = QPlateParams(1.0, np.pi / 2, 0.35)
    half = QPlateParams(1.0, np.pi, 0.35)
    twice = qplate_apply_ket(qplate_apply_ket(k, quarter), quarter)
    once = qplate_apply_ket(k, half)
    assert max_term_diff(twice, once) < 1e-12


def test_charge_zero_is_uniform_waveplate():
    # q = 0: no orbital change, ordinary retarder with axis at a0
    out = qplate_apply_ket(PolKet({("L", 1): 1.0}, basis="LR"),
                           QPlateParams(0.0, np.pi, 0.0))
    assert set(out.terms) == {("R", 1)}


def test_field_and_ket_routes_agree():
    g = make_grid(128, 128, 4.0)
    k = PolKet.from_terms([("H", 1, 0.6), ("V", 0, 0.8j)])
    p = QPlateParams(0.5, np.pi / 2, 0.3)
    via_ket = ket_to_field(qplate_apply_ket(k, p), g, envelope="gaussian")
    via_field = qplate_apply_field(ket_to_field(k, g, envelope="gaussian"), p)
    ah, av = hv_arrays(via_ket)
    bh, bv = hv_arrays(via_field)
    assert np.abs(ah - bh).max() < 1e-12
    assert np.abs(av - bv).max() < 1e-12

