import numpy as np
import pytest

from vecherald.fields import (gaussian_helical_mode, hv_arrays, lg_mode,
                              make_grid, polarized_mode, vector_power)
from vecherald.kets import (BiphotonKet, PolKet, PumpSpec, SpdcConfig,
                            basis_change, coincidence_probability,
                            degraded_bell_state, find_visibility_parameters,
                            fringe_visibility, herald, ket_to_field,
                            max_term_diff, project_idler_oam0, pump_state,
                            rotate_ket, spdc_state, visibility_in_basis)

SQ2 = np.sqrt(2.0)


def test_basis_change_known_values():
    d = PolKet.from_terms([("D", 0, 1.0)])
    assert d.amplitude("H", 0) == pytest.approx(1 / SQ2)
    assert d.amplitude("V", 0) == pytest.approx(1 / SQ2)
    left = basis_change(PolKet.from_terms([("L", 0, 1.0)]), "HV")
    assert left.amplitude("H", 0) == pytest.approx(1 / SQ2)
    assert left.amplitude("V", 0) == pytest.approx(1j / SQ2)


@pytest.mark.parametrize("target", ["HV", "DA", "LR"])
def test_basis_change_roundtrip_preserves_norm(target):
    k = PolKet.from_terms([("H", 1, 0.3 + 0.1j), ("V", 1, -0.5), ("L", -2, 0.7j)])
    out = basis_change(k, target)
    assert out.basis == target
    assert out.norm() == pytest.approx(k.norm(), abs=1e-12)
    back = basis_change(out, k.basis)
    assert max_term_diff(back, k) < 1e-12


def test_pump_state_terms():
    k = pump_state(PumpSpec("FP", 0.5, 0.0))
    assert k.basis == "LR"
    assert k.amplitude("L", 1) == pytest.approx(1 / SQ2)
    assert k.amplitude("R", 0) == pytest.approx(1 / SQ2)
    k = pump_state(PumpSpec("VV", 1.5, np.pi / 4))
    assert k.amplitude("L", 3) == pytest.approx(1 / SQ2)
    assert k.amplitude("R", -3) == pytest.approx(np.exp(1j * np.pi / 4) / SQ2)
    assert k.norm() == pytest.approx(1.0, abs=1e-12)


def test_pump_spec_validation():
    with pytest.raises(ValueError):
        PumpSpec("XX", 0.5, 0.0)
    with pytest.raises(ValueError):
        PumpSpec("FP", 0.3, 0.0)
    with pytest.raises(ValueError):
        PumpSpec("FP", 0.5, np.nan)
    with pytest.raises(ValueError):
        SpdcConfig(crystal_phase=np.nan)


def test_spdc_oam_conservation():
    pump = pump_state(PumpSpec("FP", 1.0, np.pi))
    cfg = SpdcConfig(spectrum={-1: 0.5, 0: 1.0, 2: 0.25j})
    b = spdc_state(pump, cfg)
    assert b.norm() == pytest.approx(1.0, abs=1e-12)
    pump_ells = {ell for _, ell in basis_change(pump, "HV").terms}
    for ((_, ls), (_, li)) in b.terms:
        assert ls + li in pump_ells


def test_spdc_crystal_branches():
    # H pump light converts to V pairs; V pump light to H pairs with the
    # inter-crystal phase
    b = spdc_state(PolKet.from_terms([("H", 0, 1.0)]))
    assert set(b.terms) == {(("V", 0), ("V", 0))}
    phi = 0.7
    b = spdc_state(PolKet.from_terms([("V", 0, 1.0)]), SpdcConfig(crystal_phase=phi))
    ((key, amp),) = b.terms.items()
    assert key == (("H", 0), ("H", 0))
    assert amp == pytest.approx(np.exp(1j * phi))


def test_project_idler_oam0():
    pump = pump_state(PumpSpec("FP", 0.5, 0.0))
    b = spdc_state(pump, SpdcConfig(spectrum={0: 1.0, 1: 1.0}))
    kept = project_idler_oam0(b)
    assert kept.terms
    for (_, (_, li)) in kept.terms:
        assert li == 0


def test_herald_closed_forms():
    phi = np.pi / 4
    pump = pump_state(PumpSpec("FP", 1.5, phi))
    b = project_idler_oam0(spdc_state(pump))
    e = np.exp(1j * (phi + np.pi))
    want_a = PolKet({("L", 3): 1 / SQ2, ("R", 0): e / SQ2}, basis="LR")
    assert max_term_diff(herald(b, "A"), want_a) < 1e-12
    want_d = PolKet({("R", 3): 1 / SQ2, ("L", 0): e / SQ2}, basis="LR")
    assert max_term_diff(herald(b, "D"), want_d) < 1e-12
    want_l = PolKet({("D", 3): 1 / SQ2, ("A", 0): e / SQ2}, basis="DA")
    assert max_term_diff(herald(b, "L"), want_l) < 1e-12
    want_r = PolKet({("A", 3): 1 / SQ2, ("D", 0): e / SQ2}, basis="DA")
    assert max_term_diff(herald(b, "R"), want_r) < 1e-12


def test_herald_hv_single_label():
    for kind in ("FP", "VV"):
        b = project_idler_oam0(spdc_state(pump_state(PumpSpec(kind, 1.0, np.pi))))
        for lab in ("H", "V"):
            k = herald(b, lab)
            assert {pol for pol, _ in k.terms} == {lab}
            assert k.norm() == pytest.approx(1.0, abs=1e-12)


def test_herald_zero_norm_raises():
    b = BiphotonKet({(("H", 0), ("H", 0)): 1.0})
    with pytest.raises(ValueError):
        herald(b, "V")  # idler V never fires on an H-only idler


def test_rotate_ket_phases():
    k = PolKet({("L", 2): 1.0}, basis="LR")
    out = rotate_ket(k, 0.3)
    # handedness weight: e^{-i(ell + s) rho}, s_L = +1
    assert out.amplitude("L", 2) == pytest.approx(np.exp(-3j * 0.3))
    k = PolKet({("R", -1): 1.0}, basis="LR")
    out = rotate_ket(k, 0.3)
    assert out.amplitude("R", -1) == pytest.approx(np.exp(2j * 0.3) * 1.0)


def test_ket_to_field_power_equals_norm_sq():
    g = make_grid(128, 128, 4.0)
    k = PolKet.from_terms([("H", 1, 0.6), ("V", 0, 0.8j)])
    f = ket_to_field(k, g)
    assert vector_power(f) == pytest.approx(k.norm() ** 2, abs=1e-9)


def test_ket_to_field_respects_basis():
    g = make_grid(64, 64, 4.0)
    k = PolKet({("L", 1): 1.0}, basis="LR")
    f = ket_to_field(k, g)
    assert f.basis == "LR"
    eh, ev = hv_arrays(f)
    s3 = -2 * np.imag(eh * np.conj(ev))
    assert (s3 >= -1e-12).all()  # left-circular everywhere


# The declared conventions, written out independently of the code's tables.
JONES = {"H": (1, 0), "V": (0, 1), "D": (1 / SQ2, 1 / SQ2), "A": (1 / SQ2, -1 / SQ2),
         "L": (1 / SQ2, 1j / SQ2), "R": (1 / SQ2, -1j / SQ2)}


@pytest.mark.parametrize("pol", sorted(JONES))
def test_label_jones_vector_on_ket_and_field_routes(pol):
    jh, jv = JONES[pol]
    k = PolKet.from_terms([(pol, 1, 1.0)])
    assert k.amplitude("H", 1) == pytest.approx(jh, abs=1e-15)
    assert k.amplitude("V", 1) == pytest.approx(jv, abs=1e-15)
    g = make_grid(32, 32, 4.0)
    mode = lg_mode(g, 1)
    eh, ev = hv_arrays(polarized_mode(g, pol, 1))
    np.testing.assert_allclose(eh, jh * mode, rtol=0, atol=1e-15)
    np.testing.assert_allclose(ev, jv * mode, rtol=0, atol=1e-15)


@pytest.mark.parametrize("envelope,make", [("lg", lg_mode),
                                           ("gaussian", gaussian_helical_mode)])
def test_ket_to_field_centers_shift_only_listed_terms(envelope, make):
    g = make_grid(48, 48, 4.0)
    c = (0.15, -0.1)
    k = PolKet({("L", 2): 0.6, ("L", 0): 0.3j, ("R", -1): 0.2 - 0.4j}, basis="LR")
    f = ket_to_field(k, g, envelope=envelope, centers={("L", 2): c})
    np.testing.assert_allclose(
        f.comp1, 0.3j * make(g, 0) + 0.6 * make(g, 2, center=c),
        rtol=0, atol=1e-15)
    np.testing.assert_allclose(f.comp2, (0.2 - 0.4j) * make(g, -1),
                               rtol=0, atol=1e-15)
    # the shift is real: the listed term no longer matches its centred mode
    centred = ket_to_field(k, g, envelope=envelope)
    assert np.abs(f.comp1 - centred.comp1).max() > 1e-3


def test_ideal_bell_fringes():
    pump = PolKet.from_terms([("D", 0, 1.0)])
    b = spdc_state(pump)
    th = np.linspace(0, np.pi, 36, endpoint=False)
    for idler in ("H", "V", "D", "A"):
        fr = np.array([coincidence_probability(b, float(t), idler) for t in th])
        assert fringe_visibility(th, fr) == pytest.approx(1.0, abs=1e-9)
    # product state: orthogonal idler projection kills everything
    prod = BiphotonKet({(("H", 0), ("H", 0)): 1.0})
    for t in th[:8]:
        assert coincidence_probability(prod, float(t), "V") == pytest.approx(0.0, abs=1e-15)


def test_degradation_knobs_are_basis_selective():
    d = 0.4
    b = degraded_bell_state(dephasing=d)
    assert visibility_in_basis(b, "HV") == pytest.approx(1.0, abs=1e-9)
    assert visibility_in_basis(b, "DA") == pytest.approx(np.cos(d), abs=1e-9)
    c = 0.15
    b = degraded_bell_state(cross_talk=c)
    assert visibility_in_basis(b, "HV") == pytest.approx(np.cos(2 * c), abs=1e-9)
    assert visibility_in_basis(b, "DA") == pytest.approx(1.0, abs=1e-9)


def test_amplitude_imbalance_shifts_phase_not_contrast():
    # the imbalanced fringe is (1/4)[1 - eps cos2t + sqrt(1-eps^2) sin2t]:
    # amplitude exactly 1/4, so fitted visibility stays 1 in both bases
    for eps in (0.1, 0.3, 0.6):
        b = degraded_bell_state(imbalance=eps)
        assert b.norm() == pytest.approx(1.0, abs=1e-12)
        assert visibility_in_basis(b, "HV") == pytest.approx(1.0, abs=1e-9)
        assert visibility_in_basis(b, "DA") == pytest.approx(1.0, abs=1e-9)


def test_find_visibility_parameters_hits_targets():
    dephase, cross = find_visibility_parameters(0.995, 0.97)
    b = degraded_bell_state(dephasing=dephase, cross_talk=cross)
    assert visibility_in_basis(b, "HV") == pytest.approx(0.995, abs=1e-9)
    assert visibility_in_basis(b, "DA") == pytest.approx(0.97, abs=1e-9)
