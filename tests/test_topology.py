import time

import numpy as np
import pytest

from vecherald.fields import make_grid
from vecherald.kets import (PolKet, PumpSpec, herald, ket_to_field,
                            project_idler_oam0, pump_state, rotate_ket,
                            spdc_state)
from vecherald.polarimetry import (PolarimeterConfig, StokesMap,
                                   reconstruct_stokes, simulate_frames,
                                   stokes_of_field)
from vecherald.topology import (_component_centroids, _half_max_radius,
                                _merge_close, _ring_values,
                                count_radial_lines, classify,
                                disclination_index, find_singularities,
                                lobe_label, radial_line_count,
                                rotation_between, s3_lobe_count)


def _stokes_of_ket(k, n=96, hw=4.0):
    g = make_grid(n, n, hw)
    return stokes_of_field(ket_to_field(k, g))


def _heralded(kind, q, h, phi=0.0, n=96):
    b = project_idler_oam0(spdc_state(pump_state(PumpSpec(kind, q, phi))))
    return _stokes_of_ket(herald(b, h), n=n)


def test_disclination_index_signs():
    sd = _heralded("FP", 0.5, "D")
    sa = _heralded("FP", 0.5, "A")
    for s, want in ((sd, 0.5), (sa, -0.5)):
        idx, res = disclination_index(s)
        assert idx == want
        assert res < 1e-6


def test_loop_radius_independence():
    s = _heralded("FP", 1.5, "A")
    vals = {disclination_index(s, loop_radius=r)[0] for r in (0.5, 1.0, 1.5)}
    assert vals == {-1.5}


def test_disclination_validation():
    s = _heralded("FP", 0.5, "A")
    with pytest.raises(ValueError):
        disclination_index(s, n_samples=32)
    with pytest.raises(ValueError):
        disclination_index(s, center=(3.8, 0.0), loop_radius=1.0)


def test_radial_line_law():
    assert radial_line_count(-0.5) == 3
    assert radial_line_count(0.5) == 1
    assert radial_line_count(-2.0) == 6
    with pytest.raises(ValueError):
        radial_line_count(1.0)


def test_count_radial_lines_matches_law():
    for kind, q, h, want in (("FP", 0.5, "A", 3), ("FP", 0.5, "D", 1),
                             ("VV", 1.0, "A", 6)):
        s = _heralded(kind, q, h)
        assert count_radial_lines(s) == want


def test_unit_index_radial_pattern_is_degenerate():
    # q=1 herald D: the azimuth is radial on every loop azimuth, so discrete
    # radial lines do not exist
    s = _heralded("FP", 1.0, "D", phi=np.pi)
    idx, _ = disclination_index(s)
    assert idx == 1.0
    with pytest.raises(ValueError):
        count_radial_lines(s)


def test_find_singularities_c_point():
    s = _heralded("FP", 0.5, "A")
    reports = find_singularities(s)
    assert len(reports) == 1
    r = reports[0]
    assert r.kind == "C-point"
    assert r.index == -0.5
    assert r.label == "star"
    assert r.radial_lines == 3
    assert np.hypot(*r.location) < 0.05


def test_find_singularities_v_point():
    s = _heralded("VV", 1.0, "A", phi=np.pi)
    (r,) = find_singularities(s)
    assert r.kind == "V-point"
    assert r.index == -2.0
    assert r.label == "V-point(order -2)"
    assert r.radial_lines == 6


def test_homogeneous_map_has_no_singularities():
    s = _stokes_of_ket(PolKet.from_terms([("D", 0, 1.0)]))
    assert find_singularities(s) == []


def test_classification_labels():
    cases = (("FP", 0.5, "D", "lemon"), ("FP", 0.5, "A", "star"),
             ("FP", 1.0, "A", "hyperstar"), ("FP", 1.0, "D", "radial"),
             ("FP", 1.5, "D", "hyperlemon"), ("FP", 1.5, "A", "hyperstar"))
    for kind, q, h, want in cases:
        phi = {0.5: 0.0, 1.0: np.pi, 1.5: np.pi / 4}[q]
        s = _heralded(kind, q, h, phi=phi)
        (r,) = find_singularities(s)
        assert r.label == want, (kind, q, h)


def test_s3_lobe_counts():
    for q, want in ((0.5, 2), (1.0, 4), (1.5, 6)):
        s = _heralded("FP", q, "L")
        assert s3_lobe_count(s) == want
    assert lobe_label(2) == "bipolar"
    assert lobe_label(4) == "quadrupolar"
    assert lobe_label(6) == "hexapolar"
    # A-heralded maps have one-signed S3 on the ring
    assert s3_lobe_count(_heralded("FP", 0.5, "A")) == 0


def test_rotation_between_exact_rotations():
    pump = pump_state(PumpSpec("FP", 0.5, 0.0))
    a = _stokes_of_ket(pump)
    for rho in (0.35, -0.8):
        b = _stokes_of_ket(rotate_ket(pump, rho))
        assert rotation_between(a, b) == pytest.approx(rho, abs=2e-4)


def test_rotation_tie_break_prefers_positive():
    # herald A is rotated from the pump by pi/N with both signs equivalent;
    # the estimator must resolve the tie toward the positive angle
    pump = pump_state(PumpSpec("FP", 0.5, 0.0))
    a = _stokes_of_ket(pump)
    b = _heralded("FP", 0.5, "A")
    assert rotation_between(a, b) == pytest.approx(np.pi / 3, abs=2 * np.pi / 256)


def test_rotation_mismatch_raises():
    a = _stokes_of_ket(pump_state(PumpSpec("FP", 0.5, 0.0)))
    d = _heralded("FP", 0.5, "D")  # opposite azimuth winding: no rigid rotation
    with pytest.raises(ValueError):
        rotation_between(a, d)


def test_classify_v_point_label_formatting():
    s = _heralded("VV", 1.5, "D", phi=np.pi / 4)
    (r,) = find_singularities(s)
    assert r.label == "V-point(order 3)"


def _flood_fill_centroids(mask, x_axis, y_axis):
    """Reference labeling: 4-neighbour flood fill seeded in raster order."""
    ny, nx = mask.shape
    seen = np.zeros_like(mask)
    out = []
    for iy0, ix0 in zip(*np.nonzero(mask)):
        if seen[iy0, ix0]:
            continue
        seen[iy0, ix0] = True
        stack = [(iy0, ix0)]
        sx = sy = 0.0
        n = 0
        while stack:
            cy, cx = stack.pop()
            sx += x_axis[cx]
            sy += y_axis[cy]
            n += 1
            for yy, xx in ((cy - 1, cx), (cy + 1, cx), (cy, cx - 1), (cy, cx + 1)):
                if 0 <= yy < ny and 0 <= xx < nx and mask[yy, xx] and not seen[yy, xx]:
                    seen[yy, xx] = True
                    stack.append((yy, xx))
        out.append((sx / n, sy / n))
    return out


def _mask(picture):
    return np.array([[c == "#" for c in row] for row in picture.split()])


# name: (mask picture, number of 4-connected components)
HAND_MASKS = {
    # arms are separate runs on every row but the last
    "u_shape": ("""
        #...#..#
        #...#..#
        #...#..#
        #####..#
        ........
        .#.##.#.
        .####.#.
    """, 4),
    # one component whose rows hold many runs joined only through the coil
    "spiral": ("""
        #########
        ........#
        #######.#
        #.....#.#
        #.###.#.#
        #.#...#.#
        #.#####.#
        #.......#
        #########
    """, 1),
    # corner contacts do not connect under 4-connectivity
    "diagonal": ("""
        #.#.#
        .#.#.
        #.#.#
        .#...
    """, 9),
    "single_pixel": ("""
        .....
        ..#..
        .....
    """, 1),
    "empty": ("""
        ....
        ....
    """, 0),
}


def _assert_same_components(mask, x_axis, y_axis):
    want = _flood_fill_centroids(mask, x_axis, y_axis)
    got = _component_centroids(mask, x_axis, y_axis)
    assert len(got) == len(want)
    np.testing.assert_allclose(np.reshape(got, (-1, 2)), np.reshape(want, (-1, 2)),
                               rtol=0, atol=1e-12)
    return got


@pytest.mark.parametrize("name", sorted(HAND_MASKS))
def test_component_labeling_hand_masks(name):
    picture, n_components = HAND_MASKS[name]
    mask = _mask(picture)
    ny, nx = mask.shape
    got = _assert_same_components(mask, np.linspace(-2.0, 3.0, nx),
                                  np.linspace(-1.5, 1.0, ny))
    assert len(got) == n_components


@pytest.mark.parametrize("density", [0.1, 0.35, 0.55, 0.6, 0.8, 0.97])
def test_component_labeling_matches_flood_fill(density):
    rng = np.random.default_rng(int(density * 100))
    for _ in range(20):
        ny, nx = rng.integers(1, 48, 2)
        mask = rng.random((ny, nx)) < density
        _assert_same_components(mask, np.linspace(-4.0, 4.0, nx) + rng.normal(0, 0.01, nx),
                                np.linspace(-4.0, 4.0, ny) + rng.normal(0, 0.01, ny))


def _merge_close_loop(points, min_sep):
    """Reference merge: the same greedy first match over Python lists."""
    merged = []
    for x, y in points:
        for m in merged:
            if np.hypot(m[0] / m[2] - x, m[1] / m[2] - y) < min_sep:
                m[0] += x
                m[1] += y
                m[2] += 1
                break
        else:
            merged.append([x, y, 1])
    return [(m[0] / m[2], m[1] / m[2]) for m in merged]


def test_merge_close_matches_loop():
    rng = np.random.default_rng(7)
    sets = [rng.uniform(-2.0, 2.0, (n, 2)) for n in (0, 1, 5, 60, 400)]
    # chains with steps just under the merge radius: each point can reach
    # several clusters, so the first match in creation order decides
    for step in (0.25, 0.29, 0.31):
        t = np.cumsum(rng.uniform(0.5 * step, step, 80))
        sets.append(np.column_stack([t, 0.1 * np.sin(3.0 * t)]))
        sets.append(rng.permutation(sets[-1]))
    sets.append(np.array([[0.0, 0.0], [0.2, 0.0], [-0.2, 0.0], [0.4, 0.0],
                          [0.1, 0.0], [0.55, 0.0], [0.35, 0.0]]))
    for pts in sets:
        points = [(float(x), float(y)) for x, y in pts]
        assert _merge_close(points, 0.3) == _merge_close_loop(points, 0.3)


def _half_max_radius_loop(s, center, grid):
    """Reference: one ring-sampling call per trial radius."""
    radii = np.linspace(0.1, 0.7 * grid.half_width, 30)
    means = np.array([_ring_values(s.s0, grid, center, r, 128).mean() for r in radii])
    peak = means.argmax()
    half = 0.5 * means[peak]
    for r, m in zip(radii[:peak + 1], means[:peak + 1]):
        if m >= half:
            return float(r)
    return float(radii[peak])


def test_half_max_radius_matches_per_radius_loop():
    # a dark-core VV q=1 pump: the chosen radius varies with the center
    g = make_grid(96, 96, 4.0)
    field = ket_to_field(pump_state(PumpSpec("VV", 1.0, 0.0)), g)
    clean = stokes_of_field(field)
    pcfg = PolarimeterConfig(noise_rms=0.03, seed=3)
    noisy = reconstruct_stokes(simulate_frames(field, pcfg), pcfg, g)
    rng = np.random.default_rng(11)
    # speckle makes every ring mean depend on exactly which samples it takes
    speckled = StokesMap(g, clean.s0 * rng.uniform(0.0, 2.0, clean.s0.shape),
                         clean.s1, clean.s2, clean.s3)
    centers = [(0.0, 0.0)] + [tuple(c) for c in rng.uniform(-0.5, 0.5, (60, 2))]
    radii = np.linspace(0.1, 0.7 * g.half_width, 30)
    chosen = set()
    for s in (clean, noisy, speckled):
        for c in centers:
            r = _half_max_radius(s, c, g)
            assert r == _half_max_radius_loop(s, c, g)
            chosen.add(r)
            rings = _ring_values(s.s0, g, c, radii[:, None], 128)
            for radius, row in zip(radii, rings):
                assert np.array_equal(row, _ring_values(s.s0, g, c, radius, 128))
    assert len(chosen) >= 5


def test_find_singularities_1024_runtime():
    b = project_idler_oam0(spdc_state(pump_state(PumpSpec("FP", 0.5, 0.0))))
    s = stokes_of_field(ket_to_field(herald(b, "A"), make_grid(1024, 1024, 4.0)))
    best = np.inf
    for _ in range(2):
        t0 = time.perf_counter()
        (r,) = find_singularities(s)
        best = min(best, time.perf_counter() - t0)
    assert r.label == "star"
    assert best < 0.5
