"""Polarization singularities: detection, winding indices, pattern rotation.

All analyses run on Stokes maps (not on field phases), so the same code paths
accept reconstructed data.  The azimuth is psi = atan2(S2, S1)/2; winding is
accumulated around discretized circular loops with bilinear sampling.
Singularity candidates are found with numpy only: pixels where the linear
Stokes pair is small are grouped by run-length component labeling, and each
component's centroid is the raster-order mean of its pixel coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .polarimetry import StokesMap


@dataclass
class SingularityReport:
    """One detected polarization singularity and its loop diagnostics."""

    location: Tuple[float, float]
    kind: str
    index: float
    raw_index: float
    residual: float
    label: str
    loop_radius: float
    radial_lines: Optional[int] = None


def _ring_values(arr: np.ndarray, grid, center, radius, n: int) -> np.ndarray:
    """n samples on a circle; a column of radii gives one ring per row."""
    th = np.arange(n) * (2.0 * np.pi / n)
    xs = center[0] + radius * np.cos(th)
    ys = center[1] + radius * np.sin(th)
    return kernels.bilinear_sample(arr, xs, ys,
                                   -grid.half_width, -grid.half_width,
                                   grid.pitch_x, grid.pitch_y)


def _check_loop(grid, center, radius):
    if radius <= 0:
        raise ValueError("loop radius must be positive")
    if max(abs(center[0]), abs(center[1])) + radius > grid.half_width:
        raise ValueError("loop leaves the sampling window")


def disclination_index(s: StokesMap, center: Tuple[float, float] = (0.0, 0.0),
                       loop_radius: float = 1.0,
                       n_samples: int = 256) -> Tuple[float, float]:
    """Azimuth winding around a circular loop, snapped to half-integers.

    Returns (index, residual) where residual is the distance of the raw
    winding from the snapped value; residuals above roughly 0.1 signal an
    unreliable loop (masked data, loop through a singularity, undersampling).
    """
    if n_samples < 64:
        raise ValueError("use at least 64 loop samples")
    _check_loop(s.grid, center, loop_radius)
    s1 = _ring_values(s.s1, s.grid, center, loop_radius, n_samples)
    s2 = _ring_values(s.s2, s.grid, center, loop_radius, n_samples)
    psi = 0.5 * np.arctan2(s2, s1)
    d = np.diff(psi, append=psi[:1])
    d -= np.pi * np.round(d / np.pi)
    raw = float(d.sum() / (2.0 * np.pi))
    snapped = round(2.0 * raw) / 2.0
    return snapped, abs(raw - snapped)


def radial_line_count(index: float) -> int:
    """Number of radial lines implied by a disclination index, 2|index - 1|."""
    if abs(index - 1.0) < 1e-9:
        raise ValueError("a unit-index pattern is rotation symmetric; it has no "
                         "discrete radial-line count")
    return int(round(2.0 * abs(index - 1.0)))


def count_radial_lines(s: StokesMap, center: Tuple[float, float] = (0.0, 0.0),
                       loop_radius: float = 1.0, n_samples: int = 1024) -> int:
    """Count azimuths on a loop where the ellipse azimuth is radial.

    A radial line crosses the loop where psi matches the loop azimuth modulo
    pi, i.e. where (S1 + iS2) e^{-2i theta} crosses the positive real axis.
    """
    _check_loop(s.grid, center, loop_radius)
    th = np.arange(n_samples) * (2.0 * np.pi / n_samples)
    w = (_ring_values(s.s1, s.grid, center, loop_radius, n_samples)
         + 1j * _ring_values(s.s2, s.grid, center, loop_radius, n_samples))
    z = w * np.exp(-2j * th)
    peak = np.abs(z).max()
    if peak <= 0.0:
        raise ValueError("no linear polarization signal on the loop")
    live = np.abs(z) > 1e-12 * peak
    # a unit-index pattern keeps psi - theta constant: its phasors cluster in
    # one direction (up to sampling noise) and crossings are not discrete
    if np.abs(np.mean(z[live] / np.abs(z[live]))) > 0.9:
        raise ValueError("azimuth keeps a fixed angle to the loop azimuth; "
                         "radial lines are not discrete here")
    pos = z.imag > 0
    flips = pos != np.roll(pos, -1)
    re_ok = (z.real + np.roll(z.real, -1)) > 0
    return int(np.count_nonzero(flips & re_ok))


def s3_lobe_count(s: StokesMap, center: Tuple[float, float] = (0.0, 0.0),
                  loop_radius: float = 1.0, n_samples: int = 512) -> int:
    """Number of sign lobes of S3 around a loop (0 when S3 stays one-signed)."""
    _check_loop(s.grid, center, loop_radius)
    v = _ring_values(s.s3, s.grid, center, loop_radius, n_samples)
    s0 = _ring_values(s.s0, s.grid, center, loop_radius, n_samples)
    if np.abs(v).max() < 1e-9 * s0.max():
        return 0
    pos = v > 0
    return int(np.count_nonzero(pos != np.roll(pos, -1)))


def lobe_label(count: int) -> str:
    return {2: "bipolar", 4: "quadrupolar", 6: "hexapolar"}.get(count, f"{count}-lobed")


def _azimuth_offset(s: StokesMap, center, loop_radius: float, n: int = 512) -> float:
    """Mean of psi - theta on a loop, for unit-index patterns only."""
    th = np.arange(n) * (2.0 * np.pi / n)
    w = (_ring_values(s.s1, s.grid, center, loop_radius, n)
         + 1j * _ring_values(s.s2, s.grid, center, loop_radius, n))
    z = w * np.exp(-2j * th)
    return 0.5 * float(np.angle(z.sum()))


def classify(report: SingularityReport, s: Optional[StokesMap] = None) -> str:
    """Topological class label of a detected singularity.

    V-points are labeled by their order.  C-points follow the index: +1/2
    lemon, -1/2 star, at or beyond +-3/2 hyperlemon/hyperstar, -1 hyperstar.
    Unit index has no discrete radial-line structure; with a map available it
    is split into radial, azimuthal, or spiral by the mean azimuth offset.
    """
    if report.kind == "V-point":
        return f"V-point(order {report.index:g})"
    idx = report.index
    if idx == 0.5:
        return "lemon"
    if idx == -0.5:
        return "star"
    if idx >= 1.5:
        return "hyperlemon"
    if idx <= -1.0:
        return "hyperstar"
    if idx == 1.0:
        if s is None:
            return "unit-index"
        off = _azimuth_offset(s, report.location, report.loop_radius)
        if abs(off) < 0.15:
            return "radial"
        if abs(abs(off) - 0.5 * np.pi) < 0.15:
            return "azimuthal"
        return "spiral"
    return f"index {idx:g}"


def _merge_close(points: Sequence[Tuple[float, float]],
                 min_sep: float) -> List[Tuple[float, float]]:
    """Greedy clustering: each point joins the first cluster whose running mean
    lies within min_sep, else it opens a new cluster.  Returns cluster means."""
    sx, sy, cnt = (np.empty(len(points)) for _ in range(3))
    k = 0
    for x, y in points:
        hit = np.flatnonzero(np.hypot(sx[:k] / cnt[:k] - x, sy[:k] / cnt[:k] - y) < min_sep)
        if hit.size:
            j = hit[0]
            sx[j] += x
            sy[j] += y
            cnt[j] += 1
        else:
            sx[k], sy[k], cnt[k] = x, y, 1
            k += 1
    return list(zip((sx[:k] / cnt[:k]).tolist(), (sy[:k] / cnt[:k]).tolist()))


def _refine_zero(s: StokesMap, x: float, y: float) -> Tuple[float, float]:
    """Subpixel zero of (S1, S2) by local plane fits around the nearest pixel."""
    g = s.grid
    ix = int(round((x + g.half_width) / g.pitch_x))
    iy = int(round((y + g.half_width) / g.pitch_y))
    k = 2
    if not (k <= ix < g.nx - k and k <= iy < g.ny - k):
        return x, y
    xs = g.x_axis()[ix - k: ix + k + 1]
    ys = g.y_axis()[iy - k: iy + k + 1]
    xg, yg = np.meshgrid(xs, ys)
    a = np.column_stack([np.ones(xg.size), xg.ravel(), yg.ravel()])
    c1, *_ = np.linalg.lstsq(a, s.s1[iy - k: iy + k + 1, ix - k: ix + k + 1].ravel(), rcond=None)
    c2, *_ = np.linalg.lstsq(a, s.s2[iy - k: iy + k + 1, ix - k: ix + k + 1].ravel(), rcond=None)
    m = np.array([[c1[1], c1[2]], [c2[1], c2[2]]])
    rhs = -np.array([c1[0], c2[0]])
    sol, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    if np.all(np.isfinite(sol)) and np.hypot(*sol) <= 2.0 * max(g.pitch_x, g.pitch_y) + np.hypot(x - xs[k], y - ys[k]):
        return float(sol[0]), float(sol[1])
    return x, y


def _half_max_radius(s: StokesMap, center, grid) -> float:
    """Loop radius for a dark-core singularity: where ring-mean S0 reaches half max."""
    radii = np.linspace(0.1, 0.7 * grid.half_width, 30)
    means = _ring_values(s.s0, grid, center, radii[:, None], 128).mean(axis=1)
    peak = means.argmax()
    half = 0.5 * means[peak]
    for r, m in zip(radii[:peak + 1], means[:peak + 1]):
        if m >= half:
            return float(r)
    return float(radii[peak])


def _run_labels(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Component number and length of each run of True pixels, in raster order.

    Two-pass run-length labeling (Rosenfeld & Pfaltz, J. ACM 13, 471, 1966):
    np.diff on the column-padded mask gives each row's runs, and a union-find
    over runs joins those sharing a column on adjacent rows (4-connectivity).
    Components are numbered by their first run, which is the raster order in
    which a pixel scan first meets them.
    """
    w = mask.shape[1] + 1
    edge = np.diff(np.pad(mask, ((0, 0), (1, 1))).view(np.int8), axis=1)
    row, start = np.nonzero(edge == 1)
    end = np.nonzero(edge == -1)[1]
    # Runs on the row above that share a column with each run form the index
    # range [lo, hi): their end lies past its start and their start before its
    # end.  Keys row * w + column keep the search inside that row.
    above = (row - 1) * w
    lo = np.searchsorted(row * w + end, above + start, side="right")
    hi = np.searchsorted(row * w + start, above + end, side="left")
    n_up = hi - lo
    first_edge = np.cumsum(n_up) - n_up
    below = np.repeat(np.arange(row.size), n_up)
    upper = np.repeat(lo - first_edge, n_up) + np.arange(below.size)
    # Rounds of numpy hooking: the larger root of every edge that still joins
    # two trees is pointed at the smaller one, then pointer jumping makes every
    # run point straight at its root.  Pointers only ever decrease, so each
    # component ends rooted at its first run.  np.minimum.at, because with
    # plain assignment a repeated root keeps only its last write, and an edge
    # inside one tree would undo the hook.
    root = np.arange(row.size)
    while True:
        ra, rb = root[upper], root[below]
        if np.array_equal(ra, rb):
            break
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while not np.array_equal(jumped := root[root], root):
            root = jumped
    return np.unique(root, return_inverse=True)[1], end - start


def _component_centroids(mask: np.ndarray, x_axis: np.ndarray,
                         y_axis: np.ndarray) -> np.ndarray:
    """(n, 2) centroids of the 4-connected components of a boolean mask, in
    the order a raster scan meets them; each is the raster-order sum of its
    pixels' axis values divided by the pixel count."""
    # the run arrays die inside _run_labels, before the per-pixel arrays exist
    label = np.repeat(*_run_labels(mask))
    count = np.bincount(label)
    iy, ix = np.nonzero(mask)
    return np.column_stack([np.bincount(label, x_axis[ix]) / count,
                            np.bincount(label, y_axis[iy]) / count])


def find_singularities(s: StokesMap, threshold: float = 0.1,
                       min_separation: float = 0.3,
                       loop_radius: Optional[float] = None,
                       n_loop: int = 256,
                       v_intensity_frac: float = 1e-2) -> List[SingularityReport]:
    """Locate points where the linear Stokes pair (S1, S2) vanishes.

    Candidate pixels with hypot(S1, S2) under threshold times its peak are
    grouped into 4-connected components by run-length labeling; component
    centroids (raster-order means of the pixel coordinates) are merged within
    min_separation, refined to subpixel zeros, merged again, and kept when
    the loop winding around them is nonzero.  Points sitting on an
    intensity null are V-points; the loop there is pushed out to the
    half-maximum radius of S0.  Homogeneous maps return an empty list.
    """
    g = s.grid
    u = np.hypot(s.s1, s.s2)
    umax = u.max()
    out: List[SingularityReport] = []
    if umax <= 0:
        return out
    cand = u < threshold * umax
    cand[:2, :] = False
    cand[-2:, :] = False
    cand[:, :2] = False
    cand[:, -2:] = False
    centroids = _component_centroids(cand, g.x_axis(), g.y_axis())
    refined = [_refine_zero(s, x, y) for x, y in _merge_close(centroids, min_separation)]
    s0max = s.s0.max()
    for x, y in sorted(_merge_close(refined, min_separation)):
        s0_here = float(kernels.bilinear_sample(
            s.s0, np.array([x]), np.array([y]),
            -g.half_width, -g.half_width, g.pitch_x, g.pitch_y)[0])
        # Dark relative to its own immediate surroundings marks a full
        # intensity null; an absolute floor alone fails on coarse grids.
        probe = min(0.35, 0.5 * g.half_width)
        ring_mean = float(_ring_values(s.s0, g, (x, y), probe, 64).mean())
        kind = "V-point" if (s0_here < v_intensity_frac * s0max
                             or s0_here < 0.05 * ring_mean) else "C-point"
        if loop_radius is not None:
            r = loop_radius
        elif kind == "V-point":
            r = _half_max_radius(s, (x, y), g)
        else:
            r = 0.25
        r = min(r, g.half_width - max(abs(x), abs(y)) - 3 * max(g.pitch_x, g.pitch_y))
        if r <= 0:
            continue
        idx, res = disclination_index(s, (x, y), r, n_loop)
        if abs(idx) < 0.25:
            continue
        try:
            lines = None if abs(idx - 1.0) < 1e-9 else count_radial_lines(s, (x, y), r)
        except ValueError:
            lines = None
        rep = SingularityReport(location=(x, y), kind=kind, index=idx,
                                raw_index=idx + (res if idx >= 0 else -res),
                                residual=res, label="", loop_radius=r,
                                radial_lines=lines)
        rep.label = classify(rep, s)
        out.append(rep)
    return out


def rotation_between(a: StokesMap, b: StokesMap, r_min: float = 0.3,
                     r_max: float = 2.0, n_rings: int = 12, n_theta: int = 512,
                     n_scan: int = 8192, tie_tol: float = 0.02) -> float:
    """Rigid rotation angle carrying pattern a onto pattern b, in (-pi, pi].

    The linear Stokes pair is sampled on concentric rings; under a rotation
    by rho the complex azimuth variable W = S1 + iS2 obeys
    W_b(theta) = W_a(theta - rho) * e^{2i rho}, so the match quality is the
    real part of e^{-2i rho} times the angular cross-correlation, evaluated
    exactly as a trigonometric polynomial on a fine scan grid.  Among
    near-equal maxima (symmetric patterns) the smallest-magnitude angle wins,
    with positive sign preferred on magnitude ties.
    """
    if a.grid != b.grid:
        raise ValueError("rotation estimation requires a common grid")
    if r_max >= a.grid.half_width:
        raise ValueError("outer ring leaves the sampling window")
    cross = np.zeros(n_theta, np.complex128)
    power_a = power_b = 0.0
    for r in np.linspace(r_min, r_max, n_rings):
        wa = (_ring_values(a.s1, a.grid, (0.0, 0.0), r, n_theta)
              + 1j * _ring_values(a.s2, a.grid, (0.0, 0.0), r, n_theta))
        wb = (_ring_values(b.s1, b.grid, (0.0, 0.0), r, n_theta)
              + 1j * _ring_values(b.s2, b.grid, (0.0, 0.0), r, n_theta))
        fa, fb = np.fft.fft(wa), np.fft.fft(wb)
        cross += np.conj(fa) * fb
        power_a += float(np.sum(np.abs(fa) ** 2))
        power_b += float(np.sum(np.abs(fb) ** 2))
    freqs = np.rint(np.fft.fftfreq(n_theta, 1.0 / n_theta)).astype(int)
    big = np.zeros(n_scan, np.complex128)
    big[freqs % n_scan] = cross
    rho = 2.0 * np.pi * np.arange(n_scan) / n_scan
    corr = np.real(np.exp(-2j * rho) * np.fft.ifft(big) * n_scan)
    # Cauchy-Schwarz bound: a rigidly rotated copy correlates at exactly 1.
    denom = np.sqrt(power_a * power_b)
    if denom <= 0 or corr.max() < 0.2 * denom:
        raise ValueError("patterns do not match under any rigid rotation; "
                         "the angle is ambiguous")
    span = corr.max() - corr.min()
    is_max = (corr >= np.roll(corr, 1)) & (corr > np.roll(corr, -1))
    keep = is_max & (corr >= corr.max() - 0.01 * span)
    cands = []
    step = 2.0 * np.pi / n_scan
    for k in np.nonzero(keep)[0]:
        y0, y1, y2 = corr[k - 1], corr[k], corr[(k + 1) % n_scan]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if abs(denom) > 0 else 0.0
        ang = rho[k] + np.clip(shift, -0.5, 0.5) * step
        ang = (ang + np.pi) % (2.0 * np.pi) - np.pi
        cands.append(float(ang))
    m0 = min(abs(c) for c in cands)
    close = [c for c in cands if abs(c) <= m0 + tie_tol]
    pos = [c for c in close if c >= -1e-12]
    return min(pos, key=abs) if pos else min(close, key=abs)
