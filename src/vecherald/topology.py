"""Polarization singularities: detection, winding indices, pattern rotation.

All analyses run on Stokes maps (not on field phases), so the same code paths
accept reconstructed data.  The azimuth is psi = atan2(S2, S1)/2; winding is
accumulated around discretized circular loops with bilinear sampling.
Singularity candidates are found with numpy only: pixels where the linear
Stokes pair is small are grouped by run-length component labeling, and each
component's centroid is the raster-order mean of its pixel coordinates.

The loop measurements (winding index, radial lines, half-maximum radius) take
(m, 1) columns of loop centres and radii and return one value per point, so
the detector runs each stage as one array pass over all its points; the
public single-loop functions are one-row calls of the same bodies.  Rows are
sampled in blocks of at most nx * ny samples per bilinear_sample call, so no
temporary holds more samples than one map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .polarimetry import StokesMap

CANDIDATE_FRAC = 0.1  # candidates: hypot(S1, S2) under this times its peak
MERGE_RADIUS = 0.3  # candidates closer than this are one point
V_POINT_FRAC = 1e-2  # a point whose S0 is under this times the peak is a V-point
INDEX_SAMPLES = 256  # samples on a winding-index loop
RADIAL_SAMPLES = 1024  # samples on a radial-line loop
LOBE_RADIUS = 1.0  # S3 lobes are counted on this circle about the axis,
LOBE_MIN_HALF_WIDTH = 1.2  # and only in windows with a wider half-width
LOBE_SAMPLES = 512  # samples on that circle
# Rotation: ROTATION_RINGS rings from ROTATION_R_MIN out to min(ROTATION_R_MAX,
# half the window), ROTATION_THETA samples each; the correlation is scanned at
# ROTATION_SCAN angles, and maxima within ROTATION_TIE_TOL in magnitude tie.
ROTATION_R_MIN, ROTATION_R_MAX, ROTATION_RINGS = 0.3, 2.0, 12
ROTATION_THETA, ROTATION_SCAN, ROTATION_TIE_TOL = 512, 8192, 0.02


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


def _in_blocks(grid, samples: int, rows, *cols) -> List[np.ndarray]:
    """rows(*cols) evaluated on blocks of rows, `samples` ring samples per row.

    A block holds at most nx * ny samples (one row at least), so no
    temporary holds more samples than one map, and its temporaries die
    before the next block is sampled.  rows returns a tuple of per-row
    arrays; each is joined back in row order.  No rows still make one empty
    block.
    """
    step = max(1, grid.nx * grid.ny // samples)
    parts = [rows(*(c[i:i + step] for c in cols))
             for i in range(0, max(len(cols[0]), 1), step)]
    return [np.concatenate(part) for part in zip(*parts)]


def _one_row(*values) -> List[np.ndarray]:
    """Single-point arguments as the (1, 1) columns the row bodies take."""
    return [np.full((1, 1), v, np.float64) for v in values]


def _check_loop(grid, center, radius):
    if radius <= 0:
        raise ValueError("loop radius must be positive")
    if max(abs(center[0]), abs(center[1])) + radius > grid.half_width:
        raise ValueError("loop leaves the sampling window")


def _windings(s: StokesMap, cx: np.ndarray, cy: np.ndarray,
              r: np.ndarray) -> List[np.ndarray]:
    """Snapped azimuth winding and residual on one INDEX_SAMPLES loop per row
    of the centre and radius columns (see disclination_index)."""
    def rows(cx, cy, r):
        s1 = _ring_values(s.s1, s.grid, (cx, cy), r, INDEX_SAMPLES)
        s2 = _ring_values(s.s2, s.grid, (cx, cy), r, INDEX_SAMPLES)
        psi = 0.5 * np.arctan2(s2, s1)
        d = np.diff(psi, axis=1, append=psi[:, :1])
        d -= np.pi * np.round(d / np.pi)
        raw = d.sum(axis=1) / (2.0 * np.pi)
        # + 0.0 turns np.round's -0.0 into the +0.0 of a zero index
        snapped = np.round(2.0 * raw) / 2.0 + 0.0
        return snapped, np.abs(raw - snapped)
    return _in_blocks(s.grid, INDEX_SAMPLES, rows, cx, cy, r)


def disclination_index(s: StokesMap, center: Tuple[float, float] = (0.0, 0.0),
                       loop_radius: float = 1.0) -> Tuple[float, float]:
    """Azimuth winding around a circular loop of INDEX_SAMPLES points, snapped
    to half-integers.

    Returns (index, residual) where residual is the distance of the raw
    winding from the snapped value; residuals above roughly 0.1 signal an
    unreliable loop (masked data, loop through a singularity, undersampling).
    """
    _check_loop(s.grid, center, loop_radius)
    idx, res = _windings(s, *_one_row(center[0], center[1], loop_radius))
    return float(idx[0]), float(res[0])


def radial_line_count(index: float) -> int:
    """Number of radial lines implied by a disclination index, 2|index - 1|."""
    if abs(index - 1.0) < 1e-9:
        raise ValueError("a unit-index pattern is rotation symmetric; it has no "
                         "discrete radial-line count")
    return int(round(2.0 * abs(index - 1.0)))


def _radial_lines(s: StokesMap, cx: np.ndarray, cy: np.ndarray,
                  r: np.ndarray) -> List[np.ndarray]:
    """Radial-line count on one RADIAL_SAMPLES loop per row of the centre and
    radius columns, with the rows that have no count: [lines, dark,
    clustered] (see count_radial_lines)."""
    th = np.arange(RADIAL_SAMPLES) * (2.0 * np.pi / RADIAL_SAMPLES)
    turn = np.exp(-2j * th)

    def rows(cx, cy, r):
        z = (_ring_values(s.s1, s.grid, (cx, cy), r, RADIAL_SAMPLES)
             + 1j * _ring_values(s.s2, s.grid, (cx, cy), r, RADIAL_SAMPLES)) * turn
        peak = np.abs(z).max(axis=1)
        live = np.abs(z) > 1e-12 * peak[:, None]
        # a unit-index pattern keeps psi - theta constant: its phasors cluster
        # in one direction (up to sampling noise) and crossings are not
        # discrete.  The mean runs over each row's live samples; rows with a
        # dead sample (rare: exact zeros of S1 and S2) take their own pass.
        full = live.all(axis=1)
        clustered = np.zeros(len(z), bool)
        zf = z[full]
        clustered[full] = np.abs(np.mean(zf / np.abs(zf), axis=1)) > 0.9
        for i in np.flatnonzero(~full & (peak > 0.0)):
            zl = z[i][live[i]]
            clustered[i] = np.abs(np.mean(zl / np.abs(zl))) > 0.9
        pos = z.imag > 0
        flips = pos != np.roll(pos, -1, axis=1)
        re_ok = (z.real + np.roll(z.real, -1, axis=1)) > 0
        return np.count_nonzero(flips & re_ok, axis=1), peak <= 0.0, clustered
    return _in_blocks(s.grid, RADIAL_SAMPLES, rows, cx, cy, r)


def count_radial_lines(s: StokesMap, center: Tuple[float, float] = (0.0, 0.0),
                       loop_radius: float = 1.0) -> int:
    """Count azimuths on a loop of RADIAL_SAMPLES points where the ellipse
    azimuth is radial.

    A radial line crosses the loop where psi matches the loop azimuth modulo
    pi, i.e. where (S1 + iS2) e^{-2i theta} crosses the positive real axis.
    """
    _check_loop(s.grid, center, loop_radius)
    lines, dark, clustered = _radial_lines(s, *_one_row(center[0], center[1], loop_radius))
    if dark[0]:
        raise ValueError("no linear polarization signal on the loop")
    if clustered[0]:
        raise ValueError("azimuth keeps a fixed angle to the loop azimuth; "
                         "radial lines are not discrete here")
    return int(lines[0])


def s3_lobe_count(s: StokesMap) -> int:
    """Number of sign lobes of S3 on the LOBE_RADIUS circle about the axis.

    0 when S3 stays one-signed there, and 0 when the half-width is at most
    LOBE_MIN_HALF_WIDTH, too narrow a window to hold the loop with a margin.
    """
    if s.grid.half_width <= LOBE_MIN_HALF_WIDTH:
        return 0
    v = _ring_values(s.s3, s.grid, (0.0, 0.0), LOBE_RADIUS, LOBE_SAMPLES)
    s0 = _ring_values(s.s0, s.grid, (0.0, 0.0), LOBE_RADIUS, LOBE_SAMPLES)
    if np.abs(v).max() < 1e-9 * s0.max():
        return 0
    pos = v > 0
    return int(np.count_nonzero(pos != np.roll(pos, -1)))


def _azimuth_offset(s: StokesMap, center, loop_radius: float, n: int = 512) -> float:
    """Mean of psi - theta on a loop, for unit-index patterns only."""
    th = np.arange(n) * (2.0 * np.pi / n)
    w = (_ring_values(s.s1, s.grid, center, loop_radius, n)
         + 1j * _ring_values(s.s2, s.grid, center, loop_radius, n))
    z = w * np.exp(-2j * th)
    return 0.5 * float(np.angle(z.sum()))


def classify(report: SingularityReport, s: StokesMap) -> str:
    """Topological class label of a detected singularity.

    V-points are labeled by their order.  C-points follow the index: +1/2
    lemon, -1/2 star, at or beyond +-3/2 hyperlemon/hyperstar, -1 hyperstar.
    Unit index has no discrete radial-line structure; it is split into
    radial, azimuthal, or spiral by the mean azimuth offset on the map s.
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
    lies within min_sep, else it opens a new cluster.  Returns cluster means.

    Only clusters whose mean lies in the 3x3 cells around the point's cell
    are tested, on a hash grid whose edge is a little over min_sep, so no
    rounding in the cell division can put a match further away.
    """
    edge = 1.01 * min_sep
    # Squared distances clear of min_sep by far more than rounding decide
    # alone; the rest take the exact hypot test.
    near, far = (min_sep * (1.0 - 1e-9)) ** 2, (min_sep * (1.0 + 1e-9)) ** 2
    sx: List[float] = []
    sy: List[float] = []
    cnt: List[int] = []
    mx: List[float] = []  # running means, sx / cnt
    my: List[float] = []
    home: List[Tuple[int, int]] = []  # the cell of each running mean
    around = {}  # cell -> ids of the clusters whose mean lies in its 3x3 block

    def block(c):
        return [(c[0] + i, c[1] + j) for i in (-1, 0, 1) for j in (-1, 0, 1)]

    for row in np.reshape(points, (-1, 2)):
        x, y = row.tolist()  # row by row: a list of all points outlives the loop
        c = (math.floor(x / edge), math.floor(y / edge))
        hit = None
        for k in around.get(c, ()):
            if hit is None or k < hit:
                dx, dy = mx[k] - x, my[k] - y
                d2 = dx * dx + dy * dy
                if d2 < near or (d2 < far and np.hypot(dx, dy) < min_sep):
                    hit = k
        if hit is None:
            for b in block(c):
                around.setdefault(b, []).append(len(cnt))
            sx.append(x)
            sy.append(y)
            cnt.append(1)
            mx.append(x)
            my.append(y)
            home.append(c)
            continue
        sx[hit] += x
        sy[hit] += y
        cnt[hit] += 1
        mx[hit], my[hit] = sx[hit] / cnt[hit], sy[hit] / cnt[hit]
        c = (math.floor(mx[hit] / edge), math.floor(my[hit] / edge))
        if c != home[hit]:
            for b in block(home[hit]):
                around[b].remove(hit)
            for b in block(c):
                around.setdefault(b, []).append(hit)
            home[hit] = c
    return list(zip(mx, my))


def _refine_zero(s: StokesMap, x_axis: np.ndarray, y_axis: np.ndarray,
                 x: float, y: float) -> Tuple[float, float]:
    """Subpixel zero of (S1, S2) by local plane fits around the nearest pixel;
    x_axis and y_axis are the grid's axes."""
    g = s.grid
    ix = int(round((x + g.half_width) / g.pitch_x))
    iy = int(round((y + g.half_width) / g.pitch_y))
    k = 2
    if not (k <= ix < g.nx - k and k <= iy < g.ny - k):
        return x, y
    xs = x_axis[ix - k: ix + k + 1]
    ys = y_axis[iy - k: iy + k + 1]
    # the raveled meshgrid of the window: x runs fastest
    a = np.column_stack([np.ones(xs.size * ys.size), np.tile(xs, ys.size), np.repeat(ys, xs.size)])
    c1, *_ = np.linalg.lstsq(a, s.s1[iy - k: iy + k + 1, ix - k: ix + k + 1].ravel(), rcond=None)
    c2, *_ = np.linalg.lstsq(a, s.s2[iy - k: iy + k + 1, ix - k: ix + k + 1].ravel(), rcond=None)
    m = np.array([[c1[1], c1[2]], [c2[1], c2[2]]])
    rhs = -np.array([c1[0], c2[0]])
    sol, *_ = np.linalg.lstsq(m, rhs, rcond=None)
    if np.all(np.isfinite(sol)) and np.hypot(*sol) <= 2.0 * max(g.pitch_x, g.pitch_y) + np.hypot(x - xs[k], y - ys[k]):
        return float(sol[0]), float(sol[1])
    return x, y


def _half_max_radii(s: StokesMap, grid, cx: np.ndarray, cy: np.ndarray) -> np.ndarray:
    """Loop radius for a dark-core singularity at each row of the centre
    columns: where ring-mean S0 reaches half max (see _half_max_radius)."""
    radii = np.linspace(0.1, 0.7 * grid.half_width, 30)
    (means,) = _in_blocks(grid, radii.size * 128, lambda cx, cy: (_ring_values(
        s.s0, grid, (cx[:, :, None], cy[:, :, None]), radii[:, None], 128).mean(axis=2),), cx, cy)
    peak = means.argmax(axis=1)
    half = 0.5 * means[np.arange(len(means)), peak]
    # the first radius up to the peak whose mean reaches half; else the peak
    ok = (means >= half[:, None]) & (np.arange(radii.size) <= peak[:, None])
    return radii[np.where(ok.any(axis=1), ok.argmax(axis=1), peak)]


def _half_max_radius(s: StokesMap, center, grid) -> float:
    """Loop radius for a dark-core singularity: where ring-mean S0 reaches half max."""
    return float(_half_max_radii(s, grid, *_one_row(center[0], center[1]))[0])


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


def find_singularities(s: StokesMap) -> List[SingularityReport]:
    """Locate points where the linear Stokes pair (S1, S2) vanishes.

    Candidate pixels with hypot(S1, S2) under CANDIDATE_FRAC times its peak
    are grouped into 4-connected components by run-length labeling; component
    centroids (raster-order means of the pixel coordinates) are merged within
    MERGE_RADIUS, refined to subpixel zeros and merged again.  The merged
    points then pass through the stages below, each one array pass over all
    points still kept:

    1. V-point test: a point sitting on an intensity null (S0 there against
       the map peak and against a probe ring around it) is a V-point;
    2. loop radius: the half-maximum radius of S0 for V-points, 0.25 for
       C-points, clamped to the window; points left with no radius drop out;
    3. winding index on that loop; points with |index| < 1/4 drop out;
    4. radial lines for every index but 1;
    5. the class label (per point: only unit-index points sample again).

    Homogeneous maps return an empty list.
    """
    g = s.grid
    u = np.hypot(s.s1, s.s2)
    umax = u.max()
    out: List[SingularityReport] = []
    if umax <= 0:
        return out
    cand = u < CANDIDATE_FRAC * umax
    cand[:2, :] = False
    cand[-2:, :] = False
    cand[:, :2] = False
    cand[:, -2:] = False
    x_axis, y_axis = g.x_axis(), g.y_axis()
    centroids = _component_centroids(cand, x_axis, y_axis)
    refined = [_refine_zero(s, x_axis, y_axis, x, y)
               for x, y in _merge_close(centroids, MERGE_RADIUS)]
    xy = np.reshape(sorted(_merge_close(refined, MERGE_RADIUS)), (-1, 2))
    x, y = xy[:, :1], xy[:, 1:]  # columns: one row per point
    # Dark relative to its own immediate surroundings marks a full intensity
    # null; an absolute floor alone fails on coarse grids.
    s0_here = kernels.bilinear_sample(s.s0, x, y, -g.half_width, -g.half_width,
                                      g.pitch_x, g.pitch_y)
    probe = min(0.35, 0.5 * g.half_width)
    (ring_mean,) = _in_blocks(g, 64, lambda x, y: (
        _ring_values(s.s0, g, (x, y), probe, 64).mean(axis=1, keepdims=True),), x, y)
    v_point = ((s0_here < V_POINT_FRAC * s.s0.max()) | (s0_here < 0.05 * ring_mean))[:, 0]
    r = np.full(len(xy), 0.25)
    r[v_point] = _half_max_radii(s, g, x[v_point], y[v_point])
    r = np.minimum(r, g.half_width - np.abs(xy).max(axis=1) - 3 * max(g.pitch_x, g.pitch_y))
    keep = r > 0
    xy, r, v_point = xy[keep], r[keep], v_point[keep]
    idx, res = _windings(s, xy[:, :1], xy[:, 1:], r[:, None])
    keep = np.abs(idx) >= 0.25
    xy, r, v_point, idx, res = xy[keep], r[keep], v_point[keep], idx[keep], res[keep]
    multi = np.abs(idx - 1.0) >= 1e-9
    counts, dark, clustered = _radial_lines(s, xy[multi, :1], xy[multi, 1:], r[multi, None])
    lines = np.full(len(idx), -1)  # -1: no radial-line count
    lines[multi] = np.where(dark | clustered, -1, counts)
    for loc, v, i, e, rad, n in zip(xy.tolist(), v_point.tolist(), idx.tolist(),
                                    res.tolist(), r.tolist(), lines.tolist()):
        rep = SingularityReport(location=tuple(loc), kind="V-point" if v else "C-point",
                                index=i, raw_index=i + (e if i >= 0 else -e),
                                residual=e, label="", loop_radius=rad,
                                radial_lines=None if n < 0 else n)
        rep.label = classify(rep, s)
        out.append(rep)
    return out


def rotation_between(a: StokesMap, b: StokesMap) -> float:
    """Rigid rotation angle carrying pattern a onto pattern b, in (-pi, pi].

    The linear Stokes pair is sampled on concentric rings inside half the
    window (see the ROTATION_* constants); under a rotation by rho the
    complex azimuth variable W = S1 + iS2 obeys
    W_b(theta) = W_a(theta - rho) * e^{2i rho}, so the match quality is the
    real part of e^{-2i rho} times the angular cross-correlation, evaluated
    exactly as a trigonometric polynomial on a fine scan grid.  Among
    near-equal maxima (symmetric patterns) the smallest-magnitude angle wins,
    with positive sign preferred on magnitude ties.
    """
    if a.grid != b.grid:
        raise ValueError("rotation estimation requires a common grid")
    if 0.5 * a.grid.half_width < ROTATION_R_MIN:
        raise ValueError("the window is too narrow for the rotation rings: "
                         f"half its half-width is under {ROTATION_R_MIN}")
    r_max = min(ROTATION_R_MAX, 0.5 * a.grid.half_width)
    radii = np.linspace(ROTATION_R_MIN, r_max, ROTATION_RINGS)[:, None]
    fa, fb = (np.fft.fft(_ring_values(m.s1, m.grid, (0.0, 0.0), radii, ROTATION_THETA)
                         + 1j * _ring_values(m.s2, m.grid, (0.0, 0.0), radii, ROTATION_THETA),
                         axis=1) for m in (a, b))
    # ring by ring, in the order of the radii
    cross = np.zeros(ROTATION_THETA, np.complex128)
    for row in np.conj(fa) * fb:
        cross += row
    power_a = sum(np.sum(np.abs(fa) ** 2, axis=1).tolist())
    power_b = sum(np.sum(np.abs(fb) ** 2, axis=1).tolist())
    freqs = np.rint(np.fft.fftfreq(ROTATION_THETA, 1.0 / ROTATION_THETA)).astype(int)
    big = np.zeros(ROTATION_SCAN, np.complex128)
    big[freqs % ROTATION_SCAN] = cross
    rho = 2.0 * np.pi * np.arange(ROTATION_SCAN) / ROTATION_SCAN
    corr = np.real(np.exp(-2j * rho) * np.fft.ifft(big) * ROTATION_SCAN)
    # Cauchy-Schwarz bound: a rigidly rotated copy correlates at exactly 1.
    denom = np.sqrt(power_a * power_b)
    if denom <= 0 or corr.max() < 0.2 * denom:
        raise ValueError("patterns do not match under any rigid rotation; "
                         "the angle is ambiguous")
    span = corr.max() - corr.min()
    is_max = (corr >= np.roll(corr, 1)) & (corr > np.roll(corr, -1))
    keep = is_max & (corr >= corr.max() - 0.01 * span)
    cands = []
    step = 2.0 * np.pi / ROTATION_SCAN
    for k in np.nonzero(keep)[0]:
        y0, y1, y2 = corr[k - 1], corr[k], corr[(k + 1) % ROTATION_SCAN]
        denom = y0 - 2.0 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if abs(denom) > 0 else 0.0
        ang = rho[k] + np.clip(shift, -0.5, 0.5) * step
        ang = (ang + np.pi) % (2.0 * np.pi) - np.pi
        cands.append(float(ang))
    m0 = min(abs(c) for c in cands)
    close = [c for c in cands if abs(c) <= m0 + ROTATION_TIE_TOL]
    pos = [c for c in close if c >= -1e-12]
    return min(pos, key=abs) if pos else min(close, key=abs)
