"""Rotating quarter-wave-plate polarimetry and polarization-ellipse maps.

The forward model is a quarter-wave retarder at orientation theta followed by
a fixed horizontal polarizer, giving the transmitted intensity

    I(theta) = (S0 + S1 cos^2 2theta + S2 sin 2theta cos 2theta
                - S3 sin 2theta) / 2

under the declared Stokes conventions (S3 = +S0 for the L label, extinguished
at theta = pi/4).  Eight frames at pi/8 steps make the default acquisition;
reconstruction runs a per-pixel least-squares solve through the pseudo-inverse
of the response matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from . import kernels
from .fields import GridSpec, VectorField, hv_arrays

CLASS_LINEAR = 0
CLASS_LEFT = 1
CLASS_RIGHT = 2
CLASS_NAMES = {CLASS_LINEAR: "linear", CLASS_LEFT: "left", CLASS_RIGHT: "right"}

_QUARTER_WAVE = 0.5 * np.pi


def default_angles(n: int = 8) -> Tuple[float, ...]:
    """n analyzer orientations spanning [0, pi) in equal steps."""
    return tuple(k * np.pi / n for k in range(n))


@dataclass(frozen=True)
class PolarimeterConfig:
    """Acquisition plan: plate orientations plus an optional noise model.

    noise_rms is quoted relative to the brightest ideal frame sample; zero
    (the default) keeps the acquisition exactly deterministic.
    """

    angles: Tuple[float, ...] = field(default_factory=default_angles)
    noise_rms: float = 0.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))
        if len(self.angles) < 4:
            raise ValueError("need at least 4 analyzer angles")
        if not (np.isfinite(self.noise_rms) and self.noise_rms >= 0):
            raise ValueError(
                f"noise_rms must be finite and nonnegative, got {self.noise_rms}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class StokesMap:
    """Four real Stokes grids sharing one sampling window."""

    grid: GridSpec
    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray

    def __post_init__(self):
        shape = (self.grid.ny, self.grid.nx)
        for name in ("s0", "s1", "s2", "s3"):
            arr = np.asarray(getattr(self, name), np.float64)
            if arr.shape != shape:
                raise ValueError(f"{name} shape {arr.shape} does not match grid {shape}")
            setattr(self, name, arr)


@dataclass
class EllipseMap:
    """Per-pixel ellipse azimuth, ellipticity angle, and handedness class.

    psi lies in (-pi/2, pi/2], chi in [-pi/4, pi/4]; handedness holds the
    CLASS_* codes and is only meaningful where mask is True.
    """

    grid: GridSpec
    psi: np.ndarray
    chi: np.ndarray
    handedness: np.ndarray
    mask: np.ndarray


def stokes_of_field(f: VectorField) -> StokesMap:
    """Analytic Stokes parameters of a fully polarized sampled field."""
    eh, ev = hv_arrays(f)
    s0, s1, s2, s3 = kernels.stokes_from_hv(eh, ev)
    return StokesMap(grid=f.grid, s0=s0, s1=s1, s2=s2, s3=s3)


def simulate_frames(f: VectorField, cfg: Optional[PolarimeterConfig] = None) -> np.ndarray:
    """Stack of transmitted-intensity frames, one per analyzer angle."""
    if cfg is None:
        cfg = PolarimeterConfig()
    eh, ev = hv_arrays(f)
    frames = np.empty((len(cfg.angles), f.grid.ny, f.grid.nx), np.float64)
    beta = np.empty((f.grid.ny, f.grid.nx), np.float64)
    for i, th in enumerate(cfg.angles):
        beta.fill(2.0 * th)
        oh, _ = kernels.retarder_apply(eh, ev, beta, _QUARTER_WAVE)
        frames[i] = oh.real ** 2 + oh.imag ** 2
    if cfg.noise_rms > 0:
        rng = np.random.default_rng(cfg.seed)
        frames += rng.normal(0.0, cfg.noise_rms * frames.max(), frames.shape)
    return frames


def response_matrix(cfg: Optional[PolarimeterConfig] = None) -> np.ndarray:
    """Rows mapping (S0..S3) to transmitted intensity, one per angle."""
    if cfg is None:
        cfg = PolarimeterConfig()
    th = np.asarray(cfg.angles, float)
    c2 = np.cos(2 * th)
    s2 = np.sin(2 * th)
    m = 0.5 * np.column_stack([np.ones_like(th), c2 * c2, s2 * c2, -s2])
    if np.linalg.matrix_rank(m, tol=1e-10) < 4:
        raise ValueError("analyzer angle set is rank deficient; cannot solve for 4 "
                         "Stokes components")
    return m


def reconstruct_stokes(frames: np.ndarray, cfg: Optional[PolarimeterConfig],
                       grid: GridSpec) -> StokesMap:
    """Per-pixel least-squares Stokes solve from a frame stack."""
    if cfg is None:
        cfg = PolarimeterConfig()
    frames = np.asarray(frames, np.float64)
    if frames.shape != (len(cfg.angles), grid.ny, grid.nx):
        raise ValueError(f"frame stack shape {frames.shape} does not match "
                         f"{len(cfg.angles)} angles on a {grid.ny}x{grid.nx} grid")
    pinv = np.linalg.pinv(response_matrix(cfg), rcond=1e-12)
    sol = pinv @ frames.reshape(len(cfg.angles), -1)
    shape = (grid.ny, grid.nx)
    return StokesMap(grid=grid, s0=sol[0].reshape(shape), s1=sol[1].reshape(shape),
                     s2=sol[2].reshape(shape), s3=sol[3].reshape(shape))


def ellipse_map(s: StokesMap, linear_threshold: float = 0.1,
                intensity_threshold: float = 0.05) -> EllipseMap:
    """Ellipse parameters and tricolor handedness classes from a Stokes map.

    Pixels with S0 below intensity_threshold times the peak are masked out;
    a pixel is linear when |S3|/S0 stays below linear_threshold, otherwise
    left- or right-handed by the sign of S3.
    """
    if not (0 < linear_threshold < 1 and 0 < intensity_threshold < 1):
        raise ValueError("thresholds must lie in (0, 1)")
    mask = s.s0 > intensity_threshold * s.s0.max()
    psi = 0.5 * np.arctan2(s.s2, s.s1)
    psi = np.where(psi <= -0.5 * np.pi, psi + np.pi, psi)
    safe_s0 = np.where(mask, s.s0, 1.0)
    ratio = np.clip(s.s3 / safe_s0, -1.0, 1.0)
    chi = 0.5 * np.arcsin(ratio)
    handedness = np.full(s.s0.shape, CLASS_LINEAR, np.int8)
    handedness[ratio > linear_threshold] = CLASS_LEFT
    handedness[ratio < -linear_threshold] = CLASS_RIGHT
    return EllipseMap(grid=s.grid, psi=psi, chi=chi,
                      handedness=handedness, mask=mask)


def stokes_homogeneity(s: StokesMap, intensity_threshold: float = 0.05) -> float:
    """Spatial uniformity metric of the normalized polarization state.

    The maximum over S1/S0, S2/S0, S3/S0 of the standard deviation across
    unmasked pixels; zero for a perfectly homogeneous polarization pattern.
    """
    mask = s.s0 > intensity_threshold * s.s0.max()
    if not mask.any():
        raise ValueError("intensity mask excludes every pixel")
    s0 = s.s0[mask]
    return max(float(np.std(comp[mask] / s0)) for comp in (s.s1, s.s2, s.s3))
