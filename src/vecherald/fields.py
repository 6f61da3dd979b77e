"""Scalar and vector transverse fields on a square sampling window.

All lengths are quoted in units of the beam waist by convention: the default
grid spans 4 waists half-width at 256 x 256 samples.  Even sample counts put
the beam axis between pixels, so nothing is ever evaluated exactly on the
vortex axis.  An odd count puts one sample on the axis and is accepted: the
mode kernels stay finite there, and the singularity search finds the same
central singularity as on the neighbouring even grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from . import kernels

BASES = ("HV", "DA", "LR")

_SQ2 = np.sqrt(2.0)


@dataclass(frozen=True)
class GridSpec:
    """Square sampling window: nx by ny points spanning +-half_width per axis."""

    nx: int
    ny: int
    half_width: float

    def __post_init__(self):
        if self.nx < 16 or self.ny < 16:
            raise ValueError(f"grid must be at least 16x16, got {self.nx}x{self.ny}")
        if not (np.isfinite(self.half_width) and self.half_width > 0):
            raise ValueError(
                f"half_width must be finite and positive, got {self.half_width}")

    @property
    def pitch_x(self) -> float:
        return 2.0 * self.half_width / (self.nx - 1)

    @property
    def pitch_y(self) -> float:
        return 2.0 * self.half_width / (self.ny - 1)

    @property
    def pixel_area(self) -> float:
        return self.pitch_x * self.pitch_y

    def x_axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.nx)

    def y_axis(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.ny)

    def meshes(self):
        """Coordinate arrays shaped (ny, nx); row index runs along y."""
        return np.meshgrid(self.x_axis(), self.y_axis())


def make_grid(nx: int = 256, ny: int = 256, half_width: float = 4.0) -> GridSpec:
    return GridSpec(nx=nx, ny=ny, half_width=half_width)


@dataclass
class ScalarField:
    """Complex scalar amplitude sampled on a grid."""

    grid: GridSpec
    samples: np.ndarray

    def __post_init__(self):
        if self.samples.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                f"samples shape {self.samples.shape} does not match grid "
                f"({self.grid.ny}, {self.grid.nx})"
            )
        if self.samples.dtype != np.complex128:
            object.__setattr__(self, "samples", self.samples.astype(np.complex128))


def _check_shift(grid: GridSpec, dx: float, dy: float) -> None:
    """Shifts stay under half the window half-width so the support stays inside."""
    hw = grid.half_width
    if not (abs(dx) < 0.5 * hw and abs(dy) < 0.5 * hw):
        raise ValueError(f"shift ({dx}, {dy}) exceeds half_width/2 = {0.5 * hw}")


def _normalized(grid: GridSpec, raw: np.ndarray, centred: np.ndarray) -> ScalarField:
    """raw scaled by 1/norm of the centred samples, so a shift keeps the scale."""
    norm = np.sqrt(np.sum(np.abs(centred) ** 2) * grid.pixel_area)
    if norm == 0.0:
        raise ValueError("mode vanishes on this grid")
    return ScalarField(grid=grid, samples=raw * (1.0 / norm))


def lg_mode(grid: GridSpec, ell: int, waist: float = 1.0,
            center: tuple[float, float] = (0.0, 0.0)) -> ScalarField:
    """Laguerre-Gauss mode with zero radial order, normalized to unit power.

    Amplitude goes as (sqrt(2) r / w)^|ell| exp(-r^2/w^2) exp(i ell phi); the
    intensity ring of the ell-th mode peaks at r = w sqrt(|ell|/2).  A nonzero
    center shifts the closed form exactly and keeps the centred mode's scale.
    """
    if int(ell) != ell:
        raise ValueError("ell must be an integer")
    ell = int(ell)
    if not waist > 0:
        raise ValueError("waist must be positive")
    x0, y0 = center
    _check_shift(grid, x0, y0)
    xg, yg = grid.meshes()
    raw = kernels.lg_samples(xg - x0, yg - y0, ell, waist)
    centred = raw if x0 == 0.0 and y0 == 0.0 else kernels.lg_samples(xg, yg, ell, waist)
    return _normalized(grid, raw, centred)


def _helical_samples(xg, yg, ell: int, waist: float) -> np.ndarray:
    raw = kernels.lg_samples(xg, yg, 0, waist).real.astype(np.complex128)
    if ell:
        raw = raw * np.exp(1j * ell * np.arctan2(yg, xg))
    return raw


def gaussian_helical_mode(grid: GridSpec, ell: int, waist: float = 1.0,
                          center: tuple[float, float] = (0.0, 0.0)) -> ScalarField:
    """Fundamental Gaussian envelope carrying a pure helical phase exp(i ell phi).

    Unlike lg_mode the radial profile does not depend on ell, which makes the
    family closed under pointwise azimuthal-phase operations.  Used for
    representation-consistency checks of the plate operator.  center shifts
    it as in lg_mode.
    """
    if int(ell) != ell:
        raise ValueError("ell must be an integer")
    ell = int(ell)
    x0, y0 = center
    _check_shift(grid, x0, y0)
    xg, yg = grid.meshes()
    raw = _helical_samples(xg - x0, yg - y0, ell, waist)
    centred = raw if x0 == 0.0 and y0 == 0.0 else _helical_samples(xg, yg, ell, waist)
    return _normalized(grid, raw, centred)


def overlap(a: ScalarField, b: ScalarField) -> complex:
    """Inner product <a|b> with the pixel-area measure (pairwise summation)."""
    if a.grid != b.grid:
        raise ValueError("overlap requires both fields on the same grid")
    return complex(np.sum(np.conj(a.samples) * b.samples) * a.grid.pixel_area)


def power(f: ScalarField) -> float:
    return float(np.sum(np.abs(f.samples) ** 2) * f.grid.pixel_area)


def translate(f: ScalarField, dx: float, dy: float) -> ScalarField:
    """Shift sampled values by (dx, dy) with bilinear interpolation.

    For an exact shift of an analytic mode use the mode's center argument.
    Shifts are capped at half of the window half-width.
    """
    _check_shift(f.grid, dx, dy)
    hw = f.grid.half_width
    xg, yg = f.grid.meshes()
    vals = kernels.bilinear_sample(
        f.samples, (xg - dx).ravel(), (yg - dy).ravel(),
        -hw, -hw, f.grid.pitch_x, f.grid.pitch_y)
    return ScalarField(grid=f.grid, samples=vals.reshape(f.samples.shape))


def superpose(pairs: Sequence[Tuple["VectorField", complex]]) -> "VectorField":
    """Coherent weighted sum of polarized fields, renormalized to unit power.

    Each entry is (field, weight).  Fields are converted to the basis of the
    first entry before summing.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one (field, weight) entry")
    grid = pairs[0][0].grid
    basis = pairs[0][0].basis
    converted = []
    for vf, w in pairs:
        if vf.grid != grid:
            raise ValueError("superpose requires a common grid")
        converted.append((convert_basis(vf, basis), complex(w)))
    s1 = np.zeros((grid.ny, grid.nx), np.complex128)
    s2 = np.zeros_like(s1)
    for vf, w in converted:
        s1 += w * vf.comp1.samples
        s2 += w * vf.comp2.samples
    norm = np.sqrt((np.sum(np.abs(s1) ** 2) + np.sum(np.abs(s2) ** 2)) * grid.pixel_area)
    if norm < 1e-12:
        raise ValueError("superposition cancels to zero power")
    return VectorField(grid=grid, comp1=ScalarField(grid, s1 / norm),
                       comp2=ScalarField(grid, s2 / norm), basis=basis)


@dataclass
class VectorField:
    """Two scalar components on a shared grid plus the basis they live in.

    Component order per basis: HV = (H, V), DA = (D, A), LR = (L, R).
    """

    grid: GridSpec
    comp1: ScalarField
    comp2: ScalarField
    basis: str = "HV"

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}, got {self.basis!r}")
        if self.comp1.grid != self.grid or self.comp2.grid != self.grid:
            raise ValueError("vector field components must share the grid")

    def component_arrays(self):
        return self.comp1.samples, self.comp2.samples


def vector_power(vf: VectorField) -> float:
    return power(vf.comp1) + power(vf.comp2)


def _combine(f1: ScalarField, f2: ScalarField, m11, m12, m21, m22) -> tuple:
    """Pointwise 2x2 linear map of two scalar fields."""
    s1 = m11 * f1.samples + m12 * f2.samples
    s2 = m21 * f1.samples + m22 * f2.samples
    return ScalarField(f1.grid, s1), ScalarField(f1.grid, s2)


# Rows are the target-basis components expressed in the source components.
# Declared conventions: D=(H+V)/s2, A=(H-V)/s2, L=(H+iV)/s2, R=(H-iV)/s2.
_TO_HV = {
    "HV": (1, 0, 0, 1),
    "DA": (1 / _SQ2, 1 / _SQ2, 1 / _SQ2, -1 / _SQ2),
    "LR": (1 / _SQ2, 1 / _SQ2, 1j / _SQ2, -1j / _SQ2),
}
_FROM_HV = {
    "HV": (1, 0, 0, 1),
    "DA": (1 / _SQ2, 1 / _SQ2, 1 / _SQ2, -1 / _SQ2),
    "LR": (1 / _SQ2, -1j / _SQ2, 1 / _SQ2, 1j / _SQ2),
}


def convert_basis(vf: VectorField, target: str) -> VectorField:
    if target not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {target!r}")
    if target == vf.basis:
        return vf
    m = _TO_HV[vf.basis]
    h, v = _combine(vf.comp1, vf.comp2, m[0], m[1], m[2], m[3])
    if target == "HV":
        return VectorField(grid=vf.grid, comp1=h, comp2=v, basis="HV")
    m = _FROM_HV[target]
    c1, c2 = _combine(h, v, m[0], m[1], m[2], m[3])
    return VectorField(grid=vf.grid, comp1=c1, comp2=c2, basis=target)


def hv_arrays(vf: VectorField):
    """The (E_H, E_V) sample arrays regardless of the stored basis."""
    if vf.basis == "HV":
        return vf.comp1.samples, vf.comp2.samples
    m = _TO_HV[vf.basis]
    return (m[0] * vf.comp1.samples + m[1] * vf.comp2.samples,
            m[2] * vf.comp1.samples + m[3] * vf.comp2.samples)


_LABEL_SLOT = {"H": ("HV", 0), "V": ("HV", 1), "D": ("DA", 0),
               "A": ("DA", 1), "L": ("LR", 0), "R": ("LR", 1)}


def zero_scalar(grid: GridSpec) -> ScalarField:
    return ScalarField(grid=grid, samples=np.zeros((grid.ny, grid.nx), np.complex128))


def polarized_mode(grid: GridSpec, pol: str, ell: int, waist: float = 1.0) -> VectorField:
    """Unit-power helical mode uniformly polarized along one of the six labels."""
    if pol not in _LABEL_SLOT:
        raise ValueError(f"unknown polarization label {pol!r}")
    basis, slot = _LABEL_SLOT[pol]
    mode = lg_mode(grid, ell, waist)
    zero = zero_scalar(grid)
    comps = (mode, zero) if slot == 0 else (zero, mode)
    return VectorField(grid=grid, comp1=comps[0], comp2=comps[1], basis=basis)
