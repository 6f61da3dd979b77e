"""Transverse fields on a square sampling window.

A scalar field is a complex ndarray shaped (ny, nx), row index along y; a
VectorField holds two of them plus the polarization basis they live in.

All lengths are quoted in units of the beam waist by convention: the default
grid spans 4 waists half-width at 256 x 256 samples.  Even sample counts put
the beam axis between pixels, so nothing is ever evaluated exactly on the
vortex axis.  An odd count puts one sample on the axis and is accepted: the
mode kernels stay finite there, and the singularity search finds the same
central singularity as on the neighbouring even grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels

_SQ2 = np.sqrt(2.0)

# The polarization conventions, stated once: D=(H+V)/s2, A=(H-V)/s2,
# L=(H+iV)/s2, R=(H-iV)/s2.  Each basis names its two labels in component
# order.  TO_HV[b] = (m11, m12, m21, m22) maps the components (c1, c2) of
# basis b to (H, V), so its columns are the labels' (H, V) components;
# FROM_HV[b] is its inverse.  Amplitudes and sampled fields transform alike.
BASIS_PAIR = {"HV": ("H", "V"), "DA": ("D", "A"), "LR": ("L", "R")}
BASES = tuple(BASIS_PAIR)
TO_HV = {
    "HV": (1, 0, 0, 1),
    "DA": (1 / _SQ2, 1 / _SQ2, 1 / _SQ2, -1 / _SQ2),
    "LR": (1 / _SQ2, 1 / _SQ2, 1j / _SQ2, -1j / _SQ2),
}
FROM_HV = {
    "HV": (1, 0, 0, 1),
    "DA": (1 / _SQ2, 1 / _SQ2, 1 / _SQ2, -1 / _SQ2),
    "LR": (1 / _SQ2, -1j / _SQ2, 1 / _SQ2, 1j / _SQ2),
}


def apply_table(m, c1, c2):
    """(m11 c1 + m12 c2, m21 c1 + m22 c2) for two amplitudes or two arrays."""
    return m[0] * c1 + m[1] * c2, m[2] * c1 + m[3] * c2


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


def check_shift(grid: GridSpec, dx: float, dy: float) -> None:
    """Shifts stay under half the window half-width so the support stays inside."""
    hw = grid.half_width
    if not (abs(dx) < 0.5 * hw and abs(dy) < 0.5 * hw):
        raise ValueError(f"shift ({dx}, {dy}) exceeds half_width/2 = {0.5 * hw}")


def _mode(samples, grid: GridSpec, ell: int, waist: float,
          center: tuple[float, float]) -> np.ndarray:
    """samples(x, y, ell, waist) about center, scaled by 1/norm of the centred mode."""
    if int(ell) != ell:
        raise ValueError("ell must be an integer")
    ell = int(ell)
    if not waist > 0:
        raise ValueError("waist must be positive")
    x0, y0 = center
    check_shift(grid, x0, y0)
    xg, yg = grid.meshes()
    raw = samples(xg - x0, yg - y0, ell, waist)
    centred = raw if x0 == 0.0 and y0 == 0.0 else samples(xg, yg, ell, waist)
    norm = np.sqrt(np.sum(np.abs(centred) ** 2) * grid.pixel_area)
    if norm == 0.0:
        raise ValueError("mode vanishes on this grid")
    return raw * (1.0 / norm)


def lg_mode(grid: GridSpec, ell: int, waist: float = 1.0,
            center: tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
    """Laguerre-Gauss mode with zero radial order, normalized to unit power.

    Amplitude goes as (sqrt(2) r / w)^|ell| exp(-r^2/w^2) exp(i ell phi); the
    intensity ring of the ell-th mode peaks at r = w sqrt(|ell|/2).  A nonzero
    center shifts the closed form exactly and keeps the centred mode's scale.
    """
    return _mode(kernels.lg_samples, grid, ell, waist, center)


def _helical_samples(xg, yg, ell: int, waist: float) -> np.ndarray:
    raw = kernels.lg_samples(xg, yg, 0, waist)
    if ell:
        raw = raw * np.exp(1j * ell * np.arctan2(yg, xg))
    return raw


def gaussian_helical_mode(grid: GridSpec, ell: int, waist: float = 1.0,
                          center: tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
    """Fundamental Gaussian envelope carrying a pure helical phase exp(i ell phi).

    Unlike lg_mode the radial profile does not depend on ell, which makes the
    family closed under pointwise azimuthal-phase operations.  Used for
    representation-consistency checks of the plate operator.  center shifts
    it as in lg_mode.
    """
    return _mode(_helical_samples, grid, ell, waist, center)


def overlap(grid: GridSpec, a: np.ndarray, b: np.ndarray) -> complex:
    """Inner product <a|b> with the pixel-area measure (pairwise summation)."""
    return complex(np.sum(np.conj(a) * b) * grid.pixel_area)


def power(grid: GridSpec, a: np.ndarray) -> float:
    return float(np.sum(np.abs(a) ** 2) * grid.pixel_area)


def translate(grid: GridSpec, a: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """Shift sampled values by (dx, dy) with bilinear interpolation.

    For an exact shift of an analytic mode use the mode's center argument.
    Shifts are capped at half of the window half-width.
    """
    check_shift(grid, dx, dy)
    hw = grid.half_width
    xg, yg = grid.meshes()
    vals = kernels.bilinear_sample(
        a, (xg - dx).ravel(), (yg - dy).ravel(),
        -hw, -hw, grid.pitch_x, grid.pitch_y)
    return vals.reshape(a.shape)


@dataclass
class VectorField:
    """Two complex sample arrays, shaped (ny, nx), plus the basis they live in.

    Component order per basis: HV = (H, V), DA = (D, A), LR = (L, R).
    """

    grid: GridSpec
    comp1: np.ndarray
    comp2: np.ndarray
    basis: str = "HV"

    def __post_init__(self):
        if self.basis not in BASES:
            raise ValueError(f"basis must be one of {BASES}, got {self.basis!r}")
        shape = (self.grid.ny, self.grid.nx)
        for name in ("comp1", "comp2"):
            comp = np.asarray(getattr(self, name), np.complex128)
            if comp.shape != shape:
                raise ValueError(
                    f"{name} shape {comp.shape} does not match grid {shape}")
            setattr(self, name, comp)


def vector_power(vf: VectorField) -> float:
    return power(vf.grid, vf.comp1) + power(vf.grid, vf.comp2)


def convert_basis(vf: VectorField, target: str) -> VectorField:
    if target not in BASES:
        raise ValueError(f"basis must be one of {BASES}, got {target!r}")
    if target == vf.basis:
        return vf
    comps = hv_arrays(vf)
    if target != "HV":
        comps = apply_table(FROM_HV[target], *comps)
    return VectorField(vf.grid, *comps, basis=target)


def hv_arrays(vf: VectorField):
    """The (E_H, E_V) sample arrays regardless of the stored basis."""
    if vf.basis == "HV":
        return vf.comp1, vf.comp2
    return apply_table(TO_HV[vf.basis], vf.comp1, vf.comp2)


_LABEL_SLOT = {pol: (basis, slot) for basis, pair in BASIS_PAIR.items()
               for slot, pol in enumerate(pair)}


def polarized_mode(grid: GridSpec, pol: str, ell: int, waist: float = 1.0) -> VectorField:
    """Unit-power helical mode uniformly polarized along one of the six labels."""
    if pol not in _LABEL_SLOT:
        raise ValueError(f"unknown polarization label {pol!r}")
    basis, slot = _LABEL_SLOT[pol]
    mode = lg_mode(grid, ell, waist)
    zero = np.zeros_like(mode)
    comps = (mode, zero) if slot == 0 else (zero, mode)
    return VectorField(grid, *comps, basis=basis)
