"""Spin-orbit converter: a retarder whose fast axis winds around the center.

The plate has a patterned fast-axis angle charge*phi_az + axis_offset and a
tunable retardance.  On kets it exchanges circular handedness while shifting
the azimuthal index by +-2*charge; on sampled fields it acts as the pointwise
Jones retarder with the local axis angle.  Both pictures implement the same
operator, so they agree to machine precision on envelope-closed mode families.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .fields import VectorField, convert_basis
from .kets import PolKet, basis_change

PRESET_RETARDANCE = {"half-wave": np.pi, "quarter-wave": np.pi / 2}


@dataclass(frozen=True)
class QPlateParams:
    """Plate charge (half-integer), retardance in [0, 2pi), axis offset."""

    charge: float
    retardance: float
    axis_offset: float = 0.0

    def __post_init__(self):
        two_q = 2.0 * self.charge
        if abs(two_q - round(two_q)) > 1e-12:
            raise ValueError("charge must be a half-integer multiple (0 allowed)")
        if not 0.0 <= self.retardance < 2.0 * np.pi:
            raise ValueError("retardance must lie in [0, 2 pi)")
        if not np.isfinite(self.axis_offset):
            raise ValueError(f"axis_offset must be finite, got {self.axis_offset}")


def plate_from_preset(charge: float, retardance, axis_offset: float = 0.0) -> QPlateParams:
    """Build params from a named retardance ("half-wave", "quarter-wave") or a number."""
    if isinstance(retardance, str):
        if retardance not in PRESET_RETARDANCE:
            raise ValueError(f"unknown retardance preset {retardance!r}; "
                             f"use one of {tuple(PRESET_RETARDANCE)} or a number")
        retardance = PRESET_RETARDANCE[retardance]
    return QPlateParams(charge=charge, retardance=float(retardance),
                        axis_offset=axis_offset)


def qplate_apply_ket(k: PolKet, p: QPlateParams) -> PolKet:
    """Exact action on a ket.

    |L, ell> -> cos(d/2)|L, ell> + i sin(d/2) e^{+2i a0} |R, ell + 2q>
    |R, ell> -> cos(d/2)|R, ell> + i sin(d/2) e^{-2i a0} |L, ell - 2q>

    The azimuthal winding of the axis shows up purely as the index shift.
    The result keeps the input's basis tag.
    """
    two_q = int(round(2.0 * p.charge))
    c = np.cos(0.5 * p.retardance)
    s = 1j * np.sin(0.5 * p.retardance)
    up = s * np.exp(2j * p.axis_offset)
    dn = s * np.exp(-2j * p.axis_offset)
    lr = basis_change(k, "LR")
    acc = {}
    for (pol, ell), amp in sorted(lr.terms.items()):
        if pol == "L":
            takes = ((("L", ell), c * amp), (("R", ell + two_q), up * amp))
        else:
            takes = ((("R", ell), c * amp), (("L", ell - two_q), dn * amp))
        for key, val in takes:
            if abs(val) > 0:
                acc[key] = acc.get(key, 0j) + val
    out = PolKet(terms={k_: v for k_, v in acc.items() if abs(v) > 1e-15}, basis="LR")
    return basis_change(out, k.basis)


def qplate_apply_field(f: VectorField, p: QPlateParams) -> VectorField:
    """Pointwise action on a sampled field.

    At each pixel the symmetric retarder Jones matrix acts with local axis
    angle charge*atan2(y, x) + axis_offset.  Power is preserved exactly
    (pointwise unitary).  Output is on the {H, V} basis.
    """
    hv = convert_basis(f, "HV")
    xg, yg = f.grid.meshes()
    two_beta = 2.0 * (p.charge * np.arctan2(yg, xg) + p.axis_offset)
    oh, ov = kernels.retarder_apply(hv.comp1, hv.comp2, two_beta, p.retardance)
    return VectorField(f.grid, oh, ov, basis="HV")
