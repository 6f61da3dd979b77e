"""Polarization-OAM kets, pump preparation, down-conversion, and heralding.

Single-photon states are superpositions of |pol, ell> with pol a polarization
label and ell the azimuthal (orbital angular momentum) index.  A ket carries a
basis tag; its stored labels are the two labels of that basis.  The label
conventions (D = (H + V)/sqrt2, L = (H + iV)/sqrt2, ...) and the amplitude
tables between bases are stated once, in fields.  Two-photon states from the
crystal pair are stored in {H, V} only, one (pol, ell) pair per photon for
signal and idler.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple, Union

import numpy as np

from .fields import (BASES, BASIS_PAIR, FROM_HV, TO_HV, GridSpec, VectorField,
                     apply_table, gaussian_helical_mode, lg_mode)

_SQ2 = np.sqrt(2.0)

# (H, V) components of each labeled polarization state: the columns of its
# basis' TO_HV table.  complex() keeps the table's signed zeros.
_COMPONENTS = {pol: (complex(TO_HV[basis][slot]), complex(TO_HV[basis][2 + slot]))
               for basis, pair in BASIS_PAIR.items() for slot, pol in enumerate(pair)}
POL_LABELS = tuple(_COMPONENTS)

TermKey = Tuple[str, int]


def _clean(terms: Dict, tol: float = 0.0) -> Dict:
    return {k: complex(v) for k, v in terms.items() if abs(v) > tol}


def _hv_pairs(terms: Dict[TermKey, complex], basis: str) -> Dict[int, Tuple[complex, complex]]:
    """Per-ell (aH, aV) amplitude pairs of a tagged term dict."""
    p1, p2 = BASIS_PAIR[basis]
    return {ell: apply_table(TO_HV[basis], terms.get((p1, ell), 0j),
                             terms.get((p2, ell), 0j))
            for ell in sorted({e for (_, e) in terms})}


def _terms_from_hv(pairs: Dict[int, Tuple[complex, complex]], basis: str) -> Dict[TermKey, complex]:
    p1, p2 = BASIS_PAIR[basis]
    out: Dict[TermKey, complex] = {}
    for ell in sorted(pairs):
        a1, a2 = apply_table(FROM_HV[basis], *pairs[ell])
        if abs(a1) > 1e-15:
            out[(p1, ell)] = a1
        if abs(a2) > 1e-15:
            out[(p2, ell)] = a2
    return out


@dataclass
class PolKet:
    """Single-photon ket: {(pol, ell): amplitude} plus the basis its labels use."""

    terms: Dict[TermKey, complex] = field(default_factory=dict)
    basis: str = "HV"

    def __post_init__(self):
        if self.basis not in BASIS_PAIR:
            raise ValueError(f"basis must be one of {BASES}, got {self.basis!r}")
        pair = BASIS_PAIR[self.basis]
        fixed = {}
        for (pol, ell), amp in self.terms.items():
            if pol not in pair:
                raise ValueError(f"label {pol!r} does not belong to the {self.basis} basis")
            fixed[(pol, int(ell))] = complex(amp)
        self.terms = fixed

    @classmethod
    def from_terms(cls, entries: Iterable[Tuple[str, int, complex]],
                   basis: str = "HV") -> "PolKet":
        """Build from (pol, ell, amp) triples; any of the six labels allowed."""
        acc: Dict[TermKey, complex] = {}
        for pol, ell, amp in entries:
            if pol not in POL_LABELS:
                raise ValueError(f"unknown polarization label {pol!r}")
            for lbl, c in zip(BASIS_PAIR["HV"], _COMPONENTS[pol]):
                if c != 0:
                    key = (lbl, int(ell))
                    acc[key] = acc.get(key, 0j) + complex(amp) * c
        hv = cls(terms=_clean(acc, tol=1e-15), basis="HV")
        return hv if basis == "HV" else basis_change(hv, basis)

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.terms.values())))

    def normalized(self) -> "PolKet":
        n = self.norm()
        if n < 1e-15:
            raise ValueError("cannot normalize a zero ket")
        return PolKet(terms={k: v / n for k, v in self.terms.items()}, basis=self.basis)

    def amplitude(self, pol: str, ell: int) -> complex:
        return self.terms.get((pol, int(ell)), 0j)

    def ells(self) -> set:
        return {ell for (_, ell) in self.terms}

    def __repr__(self):
        parts = [f"({pol},{ell}): {amp:.6g}"
                 for (pol, ell), amp in sorted(self.terms.items())]
        return f"PolKet[{self.basis}]{{" + ", ".join(parts) + "}"


def basis_change(k: PolKet, target: str) -> PolKet:
    """The same state re-expressed on another basis; norm preserved exactly."""
    if target not in BASIS_PAIR:
        raise ValueError(f"basis must be one of {BASES}, got {target!r}")
    if target == k.basis:
        return PolKet(terms=dict(k.terms), basis=k.basis)
    return PolKet(terms=_terms_from_hv(_hv_pairs(k.terms, k.basis), target), basis=target)


BiTermKey = Tuple[TermKey, TermKey]


@dataclass
class BiphotonKet:
    """Signal-idler pair ket as {((pol_s, ell_s), (pol_i, ell_i)): amplitude}."""

    terms: Dict[BiTermKey, complex] = field(default_factory=dict)

    def __post_init__(self):
        fixed = {}
        for ((ps, ls), (pi, li)), amp in self.terms.items():
            if ps not in BASIS_PAIR["HV"] or pi not in BASIS_PAIR["HV"]:
                raise ValueError("pair states are stored with H/V labels only")
            fixed[((ps, int(ls)), (pi, int(li)))] = complex(amp)
        self.terms = fixed

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.terms.values())))

    def normalized(self) -> "BiphotonKet":
        n = self.norm()
        if n < 1e-15:
            raise ValueError("cannot normalize a zero ket")
        return BiphotonKet(terms={k: v / n for k, v in self.terms.items()})

    def __repr__(self):
        parts = [f"({ps},{ls};{pi},{li}): {amp:.6g}"
                 for ((ps, ls), (pi, li)), amp in sorted(self.terms.items())]
        return "BiphotonKet{" + ", ".join(parts) + "}"


def max_term_diff(a: Union[PolKet, BiphotonKet], b: Union[PolKet, BiphotonKet]) -> float:
    """Largest amplitude difference between two kets (common basis enforced)."""
    if isinstance(a, PolKet):
        b = basis_change(b, a.basis)
    keys = set(a.terms) | set(b.terms)
    if not keys:
        return 0.0
    return max(abs(a.terms.get(k, 0j) - b.terms.get(k, 0j)) for k in keys)


# --------------------------------------------------------------- pump states

@dataclass(frozen=True)
class PumpSpec:
    """Structured pump family: kind FP or VV, plate charge, relative phase.

    FP pairs a charge-2q vortex on L with a plain Gaussian on R; VV pairs
    opposite-charge vortices on L and R.
    """

    kind: str
    charge: float
    rel_phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("FP", "VV"):
            raise ValueError(f"kind must be FP or VV, got {self.kind!r}")
        two_q = 2.0 * self.charge
        if abs(two_q - round(two_q)) > 1e-12 or round(two_q) < 1:
            raise ValueError("charge must be a positive half-integer or integer")
        if not np.isfinite(self.rel_phase):
            raise ValueError(f"rel_phase must be finite, got {self.rel_phase}")

    def ell_pair(self) -> Tuple[int, int]:
        """(ell on the L constituent, ell on the R constituent)."""
        lp = int(round(2.0 * self.charge))
        return (lp, 0) if self.kind == "FP" else (lp, -lp)


def pump_state(spec: PumpSpec) -> PolKet:
    """(|L, ell_l> + e^{i rel_phase} |R, ell_r>)/sqrt2 per the pump family."""
    ell_l, ell_r = spec.ell_pair()
    return PolKet(terms={
        ("L", ell_l): 1 / _SQ2,
        ("R", ell_r): np.exp(1j * spec.rel_phase) / _SQ2,
    }, basis="LR")


# --------------------------------------------------- down-conversion algebra

@dataclass
class SpdcConfig:
    """Shared idler OAM spectrum and the relative phase between the crystals.

    spectrum maps idler ell to its amplitude; it is normalized so the squared
    magnitudes sum to one.
    """

    spectrum: Optional[Dict[int, complex]] = None
    crystal_phase: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.crystal_phase):
            raise ValueError(f"crystal_phase must be finite, got {self.crystal_phase}")
        if self.spectrum is None:
            self.spectrum = {0: 1.0 + 0j}
        if not self.spectrum:
            raise ValueError("spectrum must contain at least one component")
        total = np.sqrt(sum(abs(c) ** 2 for c in self.spectrum.values()))
        if total < 1e-15:
            raise ValueError("spectrum has zero total weight")
        self.spectrum = {int(l): complex(c) / total for l, c in sorted(self.spectrum.items())}


def spdc_state(pump: PolKet, cfg: Optional[SpdcConfig] = None) -> BiphotonKet:
    """Two-crystal pair state for a given pump ket.

    The first crystal converts the pump H component into V-V signal-idler
    pairs; the second converts the V component into H-H pairs and carries the
    inter-crystal phase.  Each pump term of azimuthal index ell splits over
    the idler spectrum with the signal taking ell - ell_idler, so orbital
    angular momentum is conserved term by term.
    """
    if cfg is None:
        cfg = SpdcConfig()
    branch = np.exp(1j * cfg.crystal_phase)
    acc: Dict[BiTermKey, complex] = {}
    for ell, (ah, av) in _hv_pairs(pump.terms, pump.basis).items():
        for li, c in cfg.spectrum.items():
            if abs(ah) > 0:
                key = (("V", ell - li), ("V", li))
                acc[key] = acc.get(key, 0j) + ah * c
            if abs(av) > 0:
                key = (("H", ell - li), ("H", li))
                acc[key] = acc.get(key, 0j) + av * c * branch
    out = BiphotonKet(terms=_clean(acc, tol=1e-15))
    if out.norm() < 1e-15:
        raise ValueError("pump ket has no support, down-conversion vanishes")
    return out.normalized()


def project_idler_oam0(b: BiphotonKet) -> BiphotonKet:
    """Keep only idler ell = 0 and renormalize (single-mode idler collection)."""
    kept = {k: v for k, v in b.terms.items() if k[1][1] == 0}
    out = BiphotonKet(terms=kept)
    if out.norm() < 1e-15:
        raise ValueError("state has no idler amplitude at ell = 0")
    return out.normalized()


def _idler_bra(pol: str) -> Tuple[complex, complex]:
    """Conjugated (H, V) components of the idler analyzer state.

    The idler analyzer references its circular labels with the opposite
    handedness sign to the signal convention.  Together with the fixed -i
    analyzer phase applied in herald(), this makes heralding on A return the
    pump superposition with its relative phase advanced by pi, heralding on D
    the same with the circular labels swapped, and heralding on L or R the
    diagonal-basis counterparts.
    """
    if pol == "L":
        ch, cv = _COMPONENTS["R"]
    elif pol == "R":
        ch, cv = _COMPONENTS["L"]
    else:
        ch, cv = _COMPONENTS[pol]
    return np.conj(ch), np.conj(cv)


def herald(b: BiphotonKet, idler_pol: str) -> PolKet:
    """Signal ket conditioned on detecting the idler in the given polarization."""
    if idler_pol not in POL_LABELS:
        raise ValueError(f"unknown polarization label {idler_pol!r}")
    bh, bv = _idler_bra(idler_pol)
    acc: Dict[TermKey, complex] = {}
    for ((ps, ls), (pi, li)), a in sorted(b.terms.items()):
        w = bh if pi == "H" else bv
        if w == 0:
            continue
        key = (ps, ls)
        acc[key] = acc.get(key, 0j) + (-1j) * w * a
    out = PolKet(terms=_clean(acc, tol=1e-15), basis="HV")
    if out.norm() < 1e-12:
        raise ValueError(f"heralding on {idler_pol} has zero probability")
    return out.normalized()


def rotate_ket(k: PolKet, angle: float) -> PolKet:
    """Rigid rotation about the beam axis.

    A circular component of spin sign s and azimuthal index ell picks up
    exp(-i (ell + s) angle), total angular momentum being ell + s.
    """
    lr = basis_change(k, "LR")
    rotated = {}
    for (pol, ell), amp in lr.terms.items():
        s = 1 if pol == "L" else -1
        rotated[(pol, ell)] = amp * np.exp(-1j * (ell + s) * angle)
    return basis_change(PolKet(terms=rotated, basis="LR"), k.basis)


# ------------------------------------------------------------ field synthesis

def ket_to_field(k: PolKet, grid: GridSpec, waist: float = 1.0,
                 envelope: str = "lg",
                 centers: Optional[Dict[TermKey, Tuple[float, float]]] = None
                 ) -> VectorField:
    """Synthesize the transverse field of a single-photon ket.

    Each (pol, ell, amp) term contributes amp times a unit-power mode to the
    component of its label, on the ket's own basis.  envelope "lg" gives each
    term the Laguerre-Gauss profile of its ell; envelope "gaussian" gives
    every term the fundamental Gaussian envelope with a pure helical phase,
    a family closed under pointwise azimuthal-phase operations.  centers maps
    a (pol, ell) term to the transverse shift (dx, dy) of its mode; every
    other term stays centred.  Output power equals the squared ket norm up to
    grid-quadrature error; nothing is renormalized, so synthesis stays
    exactly linear in the ket.
    """
    if envelope == "lg":
        make = lg_mode
    elif envelope == "gaussian":
        make = gaussian_helical_mode
    else:
        raise ValueError(f"envelope must be 'lg' or 'gaussian', got {envelope!r}")
    centers = centers or {}
    comps = []
    for pol in BASIS_PAIR[k.basis]:
        entries = sorted((ell, amp) for (p, ell), amp in k.terms.items() if p == pol)
        modes = [make(grid, ell, waist, center=centers.get((pol, ell), (0.0, 0.0)))
                 for ell, _ in entries]
        total = np.zeros((grid.ny, grid.nx), np.complex128)
        for mode, (_, amp) in zip(modes, entries):
            total += amp * mode
        comps.append(total)
    return VectorField(grid, *comps, basis=k.basis)


# ------------------------------------------------------ coincidence analysis

def _signal_bra(analyzer: Union[str, float]) -> Tuple[complex, complex]:
    if isinstance(analyzer, str):
        if analyzer not in POL_LABELS:
            raise ValueError(f"unknown polarization label {analyzer!r}")
        ch, cv = _COMPONENTS[analyzer]
        return np.conj(ch), np.conj(cv)
    th = float(analyzer)
    return complex(np.cos(th)), complex(np.sin(th))


def coincidence_probability(b: BiphotonKet, signal: Union[str, float],
                            idler: str) -> float:
    """Joint projection probability, summed over the orbital indices.

    signal is either a polarization label or a linear-analyzer angle in
    radians (0 transmits H); idler is a polarization label on the idler
    analyzer conventions.
    """
    sh, sv = _signal_bra(signal)
    ih, iv = _idler_bra(idler)
    amps: Dict[Tuple[int, int], complex] = {}
    for ((ps, ls), (pi, li)), a in b.terms.items():
        ws = sh if ps == "H" else sv
        wi = ih if pi == "H" else iv
        if ws == 0 or wi == 0:
            continue
        key = (ls, li)
        amps[key] = amps.get(key, 0j) + ws * wi * a
    return float(sum(abs(v) ** 2 for v in amps.values()))


def degraded_bell_state(dephasing: float = 0.0, cross_talk: float = 0.0,
                        imbalance: float = 0.0) -> BiphotonKet:
    """Pair state from a diagonal pump with three imperfection knobs.

    dephasing is a relative phase between the two crystal branches and pulls
    down the diagonal-basis fringe contrast; cross_talk coherently admixes
    opposite-polarization pairs (with a quadrature phase, so both diagonal
    projections degrade alike) and pulls down the H/V contrast; imbalance
    skews the branch weights to sqrt(1 +- imbalance)/sqrt2, which degrades
    only the diagonal basis.  All zero gives the ideal Bell-like pair.
    """
    if not -1.0 < imbalance < 1.0:
        raise ValueError("imbalance must lie in (-1, 1)")
    c, s = np.cos(cross_talk), np.sin(cross_talk)
    ph = np.exp(1j * dephasing)
    wv = np.sqrt(1.0 + imbalance) / _SQ2
    wh = np.sqrt(1.0 - imbalance) / _SQ2
    terms = {
        (("V", 0), ("V", 0)): c * wv,
        (("H", 0), ("H", 0)): c * ph * wh,
        (("V", 0), ("H", 0)): 1j * s / _SQ2,
        (("H", 0), ("V", 0)): 1j * s / _SQ2,
    }
    return BiphotonKet(terms=_clean(terms)).normalized()


def fringe_visibility(angles: np.ndarray, values: np.ndarray) -> float:
    """Fitted visibility of a cos(2 theta) fringe, free phase.

    Least-squares fit of a0 + a1 cos 2t + b1 sin 2t; visibility is the
    modulation amplitude over the offset.
    """
    angles = np.asarray(angles, float)
    values = np.asarray(values, float)
    m = np.column_stack([np.ones_like(angles), np.cos(2 * angles), np.sin(2 * angles)])
    coef, *_ = np.linalg.lstsq(m, values, rcond=None)
    a0, a1, b1 = coef
    if a0 <= 0:
        raise ValueError("fringe fit found a non-positive mean level")
    return float(np.hypot(a1, b1) / a0)


def visibility_in_basis(b: BiphotonKet, basis: str) -> float:
    """Mean fringe visibility over the two idler projections of a basis.

    The coincidence fringe is exactly a0 + a1 cos 2t + b1 sin 2t, so its
    samples at t = 0, pi/4 and pi/2 determine the fit exactly.
    """
    if basis not in ("HV", "DA"):
        raise ValueError("basis must be HV or DA")
    th = np.array([0.0, 0.25 * np.pi, 0.5 * np.pi])
    vis = []
    for idler in BASIS_PAIR[basis]:
        fr = np.array([coincidence_probability(b, t, idler) for t in th])
        vis.append(fringe_visibility(th, fr))
    return float(np.mean(vis))


def find_visibility_parameters(target_hv: float, target_da: float,
                               iterations: int = 60) -> Tuple[float, float]:
    """Bisect the dephasing and cross-talk knobs to hit target visibilities.

    Outer bisection runs on the dephasing against the diagonal-basis target;
    for each trial the cross-talk is bisected against the H/V target.  The
    targets are demonstration values, not derived quantities, so the only
    guarantee is self-consistency of the returned pair.
    """
    if not (0.0 < target_hv <= 1.0 and 0.0 < target_da <= 1.0):
        raise ValueError("targets must lie in (0, 1]")

    def cross_for_hv(dephase):
        lo, hi = 0.0, np.pi / 4
        if visibility_in_basis(degraded_bell_state(dephase, hi), "HV") > target_hv:
            return None
        for _ in range(iterations):
            mid = 0.5 * (lo + hi)
            if visibility_in_basis(degraded_bell_state(dephase, mid), "HV") > target_hv:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    lo, hi = 0.0, 0.5 * np.pi
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        cross = cross_for_hv(mid)
        if cross is None:
            lo = mid
            continue
        if visibility_in_basis(degraded_bell_state(mid, cross), "DA") > target_da:
            lo = mid
        else:
            hi = mid
    dephase = 0.5 * (lo + hi)
    cross = cross_for_hv(dephase)
    if cross is None:
        raise ValueError("visibility targets are not reachable with these knobs")
    return float(dephase), float(cross)
