"""Deterministic artifact I/O.

Real 2D matrices are binary ``.npy`` files: C-ordered float64, one per
array, with the grid they sample stated once per directory in
``grid.json``.  Kets, configs, reports and manifests are JSON, ellipse
tables are CSV, and previews are binary portable pixmaps.  Writers are
deterministic: fixed field order, sorted keys, no timestamps.  Reruns with
an identical config must produce byte-identical artifacts.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .fields import GridSpec
from .kets import BiphotonKet, PolKet
from .polarimetry import CLASS_NAMES, EllipseMap, StokesMap

GRID_NAME = "grid.json"


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def write_grid(dir_path: str, grid: GridSpec) -> str:
    """The grid.json that states the grid of every matrix in dir_path."""
    write_json(os.path.join(dir_path, GRID_NAME),
               {"half_width": float(grid.half_width), "nx": grid.nx, "ny": grid.ny})
    return GRID_NAME


def read_grid(dir_path: str) -> GridSpec:
    with open(os.path.join(dir_path, GRID_NAME), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or set(doc) != {"half_width", "nx", "ny"}:
        raise ValueError(f"{dir_path}: {GRID_NAME} must hold exactly nx, ny, half_width")
    return GridSpec(nx=int(doc["nx"]), ny=int(doc["ny"]),
                    half_width=float(doc["half_width"]))


def write_matrix(path: str, values: np.ndarray, grid: GridSpec) -> None:
    """Dump one real 2D array as a C-ordered float64 ``.npy`` file.

    The grid is checked here and stated by the directory's grid.json
    (write_grid).  Any memory layout of the same values gives the same bytes.
    """
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.shape != (grid.ny, grid.nx):
        raise ValueError("array shape does not match the grid")
    with open(path, "wb") as fh:
        np.save(fh, a, allow_pickle=False)


def _load_matrix(path: str, grid: GridSpec) -> np.ndarray:
    # np.load's own .npy reader: unlike np.load it takes nothing but .npy
    # (no .npz archive), and an empty or truncated file raises ValueError.
    with open(path, "rb") as fh:
        a = np.lib.format.read_array(fh, allow_pickle=False)
    if a.dtype != np.float64 or a.shape != (grid.ny, grid.nx):
        raise ValueError(f"{path}: expected {grid.ny}x{grid.nx} float64 values "
                         f"as stated by {GRID_NAME}, got {a.shape} {a.dtype}")
    return a


def read_matrix(path: str) -> Tuple[np.ndarray, GridSpec]:
    """One matrix and the grid stated by grid.json in the same directory."""
    grid = read_grid(os.path.dirname(path))
    return _load_matrix(path, grid), grid


def write_complex_matrix(path_stem: str, values: np.ndarray, grid: GridSpec) -> List[str]:
    """Complex arrays go out as a real/imag file pair ``stem_re/_im.npy``."""
    paths = [path_stem + "_re.npy", path_stem + "_im.npy"]
    write_matrix(paths[0], np.real(values), grid)
    write_matrix(paths[1], np.imag(values), grid)
    return paths


def read_complex_matrix(path_stem: str) -> Tuple[np.ndarray, GridSpec]:
    grid = read_grid(os.path.dirname(path_stem))
    re = _load_matrix(path_stem + "_re.npy", grid)
    im = _load_matrix(path_stem + "_im.npy", grid)
    return re + 1j * im, grid


def write_json(path: str, doc) -> None:
    """Deterministic JSON: sorted keys, two-space indent, trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def ket_as_dict(k: PolKet) -> Dict:
    terms = [{"pol": pol, "ell": int(ell), "re": float(a.real), "im": float(a.imag)}
             for (pol, ell), a in sorted(k.terms.items())]
    return {"basis": k.basis, "terms": terms}


def write_ket(path: str, k: PolKet) -> None:
    write_json(path, ket_as_dict(k))


def read_ket(path: str) -> PolKet:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    terms = {(t["pol"], int(t["ell"])): t["re"] + 1j * t["im"] for t in doc["terms"]}
    return PolKet(terms, basis=doc.get("basis", "HV"))


def biphoton_as_dict(b: BiphotonKet) -> Dict:
    terms = []
    for ((ps, ls), (pi, li)), a in sorted(b.terms.items()):
        terms.append({"signal": {"pol": ps, "ell": int(ls)},
                      "idler": {"pol": pi, "ell": int(li)},
                      "re": float(a.real), "im": float(a.imag)})
    return {"terms": terms}


def write_biphoton(path: str, b: BiphotonKet) -> None:
    write_json(path, biphoton_as_dict(b))


def read_biphoton(path: str) -> BiphotonKet:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    terms = {}
    for t in doc["terms"]:
        key = ((t["signal"]["pol"], int(t["signal"]["ell"])),
               (t["idler"]["pol"], int(t["idler"]["ell"])))
        terms[key] = t["re"] + 1j * t["im"]
    return BiphotonKet(terms)


def write_frames(dir_path: str, frames: np.ndarray, angles: Sequence[float],
                 grid: GridSpec) -> List[str]:
    """One matrix per analyzer angle, a frames.json angle manifest and grid.json."""
    if frames.shape[0] != len(angles):
        raise ValueError("one angle per frame required")
    names = []
    for i in range(frames.shape[0]):
        name = f"frame_{i:03d}.npy"
        write_matrix(os.path.join(dir_path, name), frames[i], grid)
        names.append(name)
    write_json(os.path.join(dir_path, "frames.json"),
               {"angles": [float(a) for a in angles], "files": names})
    return names + ["frames.json", write_grid(dir_path, grid)]


def read_frames(dir_path: str) -> Tuple[np.ndarray, List[float], GridSpec]:
    with open(os.path.join(dir_path, "frames.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    grid = read_grid(dir_path)
    stack = [_load_matrix(os.path.join(dir_path, name), grid) for name in doc["files"]]
    return np.stack(stack), [float(a) for a in doc["angles"]], grid


STOKES_NAMES = ("s0.npy", "s1.npy", "s2.npy", "s3.npy")


def write_stokes(dir_path: str, s: StokesMap) -> List[str]:
    """s0..s3 matrices plus grid.json; returns the file names written."""
    for name, comp in zip(STOKES_NAMES, (s.s0, s.s1, s.s2, s.s3)):
        write_matrix(os.path.join(dir_path, name), comp, s.grid)
    return list(STOKES_NAMES) + [write_grid(dir_path, s.grid)]


def read_stokes(dir_path: str) -> StokesMap:
    grid = read_grid(dir_path)
    return StokesMap(grid, *(_load_matrix(os.path.join(dir_path, name), grid)
                             for name in STOKES_NAMES))


def write_ellipses(path: str, em: EllipseMap, stride: int = 16) -> None:
    """CSV of ellipse parameters on a subsampled lattice, unmasked points only."""
    g = em.grid
    xs = g.x_axis()
    ys = g.y_axis()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,psi,chi,class\n")
        for iy in range(0, g.ny, stride):
            for ix in range(0, g.nx, stride):
                if not em.mask[iy, ix]:
                    continue
                cls = CLASS_NAMES[int(em.handedness[iy, ix])]
                fh.write(f"{_fmt(xs[ix])},{_fmt(ys[iy])},"
                         f"{_fmt(em.psi[iy, ix])},{_fmt(em.chi[iy, ix])},{cls}\n")


def write_ppm(path: str, rgb: np.ndarray) -> None:
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ValueError("preview buffer must be (ny, nx, 3) uint8")
    ny, nx = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{nx} {ny}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


# Handedness color code for previews (a fixed, documented choice):
# linear green, left-handed red, right-handed blue.
_GLYPH_RGB = {0: (30, 190, 60), 1: (225, 45, 45), 2: (50, 95, 230)}


def render_ellipse_preview(s: StokesMap, em: EllipseMap, stride: int = 16) -> np.ndarray:
    """Grayscale intensity underlay with ellipse outline glyphs on a lattice.

    Rows are flipped so +y points up in the image.  Output is a (ny, nx, 3)
    uint8 buffer for write_ppm.
    """
    g = s.grid
    peak = s.s0.max()
    gray = np.sqrt(np.maximum(s.s0, 0.0) / peak) if peak > 0 else np.zeros_like(s.s0)
    rgb = np.repeat((gray * 170.0).astype(np.uint8)[:, :, None], 3, axis=2)
    half = 0.45 * stride
    t = np.arange(64) * (2.0 * np.pi / 64)
    ct, st = np.cos(t), np.sin(t)
    for iy in range(stride // 2, g.ny, stride):
        for ix in range(stride // 2, g.nx, stride):
            if not em.mask[iy, ix]:
                continue
            psi = em.psi[iy, ix]
            b = half * abs(np.tan(em.chi[iy, ix]))
            dx = half * ct * np.cos(psi) - b * st * np.sin(psi)
            dy = half * ct * np.sin(psi) + b * st * np.cos(psi)
            px = np.clip(np.rint(ix + dx).astype(int), 0, g.nx - 1)
            py = np.clip(np.rint(iy + dy).astype(int), 0, g.ny - 1)
            rgb[py, px] = _GLYPH_RGB[int(em.handedness[iy, ix])]
    return rgb[::-1]


def sha256_of_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def config_hash(config: Dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(dir_path: str, config: Dict, file_names: Iterable[str]) -> str:
    """Run manifest: config echo, its hash, and hashes of every artifact.

    No timestamps or host details on purpose; two runs with the same config
    must emit identical manifests.
    """
    entries = []
    for name in sorted(set(file_names)):
        full = os.path.join(dir_path, name)
        entries.append({"name": name, "bytes": os.path.getsize(full),
                        "sha256": sha256_of_file(full)})
    doc = {"config": config, "config_sha256": config_hash(config), "files": entries}
    path = os.path.join(dir_path, "manifest.json")
    write_json(path, doc)
    return path


def write_singularity_report(path: str, reports) -> None:
    rows = []
    for r in reports:
        rows.append({
            "x": float(r.location[0]), "y": float(r.location[1]),
            "kind": r.kind, "index": float(r.index),
            "raw_index": float(r.raw_index), "residual": float(r.residual),
            "label": r.label, "loop_radius": float(r.loop_radius),
            "radial_lines": None if r.radial_lines is None else int(r.radial_lines),
        })
    write_json(path, {"singularities": rows})
