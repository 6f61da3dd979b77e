"""Command-line front end.

Subcommands cover single pipeline stages (pump, qplate, spdc, herald,
polarimetry, topology), whole runs (scenario), and figure suites (suite).
Every invocation that produces artifacts writes them under one directory
together with a manifest.  Exit codes: 0 success, 2 usage, 3 invalid config,
4 runtime failure; failures print a single machine-parsable line on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional, Sequence

from . import fileio
from .kets import project_idler_oam0, spdc_state
from .polarimetry import StokesMap
from .scenarios import (FIGURE_IDS, ScenarioConfig, run_figure_suite,
                        run_scenario)
from .topology import find_singularities, s3_lobe_count

_SCHEMA = """\
scenario config schema (JSON object; every key optional):
  label        str, names the run and its output directory
  pump         {kind: "FP"|"VV", charge: half-integer q, phase: radians|null}
  qplate       {charge, retardance ("half-wave"|"quarter-wave"|radians),
                axis_offset, input_pol, input_ell}; replaces pump when given
  herald       "none"|"H"|"V"|"D"|"A"|"L"|"R"
  grid         {nx, ny, half_width} (waist units)
  waist        beam waist, default 1.0
  envelope     "lg"|"gaussian" per-term radial profile
  polarimeter  {angles: [rad,...]|null, n_angles: int, noise_rms, seed}
  spdc         {crystal_phase: radians, spectrum: {ell: [re, im], ...}|null}
  offset       {dx, dy (waist units, |offset|<0.5, each < half_width/2),
                applies_to: "signal"|"pump"}
overrides: --set key=value with dotted keys, e.g. --set offset.dx=0.1
"""


# Flags of one subcommand: (flag, dotted config key or None, argparse options).
# A flag with a key is a shorthand for `--set key=value` and uses the key as
# its dest.
_PUMP_FLAGS = (
    ("--kind", "pump.kind", dict(choices=("FP", "VV"), help="pump family")),
    ("--charge", "pump.charge", dict(type=float, help="plate charge q (half-integer)")),
    ("--phase", "pump.phase",
     dict(type=float, help="relative constituent phase, radians")),
)
_QPLATE_FLAGS = (
    ("--charge", "qplate.charge", dict(type=float, help="plate charge q")),
    ("--retardance", "qplate.retardance",
     dict(help='"half-wave", "quarter-wave", or radians')),
    ("--axis-offset", "qplate.axis_offset",
     dict(type=float, help="axis orientation at x+, radians")),
    ("--input-pol", "qplate.input_pol", dict(help="seed polarization label (default H)")),
    ("--input-ell", "qplate.input_ell",
     dict(type=int, help="seed orbital index (default 0)")),
)

# (name, help, epilog, flags)
_SUBCOMMANDS = (
    ("pump", "synthesize a structured pump and export it", _SCHEMA, _PUMP_FLAGS),
    ("qplate", "apply a plate to a uniform input ket",
     "config must carry a qplate object;\n" + _SCHEMA, _QPLATE_FLAGS),
    ("spdc", "two-crystal pair state for a pump config", _SCHEMA, ()),
    ("herald", "full heralded-field run (requires herald label)", _SCHEMA, ()),
    ("polarimetry", "rotating-plate frames and Stokes maps", _SCHEMA, ()),
    ("topology", "singularity analysis of a run or Stokes export",
     "either --config/--set (runs the pipeline) or --stokes DIR\n"
     "(analyzes exported s0..s3.npy with their grid.json)\n" + _SCHEMA,
     (("--stokes", None,
       dict(help="directory holding s0.npy..s3.npy and grid.json")),)),
    ("scenario", "run one fully specified scenario", _SCHEMA, ()),
    ("suite", "run a whole figure suite", "figure ids: " + ", ".join(FIGURE_IDS),
     (("figure", None, dict(choices=FIGURE_IDS)),
      ("--threads", None, dict(type=int, help="cap suite-level parallelism")))),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecherald",
        description="Heralded single-photon vector-mode simulator.",
        epilog=_SCHEMA,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, epilog, flags in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text, epilog=epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        for flag, key, options in flags:
            if key is None:
                p.add_argument(flag, **options)
                continue
            # Name the value after the flag, not after the dotted dest;
            # a flag with choices lists them instead.
            metavar = None if "choices" in options else flag[2:].upper().replace("-", "_")
            p.add_argument(flag, dest=key, metavar=metavar, **options)
        if name != "suite":  # a suite's cases are packaged; nothing configures them
            p.add_argument("--config", help="JSON config file (scenario schema)")
            p.add_argument("--set", dest="overrides", action="append", default=[],
                           metavar="KEY=VALUE", help="dotted config override")
        p.add_argument("--out", help="output directory (default: "
                       "$VECHERALD_OUT_ROOT/<label> or runs/<label>)")
    return parser


def _apply_overrides(doc: Dict, pairs: Sequence[str]) -> None:
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"override {pair!r} must look like key=value")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = doc
        parts = key.split(".")
        for part in parts[:-1]:
            if not isinstance(node.get(part), dict):
                node[part] = {}
            node = node[part]
        node[parts[-1]] = value


def _load_config_doc(args) -> Dict:
    doc: Dict = {}
    if args.config:
        if not os.path.exists(args.config):
            raise ValueError(f"config file not found: {args.config}")
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"config root must be a JSON object: {args.config}")
    # Shorthand flags become the --set pairs they stand for; the explicit
    # --set pairs come after them, so they win.
    shorthands = [f"{key}={value}" for key, value in vars(args).items()
                  if "." in key and value is not None]
    _apply_overrides(doc, shorthands + args.overrides)
    if args.command == "qplate" and not doc.get("qplate"):
        raise ValueError("qplate subcommand needs plate parameters "
                         "(--charge/--retardance or a config qplate object)")
    return doc


def _default_label(args, doc: Dict) -> str:
    if doc.get("label"):
        return str(doc["label"])
    return args.command


def _resolve_out(args, label: str) -> str:
    if args.out:
        return args.out
    root = os.environ.get("VECHERALD_OUT_ROOT", "runs")
    return os.path.join(root, label)


def _run_topology_on_export(smap: StokesMap, stokes_dir: str, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    reports = find_singularities(smap)
    fileio.write_singularity_report(os.path.join(out_dir, "singularities.json"),
                                    reports)
    fileio.write_json(os.path.join(out_dir, "metrics.json"),
                      {"n_singularities": len(reports), "s3_lobes": s3_lobe_count(smap)})
    fileio.write_manifest(out_dir, {"stokes_dir": stokes_dir},
                          ["singularities.json", "metrics.json"])


def _run_spdc_export(cfg: ScenarioConfig, out_dir: str) -> None:
    from .scenarios import _pump_ket
    os.makedirs(out_dir, exist_ok=True)
    pump = _pump_ket(cfg)
    pairs = project_idler_oam0(spdc_state(pump, cfg.spdc_config()))
    fileio.write_ket(os.path.join(out_dir, "pump_ket.json"), pump)
    fileio.write_biphoton(os.path.join(out_dir, "biphoton_ket.json"), pairs)
    fileio.write_manifest(out_dir, cfg.to_dict(),
                          ["pump_ket.json", "biphoton_ket.json"])


def parse_and_dispatch(argv: Sequence[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if getattr(args, "stokes", None) and (args.config or args.overrides):
            parser.error("topology --stokes takes no --config or --set")
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "suite":
            if args.threads is not None and args.threads < 1:
                raise ValueError(f"--threads must be at least 1, got {args.threads}")
            out_dir = _resolve_out(args, args.figure)
            cfg = None
        elif args.command == "topology" and args.stokes:
            # An unreadable export is a bad input, rejected like a bad config.
            smap = fileio.read_stokes(args.stokes)
            out_dir = _resolve_out(args, "topology")
            cfg = None
        else:
            doc = _load_config_doc(args)
            if args.command == "herald" and doc.get("herald", "none") == "none":
                raise ValueError("herald subcommand needs a herald label in the config")
            cfg = ScenarioConfig.from_dict(doc)
            out_dir = _resolve_out(args, _default_label(args, doc))
    except (ValueError, TypeError, OverflowError, OSError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 3

    try:
        if args.command == "suite":
            run_figure_suite(args.figure, out_dir, workers=args.threads)
        elif args.command == "topology" and args.stokes:
            _run_topology_on_export(smap, args.stokes, out_dir)
        elif args.command == "spdc":
            _run_spdc_export(cfg, out_dir)
        else:
            run_scenario(cfg, out_dir)
    except Exception as exc:  # noqa: BLE001 - boundary: map to exit code 4
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 4
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    return parse_and_dispatch(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
