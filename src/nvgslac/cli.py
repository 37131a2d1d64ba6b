"""Command line interface: simulate / fit / calibrate / polarization / mc13 / constants.

All subcommands are deterministic given their inputs and flags (``mc13``
draws its carbon-13 placements from ``--seed``) and never modify input
files.  Exit codes: 0 success, 2 validation error, 3 parse error,
4 non-convergence, 5 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .carbon13 import McConfig, load_families, mc_average_spectrum
from .errors import NvGslacError, ParseError, ValidationError
from .fitting import (
    FitParams,
    calibrate_field,
    fit_report_document,
    fit_spectrum,
    polarization_sweep,
)
from .hamiltonian import (
    CONSTANT_UNITS,
    DEFAULT_CONSTANTS,
    FieldConfig,
    build_nv_hamiltonian,
    parse_constants_file,
)
from .spectrum import (
    frequency_grid,
    read_spectrum_csv,
    spectrum_to_csv,
    synthesize,
    transitions_to_csv,
)
from .spin_core import eigensolve
from .transitions import transition_table


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--grid expects start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--grid expects numbers, got {text!r}") from None
    return frequency_grid(start, stop, step)


def _load_constants(path):
    return parse_constants_file(path) if path else DEFAULT_CONSTANTS


def _field_values(args) -> list:
    if args.b_mt is not None:
        if args.b_start is not None or args.b_stop is not None:
            raise ValidationError("--b-mt and --b-start/--b-stop are mutually exclusive")
        return [args.b_mt]
    if args.b_start is None or args.b_stop is None or args.b_step is None:
        raise ValidationError("provide either --b-mt or all of --b-start/--b-stop/--b-step")
    if args.b_step <= 0:
        raise ValidationError(f"--b-step must be positive, got {args.b_step!r}")
    if args.b_stop < args.b_start:
        raise ValidationError("--b-stop must not be below --b-start")
    n = int(np.floor((args.b_stop - args.b_start) / args.b_step + 1e-9)) + 1
    return [args.b_start + k * args.b_step for k in range(n)]


def _provenance(args, constants, command: str) -> dict:
    options = {
        key: value
        for key, value in sorted(vars(args).items())
        if key != "func" and value is not None
    }
    return {
        "command": command,
        "options": {k: str(v) for k, v in options.items()},
        "constants": constants.as_dict(),
        "constants_sha256": constants.sha256(),
        "version": __version__,
    }


def _write_provenance(out_dir: Path, doc: dict) -> None:
    with open(out_dir / "provenance.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_grid_covers(grid, tables, margin: float, mode: str) -> None:
    centers = np.concatenate([table.freq_mhz for table in tables])
    if not centers.size:
        return
    lo = centers.min() - margin
    hi = centers.max() + margin
    if grid[-1] < lo or grid[0] > hi:
        raise ValidationError(
            f"grid [{grid[0]:g}, {grid[-1]:g}] MHz does not overlap the {mode}-band "
            f"transitions in [{lo:g}, {hi:g}] MHz"
        )


def _spectrum_meta(args, b: float) -> dict:
    return {
        "b_mt": b,
        "beta": args.beta,
        "width_mhz": args.width_mhz,
        "theta_deg": args.theta_deg,
        "mode": args.mode,
    }


def _write_spectrum(out_dir: Path, stem: str, spec, meta: dict, fmt: str) -> Path:
    if fmt == "json":
        path = out_dir / f"{stem}.json"
        doc = {
            "meta": meta,
            "grid_mhz": [float(x) for x in spec.grid],
            "values": [float(x) for x in spec.values],
        }
        if spec.stderr is not None:
            doc["stderr"] = [float(x) for x in spec.stderr]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        path = out_dir / f"{stem}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(spectrum_to_csv(spec, meta))
    return path


def cmd_simulate(args) -> int:
    constants = _load_constants(args.constants)
    grid = _parse_grid(args.grid)
    fields = _field_values(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    tables = []
    spectra = []
    for b in fields:
        field_cfg = FieldConfig(b=b, theta_deg=args.theta_deg)
        system = eigensolve(build_nv_hamiltonian(constants, field_cfg))
        table = transition_table(system, args.beta, mode=args.mode, b_mt=b)
        tables.append(table)
        spectra.append(synthesize(table, args.width_mhz, grid))
    _check_grid_covers(grid, tables, 20.0 * args.width_mhz, args.mode)

    for b, spec in zip(fields, spectra):
        _write_spectrum(
            out_dir, f"spectrum_{args.mode}_b{b:.6g}", spec, _spectrum_meta(args, b), args.format
        )
    with open(out_dir / f"transitions_{args.mode}.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(transitions_to_csv(tables))
    _write_provenance(out_dir, _provenance(args, constants, "simulate"))
    return 0


def cmd_mc13(args) -> int:
    constants = _load_constants(args.constants)
    grid = _parse_grid(args.grid)
    if args.b_mt is None:
        raise ValidationError("mc13 requires --b-mt")
    cfg = McConfig(
        iterations=args.iterations,
        occupancy=args.occupancy,
        seed=args.seed,
        family_file=args.families,
    )
    field_cfg = FieldConfig(b=args.b_mt, theta_deg=args.theta_deg)
    # Carbon-13 satellites sit up to about the largest principal hyperfine
    # value away from the carbon-free lines.
    base = eigensolve(build_nv_hamiltonian(constants, field_cfg))
    table = transition_table(base, args.beta, mode=args.mode, b_mt=args.b_mt)
    families = load_families(cfg.family_file)
    shift = max((np.abs(f.tensor.as_matrix()).max() for f in families), default=0.0)
    _check_grid_covers(grid, [table], 20.0 * args.width_mhz + shift, args.mode)
    spec = mc_average_spectrum(
        cfg,
        field_cfg,
        constants=constants,
        beta=args.beta,
        width=args.width_mhz,
        grid=grid,
        mode=args.mode,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    mean_only = replace(spec, meta=None, stderr=None)
    _write_spectrum(
        out_dir,
        f"mc_spectrum_{args.mode}_b{args.b_mt:.6g}",
        mean_only,
        _spectrum_meta(args, args.b_mt),
        args.format,
    )
    stderr_spec = replace(spec, meta=None)
    _write_spectrum(
        out_dir,
        f"mc_stderr_{args.mode}_b{args.b_mt:.6g}",
        stderr_spec,
        _spectrum_meta(args, args.b_mt),
        args.format,
    )
    _write_provenance(out_dir, _provenance(args, constants, "mc13"))
    return 0


def cmd_fit(args) -> int:
    constants = _load_constants(args.constants)
    data = read_spectrum_csv(args.input)
    b_init = args.b_mt if args.b_mt is not None else data.meta.get("b_mt")
    if b_init is None:
        raise ValidationError("initial field unknown: pass --b-mt or store b_mt in the file")
    initial = FitParams(
        beta=args.beta, b=float(b_init), width=args.width_mhz, theta_deg=args.theta_deg
    )
    result = fit_spectrum(data, initial, mode=args.mode, constants=constants)
    provenance = _provenance(args, constants, "fit")
    provenance["input"] = str(args.input)
    doc = fit_report_document(result, provenance)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_calibrate(args) -> int:
    points = []
    with open(args.input, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(row for row in fh if not row.startswith("#"))
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{args.input}: empty calibration file") from None
        if [h.strip() for h in header[:2]] != ["current_a", "b_mt"]:
            raise ParseError(f"{args.input}: expected header 'current_a,b_mt'")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            try:
                points.append((float(row[0]), float(row[1])))
            except (ValueError, IndexError):
                raise ParseError(f"{args.input}:{lineno}: malformed calibration row") from None
    model = calibrate_field(points)
    doc = {
        "slope_mt_per_a": model.slope,
        "intercept_mt": model.intercept,
        "fit_range_a": list(model.fit_range),
        "n_points": len(points),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


class _ReportFit:
    """Adapter exposing a stored fit report to polarization_sweep."""

    def __init__(self, doc: dict):
        self.params = FitParams(
            beta=doc["params"]["beta"],
            b=doc["params"]["b_mt"],
            width=doc["params"]["width_mhz"],
            theta_deg=doc["params"].get("theta_deg", 0.0),
            manifold_split=doc["params"].get("manifold_split", 1.0),
        )
        self.peak_areas = doc["peak_areas"]
        self.peak_strengths = doc["peak_strengths"]


def cmd_polarization(args) -> int:
    constants = _load_constants(args.constants)
    fits = []
    for path in args.inputs:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            fits.append(_ReportFit(doc))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(f"{path}: not a valid fit report ({exc})") from None
    fits.sort(key=lambda fit: fit.params.b)
    rows = polarization_sweep(fits, constants=constants)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("b_mt,orientation,alignment,n_plus,n_zero,n_minus,low_confidence\n")
        for b, report in rows:
            pops = ",".join("%.9g" % p for p in report.populations)
            fh.write(
                "%.9g,%.9g,%.9g,%s,%d\n"
                % (b, report.orientation, report.alignment, pops, int(report.low_confidence))
            )
    return 0


def cmd_constants(args) -> int:
    constants = _load_constants(args.constants)
    for name, value in constants.as_dict().items():
        print(f"{name} = {value:g} {CONSTANT_UNITS[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nvgslac",
        description="NV center level-anticrossing spectra: simulate, fit and analyze.",
    )
    parser.add_argument("--version", action="version", version=f"nvgslac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--constants", help="constants override file")
        p.add_argument("--theta-deg", type=float, default=0.0, help="field angle to the NV axis")
        p.add_argument("--beta", type=float, default=0.0, help="nitrogen spin temperature")
        p.add_argument("--width-mhz", type=float, default=1.0, help="Lorentzian half width")
        p.add_argument("--mode", choices=("hi", "lo"), default="hi", help="microwave band")

    sim = sub.add_parser("simulate", help="synthesize spectra and a transition table")
    add_common(sim)
    sim.add_argument("--b-mt", type=float, help="single field value (mT)")
    sim.add_argument("--b-start", type=float, help="sweep start (mT)")
    sim.add_argument("--b-stop", type=float, help="sweep stop (mT)")
    sim.add_argument("--b-step", type=float, help="sweep step (mT)")
    sim.add_argument("--grid", required=True, help="frequency grid start:stop:step (MHz)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")
    sim.set_defaults(func=cmd_simulate)

    mc = sub.add_parser("mc13", help="carbon-13 ensemble-averaged spectrum")
    add_common(mc)
    mc.add_argument("--b-mt", type=float, required=True, help="field value (mT)")
    mc.add_argument("--grid", required=True, help="frequency grid start:stop:step (MHz)")
    mc.add_argument("--iterations", type=int, default=400)
    mc.add_argument("--occupancy", type=float, default=0.011)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--families", help="lattice family CSV (default: packaged set)")
    mc.add_argument("--out", required=True, help="output directory")
    mc.add_argument("--format", choices=("csv", "json"), default="csv")
    mc.set_defaults(func=cmd_mc13)

    fit = sub.add_parser("fit", help="fit a measured spectrum")
    add_common(fit)
    fit.add_argument("input", help="spectrum CSV to fit")
    fit.add_argument("--b-mt", type=float, help="initial field value (mT)")
    fit.add_argument("--out", required=True, help="fit report JSON path")
    fit.set_defaults(func=cmd_fit)

    cal = sub.add_parser("calibrate", help="field vs coil current line")
    cal.add_argument("input", help="CSV with header current_a,b_mt")
    cal.add_argument("--out", required=True, help="calibration JSON path")
    cal.set_defaults(func=cmd_calibrate)

    pol = sub.add_parser("polarization", help="orientation/alignment from fit reports")
    pol.add_argument("inputs", nargs="+", help="fit report JSON files")
    pol.add_argument("--constants", help="constants override file")
    pol.add_argument("--out", required=True, help="output CSV path")
    pol.set_defaults(func=cmd_polarization)

    con = sub.add_parser("constants", help="print the effective constants")
    con.add_argument("--constants", help="constants override file")
    con.set_defaults(func=cmd_constants)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NvGslacError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
