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
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .carbon13 import McConfig, load_families, mc_average_spectrum
from .errors import NvGslacError, ParseError, ResourceLimitError, ValidationError
from .fitting import (
    FitParams,
    FitResult,
    calibrate_field,
    fit_report_document,
    fit_spectrum,
    polarization_sweep,
)
from .hamiltonian import (
    CONSTANT_UNITS,
    DEFAULT_CONSTANTS,
    FieldConfig,
    parse_constants_file,
)
from .spectrum import (
    NUMBER_FORMAT,
    frequency_grid,
    read_spectrum_csv,
    require_grid_covers,
    row_template,
    synthesize,
    transitions_to_csv,
    write_spectrum_csv,
)
from .transitions import FieldStages, population_stage

# Most fields one simulate sweep may cover; each writes one spectrum file.
MAX_SWEEP_FIELDS = 100_000


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
    for name in ("b_start", "b_stop", "b_step"):
        value = getattr(args, name)
        if not math.isfinite(value):
            raise ValidationError(f"--{name.replace('_', '-')} must be finite, got {value!r}")
    if args.b_step <= 0:
        raise ValidationError(f"--b-step must be positive, got {args.b_step!r}")
    if args.b_stop < args.b_start:
        raise ValidationError("--b-stop must not be below --b-start")
    steps = np.floor((args.b_stop - args.b_start) / args.b_step + 1e-9)  # may overflow to inf
    if steps >= MAX_SWEEP_FIELDS:
        raise ResourceLimitError(
            f"field sweep of {steps + 1:.6g} fields exceeds the cap of {MAX_SWEEP_FIELDS} fields"
        )
    return [args.b_start + k * args.b_step for k in range(int(steps) + 1)]


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


def _write_json(path, doc: dict) -> None:
    """Write ``doc`` as strict JSON: a NaN or infinity raises ValueError before the file opens."""
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _spectrum_meta(args, b: float) -> dict:
    return {
        "b_mt": b,
        "beta": args.beta,
        "width_mhz": args.width_mhz,
        "theta_deg": args.theta_deg,
        "mode": args.mode,
    }


def _write_spectrum(out_dir: Path, stem: str, spec, meta: dict, fmt: str, rows=None) -> None:
    if fmt == "json":
        path = out_dir / f"{stem}.json"
        doc = {
            "meta": meta,
            "grid_mhz": spec.grid.tolist(),
            "values": spec.values.tolist(),
        }
        if spec.stderr is not None:
            doc["stderr"] = spec.stderr.tolist()
        _write_json(path, doc)
    else:
        path = out_dir / f"{stem}.csv"
        write_spectrum_csv(path, spec, meta, rows)


def cmd_simulate(args) -> int:
    constants = _load_constants(args.constants)
    grid = _parse_grid(args.grid)
    fields = _field_values(args)

    tables = []
    spectra = []
    for b, stage in zip(fields, FieldStages(constants, args.theta_deg, args.mode)(fields)):
        table = population_stage(stage, args.beta, b_mt=b)
        tables.append(table)
        spectra.append(synthesize(table, args.width_mhz, grid))
    require_grid_covers(grid, tables, args.width_mhz, args.mode)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = row_template(grid) if args.format == "csv" else None  # the same grid column every field
    for b, spec in zip(fields, spectra):
        stem = f"spectrum_{args.mode}_b{b:.6g}"
        _write_spectrum(out_dir, stem, spec, _spectrum_meta(args, b), args.format, rows)
    with open(out_dir / f"transitions_{args.mode}.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(transitions_to_csv(tables))
    _write_json(out_dir / "provenance.json", _provenance(args, constants, "simulate"))
    return 0


def cmd_mc13(args) -> int:
    constants = _load_constants(args.constants)
    grid = _parse_grid(args.grid)
    cfg = McConfig(iterations=args.iterations, occupancy=args.occupancy, seed=args.seed)
    spec = mc_average_spectrum(
        cfg,
        FieldConfig(b=args.b_mt, theta_deg=args.theta_deg),
        constants=constants,
        beta=args.beta,
        width=args.width_mhz,
        grid=grid,
        mode=args.mode,
        families=load_families(args.families),
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, stderr in (("spectrum", None), ("stderr", spec.stderr)):
        _write_spectrum(
            out_dir,
            f"mc_{name}_{args.mode}_b{args.b_mt:.6g}",
            replace(spec, meta=None, stderr=stderr),
            _spectrum_meta(args, args.b_mt),
            args.format,
        )
    provenance = _provenance(args, constants, "mc13")
    provenance["mc"] = spec.meta
    _write_json(out_dir / "provenance.json", provenance)
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
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, fit_report_document(result, provenance))
    return 0


def cmd_calibrate(args) -> int:
    points = []
    with open(args.input, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = (row for row in reader if not (row and row[0].startswith("#")))
        try:
            header = next(rows)
        except StopIteration:
            raise ParseError(f"{args.input}: empty calibration file") from None
        if [h.strip() for h in header[:2]] != ["current_a", "b_mt"]:
            raise ParseError(f"{args.input}: expected header 'current_a,b_mt'")
        for row in rows:
            if all(not cell.strip() for cell in row):
                continue
            try:
                point = (float(row[0]), float(row[1]))
            except (ValueError, IndexError):
                raise ParseError(f"{args.input}:{reader.line_num}: malformed calibration row") from None
            if not all(map(math.isfinite, point)):
                raise ParseError(f"{args.input}:{reader.line_num}: calibration values must be finite")
            points.append(point)
    try:
        model = calibrate_field(points)
    except ValidationError as exc:
        raise ValidationError(f"{args.input}: {exc}") from None
    doc = {
        "slope_mt_per_a": model.slope,
        "intercept_mt": model.intercept,
        "fit_range_a": list(model.fit_range),
        "n_points": len(points),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _write_json(out, doc)
    return 0


def cmd_polarization(args) -> int:
    constants = _load_constants(args.constants)
    fits = []
    for path in args.inputs:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            fits.append(FitResult.from_document(doc))
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise ParseError(f"{path}: not a valid fit report ({exc})") from None
    fits.sort(key=lambda fit: fit.params.b)
    rows = polarization_sweep(fits, constants=constants)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow("b_mt orientation alignment n_plus n_zero n_minus low_confidence flags".split())
        writer.writerows(
            [NUMBER_FORMAT % x for x in (b, r.orientation, r.alignment, *r.populations)]
            + [int(r.low_confidence), ";".join(r.flags)]
            for b, r in rows
        )
    return 0


def cmd_constants(args) -> int:
    constants = _load_constants(args.constants)
    for name, value in constants.as_dict().items():
        print(f"{name} = {value:g} {CONSTANT_UNITS[name]}")
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    """Reads a token as a value when ``float()`` parses each of its ``:``-separated parts:
    argparse alone reads ``-1e-05``, ``-inf`` and ``-5:40:0.1`` as options, so
    ``--beta -1e-05`` or ``--grid -5:40:0.1`` fails with "expected one argument"."""

    def _parse_optional(self, arg_string):
        try:
            list(map(float, arg_string.split(":")))
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
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
