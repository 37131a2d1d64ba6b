"""ODMR spectrum synthesis and spectrum file I/O.

A model spectrum is a sum of unit-area Lorentzians,

    L(f; c, g) = g / (pi ((f - c)^2 + g^2)),

parameterized by the half width at half maximum g, so a peak's amplitude
equals its analytic area.  Values use the positive-dip convention
(positive = fluorescence decrease).

Spectrum files are CSV with header ``freq_mhz,value`` preceded by optional
``# key=value`` metadata lines; numbers are written with 9 significant
digits so identical inputs give byte-identical files.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, ValidationError
from .transitions import TransitionTable

NUMBER_FORMAT = "%.9g"


def lorentzian(freq, center: float, hwhm: float):
    """Unit-area Lorentzian with half width at half maximum ``hwhm``."""
    freq = np.asarray(freq, dtype=float)
    return hwhm / (np.pi * ((freq - center) ** 2 + hwhm ** 2))


@dataclass(frozen=True)
class SpectrumModel:
    """Peak list plus the sampled model curve.

    ``peaks`` is an (n, 3) array whose rows are (center MHz, hwhm MHz,
    amplitude = area), one per transition; ``stderr`` is the per-point
    standard error when the curve is an ensemble mean.
    """

    peaks: np.ndarray
    grid: np.ndarray
    values: np.ndarray
    meta: dict | None = None
    stderr: np.ndarray | None = None


@dataclass(frozen=True)
class MeasuredSpectrum:
    """A measured (or synthetic) sweep: grid in MHz, values in contrast units."""

    grid: np.ndarray
    values: np.ndarray
    meta: dict | None = None

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise ValidationError("grid and values must be 1-d arrays of equal length")
        if grid.size and not np.all(np.diff(grid) > 0):
            raise ValidationError("frequency grid must be strictly ascending")
        if values.size and not np.all(np.isfinite(values)):
            raise ValidationError("spectrum values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def synthesize(table: TransitionTable, width: float, grid) -> SpectrumModel:
    """One Lorentzian per table entry, common width, amplitude = intensity."""
    if not width > 0:
        raise ValidationError(f"linewidth must be positive, got {width!r}")
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValidationError("frequency grid must be nonempty")
    hwhm = float(width)
    peaks = np.column_stack((table.freq_mhz, np.full(len(table), hwhm), table.intensity))
    # Accumulated in table order, one grid-sized temporary at a time.
    values = np.zeros_like(grid)
    for center, amplitude in zip(table.freq_mhz.tolist(), table.intensity.tolist()):
        values += amplitude * lorentzian(grid, center, hwhm)
    return SpectrumModel(peaks=peaks, grid=grid, values=values)


def normalize(spec):
    """Scale a spectrum to unit peak amplitude; the factor is kept in meta."""
    peak = float(np.max(np.abs(spec.values))) if np.size(spec.values) else 0.0
    if peak == 0.0:
        raise ValidationError("cannot normalize an all-zero spectrum")
    scale = 1.0 / peak
    meta = dict(spec.meta or {})
    meta["scale"] = meta.get("scale", 1.0) * scale
    return replace(spec, values=spec.values * scale, meta=meta)


def track_transition(tables, from_label, to_label) -> list:
    """Follow one nominally-labeled transition across a field sweep.

    The two labels may come in either order.  Returns (b, freq, intensity)
    per table; when the table has no entry for the pair the intensity is 0
    and the frequency comes from the level energies.
    """
    from_label = tuple(from_label)
    to_label = tuple(to_label)
    out = []
    for table in tables:
        if from_label not in table.labels or to_label not in table.labels:
            raise ValidationError(
                f"unknown label {from_label!r} or {to_label!r} in transition table"
            )
        # entries always have i < j (ascending energies)
        i, j = sorted((table.labels.index(from_label), table.labels.index(to_label)))
        hit = np.flatnonzero((table.i == i) & (table.j == j))
        if hit.size:
            k = hit[0]
            out.append((table.b_mt, float(table.freq_mhz[k]), float(table.intensity[k])))
        else:
            out.append((table.b_mt, float(table.energies[j] - table.energies[i]), 0.0))
    return out


# ---------------------------------------------------------------------------
# File I/O

_META_KEYS = ("current_a", "b_mt", "contrast_pct")


def _format_number(x: float) -> str:
    return NUMBER_FORMAT % float(x)


def spectrum_to_csv(spec, extra_meta: dict | None = None) -> str:
    """Serialize a spectrum (model or measured) to CSV text."""
    meta = dict(spec.meta or {})
    if extra_meta:
        meta.update(extra_meta)
    buf = io.StringIO()
    for key in sorted(meta):
        value = meta[key]
        text = _format_number(value) if isinstance(value, (int, float)) else str(value)
        buf.write(f"# {key}={text}\n")
    stderr = getattr(spec, "stderr", None)
    if stderr is None:
        buf.write("freq_mhz,value\n")
        for f, v in zip(spec.grid, spec.values):
            buf.write(f"{_format_number(f)},{_format_number(v)}\n")
    else:
        buf.write("freq_mhz,value,stderr\n")
        for f, v, s in zip(spec.grid, spec.values, stderr):
            buf.write(f"{_format_number(f)},{_format_number(v)},{_format_number(s)}\n")
    return buf.getvalue()


def write_spectrum_csv(path, spec, extra_meta: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(spectrum_to_csv(spec, extra_meta))


def read_spectrum_csv(path, invert: bool = False) -> MeasuredSpectrum:
    """Read a spectrum CSV; ``invert`` flips the sign convention of values."""
    meta = {}
    grid = []
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        header_seen = False
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    key = key.strip()
                    value = value.strip()
                    if key in _META_KEYS:
                        try:
                            meta[key] = float(value)
                        except ValueError:
                            raise ParseError(f"{path}:{lineno}: bad metadata value {value!r}") from None
                    else:
                        meta[key] = value
                continue
            if not header_seen:
                fields = [f.strip() for f in line.split(",")]
                if fields[:2] != ["freq_mhz", "value"]:
                    raise ParseError(f"{path}:{lineno}: expected header 'freq_mhz,value'")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) < 2:
                raise ParseError(f"{path}:{lineno}: expected at least two columns")
            try:
                grid.append(float(parts[0]))
                values.append(float(parts[1]))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric data {line!r}") from None
    if not header_seen:
        raise ParseError(f"{path}: missing 'freq_mhz,value' header")
    if not grid:
        raise ParseError(f"{path}: no data rows")
    values_arr = np.array(values)
    if invert:
        values_arr = -values_arr
    try:
        return MeasuredSpectrum(grid=np.array(grid), values=values_arr, meta=meta)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None


def transitions_to_csv(tables) -> str:
    """Serialize transition tables as ``b_mt,freq_mhz,intensity,label_from,label_to``."""
    from .spin_core import format_label

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["b_mt", "freq_mhz", "intensity", "label_from", "label_to"])
    for table in tables:
        b_text = _format_number(table.b_mt) if table.b_mt is not None else ""
        labels = [format_label(label) for label in table.labels]
        for i, j, freq, intensity in zip(table.i, table.j, table.freq_mhz, table.intensity):
            writer.writerow(
                [b_text, _format_number(freq), _format_number(intensity), labels[i], labels[j]]
            )
    return buf.getvalue()


def frequency_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive arithmetic grid; validates the specification."""
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ValidationError(f"grid {name} must be finite")
    if step <= 0:
        raise ValidationError(f"grid step must be positive, got {step!r}")
    if stop <= start:
        raise ValidationError(f"grid stop must exceed start, got [{start!r}, {stop!r}]")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)
