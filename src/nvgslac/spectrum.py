"""ODMR spectrum synthesis and spectrum file I/O.

A model spectrum is a sum of unit-area Lorentzians,

    L(f; c, g) = g / (pi ((f - c)^2 + g^2)),

parameterized by the half width at half maximum g, so a peak's amplitude
equals its analytic area.  Values use the positive-dip convention
(positive = fluorescence decrease).

Spectrum files are CSV with header ``freq_mhz,value`` (``freq_mhz,value,stderr``
for an ensemble mean) preceded by optional ``# key=value`` metadata lines;
numbers are written with 9 significant digits (``%.9g``) so identical inputs
give byte-identical files.  The grid column is formatted once into a row
template (:func:`row_template`) and each spectrum fills the template's value
slots in one ``%`` pass; the text is byte-identical to formatting every
number on its own with ``%.9g``.  A sweep writes many spectra on one grid, so
``simulate`` builds the template once per call.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ResourceLimitError, ValidationError
from .transitions import TransitionTable

NUMBER_FORMAT = "%.9g"
# Grid points evaluated per block of table entries in synthesize.
SYNTH_BLOCK_POINTS = 1 << 15
# Largest frequency grid frequency_grid builds (80 MB of float64).
MAX_GRID_POINTS = 10**7


def _linewidth(width) -> float:
    """``width`` as a float; raise unless it is positive and finite, pi times its square
    is finite and its square is a normal float."""
    if not (width > 0 and math.isfinite(width)):
        raise ValidationError(f"linewidth must be positive and finite, got {width!r}")
    hwhm = float(width)
    if not math.isfinite(math.pi * hwhm * hwhm):
        raise ValidationError(f"linewidth {width!r} MHz is too large: pi times its square overflows")
    if hwhm * hwhm < sys.float_info.min:
        raise ValidationError(f"linewidth {width!r} MHz is too small: its square underflows")
    return hwhm


def lorentzian(freq, center: float, hwhm: float):
    """Unit-area Lorentzian with half width at half maximum ``hwhm``, checked as ``synthesize`` does."""
    hwhm = _linewidth(hwhm)
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
        if not np.isfinite(grid).all():  # ascending lets +-inf through at either end
            raise ValidationError("frequency grid must be finite")
        if values.size and not np.all(np.isfinite(values)):
            raise ValidationError("spectrum values must be finite")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)


def require_grid(grid) -> np.ndarray:
    """The grid as a float array; raise unless it is nonempty, finite and 1-d."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all():
        raise ValidationError(
            f"frequency grid must be a nonempty, finite 1-d array, got shape {grid.shape}"
        )
    return grid


def require_grid_covers(grid, tables, width: float, mode: str, shift: float = 0.0) -> None:
    """Raise unless the grid overlaps the tables' lines (if any), widened by 20 widths and by
    ``shift`` MHz, where lines not in the tables may sit (carbon-13 satellites)."""
    centers = np.concatenate([table.freq_mhz for table in tables])
    if not centers.size:
        return
    margin = 20.0 * width + shift
    lo = centers.min() - margin
    hi = centers.max() + margin
    if grid[-1] < lo or grid[0] > hi:
        raise ValidationError(
            f"grid [{grid[0]:g}, {grid[-1]:g}] MHz does not overlap the {mode}-band "
            f"transitions in [{lo:g}, {hi:g}] MHz"
        )


def synthesize(table: TransitionTable, width: float, grid) -> SpectrumModel:
    """One Lorentzian per table entry, common width, amplitude = intensity.

    Entries are evaluated a block of rows at a time in one reused buffer,
    with the operations of :func:`lorentzian` in the same order, and the
    sum is accumulated in table order, so the values are bit-identical to
    adding ``amplitude * lorentzian(grid, center, width)`` entry by entry.
    """
    hwhm = _linewidth(width)
    grid = require_grid(grid)
    centers = table.freq_mhz[:, None]
    amplitudes = table.intensity[:, None]
    peaks = np.empty((len(table), 3))
    peaks[:, 0], peaks[:, 1], peaks[:, 2] = table.freq_mhz, hwhm, table.intensity
    values = np.zeros_like(grid)
    if grid.size > 1:
        rows = max(1, min(len(table), SYNTH_BLOCK_POINTS // grid.size))
    else:
        rows = 1  # on one point numpy's reduce would add the rows pairwise
    buffer = np.empty((rows, grid.size))
    for start in range(0, len(table), rows):
        center = centers[start : start + rows]
        block = buffer[: len(center)]
        np.subtract(grid, center, out=block)
        np.square(block, out=block)
        block += hwhm**2
        np.multiply(np.pi, block, out=block)
        np.divide(hwhm, block, out=block)
        block *= amplitudes[start : start + rows]
        block[0] += values
        # A reduce along axis 0 adds the rows one after another.
        values = np.add.reduce(block, axis=0)
    return SpectrumModel(peaks=peaks, grid=grid, values=values)


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


def row_template(grid, columns: int = 1) -> str:
    """The data rows of a spectrum CSV with the grid column already written.

    Row k is the k-th grid number in ``NUMBER_FORMAT`` followed by ``columns``
    slots ``,%.9g``, so ``template % tuple(values)``, with the value columns
    interleaved row by row, formats a whole spectrum in one pass.  The grid is
    read as floats, as the per-number formatting reads it.
    """
    grid = np.asarray(grid, dtype=float)
    slots = ("," + NUMBER_FORMAT) * columns + "\n"
    return ((NUMBER_FORMAT + slots.replace("%", "%%")) * grid.size) % tuple(grid.tolist())


def spectrum_to_csv(spec, extra_meta: dict | None = None, rows: str | None = None) -> str:
    """Serialize a spectrum (model or measured) to CSV text.

    The metadata lines come first, sorted by key, then the header and one row
    per grid point: ``freq_mhz,value`` or, when ``spec`` has a ``stderr``,
    ``freq_mhz,value,stderr``.  ``rows`` is ``row_template(spec.grid, columns)``
    with one column per value column; a caller writing many spectra on one
    grid builds it once, otherwise it is built here.  Every number reads as
    ``"%.9g" % float(x)`` would write it.
    """
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
        values = np.asarray(spec.values, dtype=float)
    else:
        buf.write("freq_mhz,value,stderr\n")
        values = np.column_stack((spec.values, stderr)).astype(float, copy=False).ravel()
    if rows is None:
        rows = row_template(spec.grid, 1 if stderr is None else 2)
    buf.write(rows % tuple(values.tolist()))
    return buf.getvalue()


def write_spectrum_csv(path, spec, extra_meta: dict | None = None, rows: str | None = None) -> None:
    """Write :func:`spectrum_to_csv` text to ``path``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(spectrum_to_csv(spec, extra_meta, rows))


def read_spectrum_csv(path) -> MeasuredSpectrum:
    """Read a spectrum CSV written in the positive-dip convention."""
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
    try:
        return MeasuredSpectrum(grid=np.array(grid), values=np.array(values), meta=meta)
    except ValidationError as exc:
        raise ParseError(f"{path}: {exc}") from None


def _csv_field(text: str) -> str:
    """``text`` as :mod:`csv` writes it in a row, quoted where it must be."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([text])
    return buf.getvalue()


def transitions_to_csv(tables) -> str:
    """Serialize transition tables as ``b_mt,freq_mhz,intensity,label_from,label_to``.

    Each distinct label is formatted and quoted once per call, and each table's
    rows are formatted in one ``%`` pass; the text is what :mod:`csv` writes
    row by row from ``%.9g`` numbers.  ``b_mt`` is empty for a table without a
    field.
    """
    from .spin_core import format_label

    parts = ["b_mt,freq_mhz,intensity,label_from,label_to\n"]
    names = {}
    for table in tables:
        b_text = _format_number(table.b_mt) if table.b_mt is not None else ""
        for m in set(table.labels) - names.keys():
            names[m] = _csv_field(format_label(m))
        labels = [names[m] for m in table.labels]
        row = f"{b_text},{NUMBER_FORMAT},{NUMBER_FORMAT},%s,%s\n"
        cells = zip(
            table.freq_mhz.tolist(),
            table.intensity.tolist(),
            [labels[i] for i in table.i.tolist()],
            [labels[j] for j in table.j.tolist()],
        )
        parts.append((row * len(table)) % tuple(x for cell in cells for x in cell))
    return "".join(parts)


def frequency_grid(start: float, stop: float, step: float) -> np.ndarray:
    """Inclusive arithmetic grid; validates the specification."""
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ValidationError(f"grid {name} must be finite")
    if step <= 0:
        raise ValidationError(f"grid step must be positive, got {step!r}")
    if stop <= start:
        raise ValidationError(f"grid stop must exceed start, got [{start!r}, {stop!r}]")
    span = (stop - start) / step + 1e-9
    if not span < MAX_GRID_POINTS:  # n = floor(span) + 1 points; span may be inf
        points = math.floor(span) + 1 if math.isfinite(span) else span
        raise ResourceLimitError(
            f"grid [{start!r}, {stop!r}] in steps of {step!r} has {points} points,"
            f" above the cap of {MAX_GRID_POINTS} points"
        )
    n = int(math.floor(span)) + 1
    return start + step * np.arange(n)
