import csv
import dataclasses
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import nv_table
from hypothesis import given, settings
from hypothesis import strategies as st

from nvgslac import spectrum
from nvgslac.carbon13 import C13Placement, build_full_hamiltonian, load_families, site_list
from nvgslac.errors import ParseError, ResourceLimitError, ValidationError
from nvgslac.hamiltonian import DEFAULT_CONSTANTS, FieldConfig, build_nv_hamiltonian, gslac_field
from nvgslac.spectrum import (
    NUMBER_FORMAT,
    SYNTH_BLOCK_POINTS,
    MeasuredSpectrum,
    SpectrumModel,
    frequency_grid,
    lorentzian,
    read_spectrum_csv,
    require_grid_covers,
    row_template,
    spectrum_to_csv,
    synthesize,
    track_transition,
    transitions_to_csv,
    write_spectrum_csv,
)
from nvgslac.spin_core import eigensolve, product_basis_labels
from nvgslac.transitions import TransitionTable, transition_table


def test_lorentzian_peak_height_and_area():
    hwhm = 0.5
    grid = np.arange(-60.0, 60.0, 0.005)
    curve = lorentzian(grid, 0.0, hwhm)
    assert np.isclose(curve.max(), 1.0 / (np.pi * hwhm), rtol=1e-6)
    assert np.isclose(np.trapezoid(curve, grid), 1.0, atol=0.02)
    # half maximum at +- hwhm
    assert np.isclose(lorentzian(hwhm, 0.0, hwhm), curve.max() / 2.0, rtol=1e-9)


def peak_table(freq, intensity):
    """A transition table holding only the given lines."""
    freq = np.asarray(freq, dtype=float)
    return TransitionTable(
        i=np.zeros(freq.size, dtype=int),
        j=np.ones(freq.size, dtype=int),
        freq_mhz=freq,
        probability=np.ones(freq.size),
        intensity=np.asarray(intensity, dtype=float),
        energies=np.zeros(9),
        labels=tuple(range(9)),
    )


def per_entry_synthesis(table, width, grid):
    """Oracle: one ``lorentzian`` per entry, added to the sum in table order."""
    values = np.zeros_like(grid)
    for center, amplitude in zip(table.freq_mhz.tolist(), table.intensity.tolist()):
        values += amplitude * lorentzian(grid, center, width)
    return values


def test_synthesize_empty_table_gives_zeros():
    grid = np.linspace(0.0, 10.0, 11)
    spec = synthesize(peak_table([], []), 1.0, grid)
    assert np.all(spec.values == 0.0)


def test_synthesize_rejects_bad_width_and_grid():
    table = nv_table(95.0, mode="hi")
    grid = np.linspace(0, 1, 5)
    for curve in (lambda w: synthesize(table, w, grid), lambda w: lorentzian(grid, 0.0, w)):
        for width in (0.0, -1.0, np.inf, np.nan):  # one width rule for both
            with pytest.raises(ValidationError, match=repr(width)):
                curve(width)
        for width in (1e308, 1e154):  # finite, but pi * width**2 overflows
            with pytest.raises(ValidationError, match=re.escape(f"linewidth {width!r} MHz is too large")):
                curve(width)
        for width in (1e-200, 1e-160):  # positive, but width**2 underflows
            with pytest.raises(ValidationError, match=re.escape(f"linewidth {width!r} MHz is too small")):
                curve(width)
    bad_grids = (np.array([]), None, np.zeros((2, 5)), np.array([0.0, np.nan, 1.0]), [np.inf])
    for grid in bad_grids:
        shape = np.shape(np.asarray(grid, dtype=float))
        with pytest.raises(ValidationError, match=re.escape(f"shape {shape}")):
            synthesize(table, 1.0, grid)


def random_peak_table(n, grid):
    rng = np.random.default_rng(n)
    # centers on and off the grid; intensities over ten decades, some zero
    freq = rng.uniform(grid[0] - 50.0, grid[-1] + 50.0, n)
    intensity = 10.0 ** rng.uniform(-10.0, 0.0, n) * (rng.random(n) > 0.1)
    return peak_table(freq, intensity)


@pytest.mark.parametrize("grid_name", ["hi", "lo"])
@pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)])
def test_synthesize_equals_per_entry_oracle(grid_name, blocks, extra):
    grid = {"hi": np.arange(5680.0, 5800.0, 0.1), "lo": np.arange(0.0, 40.0, 0.1)}[grid_name]
    n = blocks * (SYNTH_BLOCK_POINTS // grid.size) + extra
    table = random_peak_table(n, grid)
    spec = synthesize(table, 0.7, grid)
    assert np.array_equal(spec.values, per_entry_synthesis(table, 0.7, grid))


@pytest.mark.parametrize("n", [0, 1, 3, 8, 9, 1000])
def test_synthesize_one_point_grid_equals_oracle(n):
    # on a single point a reduce over 8 or more rows would add them pairwise
    grid = np.array([5740.0])
    table = random_peak_table(n, grid)
    spec = synthesize(table, 0.7, grid)
    assert np.array_equal(spec.values, per_entry_synthesis(table, 0.7, grid))


def test_synthesize_five_site_table_equals_oracle_in_little_memory():
    field = FieldConfig(b=102.4, theta_deg=0.3)
    families = load_families()
    base = build_nv_hamiltonian(DEFAULT_CONSTANTS, field)
    placement = C13Placement(occupied=site_list(families)[::8][:5])  # 8,525 entries
    h = build_full_hamiltonian(base, placement, families, field, DEFAULT_CONSTANTS)
    table = transition_table(eigensolve(h, product_basis_labels(5)), beta=0.0, mode="hi", b_mt=102.4)
    grid = np.arange(5680.0, 5800.0, 0.1)
    # all its Lorentzians at once, one (entries x grid) array, would take 82 MB
    assert len(table) * grid.nbytes > 48e6
    spec = synthesize(table, 1.0, grid)
    assert np.array_equal(spec.values, per_entry_synthesis(table, 1.0, grid))
    tracemalloc.start()
    try:
        synthesize(table, 1.0, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_far_field_three_peak_spacing():
    # closed-form oracle: the three manifold transitions are spaced by
    # |a_par|; the full matrix adds level-repulsion shifts < 0.05 MHz
    c = DEFAULT_CONSTANTS
    from nvgslac.hamiltonian import analytic_energies

    e = analytic_energies(c, 95.0)
    freqs_analytic = sorted((e[6] - e[0], e[8] - 0.0, e[7] - c.q))
    spacings = np.diff(freqs_analytic)
    assert np.allclose(spacings, abs(c.a_par), atol=1e-9)

    table = nv_table(95.0, mode="hi")
    freqs = sorted(r.freq_mhz for r in table.rows)
    assert np.allclose(np.diff(freqs), abs(c.a_par), atol=0.05)


def test_total_area_equals_intensity_sum():
    table = nv_table(102.4, mode="lo")
    total = sum(r.intensity for r in table.rows)
    centers = [r.freq_mhz for r in table.rows]
    for width in (0.3, 1.0, 2.5):
        grid = np.arange(min(centers) - 40 * width, max(centers) + 40 * width, width / 5)
        spec = synthesize(table, width, grid)
        assert sum(amp for _, _, amp in spec.peaks) == pytest.approx(total, rel=1e-12)
        # numerical integral sees all but the tail mass outside +-40 hwhm
        assert np.trapezoid(spec.values, grid) == pytest.approx(total, rel=0.02)


def test_area_at_twenty_widths_misses_tail_mass():
    # a +-20 hwhm window holds only 2/pi*atan(20) ~ 96.8% of a Lorentzian
    table = nv_table(102.4, mode="lo")
    total = sum(r.intensity for r in table.rows)
    centers = [r.freq_mhz for r in table.rows]
    width = 1.0
    grid = np.arange(min(centers) - 20 * width, max(centers) + 20 * width, width / 5)
    integral = np.trapezoid(synthesize(table, width, grid).values, grid)
    assert integral == pytest.approx(total, rel=0.04)
    assert integral < total


def test_synthesis_invariant_under_row_permutation():
    table = nv_table(102.4, mode="lo")
    grid = np.arange(0.0, 30.0, 0.05)
    spec = synthesize(table, 1.0, grid)
    reversed_table = TransitionTable(
        i=table.i[::-1],
        j=table.j[::-1],
        freq_mhz=table.freq_mhz[::-1],
        probability=table.probability[::-1],
        intensity=table.intensity[::-1],
        energies=table.energies,
        labels=table.labels,
    )
    spec_r = synthesize(reversed_table, 1.0, grid)
    assert np.max(np.abs(spec.values - spec_r.values)) < 1e-12


def test_hi_band_window():
    for b in np.linspace(101.0, 103.5, 11):
        table = nv_table(b, mode="hi")
        for row in table.rows:
            assert 5600.0 <= row.freq_mhz <= 5900.0


def test_lo_band_window_within_attainable_range():
    # all strong lines stay below 40 MHz out to about +-1.3 mT; at the
    # +-1.5 mT edge the outermost lines reach ~44 MHz
    bg = gslac_field(DEFAULT_CONSTANTS)
    for b in np.linspace(bg - 1.3, bg + 1.3, 9):
        table = nv_table(b, mode="lo")
        for row in table.rows:
            assert 0.0 <= row.freq_mhz <= 40.0
    edge = nv_table(bg - 1.5, mode="lo")
    assert max(r.freq_mhz for r in edge.rows) > 40.0


def test_track_transition_far_field_frequency():
    c = DEFAULT_CONSTANTS
    tables = [nv_table(b) for b in (90.0, 95.0)]
    points = track_transition(tables, (0, 1), (1, 1))
    for (b, freq, intensity), b_ref in zip(points, (90.0, 95.0)):
        assert b == b_ref
        assert intensity > 0
        assert np.isclose(freq, c.d_g + c.a_par + c.gamma_e * b_ref, atol=0.01)


def test_track_forbidden_transition_zero_everywhere():
    tables = [nv_table(b) for b in np.linspace(101.0, 104.0, 13)]
    points = track_transition(tables, (0, 1), (1, 0))
    assert all(intensity == 0.0 for _, _, intensity in points)
    freqs = np.array([freq for _, freq, _ in points])
    assert np.all(freqs > 0)


def test_track_transition_continuity_across_gslac():
    # tracking between unmixed labels follows one continuous eigenvalue
    # branch; a mixed label would hop branches at its pair's 50/50 field
    bs = np.arange(101.8, 103.0, 0.01)
    tables = [nv_table(b) for b in bs]
    for pair in (((0, 1), (1, 1)), ((0, 1), (1, 0))):
        points = track_transition(tables, *pair)
        freqs = np.array([freq for _, freq, _ in points])
        step = np.max(np.abs(np.diff(freqs)))
        assert step < 0.01 * 28.1 * 1.5  # grid step in field units, with margin


def test_track_rejects_unknown_label():
    tables = [nv_table(95.0)]
    with pytest.raises(ValidationError):
        track_transition(tables, (0, 2), (1, 0))


def test_spectrum_csv_round_trip(tmp_path):
    grid = np.linspace(5700.0, 5710.0, 21)
    values = np.sin(grid / 7.0) ** 2
    spec = MeasuredSpectrum(grid=grid, values=values, meta={"b_mt": 101.5, "current_a": 35.0})
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, spec)
    back = read_spectrum_csv(path)
    assert np.allclose(back.grid, grid, atol=1e-6)
    assert np.allclose(back.values, values, atol=1e-7)
    assert back.meta["b_mt"] == pytest.approx(101.5)
    assert back.meta["current_a"] == pytest.approx(35.0)


def test_spectrum_csv_deterministic():
    grid = np.linspace(0.0, 1.0, 7)
    spec = MeasuredSpectrum(grid=grid, values=grid**2, meta={"b_mt": 102.4})
    assert spectrum_to_csv(spec) == spectrum_to_csv(spec)


def per_row_csv(spec, extra_meta=None):
    """Oracle: every number formatted on its own, one row at a time."""
    meta = {**(spec.meta or {}), **(extra_meta or {})}
    lines = [
        f"# {key}={NUMBER_FORMAT % meta[key] if isinstance(meta[key], (int, float)) else meta[key]}"
        for key in sorted(meta)
    ]
    cols = [spec.grid, spec.values]
    if getattr(spec, "stderr", None) is not None:
        cols.append(spec.stderr)
    lines.append(",".join(["freq_mhz", "value", "stderr"][: len(cols)]))
    lines += [",".join(NUMBER_FORMAT % float(x) for x in row) for row in zip(*cols)]
    return "\n".join(lines) + "\n"


def test_spectrum_csv_equals_per_row_oracle():
    values = np.array([-0.0, 1e-300, 1e300, 3.0, -2.5e-7, 1 / 3, 123456789012.0, 0.0])
    measured = MeasuredSpectrum(
        grid=np.arange(8) + 5700.0, values=values, meta={"b_mt": 101.5, "note": "x=1"}
    )
    extra = {"current_a": 35, "contrast_pct": 2.25e-5}
    assert spectrum_to_csv(measured, extra) == per_row_csv(measured, extra)
    # an integer grid, and non-finite entries in the stderr column
    model = SpectrumModel(
        peaks=np.empty((0, 3)),
        grid=np.arange(8),
        values=values[::-1],
        stderr=np.array([0.0, np.inf, np.nan, -0.0, 5e-324, 1e-5, 7.0, 2.0**60]),
    )
    assert spectrum_to_csv(model, {"b_mt": 102.4}) == per_row_csv(model, {"b_mt": 102.4})


# Finite numbers with the awkward ones drawn often: signed zeros and subnormals.
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300]
)
_ANY = _FINITE | st.sampled_from([math.inf, -math.inf, math.nan])


@st.composite
def _spectra(draw):
    """Spectra with 2 or 3 columns on integer or float grids, as strided views or not."""
    n = draw(st.integers(1, 30))
    stride = draw(st.sampled_from([1, 2, 3]))

    def column(elements):
        return np.array(draw(st.lists(elements, min_size=n * stride, max_size=n * stride)))[
            ::stride
        ]

    if draw(st.booleans()):
        grid = column(st.integers(-(2**53), 2**53))
    else:
        grid = column(_FINITE)
    stderr = column(_ANY) if draw(st.booleans()) else None
    return SpectrumModel(peaks=np.empty((0, 3)), grid=grid, values=column(_FINITE), stderr=stderr)


@settings(max_examples=200, deadline=None)
@given(spec=_spectra(), b_mt=_FINITE)
def test_spectrum_csv_template_equals_per_row_oracle(spec, b_mt):
    expected = per_row_csv(spec, {"b_mt": b_mt})
    assert spectrum_to_csv(spec, {"b_mt": b_mt}) == expected
    columns = 1 if spec.stderr is None else 2
    assert spectrum_to_csv(spec, {"b_mt": b_mt}, row_template(spec.grid, columns)) == expected


def test_grids_one_ulp_apart_give_different_text():
    # 1.000000005 lies halfway between two 9-digit numbers; the float
    # nearest to it lies just below and the next one just above.
    below = 1.000000005
    above = math.nextafter(below, math.inf)
    assert NUMBER_FORMAT % below != NUMBER_FORMAT % above
    texts = []
    for point in (below, above):
        spec = SpectrumModel(peaks=np.empty((0, 3)), grid=np.array([point]), values=np.array([2.0]))
        texts.append(spectrum_to_csv(spec, rows=row_template(spec.grid)))
        assert texts[-1] == per_row_csv(spec)
    assert texts[0] != texts[1]


def test_row_template_slots_must_match_the_values():
    spec = SpectrumModel(peaks=np.empty((0, 3)), grid=np.arange(3.0), values=np.ones(3))
    with pytest.raises(TypeError):
        spectrum_to_csv(spec, rows=row_template(spec.grid, 2))


def test_spectrum_csv_parse_errors(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError):
        read_spectrum_csv(empty)
    headed = tmp_path / "only_header.csv"
    headed.write_text("freq_mhz,value\n")
    with pytest.raises(ParseError):
        read_spectrum_csv(headed)
    bad = tmp_path / "bad.csv"
    bad.write_text("freq_mhz,value\n1.0,abc\n")
    with pytest.raises(ParseError):
        read_spectrum_csv(bad)
    wrong_header = tmp_path / "wrong.csv"
    wrong_header.write_text("f,v\n1,2\n")
    with pytest.raises(ParseError):
        read_spectrum_csv(wrong_header)


def test_transitions_csv_layout():
    text = transitions_to_csv([nv_table(95.0, mode="hi")])
    lines = text.strip().splitlines()
    assert lines[0] == "b_mt,freq_mhz,intensity,label_from,label_to"
    assert len(lines) == 4
    assert '"|0,+1>"' in text and '"|+1,+1>"' in text


def per_row_transitions_csv(tables):
    """Oracle: one ``csv.writer`` row per entry, every number formatted on its own."""
    from nvgslac.spin_core import format_label

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["b_mt", "freq_mhz", "intensity", "label_from", "label_to"])
    for t in tables:
        b_text = "" if t.b_mt is None else NUMBER_FORMAT % t.b_mt
        for i, j, f, a in zip(t.i, t.j, t.freq_mhz, t.intensity):
            writer.writerow(
                [
                    b_text,
                    NUMBER_FORMAT % f,
                    NUMBER_FORMAT % a,
                    format_label(t.labels[i]),
                    format_label(t.labels[j]),
                ]
            )
    return buf.getvalue()


def test_transitions_csv_equals_per_row_oracle():
    table = nv_table(101.5, mode="lo", theta_deg=0.3)
    entries = ("i", "j", "freq_mhz", "probability", "intensity")
    empty = dataclasses.replace(table, **{name: getattr(table, name)[:0] for name in entries})
    unfielded = dataclasses.replace(nv_table(98.0, beta=0.7), b_mt=None)
    tables = [table, empty, unfielded, nv_table(102.4, mode="hi")]
    text = transitions_to_csv(tables)
    assert text == per_row_transitions_csv(tables)
    assert '"|0,-1>"' in text and "\n,%s," % (NUMBER_FORMAT % unfielded.freq_mhz[0]) in text
    assert transitions_to_csv([]) == transitions_to_csv([empty]) == per_row_transitions_csv([])


def test_transitions_csv_formats_each_label_once_per_call(monkeypatch):
    from nvgslac import spin_core

    tables = [nv_table(b, mode=None) for b in np.linspace(101.0, 103.5, 40)]
    expected = per_row_transitions_csv(tables)
    calls = []
    format_label = spin_core.format_label
    monkeypatch.setattr(
        spin_core, "format_label", lambda label: calls.append(label) or format_label(label)
    )
    assert transitions_to_csv(tables) == expected
    assert sorted(calls) == sorted(product_basis_labels(0))  # nine labels, each formatted once
    transitions_to_csv(tables[:1])
    assert len(calls) == 18  # nothing is kept between calls


def test_frequency_grid_validation():
    grid = frequency_grid(0.0, 1.0, 0.25)
    assert np.allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValidationError):
        frequency_grid(0.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        frequency_grid(1.0, 0.0, 0.1)


def test_frequency_grid_cap_checked_before_allocation(monkeypatch):
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="1000000000000000001 points") as info:
            frequency_grid(0.0, 1e9, 1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(spectrum.MAX_GRID_POINTS) in str(info.value)
    assert peak < 100_000
    with pytest.raises(ResourceLimitError, match="inf points"):
        frequency_grid(0.0, 1.0, 1e-320)
    # the cap is on the point count, inclusive
    monkeypatch.setattr(spectrum, "MAX_GRID_POINTS", 11)
    assert frequency_grid(0.0, 10.0, 1.0).size == 11
    with pytest.raises(ResourceLimitError, match="12 points"):
        frequency_grid(0.0, 11.0, 1.0)


def test_measured_spectrum_validation():
    with pytest.raises(ValidationError):
        MeasuredSpectrum(grid=np.array([1.0, 1.0]), values=np.array([0.0, 0.0]))
    with pytest.raises(ValidationError):
        MeasuredSpectrum(grid=np.array([1.0, 2.0]), values=np.array([0.0, np.inf]))


def test_track_transition_either_label_order():
    tables = [nv_table(b) for b in (90.0, 95.0, 102.4)]
    assert track_transition(tables, (1, 1), (0, 1)) == track_transition(tables, (0, 1), (1, 1))
    # a pair with no entry falls back to the level spacing in either order
    assert track_transition(tables, (1, 1), (1, 0)) == track_transition(tables, (1, 0), (1, 1))


@pytest.mark.parametrize(
    "text, message",
    [
        ("# b_mt=fast\nfreq_mhz,value\n1.0,0.1\n", "{path}:1: bad metadata value 'fast'"),
        ("freq_mhz,value\n1.0,0.1\n2.0\n", "{path}:3: expected at least two columns"),
        ("freq_mhz,value\n1.0,0.1\ninf,0.01\n", "{path}: frequency grid must be finite"),
        ("freq_mhz,value\n-inf,0.1\n1.0,0.01\n", "{path}: frequency grid must be finite"),
        ("freq_mhz,value\nnan,0.1\n1,0.01\n", "{path}: frequency grid must be strictly ascending"),
    ],
)
def test_spectrum_csv_rejections_name_the_file(tmp_path, text, message):
    path = tmp_path / "spectrum.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=re.escape(message.format(path=path))):
        read_spectrum_csv(path)


@pytest.mark.parametrize(
    "grid, message",
    [
        ([1.0, np.inf], "frequency grid must be finite"),
        ([-np.inf, 1.0], "frequency grid must be finite"),
        ([1.0, np.nan], "frequency grid must be strictly ascending"),  # checked first
    ],
)
def test_measured_spectrum_rejects_a_non_finite_grid(grid, message):
    with pytest.raises(ValidationError, match=message):
        MeasuredSpectrum(grid=np.array(grid), values=np.array([0.1, 0.2]))


def test_grid_coverage_margin_is_twenty_widths_plus_the_shift():
    table = nv_table(95.0, mode="hi")
    top = table.freq_mhz.max()
    width = 0.5
    require_grid_covers(np.array([top + 10.0, top + 20.0]), [table], width, "hi")
    beyond = np.array([top + 10.5, top + 20.0])
    with pytest.raises(ValidationError, match=re.escape(f"[{top + 10.5:g}, {top + 20:g}] MHz")):
        require_grid_covers(beyond, [table], width, "hi")
    require_grid_covers(beyond, [table], width, "hi", shift=1.0)
    columns = ("i", "j", "freq_mhz", "probability", "intensity")
    empty = dataclasses.replace(table, **{name: getattr(table, name)[:0] for name in columns})
    require_grid_covers(np.array([0.0, 1.0]), [empty], width, "hi")


def test_measured_spectrum_rejects_unequal_lengths():
    with pytest.raises(ValidationError, match="equal length"):
        MeasuredSpectrum(grid=np.array([1.0, 2.0, 3.0]), values=np.array([0.0, 0.0]))
