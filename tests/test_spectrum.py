import numpy as np
import pytest
from conftest import nv_table

from nvgslac.errors import ParseError, ValidationError
from nvgslac.hamiltonian import DEFAULT_CONSTANTS, gslac_field
from nvgslac.spectrum import (
    MeasuredSpectrum,
    SpectrumModel,
    frequency_grid,
    lorentzian,
    normalize,
    read_spectrum_csv,
    spectrum_to_csv,
    synthesize,
    track_transition,
    transitions_to_csv,
    write_spectrum_csv,
)
from nvgslac.transitions import TransitionTable


def test_lorentzian_peak_height_and_area():
    hwhm = 0.5
    grid = np.arange(-60.0, 60.0, 0.005)
    curve = lorentzian(grid, 0.0, hwhm)
    assert np.isclose(curve.max(), 1.0 / (np.pi * hwhm), rtol=1e-6)
    assert np.isclose(np.trapezoid(curve, grid), 1.0, atol=0.02)
    # half maximum at +- hwhm
    assert np.isclose(lorentzian(hwhm, 0.0, hwhm), curve.max() / 2.0, rtol=1e-9)


def test_synthesize_empty_table_gives_zeros():
    none = np.array([])
    table = TransitionTable(
        i=none.astype(int),
        j=none.astype(int),
        freq_mhz=none,
        probability=none,
        intensity=none,
        energies=np.zeros(9),
        labels=tuple(range(9)),
    )
    grid = np.linspace(0.0, 10.0, 11)
    spec = synthesize(table, 1.0, grid)
    assert np.all(spec.values == 0.0)


def test_synthesize_rejects_bad_width_and_grid():
    table = nv_table(95.0, mode="hi")
    with pytest.raises(ValidationError):
        synthesize(table, 0.0, np.linspace(0, 1, 5))
    with pytest.raises(ValidationError):
        synthesize(table, 1.0, np.array([]))


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


def test_normalize_scales_and_is_idempotent():
    grid = np.linspace(0.0, 1.0, 5)
    spec = MeasuredSpectrum(grid=grid, values=np.full(5, 0.5))
    normed = normalize(spec)
    assert np.allclose(normed.values, 1.0)
    assert normed.meta["scale"] == pytest.approx(2.0)
    spec2 = MeasuredSpectrum(grid=grid, values=np.array([0.001, 0.0045, 0.002, 0.001, 0.0]))
    normed2 = normalize(spec2)
    assert normed2.meta["scale"] == pytest.approx(1 / 0.0045)
    again = normalize(normed2)
    assert np.allclose(again.values, normed2.values)
    with pytest.raises(ValidationError):
        normalize(MeasuredSpectrum(grid=grid, values=np.zeros(5)))


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


def test_spectrum_csv_invert_flag(tmp_path):
    grid = np.linspace(0.0, 1.0, 5)
    spec = MeasuredSpectrum(grid=grid, values=-np.ones(5))
    path = tmp_path / "neg.csv"
    write_spectrum_csv(path, spec)
    flipped = read_spectrum_csv(path, invert=True)
    assert np.allclose(flipped.values, 1.0)


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


def test_frequency_grid_validation():
    grid = frequency_grid(0.0, 1.0, 0.25)
    assert np.allclose(grid, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValidationError):
        frequency_grid(0.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        frequency_grid(1.0, 0.0, 0.1)


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
