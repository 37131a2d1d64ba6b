import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvgslac import fitting
from nvgslac.errors import ConvergenceError, ValidationError
from nvgslac.fitting import (
    B_SCAN_STEP_MT,
    CalibrationModel,
    FitParams,
    alignment,
    calibrate_field,
    fit_report_document,
    fit_spectrum,
    model_spectrum,
    orientation,
    polarization_sweep,
    reduced_chi2,
    write_fit_report,
)
from nvgslac.hamiltonian import DEFAULT_CONSTANTS, gslac_field
from nvgslac.spectrum import MeasuredSpectrum

C = DEFAULT_CONSTANTS


def synthetic_spectrum(beta, b, width, noise=0.01, mode="hi", seed=0, step=0.02):
    if mode == "hi":
        center = C.d_g + C.gamma_e * b
        grid = np.arange(center - 12.0, center + 12.0, step)
    else:
        grid = np.arange(0.0, 40.0, step)
    truth = FitParams(beta=beta, b=b, width=width)
    clean = model_spectrum(truth, grid, mode=mode).values
    rng = np.random.default_rng(seed)
    sigma = noise * clean.max()
    values = clean + sigma * rng.standard_normal(grid.size)
    return MeasuredSpectrum(grid=grid, values=values, meta={"b_mt": b}), sigma


def test_reduced_chi2_basics():
    grid = np.linspace(0.0, 1.0, 11)
    data = MeasuredSpectrum(grid=grid, values=np.sin(grid))
    assert reduced_chi2(data, data.values) == 0.0
    assert reduced_chi2(data, data.values - 1.0) == pytest.approx(1.0)


def test_reduced_chi2_noise_expectation():
    rng = np.random.default_rng(123)
    grid = np.linspace(0.0, 10.0, 1000)
    model = np.exp(-((grid - 5.0) ** 2))
    data = MeasuredSpectrum(grid=grid, values=model + 0.1 * rng.standard_normal(1000))
    chi2 = reduced_chi2(data, model)
    assert abs(chi2 - 0.01) < 0.001


def test_reduced_chi2_translation_consistency():
    grid = np.linspace(0.0, 1.0, 32)
    rng = np.random.default_rng(5)
    model = rng.standard_normal(32)
    data_values = model + 0.3 * rng.standard_normal(32)
    base = reduced_chi2(MeasuredSpectrum(grid=grid, values=data_values), model)
    shifted = reduced_chi2(MeasuredSpectrum(grid=grid, values=data_values + 4.2), model + 4.2)
    assert shifted == pytest.approx(base, rel=1e-12)


def test_reduced_chi2_grid_mismatch():
    a = MeasuredSpectrum(grid=np.linspace(0, 1, 5), values=np.zeros(5))
    with pytest.raises(ValidationError):
        reduced_chi2(a, np.zeros(6))


def test_reduced_chi2_with_sigma():
    grid = np.linspace(0.0, 1.0, 4)
    data = MeasuredSpectrum(grid=grid, values=np.ones(4))
    chi2 = reduced_chi2(data, np.zeros(4), sigma=2.0 * np.ones(4))
    assert chi2 == pytest.approx(0.25)


@pytest.mark.parametrize("offset_mt", [-0.05, 0.075, 0.2])
def test_fit_round_trip_far_from_gslac(offset_mt):
    # +0.075 mT is one 14N line spacing (|a_par| / gamma_e) off; from the
    # +0.075 and +0.2 mT starts, a start grid scored only at the start field
    # ends in the one-broad-line basin.
    data, sigma = synthetic_spectrum(0.45, 101.5, 1.0, seed=7)
    result = fit_spectrum(data, FitParams(beta=0.0, b=101.5 + offset_mt, width=1.3))
    p = result.params
    assert abs(p.beta - 0.45) / 0.45 < 0.05
    assert abs(p.b - 101.5) < 0.01
    assert abs(p.width - 1.0) / 1.0 < 0.05
    assert result.chi2_red <= 1.2 * sigma**2
    assert "b_fixed_near_gslac" not in result.flags


def test_fit_beta_zero_gives_equal_areas():
    data, _ = synthetic_spectrum(0.0, 101.2, 1.0, noise=0.0, seed=1)
    result = fit_spectrum(data, FitParams(beta=0.0, b=101.2, width=1.0))
    areas = list(result.peak_areas.values())
    assert len(areas) == 3
    assert (max(areas) - min(areas)) / max(areas) < 0.02


def test_fit_near_gslac_fixes_field_frees_split():
    b_true = gslac_field(C) + 0.2
    data, sigma = synthetic_spectrum(0.3, b_true, 1.2, seed=3)
    result = fit_spectrum(data, FitParams(beta=0.0, b=b_true, width=1.0))
    assert result.params.b == b_true
    assert "b_fixed_near_gslac" in result.flags
    assert abs(result.params.beta - 0.3) / 0.3 < 0.05
    assert abs(result.params.width - 1.2) / 1.2 < 0.05
    assert result.chi2_red <= 1.5 * sigma**2


def test_fit_invariant_under_common_scaling():
    data, _ = synthetic_spectrum(0.5, 101.4, 1.1, seed=11)
    scaled = MeasuredSpectrum(grid=data.grid, values=37.0 * data.values, meta=data.meta)
    r1 = fit_spectrum(data, FitParams(beta=0.0, b=101.35, width=1.0))
    r2 = fit_spectrum(scaled, FitParams(beta=0.0, b=101.35, width=1.0))
    assert abs(r1.params.beta - r2.params.beta) < 1e-3
    assert abs(r1.params.b - r2.params.b) < 1e-4
    assert abs(r1.params.width - r2.params.width) < 1e-3
    assert r2.scale == pytest.approx(37.0 * r1.scale, rel=1e-3)


def test_fit_stable_under_grid_subsampling():
    data, _ = synthetic_spectrum(0.4, 101.3, 1.0, noise=0.0, seed=2)
    sub = MeasuredSpectrum(grid=data.grid[::2], values=data.values[::2], meta=data.meta)
    r1 = fit_spectrum(data, FitParams(beta=0.0, b=101.25, width=1.2))
    r2 = fit_spectrum(sub, FitParams(beta=0.0, b=101.25, width=1.2))
    assert abs(r1.params.beta - r2.params.beta) < 1e-3
    assert abs(r1.params.b - r2.params.b) < 1e-4
    assert abs(r1.params.width - r2.params.width) < 1e-3


def test_fit_width_broadening_recovered():
    narrow, _ = synthetic_spectrum(0.2, 101.2, 0.9, seed=5)
    broad, _ = synthetic_spectrum(0.2, gslac_field(C) + 0.1, 1.8, seed=6)
    r_far = fit_spectrum(narrow, FitParams(beta=0.0, b=101.2, width=1.2))
    r_near = fit_spectrum(broad, FitParams(beta=0.0, b=gslac_field(C) + 0.1, width=1.2))
    assert r_near.params.width > r_far.params.width


@pytest.fixture
def model_calls(monkeypatch):
    """Record one entry per model spectrum the fitter synthesizes."""
    calls = []

    def counting_model(*args, **kwargs):
        calls.append(1)
        return model_spectrum(*args, **kwargs)

    monkeypatch.setattr(fitting, "model_spectrum", counting_model)
    return calls


def test_fit_nonconvergence_raises(model_calls):
    data, _ = synthetic_spectrum(0.4, 101.5, 1.0, seed=9)
    # the field scan and the start grid are spent from the budget too
    with pytest.raises(ConvergenceError, match="30 evaluations spent"):
        fit_spectrum(data, FitParams(beta=0.0, b=101.45, width=1.0), max_evaluations=30)
    assert len(model_calls) == 30


def test_fit_field_scan_step_below_14n_spacing():
    assert B_SCAN_STEP_MT < abs(C.a_par) / C.gamma_e


def test_fit_n_evaluations_includes_field_scan(model_calls):
    data, _ = synthetic_spectrum(0.3, 101.4, 1.0, seed=13)
    result = fit_spectrum(data, FitParams(beta=0.0, b=101.35, width=1.0))
    # every model spectrum but the two curvature probes per free parameter
    # is a counted evaluation
    assert len(result.curvatures) == 3
    assert result.n_evaluations == len(model_calls) - 2 * len(result.curvatures)


def test_fit_curvature_probes_stay_within_budget():
    # 442 evaluations is what the scan, the grid and the searches of this fit
    # take, so the budget is spent exactly when the search converges
    data, _ = synthetic_spectrum(0.3, 101.4, 1.0, seed=13)
    result = fit_spectrum(data, FitParams(beta=0.0, b=101.35, width=1.0), max_evaluations=442)
    assert result.n_evaluations <= 442


def test_fit_empty_data_rejected():
    empty = MeasuredSpectrum(grid=np.array([]), values=np.array([]))
    with pytest.raises(ValidationError):
        fit_spectrum(empty, FitParams(beta=0.0, b=101.0, width=1.0))


def test_fit_report_document_round_trip(tmp_path):
    data, _ = synthetic_spectrum(0.3, 101.4, 1.0, seed=13)
    result = fit_spectrum(data, FitParams(beta=0.0, b=101.35, width=1.0))
    doc = fit_report_document(result, {"input": "x.csv", "seed": 0})
    path = tmp_path / "report.json"
    write_fit_report(path, result, {"input": "x.csv", "seed": 0})
    loaded = json.loads(path.read_text())
    assert loaded["params"]["beta"] == pytest.approx(doc["params"]["beta"])
    assert loaded["provenance"]["input"] == "x.csv"
    assert set(loaded["peak_areas"]) == set(doc["peak_areas"])


def test_calibration_exact_line():
    points = [(current, 2.9 * current) for current in np.linspace(30.0, 36.0, 8)]
    model = calibrate_field(points)
    assert model.slope == pytest.approx(2.9, abs=1e-12)
    assert model.intercept == pytest.approx(0.0, abs=1e-9)
    for current, b in points:
        assert model.predict(current) == pytest.approx(b, abs=1e-9)


def test_calibration_two_points_interpolates():
    model = calibrate_field([(1.0, 3.0), (3.0, 9.0)])
    assert model.predict(2.0) == pytest.approx(6.0)


def test_calibration_noisy_slope_recovery():
    rng = np.random.default_rng(77)
    currents = np.linspace(33.0, 36.0, 20)
    fields = 2.9 * currents + rng.normal(0.0, 0.005, currents.size)
    model = calibrate_field(list(zip(currents, fields)))
    assert abs(model.slope - 2.9) / 2.9 < 0.01


def test_calibration_errors():
    with pytest.raises(ValidationError):
        calibrate_field([(1.0, 2.9)])
    with pytest.raises(ValidationError):
        calibrate_field([(1.0, 2.9), (1.0, 3.0)])


def test_orientation_alignment_reference_points():
    assert orientation((1.0, 1.0, 1.0)) == pytest.approx(0.0)
    assert alignment((1.0, 1.0, 1.0)) == pytest.approx(0.0)
    assert orientation((1.0, 0.0, 0.0)) == pytest.approx(math.sqrt(1.5))
    assert alignment((1.0, 0.0, 0.0)) == pytest.approx(math.sqrt(0.5))
    assert orientation((0.0, 1.0, 0.0)) == pytest.approx(0.0)
    assert alignment((0.0, 1.0, 0.0)) == pytest.approx(-math.sqrt(2.0))


@settings(max_examples=50, deadline=None)
@given(
    pops=st.tuples(
        st.floats(0.0, 10.0), st.floats(0.0, 10.0), st.floats(0.0, 10.0)
    ).filter(lambda p: sum(p) > 1e-6),
    scale=st.floats(1e-3, 1e3),
)
def test_orientation_alignment_scale_invariant(pops, scale):
    scaled = tuple(scale * p for p in pops)
    assert orientation(scaled) == pytest.approx(orientation(pops), rel=1e-9, abs=1e-12)
    assert alignment(scaled) == pytest.approx(alignment(pops), rel=1e-9, abs=1e-12)
    assert abs(orientation(pops)) <= math.sqrt(1.5) + 1e-12
    assert -math.sqrt(2.0) - 1e-12 <= alignment(pops) <= math.sqrt(0.5) + 1e-12


def test_orientation_alignment_validation():
    with pytest.raises(ValidationError):
        orientation((0.0, 0.0, 0.0))
    with pytest.raises(ValidationError):
        alignment((-1.0, 1.0, 1.0))


class _FakeFit:
    def __init__(self, b, areas, strengths):
        self.params = FitParams(beta=0.0, b=b, width=1.0)
        self.peak_areas = areas
        self.peak_strengths = strengths


def test_polarization_sweep_zero_orientation_for_equal_areas():
    fits = [
        _FakeFit(
            b,
            {"|0,+1>": 2.0, "|0,0>": 2.0, "|0,-1>": 2.0},
            {"|0,+1>": 2.0, "|0,0>": 2.0, "|0,-1>": 2.0},
        )
        for b in (101.0, 101.5, 103.6)
    ]
    rows = polarization_sweep(fits)
    for _, report in rows:
        assert report.orientation == pytest.approx(0.0)
        assert report.alignment == pytest.approx(0.0)
        assert not report.low_confidence


def test_polarization_sweep_flags_window_and_missing():
    bg = gslac_field(C)
    inside = _FakeFit(
        bg + 0.05, {"|0,+1>": 1.0, "|0,0>": 1.0, "|0,-1>": 1.0}, {"|0,+1>": 1.0, "|0,0>": 1.0, "|0,-1>": 1.0}
    )
    missing = _FakeFit(101.0, {"|0,+1>": 1.0}, {"|0,+1>": 1.0})
    rows = polarization_sweep([inside, missing])
    assert rows[0][1].low_confidence
    assert any(flag.startswith("missing_component") for flag in rows[1][1].flags)


def test_polarization_round_trip_through_fit():
    # a synthetic ramp in beta maps to a monotone orientation
    betas = (-0.6, 0.0, 0.6)
    fits = []
    for k, beta in enumerate(betas):
        data, _ = synthetic_spectrum(beta, 101.0 + 0.2 * k, 1.0, noise=0.002, seed=40 + k)
        fits.append(fit_spectrum(data, FitParams(beta=0.0, b=101.0 + 0.2 * k, width=1.1)))
    rows = polarization_sweep(fits)
    orients = [report.orientation for _, report in rows]
    assert orients[0] > orients[1] > orients[2]  # positive beta favors m_I = -1
    assert abs(orients[1]) < 0.02
