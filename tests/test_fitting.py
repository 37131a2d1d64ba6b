import dataclasses
import functools
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import least_squares

from nvgslac import cli, fitting, transitions
from nvgslac.errors import ConvergenceError, ValidationError
from nvgslac.fitting import (
    B_SCAN_STEP_MT,
    CalibrationModel,
    FitParams,
    FitResult,
    alignment,
    calibrate_field,
    fit_report_document,
    fit_spectrum,
    model_spectrum,
    orientation,
    polarization_sweep,
    reduced_chi2,
)
from nvgslac.hamiltonian import DEFAULT_CONSTANTS, MAX_FIELD_MT, gslac_field
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


@pytest.mark.parametrize(
    "truth, beta0",
    [((0.45, 101.5, 1.0, 7), -2.0), ((0.45, 101.5, 1.0, 7), -1.0), ((-0.6, 101.2, 0.9, 3), 2.0)],
)
def test_fit_started_at_the_wrong_sign_of_beta(truth, beta0):
    # scanned at the start beta, the mirrored 14N triplet picked the wrong
    # field and the fit ended at the opposite beta bound with chi2 ~ 70 sigma^2
    beta, b, width, seed = truth
    data, sigma = synthetic_spectrum(beta, b, width, seed=seed)
    result = fit_spectrum(data, FitParams(beta=beta0, b=b + 0.05, width=1.0))
    p = result.params
    assert abs(p.beta - beta) <= 0.05 * abs(beta), p
    assert abs(p.b - b) <= 0.01, p
    assert abs(p.width - width) <= 0.05 * width, p
    assert result.chi2_red <= 1.2 * sigma**2


def test_fit_field_bounds_stop_at_the_field_cap():
    data, sigma = synthetic_spectrum(0.45, MAX_FIELD_MT - 0.1, 1.0, seed=7, step=0.1)
    result = fit_spectrum(data, FitParams(beta=0.0, b=MAX_FIELD_MT - 0.05, width=1.0))
    assert MAX_FIELD_MT - 0.15 <= result.params.b <= MAX_FIELD_MT
    assert result.chi2_red <= 1.2 * sigma**2


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
    """Record the parameters of each model spectrum the fitter evaluates.

    Every evaluation weighs its field stage exactly once, cached or not; so
    does every ``model_spectrum`` call.
    """
    calls = []
    weigh = fitting._weigh

    def counting_weigh(stage, params):
        calls.append(params)
        return weigh(stage, params)

    monkeypatch.setattr(fitting, "_weigh", counting_weigh)
    return calls


def test_fit_nonconvergence_raises(model_calls, unconverged_searches):
    data, _ = synthetic_spectrum(0.4, 101.5, 1.0, seed=9)
    del model_calls[:]  # the data's own model spectrum
    with pytest.raises(ConvergenceError) as raised:
        fit_spectrum(data, FitParams(beta=0.0, b=101.45, width=1.0))
    # the field scan and the start grid are named too
    assert str(raised.value) == f"fit did not converge: {len(model_calls)} evaluations spent"
    assert len(model_calls) > 21 + 25 + 2 * 3


def test_fit_budget_counts_jacobian_evaluations(monkeypatch, model_calls):
    # B fixed: 1 start point and 25 grid points, then each search's residuals
    # and its 3 Jacobian columns, all named in the message
    ends = []

    def unconverged(*args, **kwargs):
        ends.append(least_squares(*args, **kwargs))
        ends[-1].status = 0
        return ends[-1]

    monkeypatch.setattr(fitting, "least_squares", unconverged)
    b = gslac_field(C) + 0.1
    data, _ = synthetic_spectrum(0.3, b, 1.2, seed=4)
    del model_calls[:]
    with pytest.raises(ConvergenceError) as raised:
        fit_spectrum(data, FitParams(beta=0.0, b=b, width=1.2))
    assert len(ends) == fitting.N_RESTARTS
    expected = 1 + 25 + sum(end.nfev + 3 * end.njev for end in ends)
    assert len(model_calls) == expected
    assert str(raised.value) == f"fit did not converge: {expected} evaluations spent"


@pytest.mark.parametrize(
    "name, value, bounds",
    [
        ("width", 1e308, (0.05, 20.0)),
        ("width", 50.0, (0.05, 20.0)),
        ("width", 0.01, (0.05, 20.0)),
        ("beta", 7.0, (-5.0, 5.0)),
        ("manifold_split", 1.5, (0.0, 1.0)),
        # not finite: outside every bound
        ("beta", math.nan, (-5.0, 5.0)),
        ("width", math.inf, (0.05, 20.0)),
    ],
)
def test_fit_start_outside_the_bounds_is_refused(model_calls, name, value, bounds):
    data, _ = synthetic_spectrum(0.3, 101.4, 1.0, seed=13)
    del model_calls[:]
    for b in (101.35, gslac_field(C)):  # both fit branches
        start = dataclasses.replace(FitParams(beta=0.0, b=b, width=1.0), **{name: value})
        message = f"fit start {name} must lie in [{bounds[0]!r}, {bounds[1]!r}], got {value!r}"
        with pytest.raises(ValidationError, match=re.escape(message)):
            fit_spectrum(data, start)
    assert model_calls == []


def test_fit_field_scan_step_below_14n_spacing():
    assert B_SCAN_STEP_MT < abs(C.a_par) / C.gamma_e


def test_fit_n_evaluations_includes_field_scan(model_calls):
    data, _ = synthetic_spectrum(0.3, 101.4, 1.0, seed=13)
    del model_calls[:]  # the data's own model spectrum
    result = fit_spectrum(data, FitParams(beta=0.0, b=101.35, width=1.0))
    # every model spectrum is a counted evaluation, the search's
    # finite-difference Jacobian columns included
    assert result.n_evaluations == len(model_calls)
    split = result.evaluation_split
    assert split["scan"] == 21 and split["grid"] == 25 and split["search"] > 0
    assert sum(split.values()) == result.n_evaluations


@pytest.fixture
def field_builds(monkeypatch):
    """Record the field of every Hamiltonian the fitter builds, one field at a time."""
    builds = []
    build = transitions._hamiltonian

    def counting_build(terms, b):
        builds.append(b)
        return build(terms, b)

    monkeypatch.setattr(transitions, "_hamiltonian", counting_build)
    return builds


def test_fit_forms_its_field_terms_once(monkeypatch):
    near = gslac_field(C) + 0.1
    cases = [
        (synthetic_spectrum(0.3, 101.4, 1.0, seed=13)[0], FitParams(beta=0.0, b=101.35, width=1.0)),
        (synthetic_spectrum(0.3, near, 1.2, seed=4)[0], FitParams(beta=0.0, b=near, width=1.2)),
    ]
    directions = []
    field_terms = transitions._field_terms

    def counting_terms(constants, direction):
        directions.append(direction)
        return field_terms(constants, direction)

    monkeypatch.setattr(transitions, "_field_terms", counting_terms)
    for data, start in cases:
        del directions[:]
        result = fit_spectrum(data, start)
        assert result.evaluation_split["search"] > 20  # many evaluations, one formation
        assert len(directions) == 1


def test_b_fixed_fit_builds_its_field_once(model_calls, field_builds):
    b = gslac_field(C) + 0.1
    data, _ = synthetic_spectrum(0.3, b, 1.2, seed=4)
    del model_calls[:], field_builds[:]  # the data's own model spectrum
    result = fit_spectrum(data, FitParams(beta=0.0, b=b, width=1.2))
    assert "b_fixed_near_gslac" in result.flags
    assert result.n_evaluations == len(model_calls)
    split = result.evaluation_split
    assert split["scan"] == 1 and split["grid"] == 25  # a fixed field scores its one start
    assert sum(split.values()) == result.n_evaluations
    assert field_builds == [b]


def test_b_free_fit_builds_each_field_once(model_calls, field_builds):
    data, _ = synthetic_spectrum(0.3, 101.4, 1.0, seed=13)
    del model_calls[:], field_builds[:]
    result = fit_spectrum(data, FitParams(beta=0.0, b=101.35, width=1.0))
    assert "b_fixed_near_gslac" not in result.flags
    assert len(field_builds) == len(set(field_builds))
    assert set(field_builds) == {params.b for params in model_calls}
    assert len(field_builds) < len(model_calls)


def test_fit_keeps_no_field_stage_between_calls(field_builds):
    data, _ = synthetic_spectrum(0.3, 101.4, 1.0, seed=13)
    start = FitParams(beta=0.0, b=101.35, width=1.0)
    del field_builds[:]
    first = fit_spectrum(data, start)
    n_first = len(field_builds)
    second = fit_spectrum(data, start)
    assert len(field_builds) == 2 * n_first
    assert field_builds[n_first:] == field_builds[:n_first]
    assert second == first


def test_fit_field_cache_holds_at_most_its_cap(monkeypatch, field_builds):
    data, _ = synthetic_spectrum(0.3, 101.4, 1.0, seed=13)
    start = FitParams(beta=0.0, b=101.35, width=1.0)
    uncapped = fit_spectrum(data, start)
    n_fields = len(set(field_builds))
    del field_builds[:]
    caches, sizes = [], []
    weigh = fitting._weigh

    def recording_lru_cache(maxsize):
        def wrap(function):
            caches.append(functools.lru_cache(maxsize=maxsize)(function))
            return caches[-1]

        return wrap

    def recording_weigh(stage, params):
        sizes.append(caches[-1].cache_info().currsize)  # after the stage's lookup
        return weigh(stage, params)

    monkeypatch.setattr(fitting, "lru_cache", recording_lru_cache)
    monkeypatch.setattr(fitting, "_weigh", recording_weigh)
    monkeypatch.setattr(fitting, "FIELD_CACHE_SIZE", 4)
    capped = fit_spectrum(data, start)
    assert len(caches) == 1
    assert max(sizes) == 4
    assert len(field_builds) > n_fields  # dropped fields were solved again
    assert capped == uncapped


def criterion6_case(seed, index):
    """Criterion 6's synthetic spectrum (tests/test_acceptance.py) with noise seed
    6000 + 1000 * seed + index; seed 0 gives the acceptance test's cases."""
    rng = np.random.default_rng(6000 + 1000 * seed + index)
    sign = 1.0 if index % 2 else -1.0
    truth = FitParams(
        beta=sign * (0.25 + 0.75 * (index // 2) / 9.0),
        b=101.0 + 2.5 * index / 19.0,
        width=0.8 + 1.2 * ((index * 7) % 20) / 19.0,
    )
    center = C.d_g + C.gamma_e * truth.b
    grid = np.arange(center - 12.0, center + 12.0, 0.02)
    clean = model_spectrum(truth, grid, mode="hi").values
    values = clean + 0.01 * clean.max() * rng.standard_normal(grid.size)
    return truth, MeasuredSpectrum(grid=grid, values=values, meta={"b_mt": truth.b})


def test_fit_reports_the_lowest_converged_search_end(monkeypatch):
    # seed 1, case 2: the lowest residual met was a Jacobian probe one
    # difference step from the end, not the end the errors describe
    truth, data = criterion6_case(1, 2)
    ends = []

    def recording_least_squares(*args, **kwargs):
        ends.append(least_squares(*args, **kwargs))
        return ends[-1]

    monkeypatch.setattr(fitting, "least_squares", recording_least_squares)
    result = fit_spectrum(data, FitParams(beta=0.0, b=truth.b + 0.05, width=1.2))
    assert len(ends) == fitting.N_RESTARTS
    final = min((end for end in ends if end.status > 0), key=lambda end: end.cost)
    p = result.params
    assert [p.beta, p.width, p.b] == final.x.tolist()
    assert result.chi2_red == pytest.approx(2.0 * final.cost / data.grid.size, rel=1e-12)


def test_fit_standard_errors_are_calibrated():
    # (fit - truth) / se over 60 criterion-6 fits scatters with unit spread
    pulls = {"beta": [], "width": []}
    for seed in range(3):
        for index in range(20):
            truth, data = criterion6_case(seed, index)
            b_free = abs(truth.b - gslac_field(C)) > fitting.B_FREE_THRESHOLD_MT
            start = FitParams(beta=0.0, b=truth.b + (0.05 if b_free else 0.0), width=1.2)
            result = fit_spectrum(data, start)
            for name, values in pulls.items():
                error = (getattr(result.params, name) - getattr(truth, name))
                values.append(error / result.standard_errors[name])
    for name, values in pulls.items():
        assert 0.7 <= np.std(values) <= 1.3, (name, np.std(values))


def test_fit_flags_a_width_below_its_bound():
    data, _ = synthetic_spectrum(0.3, 101.4, 0.03, seed=13, step=0.005)
    result = fit_spectrum(data, FitParams(beta=0.0, b=101.35, width=1.0))
    width_lo = fitting.DEFAULT_BOUNDS["width"][0]
    assert result.flags == ("at_bound:width",)
    assert width_lo <= result.params.width <= width_lo * (1.0 + 1e-4)


def test_fit_reports_standard_errors_of_its_free_parameters():
    data, sigma = synthetic_spectrum(0.3, 101.4, 1.0, seed=13)
    result = fit_spectrum(data, FitParams(beta=0.0, b=101.35, width=1.0))
    assert list(result.standard_errors) == ["beta", "width", "b"]
    assert all(0.0 < error < 0.01 for error in result.standard_errors.values())
    near = gslac_field(C) + 0.1
    data, _ = synthetic_spectrum(0.3, near, 1.2, seed=4)
    result = fit_spectrum(data, FitParams(beta=0.0, b=near, width=1.2))
    assert list(result.standard_errors) == ["beta", "width", "manifold_split"]


def _search_end(cost, *x):
    return SimpleNamespace(cost=cost, x=np.array(x))


@pytest.mark.parametrize(
    "ends, ambiguous",
    [
        # within one unit of |r|^2 / s2 (2 * 0.4 / 1) and 4 se apart in beta
        ([_search_end(10.0, 0.0, 1.0, 101.0), _search_end(10.4, 0.4, 1.0, 101.0)], True),
        # 4 se apart in the field alone
        ([_search_end(10.0, 0.0, 1.0, 101.0), _search_end(10.0, 0.0, 1.0, 101.04)], True),
        # the same basin: within 3 se in every parameter
        ([_search_end(10.0, 0.0, 1.0, 101.0), _search_end(10.0, 0.29, 1.29, 101.029)], False),
        # apart, but one end lies more than one unit above the other
        ([_search_end(10.0, 0.0, 1.0, 101.0), _search_end(10.6, 0.4, 1.0, 101.0)], False),
        # one search converged
        ([_search_end(10.0, 0.0, 1.0, 101.0)], False),
    ],
)
def test_ambiguous_basin_rule(ends, ambiguous):
    errors = np.array([0.1, 0.1, 0.01])
    assert fitting._ambiguous_basin(ends, errors, 1.0) is ambiguous


def test_fit_result_reads_a_report_from_before_standard_errors():
    doc = {
        "params": {"beta": 0.3, "b_mt": 101.4, "width_mhz": 1.0},
        "chi2_red": 1e-4,
        "scale": 2.0,
        "peak_areas": {"|0,0>": 1.0},
        "peak_strengths": {"|0,0>": 2.0},
        "curvatures": {"beta": 3.0, "width": 4.0, "b": 5.0},
        "n_evaluations": 433,
        "flags": [],
    }
    result = FitResult.from_document(doc)
    assert result.standard_errors == {} and result.evaluation_split == {}
    assert result.n_evaluations == 433 and result.params.beta == 0.3


def test_fit_empty_data_rejected():
    empty = MeasuredSpectrum(grid=np.array([]), values=np.array([]))
    with pytest.raises(ValidationError):
        fit_spectrum(empty, FitParams(beta=0.0, b=101.0, width=1.0))


def test_fit_report_document_round_trip(tmp_path):
    data, _ = synthetic_spectrum(0.3, 101.4, 1.0, seed=13)
    result = fit_spectrum(data, FitParams(beta=0.0, b=101.35, width=1.0))
    doc = fit_report_document(result, {"input": "x.csv", "seed": 0})
    path = tmp_path / "report.json"
    cli._write_json(path, doc)
    loaded = json.loads(path.read_text())
    assert loaded["params"]["beta"] == pytest.approx(doc["params"]["beta"])
    assert loaded["provenance"]["input"] == "x.csv"
    assert set(loaded["peak_areas"]) == set(doc["peak_areas"])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "grid, values",
    [
        (np.array([5720.0, 5725.0, 5730.0, 5735.0]), np.array([0.1, 0.5, 0.2, 0.05])),
        (np.linspace(5700.0, 5760.0, 600), np.zeros(600)),
    ],
    ids=["four_points", "all_zero"],
)
def test_fit_report_writes_undefined_numbers_as_null(tmp_path, grid, values):
    result = fit_spectrum(MeasuredSpectrum(grid=grid, values=values), FitParams(0.3, 101.4, 1.0))
    assert all(math.isnan(se) for se in result.standard_errors.values())
    path = tmp_path / "fit.json"
    cli._write_json(path, fit_report_document(result, {"input": "x.csv"}))
    doc = json.loads(path.read_text(), parse_constant=_reject_constant)
    assert set(doc["standard_errors"].values()) == {None}
    back = FitResult.from_document(doc)
    assert all(math.isnan(se) for se in back.standard_errors.values())
    assert dataclasses.replace(back, standard_errors={}) == dataclasses.replace(
        result, standard_errors={}
    )
    assert polarization_sweep([back]) == polarization_sweep([result])
    assert cli.main(["polarization", str(path), "--out", str(tmp_path / "pol.csv")]) == 0


def test_fit_result_from_document_round_trip():
    data, _ = synthetic_spectrum(0.3, 101.4, 1.0, seed=13)
    result = fit_spectrum(data, FitParams(beta=0.0, b=101.35, width=1.0))
    doc = json.loads(json.dumps(fit_report_document(result, {"input": "x.csv"})))
    assert FitResult.from_document(doc) == result
    assert polarization_sweep([FitResult.from_document(doc)]) == polarization_sweep([result])


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
    with pytest.raises(ValidationError, match="calibration points must be finite"):
        calibrate_field([(1.0, 2.9), (2.0, math.nan)])
    with pytest.raises(ValidationError, match="calibration points must be finite"):
        calibrate_field([(math.inf, 4.0), (2.0, 5.8)])
    # finite extremes overflow the fit: a line of +-inf, named before it is written
    with pytest.raises(ValidationError, match="calibration line is not finite"):
        calibrate_field([(1.0, 1e308), (2.0, -1e308)])
    # currents whose spread overflows: np.polyfit would return a finite, flat line
    with pytest.raises(ValidationError, match="currents -1e\\+308 to 1e\\+308 span more than the float range"):
        calibrate_field([(-1e308, 1.0), (1e308, 2.0)])


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
    with pytest.raises(ValidationError, match=re.escape("three values (n_+1, n_0, n_-1)")):
        orientation((0.5, 0.5))
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
