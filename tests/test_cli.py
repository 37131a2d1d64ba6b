import csv
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from nvgslac import carbon13, hamiltonian, transitions
from nvgslac.carbon13 import MAX_ITERATIONS, McConfig, load_families, sample_placement
from nvgslac.cli import MAX_SWEEP_FIELDS, _write_json, build_parser, main
from nvgslac.fitting import FitParams, model_spectrum
from nvgslac.hamiltonian import DEFAULT_CONSTANTS, MAX_FIELD_MT, FieldConfig, build_nv_hamiltonian
from nvgslac.spectrum import (
    MeasuredSpectrum,
    frequency_grid,
    read_spectrum_csv,
    spectrum_to_csv,
    synthesize,
    transitions_to_csv,
    write_spectrum_csv,
)
from nvgslac.spin_core import eigensolve
from nvgslac.transitions import transition_table

C = DEFAULT_CONSTANTS


def run(args):
    return main(list(args))


def test_constants_prints_defaults(capsys):
    assert run(["constants"]) == 0
    out = capsys.readouterr().out
    assert "d_g = 2870 MHz" in out
    assert "gamma_e = 28.025 MHz/mT" in out


def test_constants_with_override(tmp_path, capsys):
    override = tmp_path / "c.txt"
    override.write_text("d_g = 2871\n")
    assert run(["constants", "--constants", str(override)]) == 0
    assert "d_g = 2871 MHz" in capsys.readouterr().out


def test_constants_bad_override_exits_3(tmp_path, capsys):
    override = tmp_path / "c.txt"
    override.write_text("nope = 1\n")
    assert run(["constants", "--constants", str(override)]) == 3


@pytest.mark.parametrize("command", ["constants", "simulate", "mc13", "fit"])
def test_non_finite_constant_exits_3_before_any_eigh(tmp_path, capsys, monkeypatch, command):
    def no_eigh(a):
        raise AssertionError("eigh ran with a non-finite constant")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    override = tmp_path / "c.txt"
    override.write_text("a_perp = nan\n")
    data = tmp_path / "spec.csv"
    grid = frequency_grid(5680.0, 5800.0, 1.0)
    write_spectrum_csv(data, MeasuredSpectrum(grid, np.ones_like(grid), meta={"b_mt": 101.5}))
    args = {
        "constants": [],
        "simulate": ["--b-mt", "101.5", "--grid", "5680:5800:1", "--out", str(tmp_path / "o")],
        "mc13": ["--b-mt", "101.5", "--grid", "5680:5800:1", "--out", str(tmp_path / "o")],
        "fit": [str(data), "--out", str(tmp_path / "fit.json")],
    }[command]
    assert run([command, "--constants", str(override)] + args) == 3
    assert capsys.readouterr().err == (
        f"error: {override}:1: constant 'a_perp' must be finite, got 'nan'\n"
    )


def test_simulate_hi_far_field(tmp_path):
    out = tmp_path / "sim"
    code = run(
        [
            "simulate",
            "--b-mt", "95",
            "--mode", "hi",
            "--grid", "5510:5550:0.05",
            "--out", str(out),
        ]
    )
    assert code == 0
    trans = (out / "transitions_hi.csv").read_text().strip().splitlines()
    assert len(trans) == 4  # header + three equal-strength rows
    intensities = [float(line.split(",")[2]) for line in trans[1:]]
    assert (max(intensities) - min(intensities)) / max(intensities) < 1e-3
    spec = read_spectrum_csv(out / "spectrum_hi_b95.csv")
    assert spec.values.max() > 0
    assert (out / "provenance.json").exists()


def test_simulate_lo_near_gslac_has_many_rows(tmp_path):
    out = tmp_path / "sim"
    code = run(
        [
            "simulate",
            "--b-mt", "102.4",
            "--mode", "lo",
            "--grid", "0:40:0.05",
            "--out", str(out),
        ]
    )
    assert code == 0
    trans = (out / "transitions_lo.csv").read_text().strip().splitlines()
    assert len(trans) - 1 > 3


def test_simulate_sweep_writes_per_field_files(tmp_path):
    out = tmp_path / "sweep"
    code = run(
        [
            "simulate",
            "--b-start", "101", "--b-stop", "102", "--b-step", "0.5",
            "--mode", "hi",
            "--grid", "5680:5740:0.1",
            "--out", str(out),
        ]
    )
    assert code == 0
    files = {p.name for p in out.glob("spectrum_hi_b*.csv")}
    assert files == {"spectrum_hi_b101.csv", "spectrum_hi_b101.5.csv", "spectrum_hi_b102.csv"}


@pytest.mark.parametrize("mode, grid", [("hi", (5680.0, 5800.0, 0.2)), ("lo", (0.0, 60.0, 0.1))])
def test_simulate_sweep_matches_a_per_field_loop(tmp_path, mode, grid):
    start, step, theta, beta, width = 101.0, 2.5 / 80, 0.3, 0.7, 1.2
    args = ["simulate", "--b-start", repr(start), "--b-stop", repr(start + 79.5 * step)]
    args += ["--b-step", repr(step), "--theta-deg", repr(theta), "--beta", repr(beta)]
    args += ["--width-mhz", repr(width), "--mode", mode, "--grid", "%r:%r:%r" % grid]
    assert run(args + ["--out", str(tmp_path)]) == 0
    tables = []
    for b in [start + k * step for k in range(80)]:
        system = eigensolve(build_nv_hamiltonian(C, FieldConfig(b=b, theta_deg=theta)))
        tables.append(transition_table(system, beta, mode=mode, b_mt=b))
        meta = {"b_mt": b, "beta": beta, "width_mhz": width, "theta_deg": theta, "mode": mode}
        spectrum = spectrum_to_csv(synthesize(tables[-1], width, frequency_grid(*grid)), meta)
        assert (tmp_path / f"spectrum_{mode}_b{b:.6g}.csv").read_text() == spectrum
    assert (tmp_path / f"transitions_{mode}.csv").read_text() == transitions_to_csv(tables)
    assert len(list(tmp_path.glob("spectrum_*.csv"))) == 80


def test_simulate_negative_sweep_field_runs_no_eigh(tmp_path, capsys, monkeypatch):
    def no_eigh(a):
        raise AssertionError("eigh ran before the fields were checked")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    args = ["simulate", "--b-start", "-0.5", "--b-stop", "0.5", "--b-step", "0.25"]
    assert run(args + ["--grid", "0:60:0.1", "--out", str(tmp_path / "sim")]) == 2
    assert "field magnitude must be >= 0, got -0.5" in capsys.readouterr().err
    assert not list((tmp_path / "sim").glob("*.csv"))


def test_simulate_zero_step_is_validation_error(tmp_path, capsys):
    code = run(
        [
            "simulate",
            "--b-start", "101", "--b-stop", "102", "--b-step", "0",
            "--grid", "5680:5740:0.1",
            "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "b-step" in capsys.readouterr().err


def test_simulate_zero_grid_step_is_validation_error(tmp_path):
    code = run(
        ["simulate", "--b-mt", "95", "--grid", "5680:5740:0", "--out", str(tmp_path / "x")]
    )
    assert code == 2


def test_simulate_infinite_width_is_validation_error(tmp_path, capsys):
    code = run(
        [
            "simulate", "--b-mt", "101.5", "--width-mhz", "inf",
            "--grid", "5680:5800:1", "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "linewidth must be positive and finite, got inf" in capsys.readouterr().err


def test_simulate_oversized_grid_is_resource_limit(tmp_path, capsys):
    code = run(
        ["simulate", "--b-mt", "101.5", "--grid", "0:1e9:1e-9", "--out", str(tmp_path / "x")]
    )
    assert code == 5
    assert "points" in capsys.readouterr().err


def test_simulate_grid_band_mismatch_names_ranges(tmp_path, capsys):
    code = run(
        ["simulate", "--b-mt", "95", "--mode", "hi", "--grid", "0:40:0.1", "--out", str(tmp_path / "x")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "does not overlap" in err and "hi" in err


def test_simulate_deterministic_outputs(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    args = ["simulate", "--b-mt", "102.4", "--mode", "lo", "--grid", "0:40:0.1"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    for name in ("spectrum_lo_b102.4.csv", "transitions_lo.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_simulate_json_format(tmp_path):
    out = tmp_path / "sim"
    code = run(
        [
            "simulate", "--b-mt", "95", "--mode", "hi",
            "--grid", "5510:5550:0.1", "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads((out / "spectrum_hi_b95.json").read_text())
    assert doc["meta"]["b_mt"] == 95
    assert len(doc["grid_mhz"]) == len(doc["values"])


def test_mc13_zero_occupancy_matches_simulate(tmp_path):
    sim = tmp_path / "sim"
    mc = tmp_path / "mc"
    common = ["--b-mt", "102.4", "--mode", "lo", "--grid", "0:40:0.1"]
    assert run(["simulate"] + common + ["--out", str(sim)]) == 0
    assert run(
        ["mc13"] + common + ["--iterations", "5", "--occupancy", "0", "--seed", "4", "--out", str(mc)]
    ) == 0
    sim_spec = read_spectrum_csv(sim / "spectrum_lo_b102.4.csv")
    mc_spec = read_spectrum_csv(mc / "mc_spectrum_lo_b102.4.csv")
    assert np.allclose(sim_spec.values, mc_spec.values, atol=1e-12)
    assert (mc / "mc_stderr_lo_b102.4.csv").exists()


def test_mc13_occupancy_out_of_range_is_validation_error(tmp_path):
    code = run(
        [
            "mc13", "--b-mt", "102.4", "--mode", "lo", "--grid", "0:40:0.5",
            "--iterations", "2", "--occupancy", "1.5", "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2


def test_mc13_negative_seed_is_validation_error(tmp_path, capsys):
    code = run(
        [
            "mc13", "--b-mt", "102.4", "--mode", "lo", "--grid", "0:40:0.5",
            "--iterations", "2", "--seed", "-1", "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "-1" in capsys.readouterr().err


def test_mc13_infinite_width_is_validation_error(tmp_path, capsys):
    code = run(
        [
            "mc13", "--b-mt", "102.4", "--mode", "lo", "--grid", "0:40:0.5",
            "--width-mhz", "inf", "--iterations", "2", "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "linewidth must be positive and finite, got inf" in capsys.readouterr().err


def test_mc13_grid_band_mismatch_is_validation_error(tmp_path, capsys):
    # hi-band lines sit near 5.74 GHz at 102.4 mT; a 0-40 MHz grid holds
    # nothing but Lorentzian tails
    code = run(
        [
            "mc13", "--b-mt", "102.4", "--grid", "0:40:0.5",
            "--iterations", "2", "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 2
    assert "hi-band" in capsys.readouterr().err


def test_mc13_grid_on_carbon13_satellites_is_accepted(tmp_path):
    # nearest-neighbour 13C satellites lie up to ~200 MHz from the
    # carbon-free lines, beyond the 20-width Lorentzian margin
    code = run(
        [
            "mc13", "--b-mt", "102.4", "--grid", "5800:5900:0.5",
            "--iterations", "2", "--out", str(tmp_path / "x"),
        ]
    )
    assert code == 0


def test_fit_round_trip_via_cli(tmp_path):
    b = 101.5
    center = C.d_g + C.gamma_e * b
    grid = np.arange(center - 12.0, center + 12.0, 0.02)
    clean = model_spectrum(FitParams(beta=0.4, b=b, width=1.0), grid, mode="hi").values
    rng = np.random.default_rng(3)
    values = clean + 0.01 * clean.max() * rng.standard_normal(grid.size)
    data_path = tmp_path / "data.csv"
    write_spectrum_csv(data_path, MeasuredSpectrum(grid=grid, values=values, meta={"b_mt": b}))

    report_path = tmp_path / "report.json"
    code = run(
        ["fit", str(data_path), "--mode", "hi", "--width-mhz", "1.2", "--out", str(report_path)]
    )
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert abs(doc["params"]["beta"] - 0.4) / 0.4 < 0.05
    assert abs(doc["params"]["b_mt"] - b) < 0.01
    assert abs(doc["params"]["width_mhz"] - 1.0) < 0.05
    assert doc["provenance"]["constants_sha256"]


def test_fit_empty_file_is_parse_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("")
    code = run(["fit", str(bad), "--out", str(tmp_path / "r.json")])
    assert code == 3


def test_fit_missing_field_is_validation_error(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("freq_mhz,value\n1,0.5\n2,0.4\n")
    code = run(["fit", str(path), "--out", str(tmp_path / "r.json")])
    assert code == 2


@pytest.fixture
def fit_input(tmp_path):
    b = 101.5
    center = C.d_g + C.gamma_e * b
    grid = np.arange(center - 12.0, center + 12.0, 0.1)
    values = model_spectrum(FitParams(beta=0.4, b=b, width=1.0), grid, mode="hi").values
    path = tmp_path / "spec.csv"
    write_spectrum_csv(path, MeasuredSpectrum(grid=grid, values=values, meta={"b_mt": b}))
    return path


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--b-mt", "inf"),
        ("--b-mt", "nan"),
        ("--b-mt", "-1"),
        ("--theta-deg", "200"),
        ("--beta", "nan"),
        ("--beta", "-inf"),
        ("--width-mhz", "nan"),
        ("--width-mhz", "inf"),
    ],
)
def test_fit_bad_start_rejected_before_any_evaluation(
    fit_input, tmp_path, monkeypatch, capsys, flag, value
):
    def no_build(*args, **kwargs):
        raise AssertionError("a model was evaluated")

    monkeypatch.setattr(transitions, "_hamiltonian", no_build)
    code = run(["fit", str(fit_input), f"{flag}={value}", "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert value in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--b-start", "nan"),
        ("--b-start", "-inf"),
        ("--b-stop", "inf"),
        ("--b-stop", "nan"),
        ("--b-step", "nan"),
        ("--b-step", "inf"),
    ],
)
def test_simulate_non_finite_sweep_is_validation_error(tmp_path, capsys, flag, value):
    sweep = {"--b-start": "101", "--b-stop": "102", "--b-step": "0.5", flag: value}
    args = ["simulate", "--grid", "5680:5740:0.1", "--out", str(tmp_path / "x")]
    code = run(args + [f"{key}={text}" for key, text in sweep.items()])
    assert code == 2
    assert f"{flag} must be finite, got {value}" in capsys.readouterr().err


def test_simulate_sweep_cap_checked_before_allocation(tmp_path, capsys):
    args = [
        "simulate",
        "--b-start", "100", "--b-stop", "101", "--b-step", "1e-12",
        "--grid", "5680:5740:0.1",
        "--out", str(tmp_path / "x"),
    ]
    tracemalloc.start()
    try:
        code = run(args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 5
    err = capsys.readouterr().err
    assert "1e+12 fields" in err and f"cap of {MAX_SWEEP_FIELDS} fields" in err
    assert peak < 1_000_000
    assert not (tmp_path / "x").exists()


def test_calibrate_round_trip(tmp_path):
    rows = ["current_a,b_mt"]
    rng = np.random.default_rng(9)
    for current in np.linspace(33.0, 36.0, 20):
        rows.append(f"{current},{2.9 * current + rng.normal(0, 0.005)}")
    path = tmp_path / "cal.csv"
    path.write_text("\n".join(rows) + "\n")
    out = tmp_path / "cal.json"
    assert run(["calibrate", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert abs(doc["slope_mt_per_a"] - 2.9) / 2.9 < 0.01


def test_calibrate_bad_header_is_parse_error(tmp_path):
    path = tmp_path / "cal.csv"
    path.write_text("amps,field\n1,2.9\n")
    assert run(["calibrate", str(path), "--out", str(tmp_path / "o.json")]) == 3


def test_polarization_from_reports(tmp_path):
    report_paths = []
    for k, b in enumerate((101.0, 101.6, 103.2)):
        doc = {
            "params": {"beta": 0.0, "b_mt": b, "width_mhz": 1.0},
            "peak_areas": {"|0,+1>": 1.0, "|0,0>": 1.0, "|0,-1>": 1.0},
            "peak_strengths": {"|0,+1>": 2.0, "|0,0>": 2.0, "|0,-1>": 2.0},
        }
        path = tmp_path / f"report{k}.json"
        path.write_text(json.dumps(doc))
        report_paths.append(str(path))
    out = tmp_path / "pol.csv"
    assert run(["polarization", *report_paths, "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("b_mt,orientation,alignment")
    for line in lines[1:]:
        fields = line.split(",")
        assert abs(float(fields[1])) < 1e-9
        assert abs(float(fields[2])) < 1e-9


def test_fit_report_round_trips_through_polarization(fit_input, tmp_path):
    report = tmp_path / "fit.json"
    assert run(["fit", str(fit_input), "--width-mhz", "1.2", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert "curvatures" not in doc
    assert sorted(doc["standard_errors"]) == ["b", "beta", "width"]
    assert sum(doc["evaluation_split"].values()) == doc["n_evaluations"]
    out = tmp_path / "pol.csv"
    assert run(["polarization", str(report), "--out", str(out)]) == 0
    fields = out.read_text().splitlines()[1].split(",")
    assert float(fields[0]) == pytest.approx(101.5, abs=1e-6)
    assert float(fields[1]) < 0.0  # beta 0.4 > 0 favours m_I = -1
    assert fields[-1] == ""


def test_polarization_reads_a_report_with_curvatures(tmp_path):
    doc = {
        "params": {"beta": 0.0, "b_mt": 101.0, "width_mhz": 1.0},
        "chi2_red": 1e-4,
        "scale": 1.0,
        "peak_areas": {"|0,+1>": 1.0, "|0,0>": 1.0, "|0,-1>": 1.0},
        "peak_strengths": {"|0,+1>": 2.0, "|0,0>": 2.0, "|0,-1>": 2.0},
        "curvatures": {"b": 5.0, "beta": 3.0, "width": 4.0},
        "n_evaluations": 433,
        "flags": [],
    }
    (tmp_path / "old.json").write_text(json.dumps(doc))
    out = tmp_path / "pol.csv"
    assert run(["polarization", str(tmp_path / "old.json"), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "101,0,0,0.333333333,0.333333333,0.333333333,0,"


def _report(b_mt=101.4, area=1.0) -> str:
    return json.dumps({
        "params": {"beta": 0.3, "b_mt": b_mt, "width_mhz": 1.0},
        "peak_areas": {"|0,0>": area},
        "peak_strengths": {"|0,0>": 2.0},
    })


BAD_REPORTS = {
    "{not json": "Expecting property name",
    _report(b_mt=None): "params.b_mt must be a finite number, got None",
    _report(b_mt="101.4"): "params.b_mt must be a finite number, got '101.4'",
    _report(area="1.0"): "peak_areas['|0,0>'] must be a finite number, got '1.0'",
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_json_writer_refuses_non_finite_numbers_before_opening_the_file(tmp_path, value):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        _write_json(path, {"finite": 1.0, "nested": {"value": [value]}})
    assert not path.exists()


def test_polarization_bad_report_is_parse_error(tmp_path, capsys):
    path = tmp_path / "r.json"
    for text, reason in BAD_REPORTS.items():
        path.write_text(text)
        assert run(["polarization", str(path), "--out", str(tmp_path / "o.csv")]) == 3
        assert f"error: {path}: not a valid fit report ({reason}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()


def test_input_files_not_modified(tmp_path):
    path = tmp_path / "cal.csv"
    content = "current_a,b_mt\n1,2.9\n2,5.8\n"
    path.write_text(content)
    assert run(["calibrate", str(path), "--out", str(tmp_path / "o.json")]) == 0
    assert path.read_text() == content


def test_mc13_with_carbon13_present(tmp_path):
    cfg = McConfig(iterations=8, occupancy=0.011, seed=2)
    families = load_families()
    assert any(sample_placement(cfg, k, families).n_c13 for k in range(cfg.iterations))
    code = run(
        [
            "mc13", "--b-mt", "102.4", "--mode", "lo", "--grid", "0:40:0.5",
            "--iterations", "8", "--occupancy", "0.011", "--seed", "2",
            "--out", str(tmp_path / "y"),
        ]
    )
    assert code == 0


def test_mc13_provenance_records_mc_statistics(tmp_path):
    out = tmp_path / "mc"
    args = ["mc13", "--b-mt", "102.4", "--mode", "lo", "--grid", "0:40:0.5", "--iterations", "200"]
    assert run(args + ["--occupancy", "0.011", "--seed", "3", "--out", str(out)]) == 0
    mc = json.loads((out / "provenance.json").read_text())["mc"]
    families = load_families()
    cfg = McConfig(iterations=200, occupancy=0.011, seed=3)
    draws = [sample_placement(cfg, k, families) for k in range(cfg.iterations)]
    keys = {tuple(label for label, _ in d.occupied) for d in draws if d.n_c13}
    assert mc["iterations"] == 200 and mc["seed"] == 3
    assert mc["n_c13_histogram"] == np.bincount([d.n_c13 for d in draws]).tolist()
    assert sum(mc["n_c13_histogram"]) == 200
    assert mc["curves_computed"] == len(keys) + 1
    assert mc["curves_computed"] - 1 + mc["draws_reused"] == 200


def test_mc13_iterations_cap_checked_before_sampling(tmp_path, capsys, monkeypatch):
    calls = []
    real = carbon13.sample_placement

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(carbon13, "sample_placement", counting)
    args = ["mc13", "--b-mt", "102.4", "--mode", "lo", "--grid", "0:40:0.5", "--out", str(tmp_path)]
    assert run(args + ["--iterations", str(MAX_ITERATIONS + 1)]) == 5
    assert calls == []
    err = capsys.readouterr().err
    assert f"{MAX_ITERATIONS + 1} Monte Carlo draws" in err and f"cap of {MAX_ITERATIONS}" in err
    assert run(args + ["--iterations", "3"]) == 0
    assert len(calls) == 3


def test_mc13_parses_a_custom_family_file_once(tmp_path):
    families = tmp_path / "families.csv"
    families.write_text(
        "label,multiplicity,axx_mhz,ayy_mhz,azz_mhz,cos_zz,source\n"
        "nine,9,13.0,13.0,19.5,0.829,test set\n"
    )
    args = ["mc13", "--b-mt", "102.4", "--mode", "lo", "--grid", "0:40:0.5", "--iterations", "4"]
    args += ["--families", str(families), "--out", str(tmp_path / "mc")]
    with pytest.warns(UserWarning) as record:
        assert run(args) == 0
    assert [str(w.message) for w in record] == [
        f"family file {families} covers 9 sites, not the default 39"
    ]


def _command_args(command, fit_input, out):
    """A short, valid run of ``command`` writing under ``out``."""
    if command == "fit":
        return ["fit", str(fit_input), "--out", str(out / "report.json")]
    args = [command, "--b-mt", "101.5", "--grid", "5700:5760:0.1", "--out", str(out)]
    return args + (["--iterations", "3", "--occupancy", "0.05"] if command == "mc13" else [])


@pytest.mark.parametrize("command", ["simulate", "mc13", "fit"])
def test_negative_value_with_exponent_is_read_as_a_value(fit_input, tmp_path, command):
    # argparse alone reads "-1e-05" as an option: "argument --beta: expected one argument"
    args = _command_args(command, fit_input, tmp_path / "out") + ["--beta", "-1e-05"]
    assert build_parser().parse_args(args).beta == -1e-05
    assert run(args) == 0
    if command == "fit":
        provenance = json.loads((tmp_path / "out" / "report.json").read_text())["provenance"]
    else:
        provenance = json.loads((tmp_path / "out" / "provenance.json").read_text())
    assert provenance["options"]["beta"] == "-1e-05"


@pytest.mark.parametrize("command", ["simulate", "mc13", "fit"])
def test_negative_theta_with_exponent_reaches_the_theta_check(fit_input, tmp_path, capsys, command):
    args = _command_args(command, fit_input, tmp_path / "x") + ["--theta-deg", "-2.5E-3"]
    assert run(args) == 2
    assert "theta must lie in [0, 180), got -0.0025" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-inf", "-1E+400", "-nan"])
def test_negative_non_finite_beta_reaches_the_beta_check(tmp_path, capsys, value):
    args = ["simulate", "--b-mt", "101.5", "--grid", "5700:5760:0.1", "--out", str(tmp_path)]
    assert run(args + ["--beta", value]) == 2
    assert "spin temperature must be finite" in capsys.readouterr().err


def test_negative_grid_start_after_a_space_is_read_as_a_value(tmp_path):
    # argparse alone reads "-5:40:0.1" as an option: "argument --grid: expected one argument"
    out = tmp_path / "out"
    base = ["simulate", "--mode", "lo", "--b-mt", "102.0", "--out", str(out)]
    outputs = []
    for grid in (["--grid=-5:40:0.1"], ["--grid", "-5:40:0.1"]):
        assert build_parser().parse_args(base + grid).grid == "-5:40:0.1"
        assert run(base + grid) == 0
        outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        for path in out.iterdir():
            path.unlink()
    assert len(outputs[0]) == 3
    assert outputs[1] == outputs[0]


def test_negative_non_finite_grid_start_reaches_the_grid_check(tmp_path, capsys):
    args = ["simulate", "--b-mt", "101.5", "--grid", "-inf:0:1", "--out", str(tmp_path / "x")]
    assert run(args) == 2
    assert "grid start must be finite" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_fit_of_a_non_finite_grid_is_a_parse_error(fit_input, tmp_path, monkeypatch, capsys):
    def no_build(*args, **kwargs):
        raise AssertionError("a model was evaluated")

    monkeypatch.setattr(transitions, "_hamiltonian", no_build)
    with open(fit_input, "a", encoding="utf-8") as fh:
        fh.write("inf,0.01\n")
    assert run(["fit", str(fit_input), "--out", str(tmp_path / "r.json")]) == 3
    assert f"{fit_input}: frequency grid must be finite" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "{path}: empty calibration file"),
        ("# only a comment\n", "{path}: empty calibration file"),
        ("current_a,b_mt\n33.0,95.7\n34.0\n", "{path}:3: malformed calibration row"),
        ("current_a,b_mt\n33.0,95.7\n34.0,fast\n", "{path}:3: malformed calibration row"),
        ("current_a,b_mt\ninf,4\n2,5.8\n", "{path}:2: calibration values must be finite"),
        ("current_a,b_mt\n1,2.9\n2,nan\n", "{path}:3: calibration values must be finite"),
    ],
)
def test_calibrate_rejections_name_the_file(tmp_path, capsys, text, message):
    path = tmp_path / "cal.csv"
    path.write_text(text)
    assert run(["calibrate", str(path), "--out", str(tmp_path / "cal.json")]) == 3
    assert f"error: {message.format(path=path)}" in capsys.readouterr().err
    assert not (tmp_path / "cal.json").exists()


def test_mc13_builds_the_carbon_free_hamiltonian_once(tmp_path, monkeypatch):
    built = []  # the field of every 9x9 H that build_nv_hamiltonian sums
    real = hamiltonian._hamiltonian

    def counting(terms, b):
        built.append(b)
        return real(terms, b)

    monkeypatch.setattr(hamiltonian, "_hamiltonian", counting)
    args = ["mc13", "--b-mt", "102.4", "--mode", "lo", "--grid", "0:40:0.5", "--iterations", "20"]
    assert run(args + ["--occupancy", "0.05", "--seed", "2", "--out", str(tmp_path)]) == 0
    assert built == [102.4]


def test_mc13_iterations_cap_is_reported_before_a_grid_miss(tmp_path, capsys):
    args = ["mc13", "--b-mt", "102.4", "--grid", "0:40:0.5", "--out", str(tmp_path / "x")]
    assert run(args + ["--iterations", str(MAX_ITERATIONS + 1)]) == 5
    assert f"cap of {MAX_ITERATIONS}" in capsys.readouterr().err


def test_mc13_bad_family_file_is_reported_before_a_bad_beta(tmp_path, capsys):
    families = tmp_path / "families.csv"
    families.write_text("")
    args = ["mc13", "--b-mt", "102.4", "--mode", "lo", "--grid", "0:40:0.5", "--beta", "nan"]
    assert run(args + ["--families", str(families), "--out", str(tmp_path / "x")]) == 3
    assert f"{families}: empty family file" in capsys.readouterr().err


def test_mc13_json_keeps_the_stderr_key_to_the_stderr_file(tmp_path):
    args = ["mc13", "--b-mt", "102.4", "--mode", "lo", "--grid", "0:40:0.5", "--iterations", "20"]
    args += ["--occupancy", "0.05", "--seed", "2", "--format", "json", "--out", str(tmp_path)]
    assert run(args) == 0
    mean = json.loads((tmp_path / "mc_spectrum_lo_b102.4.json").read_text())
    stderr = json.loads((tmp_path / "mc_stderr_lo_b102.4.json").read_text())
    assert sorted(mean) == ["grid_mhz", "meta", "values"]
    assert sorted(stderr) == ["grid_mhz", "meta", "stderr", "values"]
    assert mean["values"] == stderr["values"] and mean["meta"] == stderr["meta"]
    assert len(stderr["stderr"]) == len(stderr["grid_mhz"]) == 81
    assert max(stderr["stderr"]) > 0


@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--b-mt", "1e307", "--mode", "lo", "--grid", "0:10:1"],
        ["simulate", "--b-start", "1e306", "--b-stop", "2e306", "--b-step", "1e306", "--grid", "0:10:1"],
        ["mc13", "--b-mt", "1e307", "--grid", "0:10:1", "--iterations", "2"],
        ["fit", "INPUT", "--b-mt", "1e307"],
    ],
)
def test_field_above_the_cap_is_named_without_a_warning(fit_input, tmp_path, capsys, args):
    args = [str(fit_input) if arg == "INPUT" else arg for arg in args]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(args + ["--out", str(tmp_path / "x")]) == 2
    value = "1e+306" if "--b-start" in args else "1e+307"
    assert f"field magnitude must be <= {MAX_FIELD_MT:g} mT, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "x").is_file() and not any((tmp_path / "x").glob("*"))


def _polarization_row(tmp_path, areas, strengths):
    doc = {
        "params": {"beta": 0.0, "b_mt": 101.0, "width_mhz": 1.0},
        "peak_areas": areas,
        "peak_strengths": strengths,
    }
    (tmp_path / "r.json").write_text(json.dumps(doc))
    assert run(["polarization", str(tmp_path / "r.json"), "--out", str(tmp_path / "p.csv")]) == 0
    lines = (tmp_path / "p.csv").read_text().splitlines()
    assert lines[0] == "b_mt,orientation,alignment,n_plus,n_zero,n_minus,low_confidence,flags"
    assert len(lines) == 2
    return lines[1]


def test_polarization_writes_a_missing_component_flag(tmp_path):
    row = _polarization_row(
        tmp_path, {"|0,+1>": 1.0, "|0,0>": 1.0}, {"|0,+1>": 2.0, "|0,0>": 2.0}
    )
    assert row == '101,0.612372436,-0.353553391,0.5,0.5,0,0,"missing_component:|0,-1>"'
    assert next(csv.reader([row]))[-1] == "missing_component:|0,-1>"


def test_polarization_writes_a_no_population_flag(tmp_path):
    row = _polarization_row(tmp_path, {}, {})
    fields = next(csv.reader([row]))
    assert fields[:7] == ["101", "0", "0", "0", "0", "0", "1"]
    assert fields[7].split(";") == [
        "missing_component:|0,+1>",
        "missing_component:|0,0>",
        "missing_component:|0,-1>",
        "no_population",
    ]


def test_polarization_row_without_flags_ends_in_an_empty_column(tmp_path):
    row = _polarization_row(
        tmp_path,
        {"|0,+1>": 1.0, "|0,0>": 1.0, "|0,-1>": 1.0},
        {"|0,+1>": 2.0, "|0,0>": 2.0, "|0,-1>": 2.0},
    )
    assert row.endswith(",0,")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--b-mt", "95", "--grid", "0:40"], "--grid expects start:stop:step, got '0:40'"),
        (["--b-mt", "95", "--grid", "a:b:c"], "--grid expects numbers, got 'a:b:c'"),
        (
            ["--b-mt", "95", "--b-start", "94", "--grid", "5510:5550:0.1"],
            "--b-mt and --b-start/--b-stop are mutually exclusive",
        ),
        (
            ["--b-start", "94", "--grid", "5510:5550:0.1"],
            "provide either --b-mt or all of --b-start/--b-stop/--b-step",
        ),
        (
            ["--b-start", "95", "--b-stop", "94", "--b-step", "0.5", "--grid", "5510:5550:0.1"],
            "--b-stop must not be below --b-start",
        ),
    ],
)
def test_simulate_rejections_name_the_option(tmp_path, capsys, args, message):
    assert run(["simulate", *args, "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x").exists()


def test_out_under_a_regular_file_is_an_os_error(tmp_path, capsys):
    blocker = tmp_path / "file.txt"
    blocker.write_text("not a directory\n")
    args = ["simulate", "--b-mt", "95", "--grid", "5510:5550:0.1", "--out", str(blocker / "sim")]
    assert run(args) == 1
    assert str(blocker) in capsys.readouterr().err
    assert blocker.read_text() == "not a directory\n"


def test_calibrate_skips_blank_rows(tmp_path):
    path = tmp_path / "cal.csv"
    path.write_text("current_a,b_mt\n1,2.9\n\n , \n2,5.8\n")
    out = tmp_path / "cal.json"
    assert run(["calibrate", str(path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n_points"] == 2
    assert doc["slope_mt_per_a"] == pytest.approx(2.9)
    assert doc["fit_range_a"] == [1.0, 2.0]
