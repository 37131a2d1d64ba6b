import json

import numpy as np
import pytest

from nvgslac.carbon13 import McConfig, load_families, sample_placement
from nvgslac.cli import main
from nvgslac.fitting import FitParams, model_spectrum
from nvgslac.hamiltonian import DEFAULT_CONSTANTS
from nvgslac.spectrum import MeasuredSpectrum, read_spectrum_csv, write_spectrum_csv

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


def test_polarization_bad_report_is_parse_error(tmp_path):
    path = tmp_path / "r.json"
    path.write_text("{not json")
    assert run(["polarization", str(path), "--out", str(tmp_path / "o.csv")]) == 3


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
