"""The four benchmark workloads: inputs, one user-level call, output checks.

Every workload is a closed loop with one client: the benchmark issues a
call, waits for it, checks its outputs and issues the next.  Calls come
in rounds, fixed batches whose mix of inputs is the same in every round,
so a run that stops at a round boundary always measures the same mix.
All inputs of round ``r`` derive from ``(seed, r, position)``.

Calls go through module attributes (``cli.main``, ``carbon13.build_...``)
so the traced run sees the wrapped functions.

``check`` returns ``(units, failed, broken, note)``.  ``failed`` units
missed a check; ``broken`` is true when a miss shows an incorrect output
or a crashed call, and clears ``correct`` for the whole run.  A fit that
lands outside criterion 6's tolerances of the known truth at a worse
chi-squared than the truth's is a failed unit but not a broken output:
the fitter returned a valid local optimum.

A workload may list ``known_defects``: inputs on which the program is
known to fail, run once before the timed calls and reported, but neither
timed nor counted.  A run measures whole rounds for a fixed time, so a
miss in every round would make the failed count follow the number of
rounds that fit in the time, and the benchmark's workloads are chosen so
that no counted call fails.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np

from nvgslac import carbon13, cli, fitting, hamiltonian, spectrum, spin_core, transitions

C = hamiltonian.DEFAULT_CONSTANTS
B_GSLAC = hamiltonian.gslac_field(C)


def _rng(*key):
    return np.random.default_rng([int(k) for k in key])


def _grid(start: float, stop: float, step: float) -> np.ndarray:
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


def _read_columns(path, ncols: int) -> np.ndarray:
    """Numeric columns of a spectrum CSV, skipping ``#`` lines and the header."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh if line.strip() and not line.startswith("#")]
    return np.array([[float(x) for x in row[:ncols]] for row in rows[1:]])


class Sweep:
    """``nvgslac simulate`` over 80 fields in 101-103.5 mT per call.

    A round is four calls: hi and lo band, each at theta = 0 and at a
    tilt of 0.1-0.5 degrees.  Larger tilts move the lines out of both
    grids: at 102 mT a 3.7 degree tilt is a 180 MHz transverse Zeeman
    term, which pushes the lo-band lines to 220-300 MHz.  Every call
    writes 80 spectrum CSVs and one transitions CSV.
    """

    name = "sweep"
    unit = "field spectrum"
    FIELDS = 80
    units_per_call = FIELDS
    STEP_MT = 2.5 / FIELDS
    GRIDS = {"hi": (5680.0, 5800.0, 0.2), "lo": (0.0, 60.0, 0.1)}
    HI_WINDOW_MHZ = (5600.0, 5900.0)  # criterion 5
    AREA_RTOL = 1e-6

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def round(self, r: int) -> list:
        specs = []
        for j, (mode, tilted) in enumerate((("hi", False), ("lo", False), ("hi", True), ("lo", True))):
            rng = _rng(self.seed, r, j)
            specs.append(
                {
                    "seed": [self.seed, r, j],
                    "mode": mode,
                    "b_start": 101.0 + rng.uniform(0.0, self.STEP_MT),
                    "theta_deg": rng.uniform(0.1, 0.5) if tilted else 0.0,
                    "beta": rng.uniform(-1.0, 1.0),
                    "width_mhz": rng.uniform(0.8, 1.5),
                }
            )
        return specs

    def call(self, spec, out: Path):
        start, stop, step = self.GRIDS[spec["mode"]]
        argv = [
            "simulate",
            "--b-start", repr(spec["b_start"]),
            "--b-stop", repr(spec["b_start"] + (self.FIELDS - 0.5) * self.STEP_MT),
            "--b-step", repr(self.STEP_MT),
            "--theta-deg", repr(spec["theta_deg"]),
            "--beta", repr(spec["beta"]),
            "--width-mhz", repr(spec["width_mhz"]),
            "--mode", spec["mode"],
            "--grid", f"{start!r}:{stop!r}:{step!r}",
            "--out", str(out),
        ]
        return cli.main(argv)

    def check(self, spec, rc, out: Path):
        if rc != 0:
            return self.FIELDS, self.FIELDS, True, f"exit code {rc}"
        mode, width = spec["mode"], spec["width_mhz"]
        grid = _grid(*self.GRIDS[mode])
        lines = {}
        with open(out / f"transitions_{mode}.csv", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                lines.setdefault(row["b_mt"], []).append(
                    (float(row["freq_mhz"]), float(row["intensity"]))
                )
        failed = 0
        notes = []
        area_checked = 0
        for k in range(self.FIELDS):
            b = spec["b_start"] + k * self.STEP_MT
            problem = None
            data = spectrum.read_spectrum_csv(out / f"spectrum_{mode}_b{b:.6g}.csv")
            rows = np.array(lines.get(spectrum.NUMBER_FORMAT % b, []), dtype=float).reshape(-1, 2)
            centers, intensity = rows[:, 0], rows[:, 1]
            if data.grid.shape != grid.shape or np.max(np.abs(data.grid - grid)) > 1e-6:
                problem = "grid differs from the requested grid"
            elif abs(data.meta.get("b_mt", math.nan) - b) > 1e-6 * b:
                problem = "b_mt metadata differs from the field"
            elif np.any(data.values < 0.0):
                problem = "negative spectrum value"
            elif mode == "hi" and np.any(
                (centers < self.HI_WINDOW_MHZ[0]) | (centers > self.HI_WINDOW_MHZ[1])
            ):
                problem = "hi line outside 5600-5900 MHz"
            elif centers.size and np.all(
                (centers - 20.0 * width >= grid[0]) & (centers + 20.0 * width <= grid[-1])
            ):
                area_checked += 1
                # Area of each unit-area Lorentzian inside the grid, exactly.
                inside = (
                    np.arctan((grid[-1] - centers) / width) - np.arctan((grid[0] - centers) / width)
                ) / np.pi
                expected = float(np.dot(intensity, inside))
                area = float(np.trapezoid(data.values, data.grid))
                if abs(area - expected) > self.AREA_RTOL * expected:
                    problem = f"area {area!r} != summed intensity {expected!r}"
            if problem:
                failed += 1
                notes.append(f"b={b:.6g}: {problem}")
        note = "; ".join(notes[:3]) or f"{area_checked} of {self.FIELDS} areas checked"
        return self.FIELDS, failed, failed > 0, note


def synthetic_case(seed: int, index: int):
    """Criterion 6's recipe; seed 0 gives exactly the acceptance test's cases.

    beta, B and w follow the same fixed grid for every seed; the seed
    picks the 1 % noise realisation.
    """
    rng = np.random.default_rng(6000 + 1000 * seed + index)
    sign = 1.0 if index % 2 else -1.0
    beta = sign * (0.25 + 0.75 * (index // 2) / 9.0)
    b = 101.0 + 2.5 * index / 19.0
    width = 0.8 + 1.2 * ((index * 7) % 20) / 19.0
    truth = fitting.FitParams(beta=beta, b=b, width=width)
    center = C.d_g + C.gamma_e * b
    grid = np.arange(center - 12.0, center + 12.0, 0.02)
    clean = fitting.model_spectrum(truth, grid, mode="hi").values
    sigma = 0.01 * clean.max()
    values = clean + sigma * rng.standard_normal(grid.size)
    return truth, spectrum.MeasuredSpectrum(grid=grid, values=values, meta={"b_mt": b}), sigma


class Fit:
    """One ``nvgslac fit`` per synthetic spectrum; a round is 19 of the 20 cases.

    Each fit starts as criterion 6 starts it: beta 0, w 1.2 MHz, and B
    offset by +0.05 mT where B is free.  Case 1 ends at the beta = -5
    bound at every seed (chi-squared about 68 sigma^2 against about 1 at
    the truth): the fitter's start-basin defect.  It is left out of the
    rounds and run once as a known defect.
    """

    name = "fit"
    unit = "fit"
    units_per_call = 1
    CASES = 20
    KNOWN_MISSES = (1,)
    B_OFFSET_MT = 0.05
    START = {"beta": 0.0, "width_mhz": 1.2}

    def __init__(self, seed: int, workdir: Path):
        inputs = workdir / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        cases = []
        for index in range(self.CASES):
            truth, data, sigma = synthetic_case(seed, index)
            path = inputs / f"case_{index:02d}.csv"
            spectrum.write_spectrum_csv(path, data)
            b_free = abs(truth.b - B_GSLAC) > fitting.B_FREE_THRESHOLD_MT
            cases.append(
                {
                    "seed": [6000 + 1000 * seed + index],
                    "case": index,
                    "input": str(path),
                    "truth": truth,
                    "sigma": sigma,
                    "chi2_truth": self.chi2_at(truth, spectrum.read_spectrum_csv(path)),
                    "b_free": b_free,
                    "b_init": truth.b + (self.B_OFFSET_MT if b_free else 0.0),
                }
            )
        self.cases = [c for c in cases if c["case"] not in self.KNOWN_MISSES]
        self.known_defects = []
        for spec in cases:
            if spec["case"] in self.KNOWN_MISSES:
                out = workdir / "known"
                out.mkdir(parents=True, exist_ok=True)
                _, failed, _, note = self.check(spec, self.call(spec, out), out)
                state = "still misses" if failed else "now passes; put it back into the rounds"
                self.known_defects.append(f"criterion 6 {note} ({state})")

    @staticmethod
    def chi2_at(params, data) -> float:
        """Reduced chi-squared of ``params`` at the best amplitude, as the fitter scores it."""
        model = fitting.model_spectrum(params, data.grid, mode="hi").values
        scale = max(float(np.dot(data.values, model)) / float(np.dot(model, model)), 0.0)
        return fitting.reduced_chi2(data, scale * model)

    def round(self, r: int) -> list:
        return self.cases

    def call(self, spec, out: Path):
        argv = [
            "fit", spec["input"],
            "--beta", repr(self.START["beta"]),
            "--width-mhz", repr(self.START["width_mhz"]),
            "--b-mt", repr(spec["b_init"]),
            "--mode", "hi",
            "--out", str(out / "fit.json"),
        ]
        return cli.main(argv)

    def check(self, spec, rc, out: Path):
        if rc != 0:
            return 1, 1, True, f"exit code {rc}"
        with open(out / "fit.json", encoding="utf-8") as fh:
            report = json.load(fh)
        p = report["params"]
        truth, sigma = spec["truth"], spec["sigma"]
        beta_lo, beta_hi = fitting.DEFAULT_BOUNDS["beta"]
        width_lo, width_hi = fitting.DEFAULT_BOUNDS["width"]
        values = (p["beta"], p["b_mt"], p["width_mhz"], report["chi2_red"])
        if not all(math.isfinite(v) for v in values):
            return 1, 1, True, "non-finite fit result"
        if not (beta_lo <= p["beta"] <= beta_hi and width_lo <= p["width_mhz"] <= width_hi):
            return 1, 1, True, "parameter outside its bounds"
        if ("b_fixed_near_gslac" in report["flags"]) == spec["b_free"]:
            return 1, 1, True, "fit branch does not match the distance to the GSLAC"
        # Criterion 6's tolerances against the known truth.
        misses = []
        if abs(p["beta"] - truth.beta) > 0.05 * abs(truth.beta):
            misses.append(f"beta {p['beta']:.4g} vs {truth.beta:.4g}")
        if spec["b_free"] and abs(p["b_mt"] - truth.b) > 0.01:
            misses.append(f"B {p['b_mt']:.6g} vs {truth.b:.6g}")
        if abs(p["width_mhz"] - truth.width) > 0.05 * truth.width:
            misses.append(f"w {p['width_mhz']:.4g} vs {truth.width:.4g}")
        if report["chi2_red"] > 1.2 * sigma**2:
            misses.append(f"chi2 {report['chi2_red'] / sigma**2:.3g} sigma^2")
        # A fit outside the tolerances that scores better than the truth
        # has found the optimum of its noisy data; one that scores worse
        # has stopped in the wrong basin.
        wrong_basin = bool(misses) and report["chi2_red"] > spec["chi2_truth"]
        note = f"case {spec['case']}: " + (", ".join(misses) if misses else "ok")
        if misses:
            note += f" at chi2 {report['chi2_red'] / spec['chi2_truth']:.4g} times the truth's"
        return 1, int(wrong_basin), False, note


class Mc13:
    """One ``nvgslac mc13`` per round: 400 draws at 1.1 %, lo band, 400 points.

    Each call has its own field within 1 mT of the GSLAC, its own beta and
    its own MC seed.

    The check compares the mean with the binomially weighted expectation
    over family multisets with n <= 2.  Draws with more sites (about 1 %
    of the mass) are found by drawing the call's placements again; their
    curves are subtracted from the sum, so what is left has exactly the
    truncated expectation as its mean and an exactly known stderr.  The
    distance is an L2 norm over the grid in units of the L2 norm of that
    stderr: a rare multiset drawn a few times moves a few points by many
    of their own stderrs, but the whole curve by much less.  Over 120
    calls at natural abundance the distance stayed below 3.4.
    """

    name = "mc13"
    unit = "MC draw"
    DRAWS = 400
    units_per_call = DRAWS
    OCCUPANCY = 0.011
    GRID = (0.0, 39.9, 0.1)
    WIDTH_MHZ = 1.0
    EXACT_UP_TO = 2
    Z = 6.0  # allowed |mean - expectation|_2 in units of |stderr|_2
    STDERR_RATIO = (0.5, 2.0)  # allowed |reported stderr|_2 / |expected stderr|_2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.families = carbon13.load_families()
        self.grid = _grid(*self.GRID)
        self._expected = {}

    def round(self, r: int) -> list:
        rng = _rng(self.seed, r)
        return [
            {
                "seed": [self.seed, r],
                "b_mt": B_GSLAC + rng.uniform(-1.0, 1.0),
                "beta": rng.uniform(-1.0, 1.0),
                "mc_seed": int(rng.integers(2**31)),
            }
        ]

    def call(self, spec, out: Path):
        start, stop, step = self.GRID
        argv = [
            "mc13",
            "--b-mt", repr(spec["b_mt"]),
            "--beta", repr(spec["beta"]),
            "--width-mhz", repr(self.WIDTH_MHZ),
            "--mode", "lo",
            "--grid", f"{start!r}:{stop!r}:{step!r}",
            "--iterations", str(self.DRAWS),
            "--occupancy", repr(self.OCCUPANCY),
            "--seed", str(spec["mc_seed"]),
            "--out", str(out),
        ]
        return cli.main(argv)

    def curve(self, spec, placement) -> np.ndarray:
        field_cfg = hamiltonian.FieldConfig(b=spec["b_mt"])
        base = hamiltonian.build_nv_hamiltonian(C, field_cfg)
        h = carbon13.build_full_hamiltonian(base, placement, self.families, field_cfg, C)
        system = spin_core.eigensolve(h, spin_core.product_basis_labels(placement.n_c13))
        table = transitions.transition_table(system, spec["beta"], mode="lo", b_mt=spec["b_mt"])
        return spectrum.synthesize(table, self.WIDTH_MHZ, self.grid).values

    def expectation(self, spec) -> tuple:
        """Mean and standard error of the draws' curves restricted to n <= EXACT_UP_TO.

        Both are binomially weighted sums over family multisets: the mean
        of f * [n <= 2] and the standard error of its average over DRAWS
        independent draws.
        """
        key = (spec["b_mt"], spec["beta"])
        if key not in self._expected:
            p = self.OCCUPANCY
            mean = np.zeros_like(self.grid)
            square = np.zeros_like(self.grid)
            for n in range(self.EXACT_UP_TO + 1):
                for combo in itertools.combinations_with_replacement(range(len(self.families)), n):
                    counts = Counter(combo)
                    prob = 1.0
                    for f, fam in enumerate(self.families):
                        c = counts.get(f, 0)
                        prob *= math.comb(fam.multiplicity, c) * p**c * (1 - p) ** (fam.multiplicity - c)
                    placement = carbon13.C13Placement(
                        occupied=tuple(
                            (self.families[f].label, k) for f in sorted(counts) for k in range(counts[f])
                        )
                    )
                    values = self.curve(spec, placement)
                    mean += prob * values
                    square += prob * values**2
            stderr = np.sqrt(np.maximum(square - mean**2, 0.0) / self.DRAWS)
            self._expected[key] = (mean, stderr)
        return self._expected[key]

    def draws(self, spec) -> list:
        cfg = carbon13.McConfig(iterations=self.DRAWS, occupancy=self.OCCUPANCY, seed=spec["mc_seed"])
        return [carbon13.sample_placement(cfg, k, self.families) for k in range(self.DRAWS)]

    def check(self, spec, rc, out: Path):
        if rc != 0:
            return self.DRAWS, self.DRAWS, True, f"exit code {rc}"
        b = spec["b_mt"]
        mean = spectrum.read_spectrum_csv(out / f"mc_spectrum_lo_b{b:.6g}.csv")
        stderr = _read_columns(out / f"mc_stderr_lo_b{b:.6g}.csv", 3)[:, 2]
        draws = self.draws(spec)
        multisets = {tuple(sorted(label for label, _ in d.occupied)) for d in draws if d.n_c13}
        stats = {
            "n_c13_hist": dict(sorted(Counter(d.n_c13 for d in draws).items())),
            "distinct_multisets": len(multisets),
        }
        problem = None
        if mean.grid.shape != self.grid.shape or np.max(np.abs(mean.grid - self.grid)) > 1e-6:
            problem = "grid differs from the requested grid"
        elif stderr.shape != self.grid.shape or not np.all(np.isfinite(stderr)):
            problem = "stderr column missing or non-finite"
        elif np.any(mean.values < 0.0) or np.any(stderr < 0.0):
            problem = "negative mean or stderr"
        else:
            heavy = sum(
                (self.curve(spec, d) for d in draws if d.n_c13 > self.EXACT_UP_TO),
                np.zeros_like(self.grid),
            )
            expected, expected_stderr = self.expectation(spec)
            scale = np.linalg.norm(expected_stderr)
            distance = np.linalg.norm(mean.values - heavy / self.DRAWS - expected) / scale
            stderr_ratio = np.linalg.norm(stderr) / scale
            stats.update(distance_in_stderr=float(distance), stderr_ratio=float(stderr_ratio))
            if distance > self.Z:
                problem = f"mean lies {distance:.3g} stderr from the expectation"
            elif not self.STDERR_RATIO[0] <= stderr_ratio <= self.STDERR_RATIO[1]:
                problem = f"reported stderr is {stderr_ratio:.3g} times the expected one"
        note = json.dumps(stats, sort_keys=True) + (f"; {problem}" if problem else "")
        failed = self.DRAWS if problem else 0
        return self.DRAWS, failed, failed > 0, note


class Bath:
    """Library pipeline for explicit placements of 4 and 5 13C sites.

    A round is one 4-site and two 5-site placements (dimension 144 and
    288), sites drawn without replacement from the 39 lattice sites; hi
    band, theta = 0.  The 4-site calls take a quarter of the time of the
    5-site ones, so the median and the tail both lie among the 5-site
    calls.  6-site placements (dimension 576, five times a 5-site call)
    are left out: 18 s holds only 10-15 of them, too few to keep the
    eleventh slowest call, the tail, among them in every run.
    """

    name = "bath"
    unit = "placement spectrum"
    units_per_call = 1
    SIZES = (4, 5, 5)
    WIDTH_MHZ = 1.0
    TOL = 1e-9

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.families = carbon13.load_families()
        self.sites = carbon13.site_list(self.families)

    def round(self, r: int) -> list:
        specs = []
        for j, n in enumerate(self.SIZES):
            rng = _rng(self.seed, r, j)
            chosen = sorted(rng.choice(len(self.sites), size=n, replace=False))
            specs.append(
                {
                    "seed": [self.seed, r, j],
                    "occupied": [list(self.sites[i]) for i in chosen],
                    "b_mt": B_GSLAC + rng.uniform(-1.0, 1.0),
                    "beta": rng.uniform(-1.0, 1.0),
                }
            )
        return specs

    def call(self, spec, out: Path):
        field_cfg = hamiltonian.FieldConfig(b=spec["b_mt"])
        placement = carbon13.C13Placement(occupied=tuple(tuple(s) for s in spec["occupied"]))
        base = hamiltonian.build_nv_hamiltonian(C, field_cfg)
        h = carbon13.build_full_hamiltonian(base, placement, self.families, field_cfg, C)
        system = spin_core.eigensolve(h, spin_core.product_basis_labels(placement.n_c13))
        table = transitions.transition_table(system, spec["beta"], mode="hi", b_mt=spec["b_mt"])
        center = C.d_g + C.gamma_e * spec["b_mt"]
        model = spectrum.synthesize(table, self.WIDTH_MHZ, _grid(center - 60.0, center + 60.0, 0.1))
        return h, system, table, model

    def check(self, spec, result, out: Path):
        h, system, table, model = result
        v = system.vectors
        residual = np.linalg.norm(h @ v - v * system.energies) / np.linalg.norm(h)
        orthonormality = np.linalg.norm(v.conj().T @ v - np.eye(system.dim))
        problem = None
        if residual > self.TOL:
            problem = f"eigen residual {residual:.3g}"
        elif orthonormality > self.TOL:
            problem = f"eigenvectors not orthonormal ({orthonormality:.3g})"
        elif not np.all(np.isfinite(model.values)) or np.any(model.values < 0.0):
            problem = "spectrum non-finite or negative"
        note = problem or f"dim {system.dim}, {len(table)} rows, residual {residual:.2g}"
        return 1, int(bool(problem)), bool(problem), note


WORKLOADS = {w.name: w for w in (Sweep, Fit, Mc13, Bath)}
