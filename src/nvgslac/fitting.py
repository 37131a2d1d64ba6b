"""Spectral fitting, field calibration and nuclear polarization extraction.

The fit minimizes the reduced chi-squared

    chi2 = (1/N) sum ((d_i - f_i) / sigma_i)^2,  sigma_i = 1 by default,

over spin temperature, linewidth, and (away from the level anticrossing)
the field value, using Nelder-Mead.  The overall amplitude is a linear
parameter and is solved in closed form at every evaluation, so scaling
data and model together does not move the optimum.

More than 0.5 mT from the anticrossing the field is freed within +-0.5 mT
of its start value.  The starts are then found in two stages.  First a
1-d scan of the field over its bounds, in steps of at most
``B_SCAN_STEP_MT`` (0.05 mT) with spin temperature and width at their
start values, picks the field that best matches the data.  Then a coarse
beta x width grid is scored at that field, and Nelder-Mead runs from the
best of those starts.  The scan step must stay below the 14N line spacing
in field units, |a_par| / gamma_e = 0.076 mT.  Scored at a field about one
spacing off, the grid favours one broad line at a saturated spin
temperature over the three resolved lines, and Nelder-Mead does not leave
that basin; a scan as coarse as the spacing itself can still land there.

Within 0.5 mT of the anticrossing the field is held fixed (supplied by the
coil-current calibration) and the electron-manifold population split is
freed instead; the field scan is skipped and the grid is scored at the
start field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from operator import itemgetter

import numpy as np
from scipy.optimize import minimize

from .errors import ConvergenceError, ValidationError
from .hamiltonian import (
    DEFAULT_CONSTANTS,
    FieldConfig,
    PhysicalConstants,
    build_nv_hamiltonian,
    gslac_field,
)
from .spectrum import MeasuredSpectrum, SpectrumModel, synthesize
from .spin_core import eigensolve, format_label
from .transitions import TransitionTable, transition_table

B_FREE_THRESHOLD_MT = 0.5
# Largest step of the start-field scan; below the 14N spacing |a_par| / gamma_e
# = 2.14 MHz / 28.0 MHz/mT = 0.076 mT (see the module docstring).
B_SCAN_STEP_MT = 0.05
GSLAC_CONFIDENCE_WINDOW_MT = 0.15
# Start search: a beta x width scoring grid, and Nelder-Mead from the best starts.
START_GRID = (5, 5)
N_RESTARTS = 2

ORIENTATION_SCALE = math.sqrt(1.5)
ALIGNMENT_SCALE = math.sqrt(0.5)

LOWER_LABELS = ((0, 1), (0, 0), (0, -1))


@dataclass(frozen=True)
class FitParams:
    """Model parameters of one spectrum fit."""

    beta: float
    b: float
    width: float
    theta_deg: float = 0.0
    manifold_split: float = 1.0


@dataclass(frozen=True)
class FitResult:
    """Optimized parameters plus per-component areas and diagnostics.

    ``peak_areas`` maps the nominal lower-state label to the fitted area
    of all transitions starting there; ``peak_strengths`` holds the
    corresponding summed transition probabilities.  ``curvatures`` are
    one-dimensional chi-squared curvature estimates at the optimum.
    """

    params: FitParams
    chi2_red: float
    peak_areas: dict
    peak_strengths: dict
    scale: float
    curvatures: dict
    n_evaluations: int
    flags: tuple = ()


@dataclass(frozen=True)
class CalibrationModel:
    """Straight-line field vs coil current."""

    slope: float          # mT per A
    intercept: float      # mT
    fit_range: tuple      # currents used

    def predict(self, current: float) -> float:
        return self.slope * current + self.intercept


@dataclass(frozen=True)
class PolarizationReport:
    orientation: float
    alignment: float
    populations: tuple
    low_confidence: bool = False
    flags: tuple = ()


def reduced_chi2(data: MeasuredSpectrum, model, sigma=None) -> float:
    """Mean squared residual between a measured sweep and a model curve."""
    model_values = model.values if hasattr(model, "values") else np.asarray(model, dtype=float)
    model_grid = getattr(model, "grid", None)
    if model_grid is not None and (
        model_grid.shape != data.grid.shape or not np.allclose(model_grid, data.grid, atol=1e-9)
    ):
        raise ValidationError("data and model are sampled on different grids")
    if model_values.shape != data.values.shape:
        raise ValidationError("data and model are sampled on different grids")
    residual = data.values - model_values
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if sigma.shape != residual.shape:
            raise ValidationError("sigma must match the data grid")
        residual = residual / sigma
    return float(np.mean(residual ** 2))


def _model_table(params: FitParams, mode: str, constants: PhysicalConstants) -> TransitionTable:
    field_cfg = FieldConfig(b=params.b, theta_deg=params.theta_deg)
    system = eigensolve(build_nv_hamiltonian(constants, field_cfg))
    return transition_table(
        system, params.beta, manifold_split=params.manifold_split, mode=mode, b_mt=params.b
    )


def model_spectrum(
    params: FitParams,
    grid,
    mode: str = "hi",
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> SpectrumModel:
    """Synthesize the band-limited model spectrum for one parameter set."""
    return synthesize(_model_table(params, mode, constants), params.width, grid)


DEFAULT_BOUNDS = {
    "beta": (-5.0, 5.0),
    "width": (0.05, 20.0),
    "manifold_split": (0.0, 1.0),
}


def _optimal_scale(data_values: np.ndarray, model_values: np.ndarray) -> float:
    denom = float(np.dot(model_values, model_values))
    if denom <= 0.0:
        return 0.0
    return max(float(np.dot(data_values, model_values)) / denom, 0.0)


def fit_spectrum(
    data: MeasuredSpectrum,
    initial: FitParams,
    mode: str = "hi",
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    sigma=None,
    max_evaluations: int = 100_000,
) -> FitResult:
    """Fit one measured sweep by derivative-free chi-squared minimization.

    The field is freed (within +-0.5 mT bounds) only when the initial
    value lies more than 0.5 mT from the anticrossing; otherwise it stays
    fixed and the manifold split is freed.  When the field is free, it is
    first scanned over its bounds in steps of at most ``B_SCAN_STEP_MT``
    (0.05 mT, below the 0.076 mT 14N line spacing in field units) with
    beta and width at their initial values, and the best-matching field
    becomes the start field.  Candidate starts then come from a
    ``START_GRID`` (5 x 5) beta x width grid at the start field; Nelder-Mead
    is run from the best ``N_RESTARTS`` (2) of them (step tolerance 1e-4,
    value tolerance 1e-10).  Parameters stay within ``DEFAULT_BOUNDS``.

    Every scan, grid and search evaluation counts towards
    ``n_evaluations`` and is spent from ``max_evaluations``; the starts
    are cut short when the budget runs out, and ``ConvergenceError`` is
    raised if no search converged.  The curvature probes at the optimum,
    two per free parameter, are not counted.
    """
    if data.grid.size == 0:
        raise ValidationError("cannot fit an empty spectrum")
    bounds = dict(DEFAULT_BOUNDS)
    b_center = gslac_field(constants)
    b_free = abs(initial.b - b_center) > B_FREE_THRESHOLD_MT
    split_free = not b_free

    names = ["beta", "width"]
    if b_free:
        names.append("b")
        bounds["b"] = (initial.b - B_FREE_THRESHOLD_MT, initial.b + B_FREE_THRESHOLD_MT)
    if split_free:
        names.append("manifold_split")

    eval_count = 0
    best = {"chi2": math.inf, "x": None, "scale": 0.0}

    def unpack(x) -> FitParams:
        values = dict(zip(names, x))
        return replace(
            initial,
            beta=values.get("beta", initial.beta),
            width=values.get("width", initial.width),
            b=values.get("b", initial.b),
            manifold_split=values.get("manifold_split", initial.manifold_split),
        )

    def penalized_chi2(x) -> tuple:
        """(chi2 at x clipped into the bounds + 1e6 * squared clip distance, clipped x, scale)."""
        penalty = 0.0
        clipped = []
        for name, value in zip(names, x):
            lo, hi = bounds[name]
            c = min(max(value, lo), hi)
            penalty += (value - c) ** 2
            clipped.append(c)
        try:
            model = model_spectrum(unpack(clipped), data.grid, mode=mode, constants=constants)
        except ValidationError:
            return 1e30, None, 0.0
        scale = _optimal_scale(data.values, model.values)
        chi2 = reduced_chi2(data, scale * model.values, sigma=sigma)
        return chi2 + 1e6 * penalty, clipped, scale

    def objective(x) -> float:
        """Counted evaluation; keeps the best point seen."""
        nonlocal eval_count
        eval_count += 1
        total, clipped, scale = penalized_chi2(x)
        if clipped is not None and total < best["chi2"]:
            best.update(chi2=total, x=clipped, scale=scale)
        return total

    # Coarse scoring grid over (beta, width), other parameters at their
    # start.  The grid spans the plausible region around the initial
    # guess, not the full bounds: spin temperatures beyond |beta| ~ 2 are
    # saturated and widths far from the seed only smear the landscape.
    n_beta, n_width = START_GRID
    beta_lo, beta_hi = bounds["beta"]
    width_lo, width_hi = bounds["width"]
    beta_grid = np.linspace(max(beta_lo, -2.0), min(beta_hi, 2.0), n_beta)
    width_grid = np.linspace(
        max(width_lo, initial.width / 3.0), min(width_hi, initial.width * 3.0), n_width
    )

    def start_vector(beta0, width0, b0):
        x0 = [beta0, width0]
        if b_free:
            x0.append(b0)
        if split_free:
            x0.append(initial.manifold_split)
        return x0

    def score(vectors) -> list:
        """(objective, vector) pairs, for as many vectors as the budget allows."""
        return [(objective(x), x) for x in vectors[: max(0, max_evaluations - eval_count)]]

    # With the field free, scan it over its bounds first: scored at the
    # start field, the grid below favours one broad line whenever the start
    # is about one 14N spacing off (see the module docstring).
    b_starts = [initial.b]
    if b_free:
        b_lo, b_hi = bounds["b"]
        n_scan = math.ceil((b_hi - b_lo) / B_SCAN_STEP_MT - 1e-9) + 1  # 21 for +-0.5 mT
        b_starts = np.linspace(b_lo, b_hi, n_scan)
    scan = sorted(
        score([start_vector(initial.beta, initial.width, b0) for b0 in b_starts]),
        key=itemgetter(0),
    )
    b_start = unpack(scan[0][1]).b if scan else initial.b

    starts = scan[:1] + score(
        [start_vector(beta0, width0, b_start) for beta0 in beta_grid for width0 in width_grid]
    )
    starts.sort(key=itemgetter(0))

    converged = False
    for _, x0 in starts[:N_RESTARTS]:
        remaining = max_evaluations - eval_count
        if remaining <= 0:
            break
        result = minimize(
            objective,
            np.asarray(x0, dtype=float),
            method="Nelder-Mead",
            options={"xatol": 1e-4, "fatol": 1e-10, "maxfev": remaining},
        )
        converged = converged or bool(result.success)

    if best["x"] is None or not converged:
        raise ConvergenceError(
            f"fit did not converge: {eval_count} evaluations spent of a budget of "
            f"{max_evaluations}",
            best=None if best["x"] is None else unpack(best["x"]),
        )

    params = unpack(best["x"])
    table = _model_table(params, mode, constants)
    model = synthesize(table, params.width, data.grid)
    scale = _optimal_scale(data.values, model.values)
    chi2 = reduced_chi2(data, scale * model.values, sigma=sigma)

    areas: dict = {}
    strengths: dict = {}
    for i, probability, intensity in zip(
        table.i.tolist(), table.probability.tolist(), table.intensity.tolist()
    ):
        key = format_label(table.labels[i])
        areas[key] = areas.get(key, 0.0) + scale * intensity
        strengths[key] = strengths.get(key, 0.0) + probability

    # 1-d curvature of chi2 at the optimum (uncertainty proxy); the probes
    # are not search evaluations, so they neither count nor move ``best``.
    curvatures = {}
    x_best = np.asarray(best["x"], dtype=float)
    for k, name in enumerate(names):
        h = 1e-3
        plus = x_best.copy()
        minus = x_best.copy()
        plus[k] += h
        minus[k] -= h
        up, down = penalized_chi2(plus)[0], penalized_chi2(minus)[0]
        curvatures[name] = (up - 2.0 * chi2 + down) / h ** 2

    flags = []
    if not b_free:
        flags.append("b_fixed_near_gslac")
    return FitResult(
        params=params,
        chi2_red=chi2,
        peak_areas=areas,
        peak_strengths=strengths,
        scale=scale,
        curvatures=curvatures,
        n_evaluations=eval_count,
        flags=tuple(flags),
    )


def calibrate_field(points) -> CalibrationModel:
    """Ordinary least-squares line through (coil current, fitted field) points."""
    points = [(float(c), float(b)) for c, b in points]
    if len(points) < 2:
        raise ValidationError("calibration needs at least two points")
    currents = np.array([c for c, _ in points])
    fields = np.array([b for _, b in points])
    if np.ptp(currents) == 0.0:
        raise ValidationError("calibration currents are degenerate")
    slope, intercept = np.polyfit(currents, fields, 1)
    return CalibrationModel(
        slope=float(slope), intercept=float(intercept), fit_range=tuple(sorted(currents))
    )


def _check_populations(populations) -> np.ndarray:
    pops = np.asarray(populations, dtype=float)
    if pops.shape != (3,):
        raise ValidationError("populations must be the three values (n_+1, n_0, n_-1)")
    if np.any(pops < 0):
        raise ValidationError("populations must be nonnegative")
    if pops.sum() <= 0:
        raise ValidationError("total population must be positive")
    return pops


def orientation(populations) -> float:
    """Rank-1 longitudinal moment: sqrt(3/2) (n_+1 - n_-1) / (n_+1 + n_0 + n_-1)."""
    pops = _check_populations(populations)
    return ORIENTATION_SCALE * (pops[0] - pops[2]) / pops.sum()


def alignment(populations) -> float:
    """Rank-2 longitudinal moment: sqrt(1/2) (n_+1 + n_-1 - 2 n_0) / total."""
    pops = _check_populations(populations)
    return ALIGNMENT_SCALE * (pops[0] + pops[2] - 2.0 * pops[1]) / pops.sum()


def polarization_sweep(
    fits,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    window_mt: float = GSLAC_CONFIDENCE_WINDOW_MT,
) -> list:
    """Per-fit nuclear polarization from fitted areas over transition strengths.

    Points inside ``window_mt`` of the anticrossing are flagged low
    confidence; missing components are flagged, not fatal.
    """
    b_center = gslac_field(constants)
    out = []
    for fit in fits:
        pops = []
        flags = []
        for label in LOWER_LABELS:
            key = format_label(label)
            area = fit.peak_areas.get(key, 0.0)
            strength = fit.peak_strengths.get(key, 0.0)
            if strength > 0.0:
                pops.append(area / strength)
            else:
                pops.append(0.0)
                flags.append(f"missing_component:{key}")
        low_confidence = abs(fit.params.b - b_center) <= window_mt
        total = sum(pops)
        if total > 0:
            normalized = tuple(p / total for p in pops)
            report = PolarizationReport(
                orientation=orientation(normalized),
                alignment=alignment(normalized),
                populations=normalized,
                low_confidence=low_confidence,
                flags=tuple(flags),
            )
        else:
            report = PolarizationReport(
                orientation=0.0,
                alignment=0.0,
                populations=(0.0, 0.0, 0.0),
                low_confidence=True,
                flags=tuple(flags) + ("no_population",),
            )
        out.append((fit.params.b, report))
    return out


def fit_report_document(result: FitResult, provenance: dict | None = None) -> dict:
    """JSON-serializable report for one fit."""
    params = result.params
    return {
        "params": {
            "beta": params.beta,
            "b_mt": params.b,
            "width_mhz": params.width,
            "theta_deg": params.theta_deg,
            "manifold_split": params.manifold_split,
        },
        "chi2_red": result.chi2_red,
        "scale": result.scale,
        "peak_areas": dict(sorted(result.peak_areas.items())),
        "peak_strengths": dict(sorted(result.peak_strengths.items())),
        "curvatures": dict(sorted(result.curvatures.items())),
        "n_evaluations": result.n_evaluations,
        "flags": list(result.flags),
        "provenance": provenance or {},
    }


def write_fit_report(path, result: FitResult, provenance: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(fit_report_document(result, provenance), fh, indent=2, sort_keys=True)
        fh.write("\n")
