"""Spectral fitting, field calibration and nuclear polarization extraction.

The fit minimizes the squared residual data - s* model over spin
temperature, linewidth and (away from the level anticrossing) the field.
The amplitude s* is linear and projected out in closed form (variable
projection, Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973)), the
non-negative least-squares scale at every evaluation, so scaling data and
model together does not move the optimum.  A bounded trust-region solver
(``scipy.optimize.least_squares``, trf, capped at 100 residual evaluations
per free parameter) searches the projected residual from starts inside the
bounds; the fit reports the lowest converged end and the standard errors
from its Jacobian.

More than 0.5 mT from the anticrossing the field is free within +-0.5 mT
of its start.  A 1-d scan over those bounds, in steps of at most
``B_SCAN_STEP_MT`` (0.05 mT) with the start width and spin temperature
0, picks the start field: at 0 the 14N triplet is symmetric, while a
start value of the wrong sign mirrors it and picks the wrong field.  A
coarse beta x width grid is then scored at that field, and the solver
runs from its best points.  The scan step must stay below the 14N line
spacing in field units, |a_par| / gamma_e = 0.076 mT: scored about one
spacing off, the grid favours one broad line at a saturated spin
temperature, a basin a local search does not leave.

Within 0.5 mT of the anticrossing the field is held fixed (supplied by the
coil-current calibration) and the electron-manifold population split is
freed instead; the grid is scored at the start field.

The command line writes :func:`fit_report_document` as strict JSON and
:meth:`FitResult.from_document` reads it back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import attrgetter, itemgetter

import numpy as np
from scipy.optimize import least_squares

from .errors import ConvergenceError, ValidationError
from .hamiltonian import DEFAULT_CONSTANTS, MAX_FIELD_MT, FieldConfig, PhysicalConstants, gslac_field
from .spectrum import MeasuredSpectrum, SpectrumModel, synthesize
from .spin_core import format_label
from .transitions import FieldStage, FieldStages, TransitionTable, population_stage

B_FREE_THRESHOLD_MT = 0.5
# Largest step of the start-field scan; below the 14N spacing |a_par| / gamma_e
# = 2.14 MHz / 28.0 MHz/mT = 0.076 mT (see the module docstring).
B_SCAN_STEP_MT = 0.05
GSLAC_CONFIDENCE_WINDOW_MT = 0.15
# Start search: a beta x width scoring grid, and a least-squares search from
# each of the best starts.
START_GRID = (5, 5)
N_RESTARTS = 2
# Relative difference steps of the search's Jacobian.  Intensities under 1e-6 of
# the largest are dropped, so the m_S = -1 share 1 - manifold_split leaves the
# model within ~1e-5 of 1.0, where a 1e-6 step would see no slope.
DIFF_STEPS = {"beta": 1e-6, "width": 1e-6, "b": 1e-6, "manifold_split": 1e-4}
# A parameter within this many finite-difference steps of a bound is flagged at_bound.
BOUND_STEPS = 10
# Field stages one fit keeps, least recently used dropped first.  A 9x9 stage
# holds about 4.7 kB, so however many fields a fit meets it keeps under 5 MB.
FIELD_CACHE_SIZE = 1024

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
    corresponding summed transition probabilities.  ``standard_errors``
    holds each free parameter's; ``evaluation_split`` divides
    ``n_evaluations`` into scan, grid and search (see :func:`fit_spectrum`).
    """

    params: FitParams
    chi2_red: float
    peak_areas: dict
    peak_strengths: dict
    scale: float
    standard_errors: dict
    n_evaluations: int
    evaluation_split: dict
    flags: tuple = ()

    @classmethod
    def from_document(cls, doc: dict) -> FitResult:
        """Inverse of :func:`fit_report_document`, without the provenance.

        Only params, peak areas and peak strengths are required; missing
        diagnostics read as NaN, empty or 0, so a report written before
        standard errors, which has ``curvatures`` instead, reads with none.
        A ``null`` statistic (written for a non-finite value, see
        :func:`fit_report_document`) reads as NaN.  The field and every peak
        area and strength must be finite numbers, or ValueError names the key.
        """
        p = doc["params"]
        required = {"params.b_mt": p["b_mt"]}
        for part in ("peak_areas", "peak_strengths"):
            required.update((f"{part}[{key!r}]", value) for key, value in doc[part].items())
        for name, value in required.items():
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        top = _nan_for_null(doc)
        return cls(
            params=FitParams(
                beta=p["beta"],
                b=p["b_mt"],
                width=p["width_mhz"],
                theta_deg=p.get("theta_deg", 0.0),
                manifold_split=p.get("manifold_split", 1.0),
            ),
            chi2_red=top.get("chi2_red", math.nan),
            peak_areas=dict(doc["peak_areas"]),
            peak_strengths=dict(doc["peak_strengths"]),
            scale=top.get("scale", math.nan),
            standard_errors=_nan_for_null(doc.get("standard_errors", {})),
            n_evaluations=doc.get("n_evaluations", 0),
            evaluation_split=dict(doc.get("evaluation_split", {})),
            flags=tuple(doc.get("flags", ())),
        )


def _nan_for_null(mapping: dict) -> dict:
    return {key: math.nan if value is None else value for key, value in mapping.items()}


def _null_for_nonfinite(value):
    """``value`` with every non-finite float replaced by None, which JSON writes as null."""
    if isinstance(value, dict):
        return {key: _null_for_nonfinite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_null_for_nonfinite(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


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


def reduced_chi2(data: MeasuredSpectrum, model_values) -> float:
    """Mean squared residual between a measured sweep and model values on its grid."""
    model_values = np.asarray(model_values, dtype=float)
    if model_values.shape != data.values.shape:
        raise ValidationError("data and model are sampled on different grids")
    residual = data.values - model_values
    return float(np.add.reduce(residual * residual)) / residual.size  # the bits of np.mean


def _weigh(stage: FieldStage, params: FitParams) -> TransitionTable:
    return population_stage(stage, params.beta, manifold_split=params.manifold_split, b_mt=params.b)


def model_spectrum(
    params: FitParams,
    grid,
    mode: str = "hi",
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> SpectrumModel:
    """Synthesize the band-limited model spectrum for one parameter set."""
    table = _weigh(FieldStages(constants, params.theta_deg, mode).at(params.b), params)
    return synthesize(table, params.width, grid)


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


def _standard_errors(jac: np.ndarray, cost: float, n_points: int) -> tuple:
    """(s2, sqrt(diag s2 (J^T J)^-1)), s2 = |r|^2 / (N - p - 1) as the amplitude is fitted too;
    an error is infinite along a direction J does not see."""
    _, sv, vt = np.linalg.svd(jac, full_matrices=False)
    dof = n_points - jac.shape[1] - 1
    s2 = 2.0 * cost / dof if dof > 0 else math.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        return s2, np.sqrt(s2 * np.sum((vt / sv[:, None]) ** 2, axis=0))


def _ambiguous_basin(ends, errors: np.ndarray, s2: float) -> bool:
    """Whether two search ends lie within one unit of |r|^2 / s2 but over 3 errors apart."""
    if len(ends) < 2:
        return False
    a, b = ends[:2]
    return 2.0 * abs(a.cost - b.cost) < s2 and bool(np.any(np.abs(a.x - b.x) > 3.0 * errors))


def fit_spectrum(
    data: MeasuredSpectrum,
    initial: FitParams,
    mode: str = "hi",
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> FitResult:
    """Fit one measured sweep by bounded least squares, the amplitude projected out.

    Free are beta, width and, more than 0.5 mT from the anticrossing, the
    field (within +-0.5 mT and [0, ``MAX_FIELD_MT``]); nearer, the field
    is fixed and the manifold split is free.  All stay within
    ``DEFAULT_BOUNDS``.  The start field comes from the field scan (the
    start point when the field is fixed), then a ``START_GRID`` (5 x 5)
    beta x width grid is scored at it (see the module docstring).  From
    the best ``N_RESTARTS`` (2) starts, ``least_squares`` (trf, box
    bounds, ``x_scale="jac"``, relative difference steps ``DIFF_STEPS``)
    minimizes data - s* model.

    Every model evaluation, finite-difference Jacobian columns included,
    counts towards ``n_evaluations``; ``evaluation_split`` holds its scan,
    grid and search parts.  A search stopped by trf's own cap (100
    residual evaluations per free parameter) has not converged, and
    ``ConvergenceError`` is raised if no search converged.

    One ``transitions.FieldStages`` per call holds what does not depend on
    B; its ``at`` solves each B met once (in an LRU cache of the call, of
    at most ``FIELD_CACHE_SIZE`` stages), so an evaluation runs only the
    population stage and the synthesis.

    The report describes the lowest converged end, evaluated once more as
    a search evaluation; ``standard_errors`` come from its search's final
    Jacobian (:func:`_standard_errors`).  Flags, in this order:
    ``b_fixed_near_gslac``; ``at_bound:<name>`` for a parameter within
    ``BOUND_STEPS`` (10) difference steps of a bound; ``ambiguous_basin``
    (:func:`_ambiguous_basin`).

    A start beta, width or manifold split outside ``DEFAULT_BOUNDS`` (NaN
    included), or a start field and angle that make no valid
    ``FieldConfig``, is a ``ValidationError`` before any evaluation.
    """
    if data.grid.size == 0:
        raise ValidationError("cannot fit an empty spectrum")
    for name, (lo, hi) in DEFAULT_BOUNDS.items():
        value = getattr(initial, name)
        if not lo <= value <= hi:
            raise ValidationError(f"fit start {name} must lie in [{lo!r}, {hi!r}], got {value!r}")
    FieldConfig(initial.b, initial.theta_deg)  # names a bad start field or angle
    stages = FieldStages(constants, initial.theta_deg, mode)
    field_stage = lru_cache(maxsize=FIELD_CACHE_SIZE)(stages.at)
    b_free = abs(initial.b - gslac_field(constants)) > B_FREE_THRESHOLD_MT
    names = ["beta", "width", "b" if b_free else "manifold_split"]
    b_lo = max(initial.b - B_FREE_THRESHOLD_MT, 0.0)
    b_hi = min(initial.b + B_FREE_THRESHOLD_MT, MAX_FIELD_MT)
    bounds = {**DEFAULT_BOUNDS, "b": (b_lo, b_hi)}  # the field's bounds apply only when it is free
    lower, upper = np.array([bounds[name] for name in names]).T

    evaluations = {"scan": 0, "grid": 0, "search": 0}

    def unpack(x) -> FitParams:
        return replace(initial, **dict(zip(names, x)))

    def evaluate(x, part: str) -> tuple:
        """Counted (params, table, model, s*) at x."""
        evaluations[part] += 1
        params = unpack(x)
        table = _weigh(field_stage(params.b), params)
        model = synthesize(table, params.width, data.grid)
        return params, table, model, _optimal_scale(data.values, model.values)

    def residual(x, part: str) -> np.ndarray:
        """Counted data - s* model."""
        *_, model, scale = evaluate(x, part)
        return data.values - scale * model.values

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

    def start_vector(beta0, width0, b0) -> np.ndarray:
        """A scan or grid point; inside the bounds, as the start and both grids are."""
        return np.array([beta0, width0, b0 if b_free else initial.manifold_split])

    def score(vectors, part: str) -> list:
        return [(np.linalg.norm(residual(x, part)), x) for x in vectors]

    # With the field free, scan it over its bounds at beta = 0 first (see the module docstring).
    b_starts, beta_scan = [initial.b], initial.beta
    if b_free:
        n_scan = math.ceil((b_hi - b_lo) / B_SCAN_STEP_MT - 1e-9) + 1  # 21 for +-0.5 mT
        b_starts, beta_scan = np.linspace(b_lo, b_hi, n_scan), 0.0
    scan = [start_vector(beta_scan, initial.width, b0) for b0 in b_starts]
    starts = [min(score(scan, "scan"), key=itemgetter(0))]
    b_start = unpack(starts[0][1]).b
    grid = [start_vector(beta0, width0, b_start) for beta0 in beta_grid for width0 in width_grid]
    starts += score(grid, "grid")
    starts.sort(key=itemgetter(0))
    ends = []
    for _, x0 in starts[:N_RESTARTS]:
        end = least_squares(
            residual, x0, bounds=(lower, upper), method="trf", x_scale="jac",
            diff_step=[DIFF_STEPS[name] for name in names], args=("search",),
        )
        if end.status > 0:
            ends.append(end)
    if not ends:
        raise ConvergenceError(f"fit did not converge: {sum(evaluations.values())} evaluations spent")

    final = min(ends, key=attrgetter("cost"))
    params, table, model, scale = evaluate(final.x, "search")
    chi2 = reduced_chi2(data, scale * model.values)
    areas, strengths = {}, {}
    for i, probability, intensity in zip(
        table.i.tolist(), table.probability.tolist(), table.intensity.tolist()
    ):
        key = format_label(table.labels[i])
        areas[key] = areas.get(key, 0.0) + scale * intensity
        strengths[key] = strengths.get(key, 0.0) + probability

    s2, errors = _standard_errors(final.jac, final.cost, data.grid.size)
    flags = [] if b_free else ["b_fixed_near_gslac"]
    for name, lo, hi in zip(names, lower, upper):
        value = getattr(params, name)
        step = DIFF_STEPS[name] * max(1.0, abs(value))  # the finite-difference step there
        if min(value - lo, hi - value) <= BOUND_STEPS * step:
            flags.append(f"at_bound:{name}")
    if _ambiguous_basin(ends, errors, s2):
        flags.append("ambiguous_basin")

    return FitResult(
        params=params,
        chi2_red=chi2,
        peak_areas=areas,
        peak_strengths=strengths,
        scale=scale,
        standard_errors=dict(zip(names, errors.tolist())),
        n_evaluations=sum(evaluations.values()),
        evaluation_split=evaluations,
        flags=tuple(flags),
    )


def calibrate_field(points) -> CalibrationModel:
    """Ordinary least-squares line through finite (coil current, fitted field) points,
    in closed form on the currents centred and divided by their spread and the
    fields scaled by a power of two into [-1, 1].

    Currents whose spread overflows are refused, and so is an overflow in
    the fit, which shows as a line that is not finite."""
    points = [(float(c), float(b)) for c, b in points]
    if len(points) < 2:
        raise ValidationError("calibration needs at least two points")
    currents, fields = np.array(points).T
    if not np.isfinite(points).all():
        raise ValidationError("calibration points must be finite")
    with np.errstate(all="ignore"):
        spread = np.ptp(currents)
        if not math.isfinite(spread):
            raise ValidationError(
                f"calibration currents {currents.min():g} to {currents.max():g} span more than the float range"
            )
        if spread == 0.0:
            raise ValidationError("calibration currents are degenerate")
        scaled = (currents - currents.min()) / spread  # within [0, 1]
        centre = scaled.mean()
        scaled -= centre
        _, exponent = np.frexp(np.abs(fields).max())
        fields = np.ldexp(fields, -exponent)  # within [-1, 1], so their mean cannot overflow
        mean = fields.mean()
        slope = float(np.ldexp(np.dot(scaled, fields - mean) / np.dot(scaled, scaled) / spread, exponent))
        intercept = float(np.ldexp(mean, exponent) - slope * (currents.min() + centre * spread))
    if not (math.isfinite(slope) and math.isfinite(intercept)):
        raise ValidationError(f"calibration line is not finite: slope {slope}, intercept {intercept}")
    return CalibrationModel(slope=slope, intercept=intercept, fit_range=tuple(sorted(currents)))


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
) -> list:
    """Per-fit nuclear polarization from fitted areas over transition strengths.

    Points inside ``GSLAC_CONFIDENCE_WINDOW_MT`` of the anticrossing are flagged low
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
        low_confidence = abs(fit.params.b - b_center) <= GSLAC_CONFIDENCE_WINDOW_MT
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
    """Strict-JSON report for one fit: a non-finite number, such as the standard
    error of a parameter the data do not determine, is None (``null``)."""
    params = result.params
    return _null_for_nonfinite({
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
        "standard_errors": dict(sorted(result.standard_errors.items())),
        "n_evaluations": result.n_evaluations,
        "evaluation_split": dict(result.evaluation_split),
        "flags": list(result.flags),
        "provenance": provenance or {},
    })
