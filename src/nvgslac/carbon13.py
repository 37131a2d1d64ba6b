"""Random carbon-13 nuclei: placement sampling, couplings and ensemble averages.

Each lattice-site family shares one diagonal hyperfine tensor given in its
own principal frame; the tensor is rotated into the NV frame about the
x-axis by the angle between the two z-axes (given as |cos|).  A placement
draws an independent Bernoulli occupation per site; the matrix dimension
grows as 9 * 2**N for N occupied sites.

A site adds Kronecker products of cached 9x9 electron operators and
carbon-space operators: O(d**2) work per term, no full-size matrix product,
and the exact bits of the dense build (see ``build_full_hamiltonian``).

The lattice families are read once per run by :func:`load_families`, from
``mc13 --families`` or else the packaged ``data/families_default.csv``.

Ensemble averages are reproducible: draw k uses a generator seeded with the
sequence ``[master_seed, k]``, so different master seeds give independent
streams, and the draws are averaged in iteration order.

Every site of a family shares one rotated tensor, so a draw's curve depends
only on the family labels of its occupied sites, in placement order.  An
ensemble average builds and solves each such label sequence once and reuses
its curve for every other draw with the same sequence (the carbon-free
curve for every empty draw); the cost grows with the number of distinct
sequences, not of draws, and the result is the same bits as solving every
draw.  The reuse lasts one call.  The carbon-free table is solved once, before
the first draw: it checks that the grid covers the band and gives that curve.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import ParseError, ResourceLimitError, ValidationError
from .hamiltonian import (
    DEFAULT_CONSTANTS,
    FieldConfig,
    HyperfineTensor,
    PhysicalConstants,
    build_nv_hamiltonian,
)
from .spectrum import SpectrumModel, require_grid, require_grid_covers, synthesize
from .spin_core import eigensolve, nv_spin_model, spin_matrices
from .transitions import transition_table

EXPECTED_SITE_TOTAL = 39
MAX_N_C13_DEFAULT = 8
MAX_ITERATIONS = 10**6

_HALF = spin_matrices(0.5)
_EYE9 = np.eye(9)
for _array in (_HALF.sx, _HALF.sy, _HALF.sz, _EYE9):
    _array.setflags(write=False)


@dataclass(frozen=True)
class LatticeFamily:
    """One family of symmetry-equivalent carbon sites."""

    label: str
    multiplicity: int
    tensor: HyperfineTensor
    cos_zz: float
    source: str = ""


@dataclass(frozen=True)
class C13Placement:
    """Occupied sites as (family label, site index within the family)."""

    occupied: tuple

    def __post_init__(self):
        if len(set(self.occupied)) != len(self.occupied):
            raise ValidationError("duplicate carbon-13 site in placement")

    @property
    def n_c13(self) -> int:
        return len(self.occupied)


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo settings for the carbon-13 bath."""

    iterations: int = 400
    occupancy: float = 0.011
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValidationError(f"iterations must be >= 1, got {self.iterations!r}")
        if not 0.0 <= self.occupancy <= 1.0:
            raise ValidationError(f"occupancy must lie in [0, 1], got {self.occupancy!r}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed!r}")


def default_family_path():
    return resources.files("nvgslac").joinpath("data/families_default.csv")


_FAMILY_HEADER = ["label", "multiplicity", "axx_mhz", "ayy_mhz", "azz_mhz", "cos_zz", "source"]


def load_families(path=None) -> tuple:
    """Read a lattice-family CSV; ``None`` loads the packaged default set.

    A multiplicity total different from 39 is allowed (custom sets) but
    warned about.
    """
    if path is None:
        path = default_family_path()
    families = []
    seen = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty family file (missing header)") from None
        if [h.strip() for h in header] != _FAMILY_HEADER:
            raise ParseError(f"{path}: expected header {','.join(_FAMILY_HEADER)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(_FAMILY_HEADER):
                raise ParseError(f"{path}:{lineno}: expected {len(_FAMILY_HEADER)} fields")
            label = row[0].strip()
            if label in seen:
                raise ParseError(f"{path}:{lineno}: duplicate family label {label!r}")
            seen.add(label)
            try:
                multiplicity = int(row[1])
                axx, ayy, azz, cos_zz = (float(cell) for cell in row[2:6])
            except ValueError:
                raise ParseError(f"{path}:{lineno}: malformed numeric field") from None
            if not all(map(math.isfinite, (axx, ayy, azz))):
                raise ParseError(f"{path}:{lineno}: hyperfine values must be finite")
            if multiplicity < 1:
                raise ParseError(f"{path}:{lineno}: multiplicity must be >= 1")
            if not 0.0 <= cos_zz <= 1.0:
                raise ParseError(f"{path}:{lineno}: cos_zz must lie in [0, 1]")
            families.append(
                LatticeFamily(
                    label=label,
                    multiplicity=multiplicity,
                    tensor=HyperfineTensor(axx=axx, ayy=ayy, azz=azz),
                    cos_zz=cos_zz,
                    source=row[6].strip(),
                )
            )
    total = sum(f.multiplicity for f in families)
    if families and total != EXPECTED_SITE_TOTAL:
        warnings.warn(
            f"family file {path} covers {total} sites, not the default {EXPECTED_SITE_TOTAL}",
            stacklevel=2,
        )
    return tuple(families)


def rotate_tensor(tensor: HyperfineTensor, cos_zz: float) -> np.ndarray:
    """Rotate a diagonal tensor about the x-axis into the NV frame."""
    if not 0.0 <= cos_zz <= 1.0:
        raise ValidationError(f"cos_zz must lie in [0, 1], got {cos_zz!r}")
    alpha = math.acos(cos_zz)
    c, s = math.cos(alpha), math.sin(alpha)
    rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return rot @ tensor.as_matrix() @ rot.T


def site_list(families) -> tuple:
    """Deterministic site order: families as listed, sites 0..multiplicity-1."""
    return tuple((f.label, k) for f in families for k in range(f.multiplicity))


def sample_placement(cfg: McConfig, iteration: int, families, sites=None) -> C13Placement:
    """Independent Bernoulli occupation per site, reproducible per iteration; ``sites`` is
    ``site_list(families)``, which a caller drawing many placements makes once."""
    rng = np.random.default_rng([cfg.seed, iteration])
    sites = site_list(families) if sites is None else sites
    draws = rng.random(len(sites))
    return C13Placement(occupied=tuple(sites[k] for k in np.flatnonzero(draws < cfg.occupancy)))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices: the same products, without its axis bookkeeping."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]
    )


def _at_site(op: np.ndarray, k: int, n: int) -> np.ndarray:
    """A 2x2 operator on site k of the 2**n-dim carbon space."""
    return _kron(_kron(np.eye(2 ** k), op), np.eye(2 ** (n - k - 1)))


def build_full_hamiltonian(
    base: np.ndarray,
    placement: C13Placement,
    families,
    field_cfg: FieldConfig,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
) -> np.ndarray:
    """Extend a 9x9 NV+14N matrix with the occupied carbon-13 sites.

    Per site k, adds sum_a S_a (x) (sum_b A_ab J_b) with the rotated tensor
    A and S_a from ``nv_spin_model()``, then 1_9 (x) (gamma_c13 B n.J); J_b
    acts on site k of the carbon space only.  The dimension is 9 * 2**N.
    The bits equal a dense build adding A_ab (S_a @ J_b) term by term: J_b
    entries are +-1/2 or +-i/2, so each real or imaginary part of an entry
    is one product rounded once, from one b alone, added in the same order.
    """
    n = placement.n_c13
    if n > MAX_N_C13_DEFAULT:
        raise ResourceLimitError(
            f"placement with {n} carbon-13 sites exceeds the cap of {MAX_N_C13_DEFAULT}"
        )
    by_label = {f.label: f for f in families}
    model = nv_spin_model()
    j_ops = (_HALF.sx, _HALF.sy, _HALF.sz)
    h = _kron(np.asarray(base, dtype=complex), np.eye(2 ** n))
    direction = field_cfg.direction()
    zeeman = constants.gamma_c13 * field_cfg.b * sum(d * j for d, j in zip(direction, j_ops))
    for k, (label, site) in enumerate(placement.occupied):
        try:
            fam = by_label[label]
        except KeyError:
            raise ValidationError(f"placement references unknown family {label!r}") from None
        if not 0 <= site < fam.multiplicity:
            raise ValidationError(
                f"site index {site} out of range for family {label!r} "
                f"(multiplicity {fam.multiplicity})"
            )
        coupling = rotate_tensor(fam.tensor, fam.cos_zz)
        for s_a, row in zip((model.sx, model.sy, model.sz), coupling):
            h += _kron(s_a, _at_site(sum(c * j for c, j in zip(row, j_ops)), k, n))
        h += _kron(_EYE9, _at_site(zeeman, k, n))
    return h


def mc_average_spectrum(
    cfg: McConfig,
    field_cfg: FieldConfig,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    beta: float = 0.0,
    width: float = 1.0,
    *,
    grid,
    mode: str,
    families=None,
) -> SpectrumModel:
    """Pointwise mean spectrum over random carbon-13 placements.

    ``families`` are the lattice families of :func:`load_families`; the
    default is the packaged set.  Carbon projections enter the population
    weighting uniformly (spectators).  Checks, in order: more than
    ``MAX_ITERATIONS`` draws (``ResourceLimitError``); a grid that is not
    nonempty, finite and 1-d; a width that is not positive and finite (by
    synthesizing the solved carbon-free curve); a grid that misses the
    carbon-free lines widened by the families' largest principal hyperfine
    value (``spectrum.require_grid_covers``); then the draws, and a draw with
    more than ``MAX_N_C13_DEFAULT`` sites (``ResourceLimitError``), all
    before any carbon-13 Hamiltonian is built.  Each distinct label
    sequence is solved once (see the module docstring).  Returns the mean
    curve and its per-point standard error; the same ``cfg`` gives the
    same result.  ``meta`` holds the settings, the histogram of sites per
    draw (``n_c13_histogram[n]`` draws with n sites), ``curves_computed``
    (distinct sequences, the carbon-free one included) and
    ``draws_reused`` (draws that reused a curve).
    """
    if cfg.iterations > MAX_ITERATIONS:
        raise ResourceLimitError(
            f"{cfg.iterations} Monte Carlo draws exceed the cap of {MAX_ITERATIONS}"
        )
    grid = require_grid(grid)
    if families is None:
        families = load_families()
    base = build_nv_hamiltonian(constants, field_cfg)
    table = transition_table(eigensolve(base), beta, mode=mode, b_mt=field_cfg.b)
    curves = {(): synthesize(table, width, grid).values}  # names a bad width
    # Carbon-13 satellites sit up to about the largest principal hyperfine
    # value away from the carbon-free lines.
    shift = max((np.abs(f.tensor.as_matrix()).max() for f in families), default=0.0)
    require_grid_covers(grid, [table], width, mode, shift)
    # The build reads only the family labels of a placement, in order (a
    # site index is only range-checked, and sampled sites are in range), so
    # equal keys give equal Hamiltonians.  When sites of a family get their
    # own azimuths, the key must grow to hold them.
    keys = []
    first = {}
    sites = site_list(families)
    for k in range(cfg.iterations):
        placement = sample_placement(cfg, k, families, sites)
        key = tuple(label for label, _ in placement.occupied)
        first.setdefault(key, placement)
        keys.append(key)
    over = [len(key) for key in keys if len(key) > MAX_N_C13_DEFAULT]
    if over:
        raise ResourceLimitError(
            f"{len(over)} of {cfg.iterations} draws exceed the cap of {MAX_N_C13_DEFAULT} "
            f"carbon-13 sites (largest: {max(over)} sites)"
        )

    for key, placement in first.items():
        if key:
            h = build_full_hamiltonian(base, placement, families, field_cfg, constants)
            table = transition_table(eigensolve(h), beta, mode=mode, b_mt=field_cfg.b)
            curves[key] = synthesize(table, width, grid).values
    mean, stderr = _mean_and_stderr([curves[key] for key in keys])
    meta = {
        "iterations": cfg.iterations,
        "occupancy": cfg.occupancy,
        "seed": cfg.seed,
        "b_mt": field_cfg.b,
        "n_c13_histogram": np.bincount([len(key) for key in keys]).tolist(),
        "curves_computed": len(curves),
        "draws_reused": cfg.iterations - (len(curves) - 1),
    }
    return SpectrumModel(peaks=np.empty((0, 3)), grid=grid, values=mean, meta=meta, stderr=stderr)


def _mean_and_stderr(rows: list) -> tuple:
    """Pointwise mean and standard error of the rows, summed in row order.

    Bit-equal to ``arr.mean(axis=0)`` and ``arr.std(axis=0, ddof=1) /
    sqrt(N)`` of the stacked rows, which add row by row in the same order,
    without holding the (N x grid) array.  One row has zero standard error.
    """
    n = len(rows)
    if rows[0].size == 1:
        # numpy sums an (N, 1) stack pairwise, not row by row; it is N floats
        stack = np.array(rows)
        mean = stack.mean(axis=0)
        return mean, stack.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
    total = rows[0].copy()
    for row in rows[1:]:
        total += row
    mean = total / n
    if n == 1:
        return mean, np.zeros_like(mean)
    squares = np.zeros_like(mean)
    for row in rows:
        d = row - mean
        squares += d * d
    return mean, np.sqrt(squares / (n - 1)) / math.sqrt(n)
