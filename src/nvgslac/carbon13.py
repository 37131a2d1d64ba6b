"""Random carbon-13 nuclei: placement sampling, couplings and ensemble averages.

Each lattice-site family shares one diagonal hyperfine tensor given in its
own principal frame; the tensor is rotated into the NV frame about the
x-axis by the angle between the two z-axes (given as |cos|).  A placement
draws an independent Bernoulli occupation per site; the matrix dimension
grows as 9 * 2**N for N occupied sites.

Ensemble averages are reproducible: draw k uses a generator seeded with the
sequence ``[master_seed, k]``, so different master seeds give independent
streams, and the draws are averaged in iteration order.
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
from .spectrum import SpectrumModel, synthesize
from .spin_core import eigensolve, embed, spin_matrices
from .transitions import transition_table

EXPECTED_SITE_TOTAL = 39
MAX_N_C13_DEFAULT = 8


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
    family_file: str | None = None

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


def sample_placement(cfg: McConfig, iteration: int, families) -> C13Placement:
    """Independent Bernoulli occupation per site, reproducible per iteration."""
    rng = np.random.default_rng([cfg.seed, iteration])
    sites = site_list(families)
    draws = rng.random(len(sites))
    occupied = tuple(site for site, u in zip(sites, draws) if u < cfg.occupancy)
    return C13Placement(occupied=occupied)


def build_full_hamiltonian(
    base: np.ndarray,
    placement: C13Placement,
    families,
    field_cfg: FieldConfig,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    max_n_c13: int = MAX_N_C13_DEFAULT,
) -> np.ndarray:
    """Extend a 9x9 NV+14N matrix with the occupied carbon-13 sites.

    Adds, per site, the electron coupling through the rotated tensor and
    the carbon Zeeman term; the result has dimension 9 * 2**N.
    """
    n = placement.n_c13
    if n > max_n_c13:
        raise ResourceLimitError(
            f"placement with {n} carbon-13 sites exceeds the cap of {max_n_c13}"
        )
    by_label = {f.label: f for f in families}
    dims = (3, 3) + (2,) * n
    h = np.kron(np.asarray(base, dtype=complex), np.eye(2 ** n))
    if n == 0:
        return h
    e = spin_matrices(1.0)
    half = spin_matrices(0.5)
    s_ops = [embed(op, 0, dims) for op in (e.sx, e.sy, e.sz)]
    direction = field_cfg.direction()
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
        j_ops = [embed(op, 2 + k, dims) for op in (half.sx, half.sy, half.sz)]
        for a in range(3):
            for b_ax in range(3):
                if coupling[a, b_ax] != 0.0:
                    h += coupling[a, b_ax] * (s_ops[a] @ j_ops[b_ax])
        zeeman = constants.gamma_c13 * field_cfg.b
        h += zeeman * (direction[0] * j_ops[0] + direction[1] * j_ops[1] + direction[2] * j_ops[2])
    return h


def mc_average_spectrum(
    cfg: McConfig,
    field_cfg: FieldConfig,
    constants: PhysicalConstants = DEFAULT_CONSTANTS,
    beta: float = 0.0,
    width: float = 1.0,
    grid=None,
    mode: str | None = None,
) -> SpectrumModel:
    """Pointwise mean spectrum over random carbon-13 placements.

    Families come from ``cfg.family_file``.  Carbon projections enter the
    population weighting uniformly (spectators).  Every placement is drawn
    before any Hamiltonian is built, and ``ResourceLimitError`` is raised
    if a draw has more than ``MAX_N_C13_DEFAULT`` sites.  Returns the mean
    curve and its per-point standard error; the same ``cfg`` gives the same
    result.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size == 0:
        raise ValidationError("frequency grid must be nonempty")
    families = load_families(cfg.family_file)
    placements = [sample_placement(cfg, k, families) for k in range(cfg.iterations)]
    over = [p.n_c13 for p in placements if p.n_c13 > MAX_N_C13_DEFAULT]
    if over:
        raise ResourceLimitError(
            f"{len(over)} of {cfg.iterations} draws exceed the cap of {MAX_N_C13_DEFAULT} "
            f"carbon-13 sites (largest: {max(over)} sites)"
        )

    def curve(h):
        table = transition_table(eigensolve(h), beta, mode=mode, b_mt=field_cfg.b)
        return synthesize(table, width, grid).values

    base = build_nv_hamiltonian(constants, field_cfg)
    base_values = curve(base)
    curves = np.array(
        [
            curve(build_full_hamiltonian(base, p, families, field_cfg, constants))
            if p.n_c13
            else base_values
            for p in placements
        ]
    )
    mean = curves.mean(axis=0)
    n = cfg.iterations
    stderr = curves.std(axis=0, ddof=1) / math.sqrt(n) if n > 1 else np.zeros_like(mean)
    meta = {
        "iterations": cfg.iterations,
        "occupancy": cfg.occupancy,
        "seed": cfg.seed,
        "b_mt": field_cfg.b,
    }
    return SpectrumModel(peaks=np.empty((0, 3)), grid=grid, values=mean, meta=meta, stderr=stderr)
