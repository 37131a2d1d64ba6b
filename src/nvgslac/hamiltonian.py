"""Ground-state spin Hamiltonian of the NV- center coupled to its host 14N.

Units: MHz for energies, mT for fields, MHz/mT for gyromagnetic ratios.
The quantization axis z is the NV symmetry axis; the field direction is
given by polar angle theta (from z) and azimuth phi, both in degrees.

The full 9x9 Hamiltonian is

    H = d_g Sz^2 + gamma_e B (n . S)
      + q Iz^2  - gamma_n14 B (n . I)
      + a_perp (Sx Ix + Sy Iy) + a_par Sz Iz

with S the electron spin-1 (subsystem slot 0) and I the nitrogen spin-1
(slot 1).

Closed-form axial model
-----------------------
For an axial field the six m_S in {0,-1} levels admit closed-form
energies and eigenvectors once the (tiny) nitrogen Zeeman term is
dropped.  Levels carry a conventional index 1..9 fixed by their
character, not by energy order:

    1: |0,+1>             2: |-1,-1>
    3, 4: lower/upper of the mixed (|-1,+1>, |0,0>) pair
    5, 6: lower/upper of the mixed (|-1,0>, |0,-1>) pair
    7: |+1,+1>            8: |+1,-1>            9: |+1,0>

Energy-sorted output (``EigenSystem``) is a different ordering; use the
labels to map between the two.

The mixing parameter of the 5/6 pair is exposed with a switch,
``kappa2_sign``:

* ``"minus"`` (default): kappa2 = (d_g - q - gamma_e B) / (2 a_perp),
  the exact two-state reduction of the Hamiltonian block above.  With
  this choice the closed forms reproduce numerical diagonalization of
  the truncated model to machine precision.
* ``"plus"``: kappa2 = (d_g + q - gamma_e B) / (2 a_perp), mirroring the
  form of the 3/4 pair with the parallel coupling dropped.  Kept for
  comparison; it is *not* an eigendecomposition of the Hamiltonian
  block and its minimum 5/6 gap sits at gamma_e B = d_g + q instead of
  d_g - q.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParseError, ValidationError
from .spin_core import (
    EigenSystem,
    assign_labels,
    eigensolve_stack,
    label_states,
    nv_spin_model,
    product_basis_labels,
)

KAPPA2_SIGNS = ("minus", "plus")
# Largest field magnitude (mT), 1,000x the GSLAC field; gamma_e * B overflows near 1e307.
MAX_FIELD_MT = 1e5


@dataclass(frozen=True)
class PhysicalConstants:
    """Ground-state coupling constants (MHz and MHz/mT)."""

    d_g: float = 2870.0          # zero-field splitting
    gamma_e: float = 28.025      # electron gyromagnetic ratio
    q: float = -4.96             # 14N quadrupole parameter
    gamma_n14: float = 0.003077  # 14N gyromagnetic ratio
    gamma_c13: float = 0.010704  # 13C gyromagnetic ratio
    a_par: float = -2.14         # 14N hyperfine, axial
    a_perp: float = -2.70        # 14N hyperfine, transverse

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def sha256(self) -> str:
        text = ",".join(f"{k}={v!r}" for k, v in sorted(self.as_dict().items()))
        return hashlib.sha256(text.encode()).hexdigest()


DEFAULT_CONSTANTS = PhysicalConstants()

CONSTANT_UNITS = {
    "d_g": "MHz",
    "gamma_e": "MHz/mT",
    "q": "MHz",
    "gamma_n14": "MHz/mT",
    "gamma_c13": "MHz/mT",
    "a_par": "MHz",
    "a_perp": "MHz",
}


def parse_constants_file(path) -> PhysicalConstants:
    """Read a flat ``key = value`` override file.

    Unknown keys and non-numeric or non-finite values are rejected;
    missing keys keep their defaults.  ``#`` starts a comment.
    """
    overrides = {}
    known = set(PhysicalConstants.__dataclass_fields__)
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in known:
                raise ParseError(f"{path}:{lineno}: unknown constant {key!r}")
            if key in overrides:
                raise ParseError(f"{path}:{lineno}: duplicate constant {key!r}")
            try:
                overrides[key] = float(value)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: invalid number {value!r}") from None
            if not np.isfinite(overrides[key]):
                raise ParseError(f"{path}:{lineno}: constant {key!r} must be finite, got {value!r}")
    return replace(DEFAULT_CONSTANTS, **overrides)


@dataclass(frozen=True)
class FieldConfig:
    """Static field: magnitude (0 to ``MAX_FIELD_MT`` mT) and orientation relative to the NV axis."""

    b: float
    theta_deg: float = 0.0
    phi_deg: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.b <= MAX_FIELD_MT:
            rule = (
                f"<= {MAX_FIELD_MT:g} mT" if self.b > MAX_FIELD_MT
                else ">= 0" if self.b < 0
                else "a finite number"  # nan
            )
            raise ValidationError(f"field magnitude must be {rule}, got {self.b!r}")
        if not 0.0 <= self.theta_deg < 180.0:
            raise ValidationError(f"theta must lie in [0, 180), got {self.theta_deg!r}")
        if not 0.0 <= self.phi_deg < 360.0:
            raise ValidationError(f"phi must lie in [0, 360), got {self.phi_deg!r}")

    def direction(self) -> np.ndarray:
        theta = np.deg2rad(self.theta_deg)
        phi = np.deg2rad(self.phi_deg)
        return np.array(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
        )


@dataclass(frozen=True)
class HyperfineTensor:
    """Principal values (MHz) of a diagonal hyperfine coupling tensor."""

    axx: float
    ayy: float
    azz: float

    def as_matrix(self) -> np.ndarray:
        return np.diag([self.axx, self.ayy, self.azz]).astype(float)


# Basis index of |m_S, m_I> in the 9-dim product basis.
def basis_index(ms: int, mi: int) -> int:
    return 3 * (1 - ms) + (1 - mi)


NV_N14_LABELS = product_basis_labels(0)


def _field_terms(constants: PhysicalConstants, direction) -> tuple:
    """The terms of H fixed by the constants and a unit field direction, for :func:`_hamiltonian`."""
    m = nv_spin_model()
    nx, ny, nz = direction
    c = constants
    return (
        c.gamma_e, c.gamma_n14,
        c.d_g * m.sz2, nx * m.sx + ny * m.sy + nz * m.sz,
        c.q * m.iz2, nx * m.ix + ny * m.iy + nz * m.iz,
        c.a_perp * m.flip_flop, c.a_par * m.szi,
    )


def _hamiltonian(terms: tuple, b) -> np.ndarray:
    """H at field magnitude ``b`` (mT) from :func:`_field_terms`; a ``b`` of shape (n, 1, 1) stacks."""
    gamma_e, gamma_n14, zfs, s_n, quad, i_n, flip_flop, par = terms
    return zfs + gamma_e * b * s_n + quad - gamma_n14 * b * i_n + flip_flop + par


def build_nv_hamiltonian(
    constants: PhysicalConstants, field_cfg: FieldConfig
) -> np.ndarray:
    """Assemble the full 9x9 NV + 14N Hamiltonian for an arbitrary field.

    H is a weighted sum of the operators of ``nv_spin_model()``, built once
    per process, so a call only scales and adds 9x9 arrays.  The terms keep
    the order and grouping of an explicit ``embed``/``kron`` build, which
    gives the same bits.  ``transitions.FieldStages`` and :func:`level_sweep`
    build their (n, 9, 9) stacks from the same B-free ``_field_terms``.
    """
    return _hamiltonian(_field_terms(constants, field_cfg.direction()), field_cfg.b)


def truncated_hamiltonian(constants: PhysicalConstants, b: float) -> np.ndarray:
    """6x6 axial model over m_S in {0,-1}, nitrogen Zeeman dropped.

    This is the numerical twin of the closed forms: it keeps exactly the
    terms they contain, so the two agree to machine precision. Basis
    order is |m_S, m_I> = |0,+1>, |0,0>, |0,-1>, |-1,+1>, |-1,0>, |-1,-1>.
    """
    no_nz = replace(constants, gamma_n14=0.0)
    h9 = build_nv_hamiltonian(no_nz, FieldConfig(b=b))
    return h9[3:, 3:]


def gslac_field(constants: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """Field (mT) where the electron Zeeman shift cancels the zero-field splitting (gamma_e != 0)."""
    if constants.gamma_e == 0.0:
        raise ValidationError(f"gamma_e must be nonzero, got {constants.gamma_e!r}")
    return constants.d_g / constants.gamma_e


def _check_kappa2_sign(kappa2_sign: str) -> None:
    if kappa2_sign not in KAPPA2_SIGNS:
        raise ValidationError(f"kappa2_sign must be one of {KAPPA2_SIGNS}, got {kappa2_sign!r}")


def analytic_energies(
    constants: PhysicalConstants, b, kappa2_sign: str = "minus"
) -> np.ndarray:
    """Closed-form axial energies, indexed 1..9 (see module docstring).

    ``b`` may be a scalar or an array; the level index is the last axis.
    """
    _check_kappa2_sign(kappa2_sign)
    c = constants
    b = np.asarray(b, dtype=float)
    ze = c.gamma_e * b
    delta1 = c.d_g + c.q - c.a_par - ze
    root1 = np.hypot(2.0 * c.a_perp, delta1)
    trace2 = c.d_g + c.q - ze
    gap2 = (c.d_g - c.q - ze) if kappa2_sign == "minus" else trace2
    root2 = np.hypot(2.0 * c.a_perp, gap2)
    ones = np.ones_like(b)
    levels = [
        c.q * ones,
        (c.d_g + c.q + c.a_par) * ones - ze,
        0.5 * (delta1 - root1),
        0.5 * (delta1 + root1),
        0.5 * (trace2 - root2),
        0.5 * (trace2 + root2),
        (c.d_g + c.q + c.a_par) * ones + ze,
        (c.d_g + c.q - c.a_par) * ones + ze,
        c.d_g * ones + ze,
    ]
    return np.stack(levels, axis=-1)


def kappa_parameters(
    constants: PhysicalConstants, b, kappa2_sign: str = "minus"
) -> tuple:
    """Signed mixing parameters (kappa1, kappa2) of the two mixed pairs."""
    _check_kappa2_sign(kappa2_sign)
    c = constants
    b = np.asarray(b, dtype=float)
    ze = c.gamma_e * b
    kappa1 = (c.d_g + c.q - c.a_par - ze) / (2.0 * c.a_perp)
    num2 = (c.d_g - c.q - ze) if kappa2_sign == "minus" else (c.d_g + c.q - ze)
    return kappa1, num2 / (2.0 * c.a_perp)


def _pair_vectors(kappa_abs: float, sign_a: float) -> tuple:
    """Normalized (lower, upper) eigenvectors of a mixed two-state block.

    Components refer to the block basis (state with the larger diagonal,
    state with the smaller diagonal); ``kappa_abs`` is the diagonal gap
    over 2|a| and ``sign_a`` the sign of the off-diagonal coupling.
    kappa +- sqrt(kappa^2 + 1) is evaluated in the cancellation-free
    branch so large |kappa| keeps full precision.
    """
    k = kappa_abs
    root = np.sqrt(k * k + 1.0)
    t_plus = k + root if k >= 0 else 1.0 / (root - k)
    t_minus = k - root if k <= 0 else -1.0 / (k + root)
    low = np.array([1.0, -sign_a * t_plus])
    up = np.array([1.0, -sign_a * t_minus])
    return low / np.linalg.norm(low), up / np.linalg.norm(up)


def analytic_eigenstates(
    constants: PhysicalConstants, b: float, kappa2_sign: str = "minus"
) -> np.ndarray:
    """Closed-form axial eigenvectors; column k is level k+1 in the 9-dim basis.

    Each column is normalized; pairing with :func:`analytic_energies`
    holds exactly for the ``"minus"`` convention.
    """
    _check_kappa2_sign(kappa2_sign)
    c = constants
    if c.a_perp == 0.0:
        raise ValidationError("transverse hyperfine coupling must be nonzero")
    sign_a = 1.0 if c.a_perp > 0 else -1.0
    kt1, kt2 = sign_a * np.array(kappa_parameters(c, float(b), kappa2_sign))

    v = np.zeros((9, 9), dtype=complex)
    v[basis_index(0, 1), 0] = 1.0       # level 1
    v[basis_index(-1, -1), 1] = 1.0     # level 2
    low1, up1 = _pair_vectors(kt1, sign_a)
    for col, vec in ((2, low1), (3, up1)):  # levels 3, 4
        v[basis_index(-1, 1), col] = vec[0]
        v[basis_index(0, 0), col] = vec[1]
    low2, up2 = _pair_vectors(kt2, sign_a)
    for col, vec in ((4, low2), (5, up2)):  # levels 5, 6
        v[basis_index(-1, 0), col] = vec[0]
        v[basis_index(0, -1), col] = vec[1]
    v[basis_index(1, 1), 6] = 1.0       # level 7
    v[basis_index(1, -1), 7] = 1.0      # level 8
    v[basis_index(1, 0), 8] = 1.0       # level 9
    return v


def truncated_eigensystem(constants: PhysicalConstants, b: float) -> EigenSystem:
    """Eigen-system of the truncated axial model lifted to the 9-dim basis.

    The three m_S = +1 product states are appended unmixed with their
    diagonal energies, giving a full 9-level system in which the
    five unmixed levels are exact basis states.
    """
    h6 = truncated_hamiltonian(constants, b)
    energies6, vectors6 = np.linalg.eigh(h6)
    c = constants
    ze = c.gamma_e * b
    plus_energies = np.array(
        [c.d_g + c.q + c.a_par + ze, c.d_g + ze, c.d_g + c.q - c.a_par + ze]
    )
    energies = np.concatenate([energies6, plus_energies])
    vectors = np.zeros((9, 9), dtype=complex)
    vectors[3:, :6] = vectors6
    for col, (ms, mi) in enumerate(((1, 1), (1, 0), (1, -1)), start=6):
        vectors[basis_index(ms, mi), col] = 1.0
    order = np.argsort(energies, kind="stable")
    system = EigenSystem(energies=energies[order], vectors=vectors[:, order])
    return label_states(system, NV_N14_LABELS)


def level_sweep(
    constants: PhysicalConstants,
    fields,
    theta_deg: float = 0.0,
    phi_deg: float = 0.0,
) -> list:
    """Eigen-systems over a field range with labels tracked continuously.

    Each field is checked as a ``FieldConfig``; the sweep is then solved as
    one (n, 9, 9) stack from ``_field_terms`` and labeled by basis
    overlap.  Each point after the first then inherits labels from its
    predecessor by ``spin_core.assign_labels`` on the overlaps of the two
    fields' eigenvectors, so a label follows one adiabatic branch through
    anticrossings.
    """
    fields = [float(b) for b in fields]
    if not fields:
        raise ValidationError("field range must be nonempty")
    direction = [FieldConfig(b, theta_deg, phi_deg) for b in fields][0].direction()
    hs = _hamiltonian(_field_terms(constants, direction), np.array(fields)[:, None, None])
    systems = eigensolve_stack(hs, NV_N14_LABELS)
    for k in range(1, len(systems)):
        prev, v = systems[k - 1], systems[k].vectors
        labels = assign_labels((prev.vectors.conj().T @ v)[None], prev.labels)[0]
        systems[k] = replace(systems[k], labels=labels)
    return systems
