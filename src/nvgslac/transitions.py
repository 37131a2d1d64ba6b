"""Magnetic-dipole transition strengths and population-weighted intensities.

The microwave coupling is (S+ + S-) on the electron spin, folded into the
eigenbasis; the overall Rabi-frequency prefactor is set to 1 so all
intensities are relative.  Populations follow a single spin-temperature
parameter beta over the nitrogen projections: :func:`populations` gives
the weights of m_I = +1, 0, -1,

    P(m_I) proportional to exp(-m_I beta)  ->  (1, e^beta, e^{2 beta}) / sum,

which sum to 1.  A level's population weight is the nitrogen weight of
its nominal m_I, times the electron-manifold share (m_S = +1 states are
empty; the m_S = 0 / -1 split is ``manifold_split``), times a uniform
factor over any carbon-13 projections.  A transition between levels i
and j is weighted by the population difference: its intensity is
p_ij |w_i - w_j|, so it does not jump when the two levels cross.  Left
out: ODMR contrast also scales with the change in m_S = 0 (bright-state)
character between the two levels.

A table is built in two stages.  The field stage, :func:`field_stage`,
runs once per eigen-system and band: it folds the dipole operator into
the eigenbasis and keeps, over all (i < j) level pairs, the frequencies,
the transition probabilities and the band mask, and the m_S / m_I index
of every level, read from its label.  :class:`FieldStages` runs it on
every NV + 14N field: it builds H in (n, 9, 9) stacks from B-free terms
made once, solves and labels each stack as ``spin_core`` describes and
folds it with one v^H D v; a sweep is cut into stacks of at most
``SOLVE_CHUNK`` fields, a fit solves a stack of one.  The population stage,
:func:`population_stage`, runs once per (beta, manifold split): it
weights the pairs, applies the intensity floor over all pairs and then
the band mask.  A fit at a fixed field repeats only the second stage.
For the 9-dim space the dipole operator and the (i < j) level pairs are
the cached read-only arrays of ``nv_spin_model()``; carbon-13 spaces build
them per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .hamiltonian import MAX_FIELD_MT, NV_N14_LABELS, FieldConfig, _field_terms, _hamiltonian
from .spin_core import EigenSystem, eigensolve_stack, nv_spin_model

FLOOR_REL_DEFAULT = 1e-6
# Most fields one (n, 9, 9) stack holds: about 1.3 MB per complex array.
SOLVE_CHUNK = 1024
MODES = ("hi", "lo")

_M_INDEX = {1: 0, 0: 1, -1: 2}  # share and populations are ordered m = +1, 0, -1
_ENTRY_FIELDS = ("i", "j", "freq_mhz", "probability", "intensity")  # one value per transition


def populations(beta: float) -> np.ndarray:
    """Normalized spin-temperature weights of the nitrogen projections, ordered m_I = +1, 0, -1."""
    if not math.isfinite(beta):
        raise ValidationError(f"spin temperature must be finite, got {beta!r}")
    if abs(beta) > 300.0:
        raise ValidationError(f"spin temperature {beta!r} out of range (|beta| <= 300)")
    raw = np.exp(np.array([0.0, beta, 2.0 * beta]))
    return raw / raw.sum()


@dataclass(frozen=True)
class TransitionRow:
    i: int
    j: int
    freq_mhz: float
    probability: float
    intensity: float
    label_from: tuple
    label_to: tuple


@dataclass(frozen=True)
class TransitionTable:
    """Transitions above the intensity floor as parallel arrays, plus the level context.

    Entry k connects level ``i[k]`` (the lower one) to level ``j[k]``,
    with ``i[k] < j[k]``, at ``freq_mhz[k]``, with transition probability
    ``probability[k]`` and ``intensity[k]``, the probability weighted by
    the population difference of the two levels.  ``energies`` and
    ``labels`` describe all levels of the eigen-system the entries were
    computed from, so absent transitions can still be located.
    """

    i: np.ndarray
    j: np.ndarray
    freq_mhz: np.ndarray
    probability: np.ndarray
    intensity: np.ndarray
    energies: np.ndarray
    labels: tuple
    b_mt: float | None = None

    def __len__(self) -> int:
        return self.i.size

    @property
    def rows(self) -> tuple:
        """The entries as :class:`TransitionRow` objects, in table order."""
        columns = (getattr(self, name).tolist() for name in _ENTRY_FIELDS)
        return tuple(
            TransitionRow(i, j, f, p, t, self.labels[i], self.labels[j])
            for i, j, f, p, t in zip(*columns)
        )


def _fold_dipole(vectors: np.ndarray, labels) -> np.ndarray:
    """Electron (S+ + S-) operator folded into an eigenbasis, or a stack (n, d, d) of them: v^H D v."""
    if labels is None or not isinstance(labels[0], tuple):
        raise ValidationError("eigen-system must carry product-basis labels")
    n_c13 = len(labels[0]) - 2
    if 9 * 2 ** n_c13 != vectors.shape[-1]:
        raise ValidationError("label structure does not match system dimension")
    dip = nv_spin_model().dipole
    if n_c13:  # identity on the carbon-13 slots; not cached, it grows as 4**N
        dip = np.kron(dip, np.eye(2 ** n_c13))
    return vectors.conj().swapaxes(-1, -2) @ dip @ vectors


def dipole_elements(system: EigenSystem) -> np.ndarray:
    """Electron (S+ + S-) operator in the eigenbasis (prefactor 1)."""
    return _fold_dipole(system.vectors, system.labels)


def transition_probabilities(m: np.ndarray) -> np.ndarray:
    """Elementwise p[i, j] = m[i, j] * m[j, i] (|m[i, j]|^2 for Hermitian m), or per stacked m."""
    m = np.asarray(m)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValidationError("dipole element matrix must be square")
    return (m * m.swapaxes(-1, -2)).real


def _weights(s_index, i_index, n_c13: int, beta: float, manifold_split: float) -> np.ndarray:
    """The weighting rule: m_S share times nitrogen population times the carbon-13 factor."""
    if not 0.0 <= manifold_split <= 1.0:
        raise ValidationError(f"manifold_split must lie in [0, 1], got {manifold_split!r}")
    pops = populations(beta)
    share = np.array([0.0, manifold_split, 1.0 - manifold_split])
    return share[s_index] * pops[i_index] * 0.5 ** n_c13


@dataclass(frozen=True)
class FieldStage:
    """The population-independent half of a transition table.

    Over all (i < j) level pairs of ``system``: the levels ``i`` and
    ``j``, ``freq_mhz``, ``probability`` and ``band``, true where the
    frequency is positive and the pair lies in the band the stage was
    made for (any band for None).  Per level: the m_S / m_I index
    (1 - m_S, 1 - m_I) read from its label, ``s_index`` / ``i_index``.
    """

    system: EigenSystem
    i: np.ndarray
    j: np.ndarray
    freq_mhz: np.ndarray
    probability: np.ndarray
    band: np.ndarray
    s_index: np.ndarray
    i_index: np.ndarray


def _level_index(labels, iu, ju, mode: str | None) -> tuple:
    """(1 - m_S, 1 - m_I) of each level, read from its label, and the pairs ``mode`` admits."""
    try:  # from the first two entries of each label
        s_index, i_index = np.array([(_M_INDEX[m[0]], _M_INDEX[m[1]]) for m in labels]).T
    except KeyError as exc:
        raise ValidationError(f"label projection {exc.args[0]!r} is not +1, 0 or -1") from None
    if mode is None:
        return s_index, i_index, np.full(iu.size, True)
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    # hi: lower level in m_S {0, -1}, upper in m_S = +1; lo: both in {0, -1}
    m_s = 1 - s_index
    return s_index, i_index, (m_s[ju] == 1 if mode == "hi" else m_s[ju] != 1) & (m_s[iu] != 1)


def _field_stages(systems, mode: str | None, p=None, indexed=None) -> list:
    """Field stages of eigen-systems of one dimension, from their probabilities p[n, i, j].

    Without ``p`` the dipole is folded into the whole stack as one v^H D v.
    The levels are indexed once per (label order, mode), in ``indexed`` if given.
    """
    if p is None:
        vectors = np.array([s.vectors for s in systems])
        p = transition_probabilities(_fold_dipole(vectors, systems[0].labels))
    dim = systems[0].dim
    if p.shape != (len(systems), dim, dim):
        raise ValidationError("probability matrix does not match the eigen-system dimension")
    iu, ju = nv_spin_model().triu if dim == 9 else np.triu_indices(dim, k=1)
    indexed = {} if indexed is None else indexed
    stages = []
    for system, pk in zip(systems, p):
        key = (system.labels, mode)
        if key not in indexed:
            indexed[key] = _level_index(system.labels, iu, ju, mode)
        s_index, i_index, in_band = indexed[key]
        freq = system.energies[ju] - system.energies[iu]  # ascending energies: j above i
        band = (freq > 0.0) & in_band
        stages.append(FieldStage(system, iu, ju, freq, pk[iu, ju], band, s_index, i_index))
    return stages


def field_stage(system: EigenSystem, mode: str | None = None) -> FieldStage:
    """Fold the dipole operator and index the level pairs once per eigen-system and band."""
    p = transition_probabilities(dipole_elements(system))
    return _field_stages([system], mode, p[None])[0]


class FieldStages:
    """The field stages of one field direction and band.

    Called on a sweep, it checks every field, the first field and the
    angle first, then yields one stage per field from stacks of at most
    ``SOLVE_CHUNK`` fields.  :meth:`at` checks and solves one field.  Both
    build H from the B-free ``terms``, made on first use, and reach
    ``eigh`` through :meth:`_stages`.  Each label order's level index is
    made once per object.
    """

    def __init__(self, constants, theta_deg: float = 0.0, mode: str | None = None):
        self.constants, self.theta_deg, self.mode = constants, theta_deg, mode
        self.indexed = {}

    @cached_property
    def terms(self) -> tuple:
        return _field_terms(self.constants, FieldConfig(0.0, self.theta_deg).direction())

    def _stages(self, hs: np.ndarray) -> list:
        """The stages of a stack (n, 9, 9) of H built from ``terms``."""
        return _field_stages(eigensolve_stack(hs, NV_N14_LABELS), self.mode, indexed=self.indexed)

    def __call__(self, fields):
        b = np.asarray(fields, dtype=float)
        FieldConfig(float(b[0]) if b.size else 0.0, self.theta_deg)  # the first field, then the angle
        bad = np.flatnonzero(~((b >= 0.0) & (b <= MAX_FIELD_MT)))
        if bad.size:
            FieldConfig(float(b[bad[0]]), self.theta_deg)  # names the first bad field
        chunks = (b[k : k + SOLVE_CHUNK, None, None] for k in range(0, b.size, SOLVE_CHUNK))
        return (s for chunk in chunks for s in self._stages(_hamiltonian(self.terms, chunk)))

    def at(self, b: float) -> FieldStage:
        if not 0.0 <= b <= MAX_FIELD_MT:  # FieldConfig's rule, without building one per field
            FieldConfig(b, self.theta_deg)  # names the bad field
        return self._stages(_hamiltonian(self.terms, b)[None])[0]


def population_stage(
    stage: FieldStage,
    beta: float,
    manifold_split: float = 1.0,
    b_mt: float | None = None,
    floor_rel: float = FLOOR_REL_DEFAULT,
) -> TransitionTable:
    """Weight a field stage's pairs and keep those above the floor and in its band.

    A pair's intensity is its probability times the population
    difference of its two levels.  The floor is ``floor_rel`` times the
    largest intensity over all pairs, in or out of the band.
    """
    system = stage.system
    n_c13 = len(system.labels[0]) - 2
    weights = _weights(stage.s_index, stage.i_index, n_c13, beta, manifold_split)
    intens = stage.probability * np.abs(weights[stage.i] - weights[stage.j])
    keep = (intens > floor_rel * intens.max(initial=0.0)) & stage.band
    return TransitionTable(
        i=stage.i[keep],
        j=stage.j[keep],
        freq_mhz=stage.freq_mhz[keep],
        probability=stage.probability[keep],
        intensity=intens[keep],
        energies=system.energies.copy(),
        labels=system.labels,
        b_mt=b_mt,
    )


def intensity_matrix(
    p: np.ndarray,
    system: EigenSystem,
    beta: float,
    manifold_split: float = 1.0,
    floor_rel: float = FLOOR_REL_DEFAULT,
    b_mt: float | None = None,
) -> TransitionTable:
    """Population-weighted table over all bands, from a probability matrix ``p``.

    A pair of levels is kept when its intensity (probability times the
    population difference) exceeds ``floor_rel`` times the maximum intensity.
    """
    stage = _field_stages([system], None, np.asarray(p)[None])[0]
    return population_stage(stage, beta, manifold_split, b_mt=b_mt, floor_rel=floor_rel)


def transition_table(
    system: EigenSystem,
    beta: float,
    manifold_split: float = 1.0,
    mode: str | None = None,
    b_mt: float | None = None,
) -> TransitionTable:
    """Full pipeline from an eigen-system to a (possibly band-limited) table."""
    return population_stage(field_stage(system, mode), beta, manifold_split, b_mt=b_mt)
