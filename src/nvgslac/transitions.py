"""Magnetic-dipole transition strengths and population-weighted intensities.

The microwave coupling is (S+ + S-) on the electron spin, folded into the
eigenbasis; the overall Rabi-frequency prefactor is set to 1 so all
intensities are relative.  Populations follow a single spin-temperature
parameter beta over the nitrogen projections,

    P(m_I) raw = exp(-m_I beta) / exp(-beta)  ->  (1, e^beta, e^{2 beta}),

normalized before use.  A transition is weighted by the population of its
lower-energy state: the normalized nitrogen weight of that state's nominal
m_I, times the electron-manifold share (m_S = +1 states are empty; the
m_S = 0 / -1 split is ``manifold_split``), times a uniform factor over any
carbon-13 projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .spin_core import EigenSystem, default_basis_labels, embed, spin_matrices

FLOOR_REL_DEFAULT = 1e-6
POPULATION_MODES = ("nominal", "composition")
MODES = ("hi", "lo")

_MI_INDEX = {1: 0, 0: 1, -1: 2}  # populations are ordered m_I = +1, 0, -1
_ENTRY_FIELDS = ("i", "j", "freq_mhz", "probability", "intensity")  # one value per transition


@dataclass(frozen=True)
class Populations:
    """Raw and normalized nitrogen sublevel weights, ordered m_I = +1, 0, -1."""

    raw: np.ndarray
    normalized: np.ndarray


def populations(beta: float) -> Populations:
    """Spin-temperature weights over the nitrogen projections."""
    if not math.isfinite(beta):
        raise ValidationError(f"spin temperature must be finite, got {beta!r}")
    if abs(beta) > 300.0:
        raise ValidationError(f"spin temperature {beta!r} out of range (|beta| <= 300)")
    raw = np.exp(np.array([0.0, beta, 2.0 * beta]))
    return Populations(raw=raw, normalized=raw / raw.sum())


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

    Entry k connects level ``i[k]`` (the lower one, which supplies the
    population weight) to level ``j[k]``, with ``i[k] < j[k]``, at
    ``freq_mhz[k]``, with transition probability ``probability[k]`` and
    population-weighted ``intensity[k]``.  ``energies`` and ``labels``
    describe all levels of the eigen-system the entries were computed
    from, so absent transitions can still be located.
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


def _subsystem_dims(system: EigenSystem) -> tuple:
    if system.labels is None or not isinstance(system.labels[0], tuple):
        raise ValidationError("eigen-system must carry product-basis labels")
    n_c13 = len(system.labels[0]) - 2
    dims = (3, 3) + (2,) * n_c13
    if int(np.prod(dims)) != system.dim:
        raise ValidationError("label structure does not match system dimension")
    return dims


def dipole_elements(system: EigenSystem) -> np.ndarray:
    """Electron (S+ + S-) operator in the eigenbasis (prefactor 1)."""
    dims = _subsystem_dims(system)
    e = spin_matrices(1.0)
    dip = embed(e.s_plus + e.s_minus, 0, dims)
    return system.vectors.conj().T @ dip @ system.vectors


def transition_probabilities(m: np.ndarray) -> np.ndarray:
    """Elementwise p[i, j] = m[i, j] * m[j, i]; equals |m[i, j]|^2 for Hermitian m."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("dipole element matrix must be square")
    return (m * m.T).real


def state_weights(
    system: EigenSystem,
    beta: float,
    manifold_split: float = 1.0,
    population_mode: str = "nominal",
) -> np.ndarray:
    """Population weight of each eigenstate when acting as the lower state.

    ``manifold_split`` is the m_S = 0 share of the lower-manifold
    population (the remainder sits in m_S = -1; m_S = +1 is empty).
    ``"composition"`` mode distributes weight over a state's basis
    content instead of its single nominal label.
    """
    if population_mode not in POPULATION_MODES:
        raise ValidationError(
            f"population_mode must be one of {POPULATION_MODES}, got {population_mode!r}"
        )
    if not 0.0 <= manifold_split <= 1.0:
        raise ValidationError(f"manifold_split must lie in [0, 1], got {manifold_split!r}")
    pops = populations(beta).normalized
    share = {1: 0.0, 0: manifold_split, -1: 1.0 - manifold_split}
    n_c13 = len(system.labels[0]) - 2
    c13_factor = 0.5 ** n_c13

    def basis_weight(label):
        return share[label[0]] * pops[_MI_INDEX[label[1]]] * c13_factor

    if population_mode == "nominal":
        return np.array([basis_weight(label) for label in system.labels])
    basis_labels = default_basis_labels(system.dim)
    basis_w = np.array([basis_weight(label) for label in basis_labels])
    return (np.abs(system.vectors) ** 2).T @ basis_w


def intensity_matrix(
    p: np.ndarray,
    system: EigenSystem,
    beta: float,
    manifold_split: float = 1.0,
    floor_rel: float = FLOOR_REL_DEFAULT,
    population_mode: str = "nominal",
    b_mt: float | None = None,
) -> TransitionTable:
    """Population-weighted transition table.

    A pair of levels is kept when its intensity exceeds ``floor_rel``
    times the maximum intensity; the lower-energy level of each pair,
    ``i``, supplies the population weight.
    """
    p = np.asarray(p)
    if p.shape != (system.dim, system.dim):
        raise ValidationError("probability matrix does not match the eigen-system dimension")
    weights = state_weights(system, beta, manifold_split, population_mode)
    energies = system.energies
    iu, ju = np.triu_indices(system.dim, k=1)
    freq = energies[ju] - energies[iu]  # ascending energies: j above i
    prob = p[iu, ju]
    intens = prob * weights[iu]
    keep = (intens > floor_rel * intens.max(initial=0.0)) & (freq > 0.0)
    return TransitionTable(
        i=iu[keep],
        j=ju[keep],
        freq_mhz=freq[keep],
        probability=prob[keep],
        intensity=intens[keep],
        energies=energies.copy(),
        labels=system.labels,
        b_mt=b_mt,
    )


def select_rows(table: TransitionTable, mode: str | None) -> TransitionTable:
    """Restrict a table to one microwave band.

    ``"hi"`` keeps transitions from a nominal m_S in {0, -1} level to a
    nominal m_S = +1 level; ``"lo"`` keeps those with both levels in the
    m_S in {0, -1} manifold.
    ``None`` keeps everything.
    """
    if mode is None:
        return table
    if mode not in MODES:
        raise ValidationError(f"mode must be one of {MODES}, got {mode!r}")
    m_s = np.array([label[0] for label in table.labels])
    m_from, m_to = m_s[table.i], m_s[table.j]
    keep = (m_to == 1 if mode == "hi" else m_to != 1) & (m_from != 1)
    return replace(table, **{name: getattr(table, name)[keep] for name in _ENTRY_FIELDS})


def transition_table(
    system: EigenSystem,
    beta: float,
    manifold_split: float = 1.0,
    floor_rel: float = FLOOR_REL_DEFAULT,
    population_mode: str = "nominal",
    mode: str | None = None,
    b_mt: float | None = None,
) -> TransitionTable:
    """Full pipeline from an eigen-system to a (possibly band-limited) table."""
    m = dipole_elements(system)
    p = transition_probabilities(m)
    table = intensity_matrix(
        p,
        system,
        beta,
        manifold_split=manifold_split,
        floor_rel=floor_rel,
        population_mode=population_mode,
        b_mt=b_mt,
    )
    return select_rows(table, mode)
