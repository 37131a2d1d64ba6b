"""Spin operator algebra and dense Hermitian eigensolving.

Conventions used throughout the package:

* single-spin basis states are ordered m = +s ... -s,
* composite systems are Kronecker products in the fixed subsystem order
  (electron, host nitrogen, carbon-13 site 1, carbon-13 site 2, ...),
* energies and frequencies are in MHz, magnetic fields in mT.

Eigensolving is stacked (:func:`eigensolve` is the n = 1 case).  One
routine, :func:`assign_labels`, decides every label: each eigenvector takes
the label of its largest squared overlap, an argmax over the stack; where
that argmax is not a permutation (at level crossings) a greedy bijection
decides, which equals the argmax wherever it is one.  Its three callers are
:func:`eigensolve_stack` (basis overlaps of a solved stack),
:func:`label_states` (one given system) and ``hamiltonian.level_sweep``
(overlaps with the previous field's eigenvectors and labels).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

HERMITICITY_RTOL = 1e-9


@dataclass(frozen=True)
class SpinMatrices:
    """Angular-momentum matrices of one spin in the |m> basis, hbar = 1."""

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    s_plus: np.ndarray
    s_minus: np.ndarray

    @property
    def dim(self) -> int:
        return self.sz.shape[0]


def spin_matrices(s: float) -> SpinMatrices:
    """Standard spin matrices for s = 1/2 or s = 1.

    The raising operator has matrix elements
    <m+1| S+ |m> = sqrt(s(s+1) - m(m+1)); sx = (S+ + S-)/2 and
    sy = (S+ - S-)/2i follow from it.
    """
    if s not in (0.5, 1.0):
        raise ValidationError(f"unsupported spin quantum number {s!r}; expected 1/2 or 1")
    dim = int(round(2 * s)) + 1
    m = s - np.arange(dim, dtype=float)  # +s ... -s
    sz = np.diag(m).astype(complex)
    s_plus = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        lower = m[k + 1]
        s_plus[k, k + 1] = np.sqrt(s * (s + 1) - lower * (lower + 1))
    s_minus = s_plus.conj().T
    sx = (s_plus + s_minus) / 2
    sy = (s_plus - s_minus) / 2j
    return SpinMatrices(sx=sx, sy=sy, sz=sz, s_plus=s_plus, s_minus=s_minus)


def embed(op: np.ndarray, slot: int, dims) -> np.ndarray:
    """Lift a single-subsystem operator into the product space.

    Returns identity (x) ... (x) op (x) ... (x) identity with ``op`` in
    position ``slot`` of the fixed subsystem order.
    """
    op = np.asarray(op)
    dims = tuple(int(d) for d in dims)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValidationError("operator must be a square matrix")
    if not 0 <= slot < len(dims):
        raise ValidationError(f"slot {slot} out of range for {len(dims)} subsystems")
    if dims[slot] != op.shape[0]:
        raise ValidationError(
            f"operator dimension {op.shape[0]} does not match dims[{slot}] = {dims[slot]}"
        )
    out = np.eye(1, dtype=complex)
    for k, d in enumerate(dims):
        out = np.kron(out, op if k == slot else np.eye(d))
    return out


def require_hermitian(h: np.ndarray) -> None:
    """Raise unless h, or every matrix of a stack (n, d, d), is Hermitian to HERMITICITY_RTOL."""
    h = np.asarray(h)
    anti = h - h.conj().swapaxes(-1, -2)
    if not anti.any():  # exactly Hermitian, as every build in the package; nan, inf give nonzero
        return
    anti = np.linalg.norm(anti, axis=(-2, -1))
    if not np.all(anti <= HERMITICITY_RTOL * np.linalg.norm(h, axis=(-2, -1))):
        raise ValidationError("matrix is not Hermitian within tolerance")


def product_basis_labels(n_c13: int = 0) -> tuple:
    """Labels of the product basis in Kronecker order.

    Each label is a tuple (m_S, m_I, m_J1, m_J2, ...) with m_S, m_I in
    {+1, 0, -1} and each carbon projection in {+1/2, -1/2}.
    """
    spins = [(1, 0, -1), (1, 0, -1)] + [(0.5, -0.5)] * int(n_c13)
    return tuple(itertools.product(*spins))


def default_basis_labels(dim: int) -> tuple:
    """Product labels when dim = 9 * 2**n, plain indices otherwise."""
    n = 0
    d = dim
    while d > 9 and d % 2 == 0:
        d //= 2
        n += 1
    if d == 9:
        return product_basis_labels(n)
    return tuple(range(dim))


@dataclass(frozen=True)
class SpinModel:
    """Read-only operators and index arrays of the 9-dim NV + 14N space.

    The embedded electron (``sx, sy, sz``) and nitrogen (``ix, iy, iz``)
    spins, the products ``sz2 = sz @ sz``, ``iz2 = iz @ iz``,
    ``flip_flop = sx @ ix + sy @ iy`` and ``szi = sz @ iz``, the electron
    (S+ + S-) ``dipole`` and the ``triu`` (i < j) level pairs.  The electron
    operators also feed the carbon-13 build; carbon-13 spaces are not
    cached: their operators grow as 2**N.
    """

    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray
    ix: np.ndarray
    iy: np.ndarray
    iz: np.ndarray
    sz2: np.ndarray
    iz2: np.ndarray
    flip_flop: np.ndarray
    szi: np.ndarray
    dipole: np.ndarray
    triu: np.ndarray


@functools.cache
def nv_spin_model() -> SpinModel:
    """The NV + 14N :class:`SpinModel`, built on first use and then shared."""
    dims = (3, 3)
    e = spin_matrices(1.0)
    sx, sy, sz = (embed(op, 0, dims) for op in (e.sx, e.sy, e.sz))
    ix, iy, iz = (embed(op, 1, dims) for op in (e.sx, e.sy, e.sz))
    model = SpinModel(
        sx=sx, sy=sy, sz=sz, ix=ix, iy=iy, iz=iz,
        sz2=sz @ sz, iz2=iz @ iz, flip_flop=sx @ ix + sy @ iy, szi=sz @ iz,
        dipole=embed(e.s_plus + e.s_minus, 0, dims),
        triu=np.array(np.triu_indices(9, k=1)),
    )
    for array in vars(model).values():
        array.setflags(write=False)
    return model


def format_label(label) -> str:
    """Render a basis label as e.g. ``|0,+1>`` or ``|-1,0;+1/2>``."""
    if not isinstance(label, tuple):
        return str(label)
    parts = []
    for m in label:
        if float(m).is_integer():
            parts.append(f"{int(m):+d}" if m else "0")
        else:
            parts.append("+1/2" if m > 0 else "-1/2")
    head = ",".join(parts[:2])
    tail = ",".join(parts[2:])
    return f"|{head};{tail}>" if tail else f"|{head}>"


@dataclass(frozen=True)
class EigenSystem:
    """Sorted eigenvalues, eigenvectors and nominal basis labels.

    ``energies`` ascend; column k of ``vectors`` belongs to energies[k];
    ``labels[k]`` is the product-basis label with maximum squared overlap
    (assigned bijectively).
    """

    energies: np.ndarray
    vectors: np.ndarray
    labels: tuple | None = None

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]


def _greedy_bijection(weight: np.ndarray) -> np.ndarray:
    """Assign rows to columns greedily by descending weight.

    Ties are broken by lower column index, then lower row index. Returns
    ``assign`` with assign[row] = column.
    """
    n_rows, n_cols = weight.shape
    # A stable sort of the column-major weights visits ties by column, then row.
    order = np.argsort(-weight.T.ravel(), kind="stable")
    assign = [-1] * n_rows
    col_used = [False] * n_cols
    remaining = min(n_rows, n_cols)
    for flat in map(int, order):  # lazily: the loop usually ends long before d**2 entries
        c, r = divmod(flat, n_rows)
        if assign[r] >= 0 or col_used[c]:
            continue
        assign[r] = c
        col_used[c] = True
        remaining -= 1
        if remaining == 0:
            break
    return np.array(assign)


def assign_labels(vectors: np.ndarray, labels) -> list:
    """The labels of the columns of each matrix of a stack (n, d, d), one tuple per matrix.

    Column k of a matrix takes the label of the row with its largest
    squared entry, lowest row first; where those rows are not a
    permutation, the greedy bijection visits the squared entries in
    descending order and uses a label at most once.  When the argmax is a
    permutation the greedy bijection picks exactly those entries.
    """
    labels = tuple(labels)
    if len(labels) != vectors.shape[-2]:
        raise ValidationError("number of basis labels must equal the system dimension")
    overlap = np.abs(vectors) ** 2  # overlap[n, b, k]
    assigned = []
    for n, row in enumerate(overlap.argmax(axis=-2).tolist()):
        if len(set(row)) < len(labels):  # near a level crossing
            row = _greedy_bijection(overlap[n].T).tolist()
        assigned.append(tuple(map(labels.__getitem__, row)))
    return assigned


def label_states(system: EigenSystem, basis_labels) -> EigenSystem:
    """Attach to each eigenvector the basis label of maximum squared overlap, bijectively."""
    return replace(system, labels=assign_labels(system.vectors[None], basis_labels)[0])


def eigensolve_stack(hs: np.ndarray, basis_labels=None) -> list:
    """Diagonalize and label a stack (n, d, d) of Hermitian matrices: one check, one ``eigh``.

    Each matrix gets the bits of its own ``eigh`` and the labels of
    :func:`assign_labels`.
    """
    hs = np.asarray(hs, dtype=complex)
    require_hermitian(hs)
    if basis_labels is None:
        basis_labels = default_basis_labels(hs.shape[-1])
    energies, vectors = np.linalg.eigh(hs)
    return list(map(EigenSystem, energies, vectors, assign_labels(vectors, basis_labels)))


def eigensolve(h: np.ndarray, basis_labels=None) -> EigenSystem:
    """Diagonalize a Hermitian matrix and label the eigenvectors.

    Eigenvalues are returned in ascending order with orthonormal
    eigenvector columns (LAPACK ``eigh``), as by :func:`eigensolve_stack`.
    """
    return eigensolve_stack(np.asarray(h)[None], basis_labels)[0]
