"""Spin operator algebra and dense Hermitian eigensolving.

Conventions used throughout the package:

* single-spin basis states are ordered m = +s ... -s,
* composite systems are Kronecker products in the fixed subsystem order
  (electron, host nitrogen, carbon-13 site 1, carbon-13 site 2, ...),
* energies and frequencies are in MHz, magnetic fields in mT.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError

HERMITICITY_RTOL = 1e-9


@dataclass(frozen=True)
class SpinMatrices:
    """Angular-momentum matrices of one spin in the |m> basis, hbar = 1."""

    s: float
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
    return SpinMatrices(s=float(s), sx=sx, sy=sy, sz=sz, s_plus=s_plus, s_minus=s_minus)


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


def is_hermitian(h: np.ndarray, rtol: float = HERMITICITY_RTOL) -> bool:
    h = np.asarray(h)
    scale = np.linalg.norm(h)
    if scale == 0.0:
        return True
    return np.linalg.norm(h - h.conj().T) <= rtol * scale


def require_hermitian(h: np.ndarray, rtol: float = HERMITICITY_RTOL) -> None:
    if not is_hermitian(h, rtol):
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


def parse_label(text: str) -> tuple:
    """Inverse of :func:`format_label`."""
    body = text.strip()
    if not (body.startswith("|") and body.endswith(">")):
        raise ValidationError(f"malformed state label {text!r}")
    body = body[1:-1].replace(";", ",")
    out = []
    for part in body.split(","):
        part = part.strip()
        if part in ("+1/2", "1/2"):
            out.append(0.5)
        elif part == "-1/2":
            out.append(-0.5)
        else:
            try:
                out.append(int(part))
            except ValueError:
                raise ValidationError(f"malformed state label {text!r}") from None
    return tuple(out)


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
    rows, cols = np.indices((n_rows, n_cols))
    order = np.lexsort((rows.ravel(), cols.ravel(), -weight.ravel()))
    assign = np.full(n_rows, -1, dtype=int)
    col_used = np.zeros(n_cols, dtype=bool)
    remaining = min(n_rows, n_cols)
    for flat in order:
        r = flat // n_cols
        c = flat % n_cols
        if assign[r] >= 0 or col_used[c]:
            continue
        assign[r] = c
        col_used[c] = True
        remaining -= 1
        if remaining == 0:
            break
    return assign


def label_states(system: EigenSystem, basis_labels) -> EigenSystem:
    """Attach to each eigenvector the basis label of maximum squared overlap.

    The assignment is a bijection: overlaps are visited in descending
    order and a label is used at most once.
    """
    basis_labels = tuple(basis_labels)
    if len(basis_labels) != system.dim:
        raise ValidationError("number of basis labels must equal the system dimension")
    overlap = np.abs(system.vectors) ** 2  # overlap[b, k]
    assign = _greedy_bijection(overlap.T)  # eigenvector k -> basis index
    labels = tuple(basis_labels[assign[k]] for k in range(system.dim))
    return replace(system, labels=labels)


def eigensolve(h: np.ndarray, basis_labels=None) -> EigenSystem:
    """Diagonalize a Hermitian matrix and label the eigenvectors.

    Eigenvalues are returned in ascending order with orthonormal
    eigenvector columns (LAPACK ``eigh``).
    """
    h = np.asarray(h, dtype=complex)
    require_hermitian(h)
    energies, vectors = np.linalg.eigh(h)
    system = EigenSystem(energies=energies, vectors=vectors)
    if basis_labels is None:
        basis_labels = default_basis_labels(h.shape[0])
    return label_states(system, basis_labels)
