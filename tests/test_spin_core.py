import numpy as np
import pytest
from conftest import greedy_bijection_walk
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from nvgslac import spin_core
from nvgslac.carbon13 import C13Placement, build_full_hamiltonian, load_families, site_list
from nvgslac.errors import ValidationError
from nvgslac.hamiltonian import DEFAULT_CONSTANTS, FieldConfig, build_nv_hamiltonian
from nvgslac.spin_core import (
    EigenSystem,
    default_basis_labels,
    eigensolve,
    embed,
    format_label,
    label_states,
    product_basis_labels,
    spin_matrices,
)


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_commutation_relations(s):
    sm = spin_matrices(s)
    for a, b, c in ((sm.sx, sm.sy, sm.sz), (sm.sy, sm.sz, sm.sx), (sm.sz, sm.sx, sm.sy)):
        comm = a @ b - b @ a
        assert np.max(np.abs(comm - 1j * c)) < 1e-12


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_casimir_and_ladder(s):
    sm = spin_matrices(s)
    total = sm.sx @ sm.sx + sm.sy @ sm.sy + sm.sz @ sm.sz
    assert np.allclose(total, s * (s + 1) * np.eye(sm.dim), atol=1e-12)
    assert np.allclose(sm.s_plus, sm.sx + 1j * sm.sy, atol=1e-12)
    assert np.allclose(sm.s_minus, sm.sx - 1j * sm.sy, atol=1e-12)
    for op in (sm.sx, sm.sy, sm.sz):
        assert np.max(np.abs(op - op.conj().T)) < 1e-12


def test_sz_diagonals():
    assert np.allclose(np.diag(spin_matrices(1.0).sz), [1, 0, -1])
    assert np.allclose(np.diag(spin_matrices(0.5).sz), [0.5, -0.5])


def test_spin1_raising_superdiagonal():
    sp = spin_matrices(1.0).s_plus
    expected = np.zeros((3, 3))
    expected[0, 1] = expected[1, 2] = np.sqrt(2.0)
    assert np.allclose(sp, expected, atol=1e-15)


def test_unsupported_spin_rejected():
    with pytest.raises(ValidationError):
        spin_matrices(1.5)


def test_embed_sz_slot0():
    sz = spin_matrices(1.0).sz
    out = embed(sz, 0, (3, 3))
    assert np.allclose(out, np.diag([1, 1, 1, 0, 0, 0, -1, -1, -1]))


def test_embed_identity_is_identity():
    out = embed(np.eye(3), 1, (3, 3))
    assert np.allclose(out, np.eye(9))


def test_embed_trace_scaling():
    szh = spin_matrices(0.5).sz
    out = embed(szh, 2, (3, 3, 2))
    assert out.shape == (18, 18)
    assert abs(np.trace(out)) < 1e-12
    sm = spin_matrices(1.0)
    op = sm.sz @ sm.sz
    out = embed(op, 0, (3, 3, 2))
    assert np.isclose(np.trace(out), np.trace(op) * 6)


def test_embed_errors():
    sz = spin_matrices(1.0).sz
    with pytest.raises(ValidationError):
        embed(sz, 2, (3, 3))
    with pytest.raises(ValidationError):
        embed(sz, 1, (3, 2))
    with pytest.raises(ValidationError, match="operator must be a square matrix"):
        embed(sz[:, :2], 0, (3, 3))


def test_eigensolve_diagonal_and_pauli():
    sys_d = eigensolve(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(sys_d.energies, [1.0, 2.0, 3.0])
    sys_x = eigensolve(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(sys_x.energies, [-1.0, 1.0])


def test_eigensolve_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        eigensolve(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigensolve_reconstructs_input(rng):
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    h = (a + a.conj().T) / 2
    system = eigensolve(h)
    rebuilt = (system.vectors * system.energies) @ system.vectors.conj().T
    assert np.linalg.norm(rebuilt - h) < 1e-6 * np.linalg.norm(h)
    gram = system.vectors.conj().T @ system.vectors
    assert np.linalg.norm(gram - np.eye(9)) < 1e-9


def test_label_assignment_is_bijection(rng):
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    h = (a + a.conj().T) / 2
    system = eigensolve(h)
    assert sorted(system.labels) == sorted(product_basis_labels(0))


def test_labels_identity_vectors():
    labels = product_basis_labels(0)
    system = EigenSystem(energies=np.arange(9.0), vectors=np.eye(9, dtype=complex))
    labeled = label_states(system, labels)
    assert labeled.labels == labels


def test_label_overlap_stability(rng):
    # Unitary close to a permutation: every column has one dominant component.
    # Re-enumerating the basis (rows and labels together) must not change
    # the label assigned to any column.
    n = 9
    perm = rng.permutation(n)
    base = np.eye(n)[:, perm]
    a = 0.05 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q, _ = np.linalg.qr(base + (a - a.conj().T) / 2)
    labels = product_basis_labels(0)
    sys1 = label_states(EigenSystem(np.arange(float(n)), q), labels)

    shuffle = rng.permutation(n)
    permuted_labels = tuple(labels[k] for k in shuffle)
    sys2 = label_states(EigenSystem(np.arange(float(n)), q[shuffle, :]), permuted_labels)
    assert sys1.labels == sys2.labels


def test_default_basis_labels_shapes():
    assert default_basis_labels(9) == product_basis_labels(0)
    assert len(default_basis_labels(18)) == 18
    assert default_basis_labels(6) == tuple(range(6))


def test_format_label_strings():
    assert format_label((0, 1)) == "|0,+1>"
    assert format_label((-1, 0, 0.5)) == "|-1,0;+1/2>"
    assert format_label((-1, -1)) == "|-1,-1>"
    assert format_label((1, 0, 0.5)) == "|+1,0;+1/2>"
    assert format_label((0, -1, -0.5, 0.5)) == "|0,-1;-1/2,+1/2>"


def test_label_count_must_match_the_dimension():
    from nvgslac.spin_core import assign_labels

    with pytest.raises(ValidationError, match="number of basis labels must equal the system dim"):
        assign_labels(np.eye(9)[None], product_basis_labels(0)[:8])


@settings(max_examples=400, deadline=None)
@given(arrays(float, array_shapes(min_dims=2, max_dims=2, max_side=11), elements=st.integers(0, 3)))
def test_greedy_bijection_equals_the_sort_and_walk_on_tied_weights(weight):
    # Four weight values over up to 121 entries: ties in rows, columns and across both.
    assert np.array_equal(spin_core._greedy_bijection(weight), greedy_bijection_walk(weight))


@pytest.mark.parametrize("n_c13", range(1, 7))  # d = 18 ... 576
def test_carbon13_labels_equal_the_sort_and_walk(n_c13):
    families = load_families()
    sites = site_list(families)
    rng = np.random.default_rng(n_c13)
    placement = C13Placement(
        occupied=tuple(sites[k] for k in sorted(rng.choice(len(sites), n_c13, replace=False)))
    )
    field = FieldConfig(b=102.4 + rng.uniform(-1.0, 1.0))
    base = build_nv_hamiltonian(DEFAULT_CONSTANTS, field)
    h = build_full_hamiltonian(base, placement, families, field, DEFAULT_CONSTANTS)
    labels = product_basis_labels(n_c13)
    system = eigensolve(h, labels)
    weight = (np.abs(system.vectors) ** 2).T
    assign = greedy_bijection_walk(weight)
    assert np.array_equal(spin_core._greedy_bijection(weight), assign)
    assert system.labels == tuple(labels[a] for a in assign)
