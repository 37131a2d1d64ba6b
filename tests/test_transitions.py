import math

import numpy as np
import pytest
from conftest import nv_system, nv_table

from nvgslac.errors import ValidationError
from nvgslac.hamiltonian import DEFAULT_CONSTANTS, truncated_eigensystem
from nvgslac.spin_core import EigenSystem, product_basis_labels
from nvgslac.transitions import (
    dipole_elements,
    intensity_matrix,
    populations,
    select_rows,
    state_weights,
    transition_probabilities,
    transition_table,
)


def basis_state_system():
    labels = product_basis_labels(0)
    energies = np.array([3 * (1 - l[0]) + (1 - l[1]) for l in labels], dtype=float)
    order = np.argsort(energies, kind="stable")
    vectors = np.eye(9, dtype=complex)[:, order]
    from nvgslac.spin_core import label_states

    return label_states(EigenSystem(energies=energies[order], vectors=vectors), labels)


def test_dipole_selection_rules_on_basis_states():
    system = basis_state_system()
    m = dipole_elements(system)
    for i, li in enumerate(system.labels):
        for j, lj in enumerate(system.labels):
            coupled = abs(li[0] - lj[0]) == 1 and li[1] == lj[1]
            if coupled:
                assert abs(m[i, j]) > 1.0
            else:
                assert abs(m[i, j]) < 1e-14


def test_dipole_hermitian_and_phase_invariant(rng):
    system = nv_system(102.4)
    m = dipole_elements(system)
    assert np.linalg.norm(m - m.conj().T) < 1e-9
    p = transition_probabilities(m)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=9))
    rotated = EigenSystem(
        energies=system.energies, vectors=system.vectors * phases, labels=system.labels
    )
    p2 = transition_probabilities(dipole_elements(rotated))
    assert np.max(np.abs(p - p2)) < 1e-12


def test_far_field_manifold_strengths_nearly_equal():
    system = nv_system(95.0)
    p = transition_probabilities(dipole_elements(system))
    vals = []
    for mi in (1, 0, -1):
        i = system.labels.index((0, mi))
        j = system.labels.index((1, mi))
        vals.append(p[i, j])
    # equal up to the residual hyperfine admixture (~3e-4 relative)
    assert (max(vals) - min(vals)) / max(vals) < 1e-3


def test_transition_probabilities_forms():
    assert np.all(transition_probabilities(np.zeros((4, 4))) == 0.0)
    m = np.array([[0.0, 1 + 1j], [1 - 1j, 2.0]])
    p = transition_probabilities(m)
    assert np.allclose(p, [[0.0, 2.0], [2.0, 4.0]])
    assert np.allclose(p, p.T)
    assert np.all(p >= 0)
    with pytest.raises(ValidationError):
        transition_probabilities(np.zeros((2, 3)))


def test_spin1_pair_element():
    system = basis_state_system()
    p = transition_probabilities(dipole_elements(system))
    i = system.labels.index((0, 0))
    j = system.labels.index((-1, 0))
    assert np.isclose(p[i, j], 2.0)


def test_populations_values():
    pops = populations(0.0)
    assert np.allclose(pops.raw, [1.0, 1.0, 1.0])
    assert np.allclose(pops.normalized, [1 / 3] * 3)
    pops = populations(math.log(2.0))
    assert np.allclose(pops.raw, [1.0, 2.0, 4.0])
    assert np.allclose(pops.normalized, [1 / 7, 2 / 7, 4 / 7])
    # strongly negative beta polarizes into m_I = +1
    pops = populations(-40.0)
    assert pops.normalized[0] > 1.0 - 1e-12
    with pytest.raises(ValidationError):
        populations(301.0)
    with pytest.raises(ValidationError):
        populations(float("nan"))


def test_population_scaling_cancels_in_normalized_weights():
    # adding a constant to beta rescales all raw weights; normalized
    # weights and hence relative intensities are built from the
    # normalized form only
    pops = populations(0.7)
    assert np.isclose(pops.normalized.sum(), 1.0)
    scaled = pops.raw * 17.0
    assert np.allclose(scaled / scaled.sum(), pops.normalized)


def test_intensity_zero_probability_gives_empty_table():
    system = nv_system(95.0)
    table = intensity_matrix(np.zeros((9, 9)), system, beta=0.0)
    assert table.rows == ()


def test_intensity_far_field_equal_and_ratio():
    table = nv_table(95.0, beta=0.0, mode="hi")
    assert len(table.rows) == 3
    vals = [r.intensity for r in table.rows]
    assert (max(vals) - min(vals)) / max(vals) < 1e-3

    table = nv_table(95.0, beta=math.log(2.0), mode="hi")
    by_from = {r.label_from: r.intensity for r in table.rows}
    assert np.isclose(by_from[(0, -1)] / by_from[(0, 1)], 4.0, rtol=1e-3)


def test_unmixed_state_selection_rule_exact():
    # In the closed-form model the unmixed levels are exact basis states;
    # every pair among them violating delta m_I = 0 has exactly zero
    # coupling.
    system = truncated_eigensystem(DEFAULT_CONSTANTS, 102.4)
    p = transition_probabilities(dipole_elements(system))
    unmixed = [(0, 1), (-1, -1), (1, 1), (1, -1), (1, 0)]
    for a in unmixed:
        for b in unmixed:
            if a == b or a[1] == b[1]:
                continue
            i, j = system.labels.index(a), system.labels.index(b)
            assert p[i, j] == 0.0


def test_more_rows_near_gslac_than_far():
    far = nv_table(95.0, population_mode="composition")
    near = nv_table(102.4, population_mode="composition")
    assert len(near.rows) > len(far.rows)
    far_hi = nv_table(95.0, population_mode="composition", mode="hi")
    near_hi = nv_table(102.4, population_mode="composition", mode="hi")
    assert len(near_hi.rows) > len(far_hi.rows)


def test_table_invariants():
    table = nv_table(102.4)
    for row in table.rows:
        assert row.freq_mhz > 0
        assert row.probability >= 0
        assert row.intensity >= 0
        assert np.isclose(
            row.freq_mhz, table.energies[row.j] - table.energies[row.i], atol=1e-9
        )


def test_rows_agree_with_arrays():
    for table in (nv_table(102.4, beta=0.3), nv_table(95.0, mode="hi")):
        rows = table.rows
        assert len(table) == len(rows) > 0
        for k, row in enumerate(rows):
            assert row.i == table.i[k] and row.j == table.j[k]
            assert row.freq_mhz == table.freq_mhz[k]
            assert row.probability == table.probability[k]
            assert row.intensity == table.intensity[k]
            assert row.label_from == table.labels[table.i[k]]
            assert row.label_to == table.labels[table.j[k]]
            assert row.i < row.j


def test_state_weights_modes():
    system = nv_system(95.0)
    w_nom = state_weights(system, beta=0.0)
    assert np.isclose(w_nom.sum(), 1.0)  # all manifold population in m_S = 0
    w_comp = state_weights(system, beta=0.0, population_mode="composition")
    assert np.isclose(w_comp.sum(), 1.0, atol=1e-9)
    with pytest.raises(ValidationError):
        state_weights(system, beta=0.0, manifold_split=1.5)
    with pytest.raises(ValidationError):
        state_weights(system, beta=0.0, population_mode="bogus")


def test_manifold_split_moves_weight():
    table_all0 = nv_table(102.4, manifold_split=1.0)
    table_mix = nv_table(102.4, manifold_split=0.5)
    assert len(table_mix.rows) > len(table_all0.rows)


def test_select_rows_modes():
    table = nv_table(95.0)
    hi = select_rows(table, "hi")
    lo = select_rows(table, "lo")
    assert all(r.label_to[0] == 1 for r in hi.rows)
    assert all(r.label_from[0] != 1 and r.label_to[0] != 1 for r in lo.rows)
    assert len(hi.rows) + len(lo.rows) == len(table.rows)
    with pytest.raises(ValidationError):
        select_rows(table, "mid")


def test_floor_filters_weak_rows():
    loose = nv_table(95.0, floor_rel=1e-12)
    tight = nv_table(95.0, floor_rel=1e-2)
    assert len(tight.rows) < len(loose.rows)
