import math

import numpy as np
import pytest
from conftest import nv_system, nv_table

from nvgslac.errors import ValidationError
from nvgslac.hamiltonian import DEFAULT_CONSTANTS, truncated_eigensystem
from nvgslac.spectrum import track_transition
from nvgslac.spin_core import EigenSystem, product_basis_labels
from nvgslac.transitions import (
    _weights,
    dipole_elements,
    field_stage,
    intensity_matrix,
    population_stage,
    populations,
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
    for mode in (None, "lo"):
        far = nv_table(95.0, mode=mode)
        near = nv_table(102.4, mode=mode)
        assert len(near.rows) > len(far.rows)


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


def test_state_weights_sum_to_one_and_split_is_checked():
    system = nv_system(95.0)
    stage = field_stage(system)
    w_nom = _weights(stage.s_index, stage.i_index, 0, 0.0, 1.0)
    assert np.isclose(w_nom.sum(), 1.0)  # all manifold population in m_S = 0
    with pytest.raises(ValidationError, match="manifold_split"):
        transition_table(system, 0.0, manifold_split=1.5)


def test_manifold_split_moves_weight():
    # beta = ln 2: nitrogen weights 1/7, 2/7, 4/7 for m_I = +1, 0, -1
    system = nv_system(102.4)
    p = transition_probabilities(dipole_elements(system))
    nitrogen = {1: 1 / 7, 0: 2 / 7, -1: 4 / 7}
    for split, share in ((1.0, {1: 0.0, 0: 1.0, -1: 0.0}), (0.5, {1: 0.0, 0: 0.5, -1: 0.5})):
        w = [share[m_s] * nitrogen[m_i] for m_s, m_i in system.labels]
        table = nv_table(102.4, beta=math.log(2.0), manifold_split=split)
        assert len(table) > 0
        for row in table.rows:
            expected = p[row.i, row.j] * abs(w[row.i] - w[row.j])
            assert row.intensity == pytest.approx(expected, rel=1e-12)
        if split == 0.5:  # equal weights in m_S = 0 and -1: those lines go dark
            assert all(
                {r.label_from[0], r.label_to[0]} != {0, -1} or r.label_from[1] != r.label_to[1]
                for r in table.rows
            )


def test_lo_band_weight_is_continuous_through_the_crossing():
    fields = np.arange(102.36, 102.38 + 1e-9, 0.002)
    tables = [nv_table(b, beta=0.7, mode="lo") for b in fields]
    weights = [intensity for _, _, intensity in track_transition(tables, (0, -1), (-1, -1))]
    assert min(weights) > 0.5
    assert np.max(np.abs(np.diff(weights))) < 0.01


def test_select_rows_modes():
    table = nv_table(95.0)
    hi = nv_table(95.0, mode="hi")
    lo = nv_table(95.0, mode="lo")
    assert all(r.label_to[0] == 1 for r in hi.rows)
    assert all(r.label_from[0] != 1 and r.label_to[0] != 1 for r in lo.rows)
    assert len(hi.rows) + len(lo.rows) == len(table.rows)
    with pytest.raises(ValidationError):
        nv_table(95.0, mode="mid")


def test_floor_filters_weak_rows():
    system = nv_system(95.0)
    p = transition_probabilities(dipole_elements(system))
    loose = intensity_matrix(p, system, beta=0.0, floor_rel=1e-12)
    tight = intensity_matrix(p, system, beta=0.0, floor_rel=1e-2)
    assert len(tight.rows) < len(loose.rows)


def _oracle_table(system, beta, split, mode):
    """The one-stage pipeline, spelled out: dipole fold, weights, floor over all pairs, band."""
    m = dipole_elements(system)
    p = (m * m.T).real
    raw = np.exp(np.array([0.0, beta, 2.0 * beta]))
    pops = raw / raw.sum()
    share = np.array([0.0, split, 1.0 - split])
    index = {1: 0, 0: 1, -1: 2}
    n_c13 = len(system.labels[0]) - 2
    s_index = np.array([index[label[0]] for label in system.labels])
    i_index = np.array([index[label[1]] for label in system.labels])
    weights = share[s_index] * pops[i_index] * 0.5 ** n_c13
    iu, ju = np.triu_indices(system.dim, k=1)
    freq = system.energies[ju] - system.energies[iu]
    prob = p[iu, ju]
    intens = prob * np.abs(weights[iu] - weights[ju])
    keep = (intens > 1e-6 * intens.max(initial=0.0)) & (freq > 0.0)
    i, j, freq, prob, intens = iu[keep], ju[keep], freq[keep], prob[keep], intens[keep]
    if mode is not None:
        m_s = np.array([label[0] for label in system.labels])
        band = (m_s[j] == 1 if mode == "hi" else m_s[j] != 1) & (m_s[i] != 1)
        i, j, freq, prob, intens = i[band], j[band], freq[band], prob[band], intens[band]
    return i, j, freq, prob, intens


def _assert_matches_oracle(system, beta, split):
    p = transition_probabilities(dipole_elements(system))
    tables = [(None, intensity_matrix(p, system, beta, split, b_mt=102.4))]
    for mode in ("hi", "lo", None):
        tables.append((mode, transition_table(system, beta, split, mode=mode, b_mt=102.4)))
    for mode, table in tables:
        expected = _oracle_table(system, beta, split, mode)
        got = (table.i, table.j, table.freq_mhz, table.probability, table.intensity)
        for name, a, b in zip(("i", "j", "freq_mhz", "probability", "intensity"), got, expected):
            assert np.array_equal(a, b), name
        assert np.array_equal(table.energies, system.energies)
        assert table.labels == system.labels
        assert table.b_mt == 102.4


@pytest.mark.parametrize("theta_deg", [0.0, 0.3])
@pytest.mark.parametrize("b", [101.0, 102.37, 102.4, 103.5])
def test_two_stage_table_matches_one_stage_oracle(b, theta_deg):
    system = nv_system(b, theta_deg=theta_deg)
    for split in (1.0, 0.6):
        for beta in (-1.3, 0.0, 0.4, 2.0):
            _assert_matches_oracle(system, beta, split)


@pytest.mark.parametrize("n_c13", [1, 2, 3])
def test_two_stage_table_matches_oracle_with_carbon13(n_c13):
    from nvgslac.carbon13 import C13Placement, build_full_hamiltonian, load_families, site_list
    from nvgslac.hamiltonian import FieldConfig, build_nv_hamiltonian
    from nvgslac.spin_core import eigensolve

    field = FieldConfig(b=102.4, theta_deg=0.3)
    families = load_families()
    base = build_nv_hamiltonian(DEFAULT_CONSTANTS, field)
    placement = C13Placement(occupied=site_list(families)[::5][:n_c13])
    h = build_full_hamiltonian(base, placement, families, field, DEFAULT_CONSTANTS)
    system = eigensolve(h, product_basis_labels(n_c13))
    for beta, split in ((0.4, 0.6), (0.4, 1.0)):
        _assert_matches_oracle(system, beta, split)


def test_population_stage_reuses_one_field_stage():
    system = nv_system(102.3, theta_deg=0.3)
    stage = field_stage(system, "lo")
    for beta, split in ((0.0, 1.0), (0.9, 0.6), (-0.4, 0.3)):
        table = population_stage(stage, beta, split, b_mt=102.3)
        expected = transition_table(system, beta, split, mode="lo", b_mt=102.3)
        assert all(
            np.array_equal(getattr(table, name), getattr(expected, name))
            for name in ("i", "j", "freq_mhz", "probability", "intensity")
        )
    with pytest.raises(ValidationError, match="mid"):
        field_stage(system, "mid")


def test_dipole_elements_need_product_basis_labels_of_the_right_dimension():
    system = nv_system(101.0)
    for labels, message in [
        (None, "eigen-system must carry product-basis labels"),
        (tuple(f"level {k}" for k in range(9)), "eigen-system must carry product-basis labels"),
        (product_basis_labels(1)[:9], "label structure does not match system dimension"),
    ]:
        unlabeled = EigenSystem(system.energies, system.vectors, labels=labels)
        with pytest.raises(ValidationError, match=message):
            dipole_elements(unlabeled)


def test_intensity_matrix_rejects_a_probability_matrix_of_the_wrong_shape():
    system = nv_system(101.0)
    p = transition_probabilities(dipole_elements(system))
    for bad in (p[:8, :8], p[None], np.zeros((9, 10))):
        with pytest.raises(ValidationError, match="probability matrix does not match"):
            intensity_matrix(bad, system, beta=0.3)
