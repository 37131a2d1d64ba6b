import dataclasses
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvgslac import hamiltonian, transitions
from nvgslac.errors import ParseError, ValidationError
from nvgslac.hamiltonian import (
    DEFAULT_CONSTANTS,
    MAX_FIELD_MT,
    FieldConfig,
    HyperfineTensor,
    NV_N14_LABELS,
    PhysicalConstants,
    analytic_eigenstates,
    analytic_energies,
    basis_index,
    build_nv_hamiltonian,
    gslac_field,
    kappa_parameters,
    level_sweep,
    parse_constants_file,
    truncated_eigensystem,
    truncated_hamiltonian,
)
from nvgslac.spin_core import embed, eigensolve_stack, nv_spin_model, spin_matrices
from nvgslac.transitions import FieldStages


def sz_plus_iz():
    sz = spin_matrices(1.0).sz
    return embed(sz, 0, (3, 3)) + embed(sz, 1, (3, 3))


def test_default_constants_values():
    c = DEFAULT_CONSTANTS
    assert (c.d_g, c.gamma_e, c.q) == (2870.0, 28.025, -4.96)
    assert (c.gamma_n14, c.gamma_c13) == (0.003077, 0.010704)
    assert (c.a_par, c.a_perp) == (-2.14, -2.70)


def test_nitrogen_tensor_matches_constants():
    c = DEFAULT_CONSTANTS
    t = HyperfineTensor(axx=c.a_perp, ayy=c.a_perp, azz=c.a_par)
    assert (t.axx, t.ayy, t.azz) == (-2.70, -2.70, -2.14)
    assert np.allclose(t.as_matrix(), np.diag([-2.70, -2.70, -2.14]))


def test_constants_file_round_trip(tmp_path):
    path = tmp_path / "constants.txt"
    path.write_text("d_g = 2900\n# comment\ngamma_e = 28.0\n")
    c = parse_constants_file(path)
    assert c.d_g == 2900.0 and c.gamma_e == 28.0
    assert c.q == DEFAULT_CONSTANTS.q


def test_constants_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "constants.txt"
    path.write_text("d_g = 2900\nbogus = 1\n")
    with pytest.raises(ParseError):
        parse_constants_file(path)


def test_constants_file_rejects_bad_number(tmp_path):
    path = tmp_path / "constants.txt"
    path.write_text("d_g = fast\n")
    with pytest.raises(ParseError):
        parse_constants_file(path)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "-1e400", "NaN"])
def test_constants_file_rejects_non_finite_number(tmp_path, value):
    path = tmp_path / "constants.txt"
    path.write_text(f"gamma_e = 28.0\nd_g = {value}\n")
    message = f"{path}:2: constant 'd_g' must be finite, got '{value}'"
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_constants_file(path)


def test_field_config_validation():
    with pytest.raises(ValidationError):
        FieldConfig(b=-1.0)
    assert FieldConfig(b=MAX_FIELD_MT).b == MAX_FIELD_MT
    for b in (np.nextafter(MAX_FIELD_MT, np.inf), 1e307, np.inf):
        with pytest.raises(ValidationError, match=re.escape(f"must be <= {MAX_FIELD_MT:g} mT, got {b!r}")):
            FieldConfig(b=b)
    with pytest.raises(ValidationError, match="must be a finite number, got nan"):
        FieldConfig(b=np.nan)
    with pytest.raises(ValidationError, match="must be >= 0, got -inf"):
        FieldConfig(b=-np.inf)
    with pytest.raises(ValidationError):
        FieldConfig(b=1.0, theta_deg=180.0)
    with pytest.raises(ValidationError):
        FieldConfig(b=1.0, phi_deg=-5.0)


def test_field_stages_refuse_a_field_above_the_cap():
    stages = FieldStages(DEFAULT_CONSTANTS, mode="hi")
    assert stages.at(MAX_FIELD_MT).system.energies.size == 9
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="got 1e\\+307"):
            stages.at(1e307)
        with pytest.raises(ValidationError, match="got 1e\\+307"):
            next(FieldStages(DEFAULT_CONSTANTS, mode="hi")([95.0, 1e307]))


def one_expression_hamiltonian(c, b, theta_deg, phi_deg):
    """H as one expression over the cached operators, as it was built before its terms were split."""
    m = nv_spin_model()
    nx, ny, nz = FieldConfig(0.0, theta_deg, phi_deg).direction()
    return (
        c.d_g * m.sz2
        + c.gamma_e * b * (nx * m.sx + ny * m.sy + nz * m.sz)
        + c.q * m.iz2
        - c.gamma_n14 * b * (nx * m.ix + ny * m.iy + nz * m.iz)
        + c.a_perp * m.flip_flop
        + c.a_par * m.szi
    )


def coupling(scale):
    return st.floats(-scale, scale, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(
    values=st.tuples(
        coupling(1e4), coupling(1e2), coupling(1e2), coupling(1.0), coupling(1.0),
        coupling(1e2), coupling(1e2),
    ),
    fields=st.lists(st.floats(0.0, 1e3, allow_nan=False), min_size=1, max_size=6),
    theta=st.floats(0.0, 180.0, exclude_max=True),
    phi=st.floats(0.0, 360.0, exclude_max=True),
)
def test_split_build_has_the_bits_of_one_expression(values, fields, theta, phi):
    c = PhysicalConstants(*values)
    for b in fields:
        h = build_nv_hamiltonian(c, FieldConfig(b, theta, phi))
        assert h.tobytes() == one_expression_hamiltonian(c, b, theta, phi).tobytes()
    stacks = []

    def recording_eigensolve_stack(hs, labels):
        stacks.append(hs)
        return eigensolve_stack(hs, labels)

    with pytest.MonkeyPatch.context() as mp:  # record the stack FieldStages diagonalizes
        mp.setattr(transitions, "eigensolve_stack", recording_eigensolve_stack)
        stages = list(FieldStages(c, theta)(fields))
    expected = one_expression_hamiltonian(c, np.array(fields)[:, None, None], theta, 0.0)
    assert [hs.tobytes() for hs in stacks] == [expected.tobytes()]
    for got, ref in zip((stage.system for stage in stages), eigensolve_stack(expected), strict=True):
        assert got.energies.tobytes() == ref.energies.tobytes()
        assert got.vectors.tobytes() == ref.vectors.tobytes()
        assert got.labels == ref.labels
    # any azimuth: level_sweep solves the same expression (its labels then follow the sweep)
    expected = one_expression_hamiltonian(c, np.array(fields)[:, None, None], theta, phi)
    for got, ref in zip(level_sweep(c, fields, theta, phi), eigensolve_stack(expected), strict=True):
        assert got.energies.tobytes() == ref.energies.tobytes()
        assert got.vectors.tobytes() == ref.vectors.tobytes()


def test_hamiltonian_hermitian_any_angle(rng):
    for _ in range(10):
        field = FieldConfig(
            b=float(rng.uniform(0, 150)),
            theta_deg=float(rng.uniform(0, 179.9)),
            phi_deg=float(rng.uniform(0, 359.9)),
        )
        h = build_nv_hamiltonian(DEFAULT_CONSTANTS, field)
        assert np.linalg.norm(h - h.conj().T) < 1e-9 * np.linalg.norm(h)


def test_axial_hamiltonian_commutes_with_total_z(rng):
    m_total = sz_plus_iz()
    for _ in range(20):
        b = float(rng.uniform(0, 150))
        h = build_nv_hamiltonian(DEFAULT_CONSTANTS, FieldConfig(b=b))
        comm = h @ m_total - m_total @ h
        assert np.linalg.norm(comm) < 1e-9


def test_transverse_component_at_small_angle():
    # theta = 0.015 deg at the anticrossing field puts ~0.75 MHz of
    # electron Zeeman coupling on the Sx block.
    c = DEFAULT_CONSTANTS
    field = FieldConfig(b=102.4, theta_deg=0.015)
    h = build_nv_hamiltonian(c, field)
    coeff = abs(h[basis_index(1, 1), basis_index(0, 1)]) * np.sqrt(2.0)
    expected = c.gamma_e * 102.4 * np.sin(np.deg2rad(0.015))
    assert np.isclose(coeff, expected, rtol=1e-9)
    assert 0.70 < expected < 0.80


def test_b_zero_spectrum_structure():
    # Oracle: closed forms at B = 0 give levels near 0 (once), near the
    # quadrupole shift (twice) and a maximum at the zero-field splitting.
    c = DEFAULT_CONSTANTS
    e_num = np.linalg.eigvalsh(build_nv_hamiltonian(c, FieldConfig(b=0.0)))
    assert np.min(np.abs(e_num)) < 0.01
    assert np.sum(np.abs(e_num - c.q) < 0.01) == 2
    e_an = analytic_energies(c, 0.0)
    assert np.isclose(np.max(e_an), c.d_g)  # level 9 at b = 0
    assert np.isclose(np.max(e_num), c.d_g, atol=0.01)
    assert np.isclose(e_an[8], 2870.0)


def test_gslac_field_value_and_scaling():
    from dataclasses import replace

    c = DEFAULT_CONSTANTS
    assert abs(gslac_field(c) - 102.409) < 1e-3
    assert np.isclose(gslac_field(replace(c, d_g=2 * c.d_g)), 2 * gslac_field(c))
    assert np.isclose(gslac_field(replace(c, gamma_e=2 * c.gamma_e)), gslac_field(c) / 2)


def test_analytic_level1_constant_and_level9():
    c = DEFAULT_CONSTANTS
    for b in (0.0, 40.0, 102.4, 150.0):
        assert analytic_energies(c, b)[0] == c.q
    assert np.isclose(analytic_energies(c, 0.0)[8], 2870.0)


def test_analytic_matches_truncated_numerics():
    c = DEFAULT_CONSTANTS
    for b in np.linspace(0.0, 150.0, 151):
        e_an = np.sort(analytic_energies(c, b)[:6])
        e_num = np.linalg.eigvalsh(truncated_hamiltonian(c, b))
        assert np.max(np.abs(e_an - e_num)) < 1e-6


def test_printed_variant_differs_away_from_gslac():
    # The symmetric-form 5/6 pair deviates from the Hamiltonian block by
    # about |q| far from the anticrossing.
    c = DEFAULT_CONSTANTS
    e_minus = analytic_energies(c, 0.0)
    e_plus = analytic_energies(c, 0.0, kappa2_sign="plus")
    assert abs(e_plus[4] - e_minus[4]) > 4.0
    with pytest.raises(ValidationError):
        analytic_energies(c, 0.0, kappa2_sign="bogus")


def test_min_gap_locations_by_convention():
    c = DEFAULT_CONSTANTS
    bs = np.arange(101.5, 103.2, 1e-4)
    e_minus = analytic_energies(c, bs)
    b_min = bs[np.argmin(e_minus[:, 5] - e_minus[:, 4])]
    assert abs(b_min - (c.d_g - c.q) / c.gamma_e) < 1e-3
    e_plus = analytic_energies(c, bs, kappa2_sign="plus")
    b_min = bs[np.argmin(e_plus[:, 5] - e_plus[:, 4])]
    assert abs(b_min - (c.d_g + c.q) / c.gamma_e) < 1e-3
    # 3/4 pair minimum sits where its own mixing parameter vanishes
    b_min = bs[np.argmin(e_minus[:, 3] - e_minus[:, 2])]
    assert abs(b_min - (c.d_g + c.q - c.a_par) / c.gamma_e) < 1e-3


def test_min_gaps_are_twice_transverse_coupling():
    c = DEFAULT_CONSTANTS
    bs = np.arange(101.5, 103.2, 1e-4)
    e = analytic_energies(c, bs)
    assert abs(np.min(e[:, 3] - e[:, 2]) - 5.40) < 0.01
    assert abs(np.min(e[:, 5] - e[:, 4]) - 5.40) < 0.01


def test_analytic_eigenstates_basics():
    c = DEFAULT_CONSTANTS
    for b in (10.0, 90.0, 102.4):
        v = analytic_eigenstates(c, b)
        norms = np.linalg.norm(v, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        # levels 1 and 2 are exact basis states at every axial field
        assert abs(v[basis_index(0, 1), 0]) == 1.0
        assert abs(v[basis_index(-1, -1), 1]) == 1.0
        # orthogonality within each mixed pair
        assert abs(np.vdot(v[:, 2], v[:, 3])) < 1e-12
        assert abs(np.vdot(v[:, 4], v[:, 5])) < 1e-12


def test_analytic_eigenstates_need_a_transverse_coupling():
    c = dataclasses.replace(DEFAULT_CONSTANTS, a_perp=0.0)
    with pytest.raises(ValidationError, match="transverse hyperfine coupling must be nonzero"):
        analytic_eigenstates(c, 90.0)


def test_analytic_eigenstates_are_eigenvectors():
    c = DEFAULT_CONSTANTS
    for b in (0.0, 90.0, 102.4, 104.0):
        e = analytic_energies(c, b)
        v = analytic_eigenstates(c, b)
        h9 = np.zeros((9, 9), dtype=complex)
        h9[3:, 3:] = truncated_hamiltonian(c, b)
        for k in range(6):
            assert np.linalg.norm(h9 @ v[:, k] - e[k] * v[:, k]) < 1e-9


def test_level3_dominated_by_zero_zero_below_gslac():
    v = analytic_eigenstates(DEFAULT_CONSTANTS, 90.0)
    assert abs(v[basis_index(0, 0), 2]) ** 2 > 0.999


def test_equal_mixing_at_pair_center():
    # The 5/6 pair is 50/50 where its mixing parameter vanishes; the
    # numerical oracle agrees.
    c = DEFAULT_CONSTANTS
    b = (c.d_g - c.q) / c.gamma_e
    _, kappa2 = kappa_parameters(c, b)
    assert abs(kappa2) < 1e-12
    v = analytic_eigenstates(c, b)
    assert abs(abs(v[basis_index(-1, 0), 4]) ** 2 - 0.5) < 1e-9
    assert abs(abs(v[basis_index(0, -1), 4]) ** 2 - 0.5) < 1e-9
    system = truncated_eigensystem(c, b)
    weights = np.abs(system.vectors[basis_index(-1, 0), :]) ** 2
    pair = weights[(weights > 0.4) & (weights < 0.6)]
    assert pair.size == 2 and np.allclose(pair, 0.5, atol=1e-9)
    # the symmetric-form variant centers at gamma_e B = d_g + q instead
    b_plus = (c.d_g + c.q) / c.gamma_e
    v_plus = analytic_eigenstates(c, b_plus, kappa2_sign="plus")
    assert abs(abs(v_plus[basis_index(-1, 0), 4]) ** 2 - 0.5) < 1e-9


def test_mixing_depends_on_field_only_through_kappa():
    # Same kappa values -> identical coefficient vectors, even for
    # different constants producing them.
    from dataclasses import replace

    c = DEFAULT_CONSTANTS
    b1 = 101.0
    k1, _ = kappa_parameters(c, b1)
    # shift d_g and b together to keep kappa1 and kappa2 unchanged
    c2 = replace(c, d_g=c.d_g + c.gamma_e * 1.75)
    b2 = b1 + 1.75
    k1b, _ = kappa_parameters(c2, b2)
    assert np.isclose(k1, k1b, atol=1e-12)
    v1 = analytic_eigenstates(c, b1)
    v2 = analytic_eigenstates(c2, b2)
    assert np.allclose(v1, v2, atol=1e-12)


def test_truncated_eigensystem_labels_unmixed_states():
    c = DEFAULT_CONSTANTS
    system = truncated_eigensystem(c, 102.4)
    assert sorted(system.labels) == sorted(NV_N14_LABELS)
    k = system.labels.index((0, 1))
    assert abs(abs(system.vectors[basis_index(0, 1), k]) - 1.0) < 1e-12


def test_level_sweep_tracking():
    c = DEFAULT_CONSTANTS
    bs = np.arange(101.0, 104.0, 0.05)
    systems = level_sweep(c, bs)
    # the state labeled |0,+1> stays put up to the (tiny) nitrogen Zeeman term
    e1 = np.array([s.energies[s.labels.index((0, 1))] for s in systems])
    assert np.ptp(e1) < 0.012
    assert np.max(np.abs(e1 - c.q)) < c.gamma_n14 * bs[-1] + 0.01
    # block membership m_S + m_I is constant along each tracked branch
    for branch_label in NV_N14_LABELS:
        blocks = set()
        for s in systems:
            k = s.labels.index(branch_label)
            weights = np.abs(s.vectors[:, k]) ** 2
            blocks.add(
                sum(NV_N14_LABELS[b][0] + NV_N14_LABELS[b][1] for b in np.nonzero(weights > 0.5)[0])
            )
        assert len(blocks) == 1
    # tracked energies are continuous
    for label in NV_N14_LABELS:
        e = np.array([s.energies[s.labels.index(label)] for s in systems])
        assert np.max(np.abs(np.diff(e))) < 2.0


def test_level_sweep_rejects_empty():
    with pytest.raises(ValidationError):
        level_sweep(DEFAULT_CONSTANTS, [])


def test_sweep_min_gap_between_adjacent_mixed_levels():
    c = DEFAULT_CONSTANTS
    bs = np.arange(102.0, 102.7, 1e-3)
    systems = level_sweep(c, bs)
    gaps = []
    for s in systems:
        i = s.labels.index((0, 0))
        j = s.labels.index((-1, 1))
        gaps.append(abs(s.energies[i] - s.energies[j]))
    assert abs(min(gaps) - 5.40) < 0.02


@pytest.mark.parametrize(
    "text, message",
    [
        ("d_g 2900\n", "{path}:1: expected 'key = value'"),  # no 'key value' form
        ("d_g = 2900\n# comment\nd_g\n", "{path}:3: expected 'key = value'"),
        ("d_g = 2900\nq = -5\nd_g = 2871\n", "{path}:3: duplicate constant 'd_g'"),
    ],
)
def test_constants_file_line_errors_name_the_line(tmp_path, text, message):
    path = tmp_path / "constants.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=re.escape(message.format(path=path))):
        parse_constants_file(path)


@pytest.mark.parametrize("kappa2_sign", ["minus", "plus"])
@pytest.mark.parametrize("a_perp", [-2.7, 2.7, -0.3])
def test_analytic_eigenstates_mix_with_the_inline_kappa_formula(monkeypatch, kappa2_sign, a_perp):
    # the mixing parameters analytic_eigenstates gives each pair, bit for bit
    # those of the formula it once formed inline with |a_perp|
    c = dataclasses.replace(DEFAULT_CONSTANTS, a_perp=a_perp)
    seen = []
    pair_vectors = hamiltonian._pair_vectors

    def recording_pair_vectors(kappa_abs, sign_a):
        seen.append((kappa_abs, sign_a))
        return pair_vectors(kappa_abs, sign_a)

    monkeypatch.setattr(hamiltonian, "_pair_vectors", recording_pair_vectors)
    sign_a = 1.0 if a_perp > 0 else -1.0
    for b in np.linspace(0.0, 250.0, 2001):
        del seen[:]
        analytic_eigenstates(c, b, kappa2_sign)
        ze = c.gamma_e * float(b)
        kt1 = (c.d_g + c.q - c.a_par - ze) / (2.0 * abs(c.a_perp))
        num2 = (c.d_g - c.q - ze) if kappa2_sign == "minus" else (c.d_g + c.q - ze)
        kt2 = num2 / (2.0 * abs(c.a_perp))
        got = [(np.float64(kappa).tobytes(), sign) for kappa, sign in seen]
        assert got == [(np.float64(kt1).tobytes(), sign_a), (np.float64(kt2).tobytes(), sign_a)]
