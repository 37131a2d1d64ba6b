import numpy as np
import pytest
from conftest import nv_table

from nvgslac import carbon13
from nvgslac.carbon13 import (
    C13Placement,
    EXPECTED_SITE_TOTAL,
    MAX_N_C13_DEFAULT,
    McConfig,
    build_full_hamiltonian,
    load_families,
    mc_average_spectrum,
    rotate_tensor,
    sample_placement,
    site_list,
)
from nvgslac.errors import ParseError, ResourceLimitError, ValidationError
from nvgslac.hamiltonian import DEFAULT_CONSTANTS, FieldConfig, HyperfineTensor, build_nv_hamiltonian
from nvgslac.spectrum import synthesize
from nvgslac.spin_core import eigensolve, product_basis_labels
from nvgslac.transitions import transition_table

FIELD = FieldConfig(b=102.4)


def test_default_family_file():
    families = load_families()
    assert sum(f.multiplicity for f in families) == EXPECTED_SITE_TOTAL
    nn = families[0]
    assert nn.label == "nearest-neighbor"
    assert nn.tensor.azz == pytest.approx(199.21)
    assert nn.tensor.axx == pytest.approx(121.1)
    assert 0.0 <= nn.cos_zz < 1.0


def test_family_file_validation(tmp_path):
    empty = tmp_path / "families.csv"
    empty.write_text("label,multiplicity,axx_mhz,ayy_mhz,azz_mhz,cos_zz,source\n")
    assert load_families(empty) == ()

    dup = tmp_path / "dup.csv"
    dup.write_text(
        "label,multiplicity,axx_mhz,ayy_mhz,azz_mhz,cos_zz,source\n"
        "A,3,1,1,2,1.0,x\nA,3,1,1,2,1.0,x\n"
    )
    with pytest.raises(ParseError):
        load_families(dup)

    bad = tmp_path / "bad.csv"
    bad.write_text(
        "label,multiplicity,axx_mhz,ayy_mhz,azz_mhz,cos_zz,source\nA,3,1,1,two,1.0,x\n"
    )
    with pytest.raises(ParseError):
        load_families(bad)

    short = tmp_path / "short.csv"
    short.write_text(
        "label,multiplicity,axx_mhz,ayy_mhz,azz_mhz,cos_zz,source\nA,3,1,1,2,1.0,x\n"
    )
    with pytest.warns(UserWarning):
        load_families(short)


def test_rotate_tensor_identity_and_quarter_turn():
    t = HyperfineTensor(1.0, 1.0, 2.0)
    assert np.allclose(rotate_tensor(t, 1.0), t.as_matrix())
    rotated = rotate_tensor(t, 0.0)
    assert np.allclose(rotated, np.diag([1.0, 2.0, 1.0]), atol=1e-12)
    with pytest.raises(ValidationError):
        rotate_tensor(t, 1.5)


def test_rotate_tensor_preserves_eigenvalues():
    families = load_families()
    for fam in families:
        rotated = rotate_tensor(fam.tensor, fam.cos_zz)
        assert np.allclose(rotated, rotated.T, atol=1e-12)
        eigs = np.sort(np.linalg.eigvalsh(rotated))
        expected = np.sort([fam.tensor.axx, fam.tensor.ayy, fam.tensor.azz])
        assert np.allclose(eigs, expected, atol=1e-9)


def test_placement_rejects_duplicates():
    with pytest.raises(ValidationError):
        C13Placement(occupied=(("A", 0), ("A", 0)))


def test_sample_placement_limits_and_reproducibility():
    families = load_families()
    cfg = McConfig(iterations=1, occupancy=0.0, seed=5)
    assert sample_placement(cfg, 0, families).n_c13 == 0
    cfg = McConfig(iterations=1, occupancy=1.0, seed=5)
    assert sample_placement(cfg, 0, families).n_c13 == EXPECTED_SITE_TOTAL
    cfg = McConfig(iterations=1, occupancy=0.011, seed=5)
    a = sample_placement(cfg, 7, families)
    b = sample_placement(cfg, 7, families)
    assert a == b
    # different seeds give different ensembles (seeding draw k with
    # ``seed XOR k`` made seeds 0 and 1 permute the same 40 streams)
    cfgs = [McConfig(iterations=40, occupancy=0.011, seed=seed) for seed in (0, 1)]
    means = [mc_average_spectrum(c, FIELD, grid=GRID, mode="lo").values for c in cfgs]
    assert not np.array_equal(means[0], means[1])


def test_sample_placement_mean_occupancy():
    families = load_families()
    cfg = McConfig(iterations=1, occupancy=0.011, seed=3)
    n = 100_000
    counts = [sample_placement(cfg, k, families).n_c13 for k in range(n)]
    mean = np.mean(counts)
    expected = EXPECTED_SITE_TOTAL * 0.011
    sigma = np.sqrt(EXPECTED_SITE_TOTAL * 0.011 * 0.989 / n)
    assert abs(mean - expected) < 3 * sigma


def test_mc_config_validation():
    with pytest.raises(ValidationError):
        McConfig(iterations=0)
    with pytest.raises(ValidationError):
        McConfig(occupancy=1.5)
    with pytest.raises(ValidationError, match="-1"):
        McConfig(seed=-1)


def test_dimension_law():
    families = load_families()
    base = build_nv_hamiltonian(DEFAULT_CONSTANTS, FIELD)
    sites = site_list(families)
    for n in range(0, 5):
        placement = C13Placement(occupied=sites[:n])
        h = build_full_hamiltonian(base, placement, families, FIELD, DEFAULT_CONSTANTS)
        assert h.shape == (9 * 2**n, 9 * 2**n)
        assert np.linalg.norm(h - h.conj().T) < 1e-9 * max(np.linalg.norm(h), 1.0)


def test_empty_placement_returns_base():
    families = load_families()
    base = build_nv_hamiltonian(DEFAULT_CONSTANTS, FIELD)
    h = build_full_hamiltonian(base, C13Placement(occupied=()), families, FIELD, DEFAULT_CONSTANTS)
    assert np.allclose(h, base)


def test_dimension_cap_enforced():
    families = load_families()
    base = build_nv_hamiltonian(DEFAULT_CONSTANTS, FIELD)
    sites = site_list(families)
    placement = C13Placement(occupied=sites[:3])
    with pytest.raises(ResourceLimitError):
        build_full_hamiltonian(
            base, placement, families, FIELD, DEFAULT_CONSTANTS, max_n_c13=2
        )


def test_unknown_family_rejected():
    families = load_families()
    base = build_nv_hamiltonian(DEFAULT_CONSTANTS, FIELD)
    with pytest.raises(ValidationError):
        build_full_hamiltonian(
            base, C13Placement(occupied=(("Z", 0),)), families, FIELD, DEFAULT_CONSTANTS
        )


def test_nearest_neighbor_splits_electron_manifolds():
    # one adjacent carbon splits the m_S = +-1 manifolds on the scale of
    # its ~10^2 MHz coupling
    families = load_families()
    base = build_nv_hamiltonian(DEFAULT_CONSTANTS, FIELD)
    placement = C13Placement(occupied=(("nearest-neighbor", 0),))
    h = build_full_hamiltonian(base, placement, families, FIELD, DEFAULT_CONSTANTS)
    system = eigensolve(h, product_basis_labels(1))
    plus = sorted(
        system.energies[k] for k, lab in enumerate(system.labels) if lab[0] == 1
    )
    assert plus[-1] - plus[0] > 100.0


def test_axial_sites_preserve_total_projection_blocks():
    # with cos_zz = 1 and a diagonal tensor the total z-projection
    # m_S + m_I + sum m_J is conserved
    families = load_families()
    axial = [f for f in families if f.cos_zz == 1.0][0]
    base = build_nv_hamiltonian(DEFAULT_CONSTANTS, FIELD)
    placement = C13Placement(occupied=((axial.label, 0),))
    h = build_full_hamiltonian(base, placement, families, FIELD, DEFAULT_CONSTANTS)
    labels = product_basis_labels(1)
    totals = np.array([sum(lab) for lab in labels])
    for i in range(len(labels)):
        for j in range(len(labels)):
            if totals[i] != totals[j]:
                assert abs(h[i, j]) < 1e-12


def test_off_axis_carbon_enables_forbidden_rows():
    families = load_families()
    base = build_nv_hamiltonian(DEFAULT_CONSTANTS, FIELD)
    placement = C13Placement(occupied=(("nearest-neighbor", 0),))
    h = build_full_hamiltonian(base, placement, families, FIELD, DEFAULT_CONSTANTS)
    system = eigensolve(h, product_basis_labels(1))
    table = transition_table(system, beta=0.0, b_mt=FIELD.b)
    t_max = max(r.intensity for r in table.rows)
    enabled = [
        r.intensity / t_max for r in table.rows if r.label_from[1] != r.label_to[1]
    ]
    assert enabled and max(enabled) > 1e-4


GRID = np.arange(0.0, 40.0, 0.1)


def test_mc_zero_occupancy_equals_base():
    cfg = McConfig(iterations=10, occupancy=0.0, seed=1)
    spec = mc_average_spectrum(
        cfg, FIELD, beta=0.0, width=1.0, grid=GRID, mode="lo"
    )
    base = synthesize(nv_table(FIELD.b, mode="lo"), 1.0, GRID)
    assert np.max(np.abs(spec.values - base.values)) < 1e-12
    assert np.max(spec.stderr) < 1e-15


def test_mc_reproducible():
    cfg = McConfig(iterations=40, occupancy=0.011, seed=9)
    one = mc_average_spectrum(cfg, FIELD, beta=0.0, width=1.0, grid=GRID, mode="lo")
    two = mc_average_spectrum(cfg, FIELD, beta=0.0, width=1.0, grid=GRID, mode="lo")
    assert np.array_equal(one.values, two.values)
    assert np.array_equal(one.stderr, two.stderr)


def test_mc_cap_checked_before_any_build(monkeypatch):
    # draw 0 has 5 sites (under the cap), later draws exceed it
    cfg = McConfig(iterations=20, occupancy=0.15, seed=1)
    families = load_families()
    sizes = [sample_placement(cfg, k, families).n_c13 for k in range(cfg.iterations)]
    over = [n for n in sizes if n > MAX_N_C13_DEFAULT]
    assert 0 < sizes[0] <= MAX_N_C13_DEFAULT and over

    def no_build(*args, **kwargs):
        raise AssertionError("a Hamiltonian was built before the cap check")

    monkeypatch.setattr(carbon13, "build_full_hamiltonian", no_build)
    with pytest.raises(ResourceLimitError) as info:
        mc_average_spectrum(cfg, FIELD, grid=GRID, mode="lo")
    message = str(info.value)
    assert f"{len(over)} of {cfg.iterations} draws" in message
    assert f"largest: {max(over)} sites" in message


def test_mc_standard_error_scaling():
    kwargs = dict(beta=0.0, width=1.0, grid=GRID, mode="lo")
    small = mc_average_spectrum(McConfig(iterations=100, occupancy=0.011, seed=11), FIELD, **kwargs)
    large = mc_average_spectrum(McConfig(iterations=400, occupancy=0.011, seed=11), FIELD, **kwargs)
    ratio = np.linalg.norm(small.stderr) / np.linalg.norm(large.stderr)
    assert 1.6 < ratio < 2.4


def test_mc_off_axis_enables_forbidden_rows_in_average():
    # at theta = 0 without carbon the (0,+1)->(+1,0) line carries zero
    # intensity; off-axis carbons make the averaged spectrum differ from
    # the carbon-free one
    cfg = McConfig(iterations=60, occupancy=0.05, seed=21)
    spec = mc_average_spectrum(cfg, FIELD, beta=0.0, width=1.0, grid=GRID, mode="lo")
    base = synthesize(nv_table(FIELD.b, mode="lo"), 1.0, GRID)
    assert np.max(np.abs(spec.values - base.values)) > 1e-4
