import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import nv_table

from nvgslac import carbon13, spin_core
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
from nvgslac.spin_core import eigensolve, embed, nv_spin_model, product_basis_labels, spin_matrices
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


def test_sample_placement_keeps_the_per_site_bernoulli_rule():
    families = load_families()
    sites = site_list(families)
    for occupancy in (0.011, 0.3):
        cfg = McConfig(iterations=1, occupancy=occupancy, seed=11)
        for k in range(1_000):
            u = np.random.default_rng([cfg.seed, k]).random(len(sites))
            expected = tuple(site for site, draw in zip(sites, u) if draw < occupancy)
            assert sample_placement(cfg, k, families).occupied == expected
            assert sample_placement(cfg, k, families, sites).occupied == expected


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
    # 9 sites would be a 4,608-dim matrix (340 MB); the cap fires before any of it
    families = load_families()
    base = build_nv_hamiltonian(DEFAULT_CONSTANTS, FIELD)
    placement = C13Placement(occupied=site_list(families)[: MAX_N_C13_DEFAULT + 1])
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="9 carbon-13 sites"):
            build_full_hamiltonian(base, placement, families, FIELD, DEFAULT_CONSTANTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def dense_full_hamiltonian(base, placement, families, field_cfg, constants):
    """The dense build: every operator embedded in the full space, S_a @ J_b per term."""
    n = placement.n_c13
    by_label = {f.label: f for f in families}
    dims = (3, 3) + (2,) * n
    h = np.kron(np.asarray(base, dtype=complex), np.eye(2 ** n))
    if n == 0:
        return h
    e = spin_matrices(1.0)
    half = spin_matrices(0.5)
    s_ops = [embed(op, 0, dims) for op in (e.sx, e.sy, e.sz)]
    direction = field_cfg.direction()
    for k, (label, _site) in enumerate(placement.occupied):
        fam = by_label[label]
        coupling = rotate_tensor(fam.tensor, fam.cos_zz)
        j_ops = [embed(op, 2 + k, dims) for op in (half.sx, half.sy, half.sz)]
        for a in range(3):
            for b_ax in range(3):
                if coupling[a, b_ax] != 0.0:
                    h += coupling[a, b_ax] * (s_ops[a] @ j_ops[b_ax])
        zeeman = constants.gamma_c13 * field_cfg.b
        h += zeeman * (direction[0] * j_ops[0] + direction[1] * j_ops[1] + direction[2] * j_ops[2])
    return h


@pytest.mark.parametrize(
    "constants",
    [DEFAULT_CONSTANTS, dataclasses.replace(DEFAULT_CONSTANTS, gamma_c13=0.0317)],
    ids=["default", "gamma_c13"],
)
def test_kronecker_build_equals_dense_oracle(constants, rng):
    families = load_families()
    sites = site_list(families)
    for trial in range(50):
        n = int(rng.integers(0, 6))
        field_cfg = FieldConfig(
            b=rng.uniform(95.0, 110.0),
            theta_deg=(0.0, 0.3, 2.0)[trial % 3],
            phi_deg=rng.uniform(0.0, 360.0),
        )
        placement = C13Placement(
            occupied=tuple(sites[i] for i in rng.choice(len(sites), n, replace=False))
        )
        base = build_nv_hamiltonian(constants, field_cfg)
        expected = dense_full_hamiltonian(base, placement, families, field_cfg, constants)
        h = build_full_hamiltonian(base, placement, families, field_cfg, constants)
        assert np.array_equal(h, expected), (trial, placement)


def numpy_kron_full_hamiltonian(base, placement, families, field_cfg, constants):
    """The previous Kronecker build with ``np.kron`` and per-call operators."""
    n = placement.n_c13
    by_label = {f.label: f for f in families}
    model = nv_spin_model()
    half = spin_matrices(0.5)
    j_ops = (half.sx, half.sy, half.sz)

    def at_site(op, k):
        return np.kron(np.kron(np.eye(2 ** k), op), np.eye(2 ** (n - k - 1)))

    h = np.kron(np.asarray(base, dtype=complex), np.eye(2 ** n))
    direction = field_cfg.direction()
    zeeman = constants.gamma_c13 * field_cfg.b * sum(d * j for d, j in zip(direction, j_ops))
    for k, (label, _site) in enumerate(placement.occupied):
        fam = by_label[label]
        coupling = rotate_tensor(fam.tensor, fam.cos_zz)
        for s_a, row in zip((model.sx, model.sy, model.sz), coupling):
            h += np.kron(s_a, at_site(sum(c * j for c, j in zip(row, j_ops)), k))
        h += np.kron(np.eye(9), at_site(zeeman, k))
    return h


def test_build_bytes_equal_numpy_kron_build(rng):
    # tobytes() also tells -0.0 from +0.0, which np.array_equal does not
    families = load_families()
    sites = site_list(families)
    for trial in range(36):
        n = 1 + trial % 6
        field_cfg = FieldConfig(
            b=rng.uniform(95.0, 110.0),
            theta_deg=(0.0, 0.3, 2.0)[trial % 3],
            phi_deg=rng.uniform(0.0, 360.0),
        )
        placement = C13Placement(
            occupied=tuple(sites[i] for i in sorted(rng.choice(len(sites), n, replace=False)))
        )
        base = build_nv_hamiltonian(DEFAULT_CONSTANTS, field_cfg)
        expected = numpy_kron_full_hamiltonian(
            base, placement, families, field_cfg, DEFAULT_CONSTANTS
        )
        h = build_full_hamiltonian(base, placement, families, field_cfg, DEFAULT_CONSTANTS)
        assert h.tobytes() == expected.tobytes(), (trial, placement)


def test_equal_label_sequences_build_equal_bytes():
    # the premise of the per-call curve reuse: the build reads the family
    # labels in order, never the site index
    families = load_families()
    field_cfg = FieldConfig(b=102.1, theta_deg=0.3, phi_deg=40.0)
    base = build_nv_hamiltonian(DEFAULT_CONSTANTS, field_cfg)
    labels = [f.label for f in families if f.multiplicity >= 3][:2]
    one = C13Placement(occupied=((labels[0], 0), (labels[1], 2)))
    two = C13Placement(occupied=((labels[0], 2), (labels[1], 1)))
    swapped = C13Placement(occupied=((labels[1], 0), (labels[0], 1)))
    h_one, h_two, h_swapped = (
        build_full_hamiltonian(base, p, families, field_cfg, DEFAULT_CONSTANTS)
        for p in (one, two, swapped)
    )
    assert h_one.tobytes() == h_two.tobytes()
    assert h_one.tobytes() != h_swapped.tobytes()


def test_carbon13_paths_call_no_embed(monkeypatch):
    nv_spin_model()

    def no_embed(*args, **kwargs):
        raise AssertionError("embed called on a carbon-13 path")

    monkeypatch.setattr(spin_core, "embed", no_embed)
    monkeypatch.setattr(carbon13, "embed", no_embed, raising=False)
    families = load_families()
    base = build_nv_hamiltonian(DEFAULT_CONSTANTS, FIELD)
    placement = C13Placement(occupied=site_list(families)[:3])
    h = build_full_hamiltonian(base, placement, families, FIELD, DEFAULT_CONSTANTS)
    assert h.shape == (72, 72)
    cfg = McConfig(iterations=40, occupancy=0.011, seed=9)
    assert any(sample_placement(cfg, k, families).n_c13 for k in range(cfg.iterations))
    spec = mc_average_spectrum(cfg, FIELD, grid=GRID, mode="lo", families=families)
    assert np.all(np.isfinite(spec.values))


def test_six_site_build_memory():
    families = load_families()
    base = build_nv_hamiltonian(DEFAULT_CONSTANTS, FIELD)
    placement = C13Placement(occupied=site_list(families)[:6])
    build_full_hamiltonian(base, placement, families, FIELD, DEFAULT_CONSTANTS)  # warm caches
    tracemalloc.start()
    try:
        h = build_full_hamiltonian(base, placement, families, FIELD, DEFAULT_CONSTANTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * h.nbytes


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


@pytest.mark.parametrize("width", [np.inf, np.nan, 0.0, -1.0])
def test_mc_width_is_checked_before_the_first_draw(monkeypatch, width):
    def no_draw(*args, **kwargs):
        raise AssertionError("a placement was drawn before the width check")

    monkeypatch.setattr(carbon13, "sample_placement", no_draw)
    cfg = McConfig(iterations=100_000, seed=2)
    with pytest.raises(ValidationError, match=f"linewidth must be positive and finite, got {width!r}"):
        mc_average_spectrum(cfg, FIELD, width=width, grid=GRID, mode="lo")


def test_mc_bad_width_is_named_before_a_site_cap_error():
    # the draws of test_mc_cap_checked_before_any_build exceed the site cap
    cfg = McConfig(iterations=20, occupancy=0.15, seed=1)
    with pytest.raises(ValidationError, match="linewidth must be positive and finite, got inf"):
        mc_average_spectrum(cfg, FIELD, width=np.inf, grid=GRID, mode="lo")


def test_mc_grid_checked_before_the_first_draw(monkeypatch):
    calls = []
    real = carbon13.sample_placement

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(carbon13, "sample_placement", counting)
    cfg = McConfig(iterations=3, occupancy=0.011, seed=0)
    for grid in (None, np.array([]), np.zeros((2, 4)), np.array([0.0, np.nan])):
        with pytest.raises(ValidationError, match="shape"):
            mc_average_spectrum(cfg, FIELD, grid=grid, mode="lo")
    with pytest.raises(TypeError, match="grid"):
        mc_average_spectrum(cfg, FIELD)
    assert calls == []
    mc_average_spectrum(cfg, FIELD, grid=GRID, mode="lo")
    assert len(calls) == 3


def test_mc_mode_is_required():
    with pytest.raises(TypeError, match="mode"):
        mc_average_spectrum(McConfig(iterations=2), FIELD, grid=GRID)


def test_mc_grid_that_misses_the_band_is_refused_before_the_first_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a placement was drawn before the grid coverage check")

    monkeypatch.setattr(carbon13, "sample_placement", no_draw)
    cfg = McConfig(iterations=20, seed=2)
    with pytest.raises(ValidationError) as info:
        mc_average_spectrum(cfg, FIELD, grid=np.arange(0.0, 40.0, 0.5), mode="hi")
    centers = nv_table(FIELD.b, mode="hi").freq_mhz
    shift = max(max(abs(f.tensor.axx), abs(f.tensor.ayy), abs(f.tensor.azz)) for f in load_families())
    lo, hi = centers.min() - 20.0 - shift, centers.max() + 20.0 + shift
    assert str(info.value) == (
        f"grid [0, 39.5] MHz does not overlap the hi-band transitions in [{lo:g}, {hi:g}] MHz"
    )


def test_mc_grid_on_carbon13_satellites_is_accepted():
    # the satellites lie beyond the carbon-free lines' 20-width margin
    grid = np.arange(5800.0, 5900.0, 0.5)
    centers = nv_table(FIELD.b, mode="hi").freq_mhz
    assert grid[0] > centers.max() + 20.0
    spec = mc_average_spectrum(McConfig(iterations=2), FIELD, grid=grid, mode="hi")
    assert spec.values.shape == grid.shape


def test_build_rejects_a_site_index_beyond_the_multiplicity():
    families = load_families()
    family = families[0]
    placement = C13Placement(occupied=((family.label, family.multiplicity),))
    base = build_nv_hamiltonian(DEFAULT_CONSTANTS, FIELD)
    with pytest.raises(ValidationError) as info:
        build_full_hamiltonian(base, placement, families, FIELD)
    assert str(info.value) == (
        f"site index {family.multiplicity} out of range for family {family.label!r} "
        f"(multiplicity {family.multiplicity})"
    )


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


HI_GRID = np.arange(5650.0, 5900.0, 0.5)


def per_draw_mc(cfg, field_cfg, grid, mode, beta=0.2, width=1.0):
    """Mean and stderr solving every draw, as an (iterations x grid) array."""
    families = load_families()
    base = build_nv_hamiltonian(DEFAULT_CONSTANTS, field_cfg)
    rows = []
    for k in range(cfg.iterations):
        placement = sample_placement(cfg, k, families)
        h = build_full_hamiltonian(base, placement, families, field_cfg, DEFAULT_CONSTANTS)
        table = transition_table(eigensolve(h), beta, mode=mode, b_mt=field_cfg.b)
        rows.append(synthesize(table, width, grid).values)
    curves = np.array(rows)
    n = cfg.iterations
    return curves.mean(axis=0), curves.std(axis=0, ddof=1) / np.sqrt(n)


@pytest.mark.parametrize("mode", ["lo", "hi"])
@pytest.mark.parametrize("theta_deg", [0.0, 0.3])
@pytest.mark.parametrize("occupancy, iterations, seed", [(0.011, 60, 3), (0.1, 8, 1)])
def test_mc_reuse_equals_per_draw_loop(mode, theta_deg, occupancy, iterations, seed):
    # the 10 % draws hold 2-6 sites (dim up to 576)
    cfg = McConfig(iterations=iterations, occupancy=occupancy, seed=seed)
    field_cfg = FieldConfig(b=102.2, theta_deg=theta_deg)
    grid = GRID if mode == "lo" else HI_GRID
    spec = mc_average_spectrum(cfg, field_cfg, beta=0.2, width=1.0, grid=grid, mode=mode)
    mean, stderr = per_draw_mc(cfg, field_cfg, grid, mode)
    assert np.array_equal(spec.values, mean)
    assert np.array_equal(spec.stderr, stderr)
    if occupancy == 0.011:
        assert spec.meta["draws_reused"] > spec.meta["n_c13_histogram"][0]


def test_stream_mean_and_stderr_equal_array_reduction(rng):
    # a one-point grid is the case where numpy's column sum is pairwise
    for trial in range(200):
        size = (1, 2, 7, 50, 400)[trial % 5]
        distinct = [rng.standard_normal(size) * 10.0 ** rng.integers(-3, 3) for _ in range(5)]
        n = int(rng.integers(1, 60))
        rows = [distinct[i] for i in rng.integers(0, len(distinct), n)]
        mean, stderr = carbon13._mean_and_stderr(rows)
        arr = np.array(rows)
        assert mean.tobytes() == arr.mean(axis=0).tobytes()
        expected = arr.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros(size)
        assert stderr.tobytes() == expected.tobytes()


def count_builds(monkeypatch):
    """Record the label sequence of every carbon-13 build."""
    built = []
    real = carbon13.build_full_hamiltonian

    def counting(base, placement, *args, **kwargs):
        built.append(tuple(label for label, _ in placement.occupied))
        return real(base, placement, *args, **kwargs)

    monkeypatch.setattr(carbon13, "build_full_hamiltonian", counting)
    return built


def test_mc_builds_each_label_sequence_once(monkeypatch):
    cfg = McConfig(iterations=300, occupancy=0.011, seed=4)
    families = load_families()
    keys = [
        tuple(label for label, _ in sample_placement(cfg, k, families).occupied)
        for k in range(cfg.iterations)
    ]
    distinct = {key for key in keys if key}
    built = count_builds(monkeypatch)
    spec = mc_average_spectrum(cfg, FIELD, grid=GRID, mode="lo", families=families)
    assert len(built) == len(set(built)) == len(distinct) < sum(map(bool, keys))
    assert set(built) == distinct
    meta = spec.meta
    assert meta["curves_computed"] == len(distinct) + 1
    assert meta["draws_reused"] == cfg.iterations - len(distinct)
    assert meta["n_c13_histogram"] == np.bincount([len(key) for key in keys]).tolist()
    assert sum(meta["n_c13_histogram"]) == cfg.iterations


def test_mc_reuse_lasts_one_call(monkeypatch):
    cfg = McConfig(iterations=100, occupancy=0.011, seed=6)
    built = count_builds(monkeypatch)
    mc_average_spectrum(cfg, FIELD, grid=GRID, mode="lo")
    first = len(built)
    mc_average_spectrum(cfg, FIELD, grid=GRID, mode="lo")
    assert first > 0
    assert len(built) == 2 * first


def test_mc_iterations_cap_checked_before_any_draw(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a placement was drawn before the iterations cap check")

    monkeypatch.setattr(carbon13, "sample_placement", no_draw)
    cfg = McConfig(iterations=carbon13.MAX_ITERATIONS + 1, occupancy=0.011)
    with pytest.raises(ResourceLimitError, match=f"{cfg.iterations} .* cap of {carbon13.MAX_ITERATIONS}"):
        mc_average_spectrum(cfg, FIELD, grid=GRID, mode="lo")


FAMILY_HEADER = "label,multiplicity,axx_mhz,ayy_mhz,azz_mhz,cos_zz,source\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "{path}: empty family file (missing header)"),
        ("label,multiplicity,axx,ayy,azz,cos_zz,source\n", "{path}: expected header label,"),
        (FAMILY_HEADER + "A,3,1,1,2,1.0\n", "{path}:2: expected 7 fields"),
        (FAMILY_HEADER + "A,3,1,1,2,1,x\nB,0,1,1,2,1,x\n", "{path}:3: multiplicity must be >= 1"),
        (FAMILY_HEADER + "A,3,1,1,2,1.5,x\n", "{path}:2: cos_zz must lie in [0, 1]"),
        (FAMILY_HEADER + "A,3,1,1,2,-0.1,x\n", "{path}:2: cos_zz must lie in [0, 1]"),
        (FAMILY_HEADER + "A,3,nan,1,2,1,x\n", "{path}:2: hyperfine values must be finite"),
        (FAMILY_HEADER + "A,3,1,inf,2,1,x\n", "{path}:2: hyperfine values must be finite"),
        (FAMILY_HEADER + "A,3,1,1,2,1,x\nB,3,1,1,-inf,1,x\n", "{path}:3: hyperfine values must be finite"),
    ],
)
def test_family_file_rejections_name_the_line(tmp_path, text, message):
    path = tmp_path / "families.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as info:
        load_families(path)
    assert str(info.value).startswith(message.format(path=path))
