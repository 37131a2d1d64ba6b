"""The cached NV + 14N spin model behind every 9x9 pipeline."""

import dataclasses
import sys

import numpy as np
import pytest
from conftest import greedy_bijection_walk, nv_system

from nvgslac import spin_core
from nvgslac.carbon13 import McConfig, load_families, mc_average_spectrum, sample_placement
from nvgslac.cli import main
from nvgslac.errors import ValidationError
from nvgslac.fitting import FitParams, fit_spectrum, model_spectrum
from nvgslac.hamiltonian import (
    DEFAULT_CONSTANTS,
    NV_N14_LABELS,
    FieldConfig,
    PhysicalConstants,
    build_nv_hamiltonian,
    level_sweep,
)
from nvgslac.spectrum import MeasuredSpectrum
from nvgslac.spin_core import (
    EigenSystem,
    eigensolve,
    embed,
    label_states,
    nv_spin_model,
    product_basis_labels,
    require_hermitian,
    spin_matrices,
)
from nvgslac.transitions import (
    SOLVE_CHUNK,
    FieldStages,
    dipole_elements,
    field_stage,
    transition_probabilities,
    transition_table,
)

C = DEFAULT_CONSTANTS
CUSTOM = PhysicalConstants(
    d_g=2871.3, gamma_e=28.0, q=-5.01, gamma_n14=0.0031, a_par=-2.2, a_perp=-2.65
)


def embed_kron_hamiltonian(constants, field_cfg):
    """The explicit embed/kron build, term by term as in the module docstring."""
    dims = (3, 3)
    e = spin_matrices(1.0)
    sx, sy, sz = (embed(op, 0, dims) for op in (e.sx, e.sy, e.sz))
    ix, iy, iz = (embed(op, 1, dims) for op in (e.sx, e.sy, e.sz))
    nx, ny, nz = field_cfg.direction()
    b = field_cfg.b
    c = constants
    return (
        c.d_g * (sz @ sz)
        + c.gamma_e * b * (nx * sx + ny * sy + nz * sz)
        + c.q * (iz @ iz)
        - c.gamma_n14 * b * (nx * ix + ny * iy + nz * iz)
        + c.a_perp * (sx @ ix + sy @ iy)
        + c.a_par * (sz @ iz)
    )


def package_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "nvgslac"]


@pytest.mark.parametrize("constants", [C, CUSTOM], ids=["default", "custom"])
def test_cached_build_equals_embed_kron_oracle(constants, rng):
    for _ in range(50):
        b, theta, phi = rng.uniform(0.0, [110.0, 180.0, 360.0])
        field_cfg = FieldConfig(b=b, theta_deg=theta, phi_deg=phi)
        expected = embed_kron_hamiltonian(constants, field_cfg)
        assert np.array_equal(build_nv_hamiltonian(constants, field_cfg), expected)


def test_cached_arrays_are_read_only():
    model = nv_spin_model()
    arrays = {
        f.name: getattr(model, f.name)
        for f in dataclasses.fields(model)
        if isinstance(getattr(model, f.name), np.ndarray)
    }
    assert set(arrays) >= {"sx", "sz2", "flip_flop", "dipole", "triu"}
    for name, array in arrays.items():
        assert not array.flags.writeable, name
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1
    before = build_nv_hamiltonian(C, FieldConfig(b=102.0, theta_deg=1.0))
    h = build_nv_hamiltonian(C, FieldConfig(b=102.0, theta_deg=1.0))
    h[0, 0] = 1e9  # the result is the caller's own array
    assert np.array_equal(build_nv_hamiltonian(C, FieldConfig(b=102.0, theta_deg=1.0)), before)


def test_hot_paths_build_no_operators(monkeypatch, tmp_path):
    center = C.d_g + C.gamma_e * 101.5
    grid = np.arange(center - 12.0, center + 12.0, 0.02)
    params = FitParams(beta=0.3, b=101.5, width=1.2)
    expected = model_spectrum(params, grid).values  # warm call

    def no_embed(*args, **kwargs):
        raise AssertionError("embed called on a 9x9 path after the warm call")

    original = spin_core.embed
    for module in package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, no_embed)
    assert spin_core.embed is no_embed
    assert np.array_equal(model_spectrum(params, grid).values, expected)
    args = ["simulate", "--b-start", "101.0", "--b-stop", "101.4", "--b-step", "0.1"]
    args += ["--grid", "5680:5800:0.2", "--out", str(tmp_path / "sim")]
    assert main(args) == 0
    assert len(list((tmp_path / "sim").glob("spectrum_hi_*.csv"))) == 5


def test_no_cache_grows_with_carbon13(tmp_path):
    cfg = McConfig(iterations=8, occupancy=0.011, seed=2)
    families = load_families()
    assert max(sample_placement(cfg, k, families).n_c13 for k in range(cfg.iterations)) > 0
    mc_average_spectrum(cfg, FieldConfig(b=102.4), grid=np.arange(0.0, 40.0, 0.5), mode="lo")
    # a fit's field terms, level index and field stages, and a sweep's, live one call
    grid = np.arange(5680.0, 5710.0, 0.05)
    data = MeasuredSpectrum(grid, model_spectrum(FitParams(0.3, 101.5, 1.2), grid).values)
    fit_spectrum(data, FitParams(beta=0.0, b=101.45, width=1.0))
    args = ["simulate", "--b-start", "101.0", "--b-stop", "101.4", "--b-step", "0.1"]
    assert main(args + ["--grid", "5680:5800:0.2", "--out", str(tmp_path / "sim")]) == 0
    caches = {
        id(value): value
        for module in package_modules()
        for value in vars(module).values()
        if hasattr(value, "cache_info")
    }
    assert list(caches.values()) == [nv_spin_model]
    assert nv_spin_model.cache_info().currsize == 1
    model = nv_spin_model()
    for name in ("sx", "sy", "sz", "ix", "iy", "iz", "sz2", "iz2", "flip_flop", "szi", "dipole"):
        assert getattr(model, name).shape == (9, 9)
    assert model.triu.shape == (2, 36) and model.triu.max() < 9


def test_stacked_level_sweep_matches_single_solves():
    fields = np.linspace(101.0, 103.5, 80)
    swept = level_sweep(C, fields, theta_deg=0.3)
    for b, tracked in zip(fields, swept):
        single = eigensolve(build_nv_hamiltonian(C, FieldConfig(b=b, theta_deg=0.3)))
        assert np.array_equal(tracked.energies, single.energies)
        assert np.array_equal(tracked.vectors, single.vectors)
        assert sorted(tracked.labels) == sorted(product_basis_labels(0))
    first = eigensolve(build_nv_hamiltonian(C, FieldConfig(b=fields[0], theta_deg=0.3)))
    assert swept[0].labels == first.labels
    with pytest.raises(ValidationError):
        level_sweep(C, [])


def _perturbed(hs, rel, rng):
    """A copy of the stack hs whose last matrix gains an anti-Hermitian part of rel times its norm."""
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    k = a - a.conj().T
    out = hs.copy()
    out[-1] += rel * np.linalg.norm(hs[-1]) / np.linalg.norm(k) * k
    return out


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
def test_hermiticity_tolerance_outside_the_exact_path(stacked, rng):
    hs = np.stack([build_nv_hamiltonian(C, FieldConfig(b, 0.4, 30.0)) for b in (101.0, 102.4)])
    if not stacked:
        hs = hs[-1:]
    require_hermitian(hs if stacked else hs[0])  # exactly Hermitian
    small = _perturbed(hs, 1e-12, rng)
    assert (small != small.conj().swapaxes(-1, -2)).any()
    require_hermitian(small if stacked else small[0])
    large = _perturbed(hs, 1e-6, rng)
    with pytest.raises(ValidationError, match="not Hermitian"):
        require_hermitian(large if stacked else large[0])


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
@pytest.mark.parametrize(
    "entries",
    [
        {(2, 3): np.nan},
        {(4, 4): np.inf},
        {(0, 1): np.inf, (1, 0): np.inf},
        {(0, 1): -np.inf, (1, 0): -np.inf},
    ],
    ids=["nan", "inf-diagonal", "symmetric-inf", "symmetric-minus-inf"],
)
def test_hermiticity_rejects_non_finite_entries(stacked, entries):
    hs = np.stack([build_nv_hamiltonian(C, FieldConfig(b)) for b in (101.0, 102.4)])
    for (i, j), value in entries.items():
        hs[-1, i, j] = value
    # numpy warns "invalid value" on inf - inf; the check must still fail
    with np.errstate(invalid="ignore"), pytest.raises(ValidationError, match="not Hermitian"):
        require_hermitian(hs if stacked else hs[-1])


def test_stack_hermiticity_checks_every_matrix():
    hs = np.stack([build_nv_hamiltonian(C, FieldConfig(b=b)) for b in (100.0, 101.0, 102.0)])
    require_hermitian(hs)
    hs[1, 0, 1] += 1.0
    with pytest.raises(ValidationError):
        require_hermitian(hs)


def test_weights_and_bands_follow_the_labels():
    system = nv_system(102.4, theta_deg=0.2)
    # labeled against a re-enumerated basis: same labels, same weights and bands
    shuffled = tuple(reversed(product_basis_labels(0)))
    relabeled = label_states(EigenSystem(system.energies, system.vectors[::-1]), shuffled)
    assert relabeled.labels == system.labels
    for mode in ("hi", "lo", None):
        got, want = field_stage(relabeled, mode), field_stage(system, mode)
        for name in ("s_index", "i_index", "band"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (mode, name)
        got = transition_table(relabeled, 0.4, 0.7, mode=mode)
        want = transition_table(system, 0.4, 0.7, mode=mode)
        for name in ("i", "j", "freq_mhz"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (mode, name)
        # the reversed rows fold the dipole in another summation order
        for name in ("probability", "intensity"):
            assert np.allclose(getattr(got, name), getattr(want, name), rtol=1e-12, atol=0)
    # labels replaced on a finished system: weights and bands read the new ones
    swapped = dataclasses.replace(system, labels=system.labels[::-1])
    stage, moved_stage = field_stage(system), field_stage(swapped)
    assert np.array_equal(moved_stage.s_index, stage.s_index[::-1])
    assert np.array_equal(moved_stage.i_index, stage.i_index[::-1])
    for mode in ("hi", "lo"):
        kept = transition_table(system, 0.4, 0.7, mode=mode)
        moved = transition_table(swapped, 0.4, 0.7, mode=mode)
        assert {row.label_to[0] == 1 for row in kept.rows} == {mode == "hi"}
        assert {row.label_to[0] == 1 for row in moved.rows} <= {mode == "hi"}
        assert not np.array_equal(kept.i, moved.i) or not np.array_equal(kept.j, moved.j)
    for bad in ((2, 0), (0.5, 0)):
        wrong = EigenSystem(system.energies, system.vectors, labels=(bad,) + system.labels[1:])
        with pytest.raises(ValidationError):
            field_stage(wrong)


def test_stacked_labels_equal_the_greedy_bijection_on_every_system(monkeypatch):
    fallbacks = []
    greedy = spin_core._greedy_bijection

    def counting_greedy(weight):
        fallbacks.append(weight.shape)
        return greedy(weight)

    fields = 100.0 + 1e-3 * np.arange(5001)  # 100-105 mT in 1 uT steps
    for theta in (0.0, 0.3, 2.0):
        monkeypatch.setattr(spin_core, "_greedy_bijection", counting_greedy)
        systems = [stage.system for stage in FieldStages(C, theta)(fields)]
        monkeypatch.setattr(spin_core, "_greedy_bijection", greedy)
        for system in systems:
            assign = greedy_bijection_walk((np.abs(system.vectors) ** 2).T)
            assert system.labels == tuple(NV_N14_LABELS[a] for a in assign)
    assert fallbacks  # argmax is not a permutation at some level crossings


def test_level_sweep_labels_follow_the_greedy_predecessor_rule():
    fields = 100.0 + 1e-3 * np.arange(5001)  # 100-105 mT in 1 uT steps
    for theta in (0.0, 0.3, 2.0):
        swept = level_sweep(C, fields, theta_deg=theta)
        assign = greedy_bijection_walk((np.abs(swept[0].vectors) ** 2).T)
        labels = tuple(NV_N14_LABELS[a] for a in assign)
        assert swept[0].labels == labels
        for prev, system in zip(swept, swept[1:]):
            assign = greedy_bijection_walk((np.abs(prev.vectors.conj().T @ system.vectors) ** 2).T)
            labels = tuple(labels[a] for a in assign)
            assert system.labels == labels


@pytest.mark.parametrize("mode", ["hi", "lo", None])
def test_stack_across_a_chunk_boundary_is_bit_equal_to_single_solves(monkeypatch, mode):
    shapes = []
    eigh = np.linalg.eigh

    def recording_eigh(a):
        shapes.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    fields = np.linspace(101.5, 103.5, SOLVE_CHUNK + 5)
    stages = list(FieldStages(C, 0.3, mode)(fields))
    assert shapes == [(SOLVE_CHUNK, 9, 9), (5, 9, 9)]
    assert len(stages) == len(fields)
    for b, stage in zip(fields, stages):
        h = build_nv_hamiltonian(C, FieldConfig(b=b, theta_deg=0.3))
        single = field_stage(eigensolve(h), mode)
        assert stage.system.labels == single.system.labels
        for name in ("energies", "vectors"):
            assert getattr(stage.system, name).tobytes() == getattr(single.system, name).tobytes()
        for name in ("i", "j", "freq_mhz", "probability", "band", "s_index", "i_index"):
            assert getattr(stage, name).tobytes() == getattr(single, name).tobytes(), name


@pytest.mark.parametrize("mode", ["hi", "lo", None])
@pytest.mark.parametrize("theta", [0.0, 0.3])
def test_field_stages_at_is_bit_equal_to_a_one_field_sweep(mode, theta):
    for b in (0.0, 95.0, 101.35, 102.4, 102.41, 103.5, 250.0):
        one = FieldStages(C, theta, mode).at(b)
        (swept,) = FieldStages(C, theta, mode)([b])
        assert one.system.labels == swept.system.labels
        for name in ("energies", "vectors"):
            assert getattr(one.system, name).tobytes() == getattr(swept.system, name).tobytes()
        for name in ("i", "j", "freq_mhz", "probability", "band", "s_index", "i_index"):
            assert getattr(one, name).tobytes() == getattr(swept, name).tobytes(), name


@pytest.mark.parametrize(
    "fields, theta, named",
    [
        ([101.0, 102.0, -1.0, 103.0], 0.0, "-1.0"),
        ([101.0, float("nan"), 103.0], 0.3, "nan"),
        ([101.0, 102.0, float("inf")], 0.3, "inf"),
        ([101.0, -2.0], 200.0, "200.0"),  # the first field's angle is checked first
    ],
)
def test_invalid_field_is_rejected_before_any_eigh(monkeypatch, fields, theta, named):
    def no_eigh(a):
        raise AssertionError("eigh ran before the fields were checked")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    with pytest.raises(ValidationError, match=named):
        FieldStages(C, theta)(fields)  # the call checks; no stage is asked for
