import numpy as np
import pytest
from scipy.optimize import least_squares

from nvgslac import fitting
from nvgslac.hamiltonian import DEFAULT_CONSTANTS, FieldConfig, build_nv_hamiltonian
from nvgslac.spin_core import eigensolve
from nvgslac.transitions import transition_table


@pytest.fixture
def constants():
    return DEFAULT_CONSTANTS


def nv_system(b, theta_deg=0.0, constants=DEFAULT_CONSTANTS):
    h = build_nv_hamiltonian(constants, FieldConfig(b=b, theta_deg=theta_deg))
    return eigensolve(h)


def nv_table(b, beta=0.0, mode=None, theta_deg=0.0, constants=DEFAULT_CONSTANTS, **kwargs):
    system = nv_system(b, theta_deg=theta_deg, constants=constants)
    return transition_table(system, beta, mode=mode, b_mt=b, **kwargs)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def unconverged_searches(monkeypatch):
    """Every fit search runs, then reports status 0: stopped, not converged."""

    def unconverged(*args, **kwargs):
        end = least_squares(*args, **kwargs)
        end.status = 0
        return end

    monkeypatch.setattr(fitting, "least_squares", unconverged)


def greedy_bijection_walk(weight):
    """Reference for ``spin_core._greedy_bijection``: sort every entry and walk them.

    Visits the entries by (-weight, column, row) and takes each one whose row
    and column are still free; assign[row] = column, -1 for a row left over.
    """
    n_rows, n_cols = weight.shape
    # A stable sort of the column-major weights visits ties by column, then row.
    order = np.argsort(-weight.T.ravel(), kind="stable")
    assign = [-1] * n_rows
    col_used = [False] * n_cols
    remaining = min(n_rows, n_cols)
    for flat in map(int, order):
        if remaining == 0:
            break
        c, r = divmod(flat, n_rows)
        if assign[r] >= 0 or col_used[c]:
            continue
        assign[r] = c
        col_used[c] = True
        remaining -= 1
    return np.array(assign, dtype=int)
