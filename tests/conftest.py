import numpy as np
import pytest

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
