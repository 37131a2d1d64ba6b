"""Simulation and fitting of NV-center hyperfine spectra near the 102.4 mT
ground-state level anticrossing."""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    NvGslacError,
    ParseError,
    ResourceLimitError,
    ValidationError,
)
from .hamiltonian import (
    DEFAULT_CONSTANTS,
    FieldConfig,
    HyperfineTensor,
    PhysicalConstants,
    analytic_eigenstates,
    analytic_energies,
    build_nv_hamiltonian,
    gslac_field,
    level_sweep,
    parse_constants_file,
    truncated_hamiltonian,
)
from .spin_core import (
    EigenSystem,
    SpinMatrices,
    eigensolve,
    embed,
    format_label,
    label_states,
    product_basis_labels,
    spin_matrices,
)
from .transitions import (
    TransitionRow,
    TransitionTable,
    dipole_elements,
    intensity_matrix,
    populations,
    transition_probabilities,
    transition_table,
)
from .spectrum import (
    MeasuredSpectrum,
    SpectrumModel,
    frequency_grid,
    read_spectrum_csv,
    synthesize,
    track_transition,
    write_spectrum_csv,
)
from .carbon13 import (
    C13Placement,
    LatticeFamily,
    McConfig,
    build_full_hamiltonian,
    load_families,
    mc_average_spectrum,
    rotate_tensor,
    sample_placement,
)
from .fitting import (
    CalibrationModel,
    FitParams,
    FitResult,
    PolarizationReport,
    alignment,
    calibrate_field,
    fit_spectrum,
    orientation,
    polarization_sweep,
    reduced_chi2,
)
