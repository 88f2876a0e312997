"""Internal gravity waves in a stratified tank: waveguide-mode
decomposition, coupled-KdV evolution and stream-function
reconstruction, with a verification harness for the numerical scheme.
"""

from .modes import (
    ModeBasis,
    Projection,
    Stratification,
    build_constant_n_basis,
    project_profile,
    weighted_inner_product,
)
from .coefficients import (
    CoefficientSet,
    ConsistencyError,
    build_coefficients,
    dispersion_coeffs,
    nonlinear_coeff_closed_form,
    nonlinear_coeffs,
    reconcile_with_reference,
)
from .solver import (
    Grid,
    ModeState,
    NonFiniteError,
    ONE_STAGE,
    RunReport,
    SchemeParams,
    TWO_STAGE,
    advance,
    discrete_l2_norm,
    stable_tau,
)
from .scenario import (
    PaddleProfile,
    ScenarioConfig,
    build_initial_state,
    load_config,
    mcewan_default,
    parse_config,
    serialize_config,
    validate,
)
from .fields import FieldSnapshot, cross_section, export, synthesize
from .verification import (
    ConvergenceReport,
    FissionReport,
    TravelingWave,
    build_traveling_pair,
    conservation_audit,
    fission_census,
    integrable_pair_check,
    kdv_soliton_oracle,
    measure_spatial_convergence,
    measure_temporal_convergence,
    scattering_bound_states,
    single_mode_coefficients,
    stability_probe,
)

__version__ = "0.1.0"
