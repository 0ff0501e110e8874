"""Verification lab for n-particle Bell operators.

Builds Bell operators for arbitrary measurement directions, verifies their
squared-operator commutator expansions exactly, tracks the collapse of the
attainable quantum value when single-particle commutators vanish, and compares
quantum maxima against exact classical bounds.
"""

from .pauli import (
    DENSE_LIMIT,
    PRUNE_TOL,
    PauliOperator,
    ResourceLimitError,
    UnitVector3,
    anticommutator,
    apply_operator,
    commutator,
    embed,
    multiply,
    single_spin_operator,
    tensor,
    to_dense,
)
from .settings import (
    MeasurementSettings,
    PlanarSettings,
    SettingPair,
    load_settings,
    random_planar,
    random_settings,
    random_unit_vector,
    save_settings,
    settings_from_json,
    settings_to_json,
    wrap_angle,
)
from .bell import (
    ExpansionReport,
    ReductionReport,
    ReductionSpec,
    canonical_mermin,
    canonical_settings,
    chsh_operator,
    chsh_square_expansion,
    default_reduction_spec,
    degenerate_settings,
    mermin_operator,
    mermin_spectrum,
    mermin_square,
    mermin_square_expansion,
    planar_spectral_max,
    planar_square_diagonal,
    reduction_check,
    three_particle_operator,
)
from .spectra import (
    LhvResult,
    SpectralReport,
    ViolationRow,
    expectation,
    ghz_state,
    lhv_max,
    maximal_eigenvector_check,
    violation_table,
)
from .optimize import (
    OptimizeConfig,
    OptimizeResult,
    objective_eval,
    optimize_angles,
    quantum_ceiling,
)

__version__ = "0.1.0"
