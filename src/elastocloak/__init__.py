"""elastocloak: transformation elastodynamics for the time-harmonic
Lame system.

Builds ideal and regularized (lossy-layer) elastic cloaks on concentric
disks, constructs cloak-busting resonant inclusions, and verifies the
near-cloaking convergence rate through per-mode Neumann-to-Dirichlet
computations and boundary-integral kernels.
"""

__version__ = "0.1.0"

from .tensors import (
    IsotropicMedium,
    StiffnessTensor,
    SymmetryReport,
    apply_stiffness,
    check_legendre,
    iso_stiffness,
    symmetry_report,
    tensor_from_json,
    tensor_to_json,
    voigt_matrix,
)
from .maps import (
    JacobianData,
    JointError,
    RadialMap,
    blowup_map,
    compose_maps,
    compose_pushforward_check,
    identity_map,
    jacobian,
    map_from_json,
    map_to_json,
    pushforward_density,
    pushforward_stiffness,
    regularized_blowup_map,
)
from .cloaks import (
    NearCloak,
    PhysicalCloakConfig,
    SingularityProfile,
    build_near_cloak,
    ideal_cloak_polar,
    lining_config,
    singularity_scan,
)
from .specfun import (
    CylEval,
    bessel_j,
    bessel_j_prime,
    bessel_j_second,
    bessel_y,
    bessel_y_prime,
    cyl_eval,
    hankel1,
    hankel1_prime,
)
from .modesolver import (
    LayeredDiskConfig,
    ModeOverflowError,
    NearResonanceError,
    NtDOperator,
    ResonanceResult,
    SearchWindowError,
    assemble_ntd,
    energy_identity_check,
    find_resonant_densities,
    free_disk_ntd,
    mode_system_condition,
    ntd_distance,
    ntd_from_json,
    ntd_to_json,
    ps_decompose,
    resonant_config,
    solve_mode,
    traction_coeffs,
    uniform_disk,
)
from .kernels import (
    CircleQuadrature,
    ExteriorCavitySolution,
    LayerOperators,
    asymptotic_gap_2d,
    circle_quadrature,
    dl_potential,
    eta_constant,
    green_omega,
    green_static,
    green_traction,
    layer_operators,
    sl_potential,
    solve_exterior_cavity,
)
from .harness import (
    DEFAULT_CONTENTS,
    FitResult,
    convergence_sweep,
    design_table,
    kernel_check,
    lining_sweep,
    loglog_fit,
    resonance_report,
)
from .wavefields import ModeField, basis_column, wavenumbers
