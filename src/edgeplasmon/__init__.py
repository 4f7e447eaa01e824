"""Edge plasmon-polaritons on semi-infinite anisotropic 2D conducting sheets.

Wiener-Hopf solution of the quasi-electrostatic edge problem: existence
(winding index), dispersion relation, and near-edge field profiles, for a
spatially homogeneous 2x2 surface-conductivity tensor in nondimensional
units (wavenumbers in k0, conductivities in sqrt(eps/mu)).
"""

from .branches import BranchPointError, Sheet, principal_log, sheet_sqrt, sign_q
from .conductivity import (
    AmbientMedium,
    ConductivityTensor,
    PassivityError,
    ValidityReport,
    drude,
    magneto_hydrodynamic,
    nondimensionalize,
    redimensionalize,
    rotate,
    validity_check,
)
from .dispersion import (
    Classification,
    DispersionSolution,
    LongwaveParams,
    classify,
    f_pm,
    f_pm_mellin,
    longwave_q,
    residual,
    solve,
    trace_curve,
    vm_isotropic_residual,
)
from .field import (
    EdgeLimits,
    FieldProfile,
    SppDecomposition,
    SppMode,
    edge_limits,
    phi_profile,
    spp_decomposition,
)
from .kernel import Problem, Variant, dp_dxi, khat, p_of_xi
from .spectrum import (
    AssignmentRule,
    ConjectureResult,
    DegenerateQuadraticError,
    DoubleRootError,
    QuadraticRoots,
    RealAxisZeroError,
    SpectrumReport,
    SplitCoefficients,
    bulk_zeros,
    conjecture_check,
    dual_winding_index,
    quadratic_roots,
    split_coefficients,
    winding_index,
)
from .wiener_hopf import (
    NonzeroIndexError,
    SplitHalf,
    UnwrappedLogKernel,
    boundary_split_q,
    build_log_kernel,
    cauchy_transform,
    split_q,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
