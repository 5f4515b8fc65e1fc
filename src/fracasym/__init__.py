"""Radially-reduced spectral engine and large-time verification harness for
the fully nonlocal heat equation  d_t^alpha u + (-Laplacian)^beta u = f  in
dimension N > 4 beta, for radial separable forcings."""

from .params import (
    FracParams,
    ParameterError,
    ScaleClass,
    ScaleSpec,
    classify_scale,
    sigma_p,
)
from .radialtransform import (
    RadialFunction,
    RadialGrid,
    TransformError,
    lp_norm_annulus,
    omega_n,
    radial_fourier_forward,
    radial_fourier_inverse,
    radial_fourier_inverses,
    radial_integral,
)
from .special import SpecialFunctionError, bessel_j_half, mittag_leffler
from .kernels import (
    KernelError,
    KernelProfile,
    build_y_profile,
    build_z_profile,
    evaluate_Y,
    validate_bounds,
)
from .potentials import (
    PotentialError,
    riesz_constant,
    riesz_potential,
    riesz_tail_check,
)
from .solver import (
    ForcingSpec,
    SolutionSlice,
    SolverError,
    solution_mass,
    solve_duhamel,
)
from .reporting import ConvergenceReport
from .verify import VerifyConfig, VerifyError, run_check

__version__ = "0.1.0"
