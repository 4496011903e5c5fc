"""Bulk eigenvalue spacing statistics for invariant random-matrix ensembles.

Samplers for the orthogonal/unitary/symplectic symmetry classes, the
universal nearest-neighbour spacing laws computed from the limiting kernels
(Painleve, Fredholm and series routes), and the localized empirical spacing
machinery needed to verify their agreement at finite matrix size.
"""

__version__ = "0.1.0"

from .ensembles import (
    CENTER_DENSITY,
    EnsembleSpec,
    SamplerState,
    sample_dense_goe,
    sample_mcmc,
    sample_tridiagonal,
    semicircle_density,
)
from .gaps import (
    GapCurve,
    SigmaTrajectory,
    UniversalSpacingCDF,
    build_universal_cdf,
    fredholm_g2,
    gap_curves,
    gap_probability,
    integrate_sigma,
    series_gap,
    tail_fit,
    universal_cdf,
)
from .kernels import (
    MatrixKernelValue,
    corr_fn,
    corr_fn_expansion,
    matrix_kernel,
    pfaffian,
    regularized_antideriv4,
)
from .spacings import (
    EmpiricalSpacingCDF,
    GammaCounts,
    KSReport,
    RescaledSpectrum,
    Window,
    alternating_identity_check,
    default_window,
    estimate_density,
    gamma_cdf,
    ks_node_distance,
    rescale_localize,
    sigma_cdf,
    variance_diagnostic,
)

__all__ = [
    "CENTER_DENSITY",
    "EmpiricalSpacingCDF",
    "EnsembleSpec",
    "GammaCounts",
    "GapCurve",
    "KSReport",
    "MatrixKernelValue",
    "RescaledSpectrum",
    "SamplerState",
    "SigmaTrajectory",
    "UniversalSpacingCDF",
    "Window",
    "alternating_identity_check",
    "build_universal_cdf",
    "corr_fn",
    "corr_fn_expansion",
    "default_window",
    "estimate_density",
    "fredholm_g2",
    "gamma_cdf",
    "gap_curves",
    "gap_probability",
    "integrate_sigma",
    "ks_node_distance",
    "matrix_kernel",
    "pfaffian",
    "regularized_antideriv4",
    "rescale_localize",
    "sample_dense_goe",
    "sample_mcmc",
    "sample_tridiagonal",
    "semicircle_density",
    "series_gap",
    "sigma_cdf",
    "tail_fit",
    "universal_cdf",
    "variance_diagnostic",
]
