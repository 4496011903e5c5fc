"""Bulk eigenvalue spacing statistics for invariant random-matrix ensembles.

Samplers for the orthogonal/unitary/symplectic symmetry classes, the
universal nearest-neighbour spacing laws computed from the limiting kernels
(Painleve, Fredholm and series routes), and the localized empirical spacing
machinery needed to verify their agreement at finite matrix size.
"""

__version__ = "0.1.0"

from .ensembles import (
    EnsembleSpec,
    SamplerState,
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
    universal_cdf,
)
from .kernels import (
    MatrixKernelValue,
    corr_fn,
    matrix_kernel,
    pfaffian,
)
from .spacings import (
    EmpiricalSpacingCDF,
    KSReport,
    RescaledSpectrum,
    Window,
    alternating_identity_check,
    default_window,
    estimate_density,
    ks_node_distance,
    rescale_localize,
    sigma_cdf,
)

__all__ = [
    "EmpiricalSpacingCDF",
    "EnsembleSpec",
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
    "default_window",
    "estimate_density",
    "fredholm_g2",
    "gap_curves",
    "gap_probability",
    "integrate_sigma",
    "ks_node_distance",
    "matrix_kernel",
    "pfaffian",
    "rescale_localize",
    "sample_mcmc",
    "sample_tridiagonal",
    "semicircle_density",
    "series_gap",
    "sigma_cdf",
    "universal_cdf",
]
