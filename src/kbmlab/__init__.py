"""Numerical spectral laboratory for the kinetic Brownian motion generator
on constant-curvature surface bundles.

The generator restricted to one Casimir block is an explicit complex
tridiagonal matrix; this package assembles those restrictions, continues
the eigenvalue branch through the unperturbed value 0, verifies the
second-order perturbation data and the Riesz projection machinery, and
sweeps the noise parameter gamma to exhibit convergence of the branch
values to the Laplace eigenvalues of the base surface.
"""

from .errors import (
    BranchCollisionError,
    ConfigError,
    ContourPlacementError,
    EigensolveError,
    KbmLabError,
    LadderRangeError,
    SpectrumValidationError,
    TruncationError,
)
from .ladder import (
    CasimirBlock,
    LadderCoefficients,
    LadderExtent,
    casimir_residual,
    coupling_matrix,
    finite_block,
    ladder_coeff_sq,
    ladder_coefficients,
    ladder_extent,
    lowering_coeff_sq,
    lowering_matrix,
    raising_matrix,
    vertical_matrix,
)
from .operator import (
    TridiagonalOperator,
    TruncationPolicy,
    accretivity_minimum,
    adaptive_truncation,
    assemble_generator,
    assemble_perturbed,
    even_sector,
    fixed_truncation,
    numerical_range_floor,
    parity_sectors,
    tridiag_solve,
    truncate,
)
from .eig import (
    CharPolyValue,
    EigenBranch,
    branch_value,
    char_poly,
    eig_dense,
    eigvec,
    exceptional_point,
    gap_to_rest,
    newton_polish,
    parity_eigvals,
    track_branch,
)
from .perturb import (
    Contour,
    PerturbationSeries,
    ZeroModeNorm,
    enclosed_count,
    idempotency_defect,
    perturbation_radius,
    perturbation_series,
    riesz_projection,
    zero_mode_resolvent_norm,
)
from .spectra import (
    GammaTable,
    SpectrumEntry,
    SurfaceSpectrum,
    convergence_summary,
    custom_spectrum,
    default_gamma_grid,
    fitted_decay_exponent,
    gamma_sweep,
    make_gamma_grid,
    mixing_report,
    sphere_spectrum,
    tail_mask,
    torus_spectrum,
)

__version__ = "0.1.0"
