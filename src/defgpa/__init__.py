"""defgpa: closed-form generalized Procrustes analysis with linear basis warps.

Registers n corresponded landmark shapes (possibly with missing points) to an
unknown reference shape, with affine or thin-plate-spline transformations,
by a single eigendecomposition instead of alternating minimization.
"""

from .errors import (
    DefgpaError,
    DegenerateCenters,
    DegenerateConfiguration,
    DegenerateInput,
    DimensionError,
    FormatError,
    InsufficientOverlap,
    InvalidMatrix,
    SingularSystem,
    SingularTransform,
    UnconstrainedPoint,
)
from .shapes import Shape, ShapeSet, load_shapes, save_shapes
from .spectral import CovariancePrior, EigenPairs, eig_sym, leftmost_singular_vector
from .warps import (
    AffineWarp,
    LbwModel,
    TpsWarp,
    affine_basis,
    apply_warp,
    bending_energy,
    fit_inverse_tps,
    free_translation_witness,
    place_control_points,
    tps_build,
    tps_kernel,
)
from .gpa import (
    GpaSolution,
    TheoremConditionReport,
    assemble_P,
    check_theorem_conditions,
    complete_all,
    estimate_prior_for_set,
    solve,
    solve_affine_centered,
)
from .metrics import CveConfig, cross_validation_error, cross_validation_errors, rmse_d, rmse_r

__version__ = "0.1.0"

__all__ = [
    "AffineWarp", "CovariancePrior", "CveConfig", "DefgpaError", "DegenerateCenters",
    "DegenerateConfiguration", "DegenerateInput", "DimensionError", "EigenPairs",
    "FormatError", "GpaSolution", "InsufficientOverlap", "InvalidMatrix", "LbwModel",
    "Shape", "ShapeSet", "SingularSystem", "SingularTransform", "TheoremConditionReport",
    "TpsWarp", "UnconstrainedPoint",
    "affine_basis", "apply_warp", "assemble_P", "bending_energy",
    "check_theorem_conditions", "complete_all", "cross_validation_error",
    "cross_validation_errors", "eig_sym", "estimate_prior_for_set", "fit_inverse_tps",
    "free_translation_witness", "leftmost_singular_vector", "load_shapes", "place_control_points",
    "rmse_d", "rmse_r", "save_shapes", "solve", "solve_affine_centered", "tps_build", "tps_kernel",
]
