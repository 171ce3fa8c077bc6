"""Evaluation metrics: reference/datum-space residuals and cross-validation.

rmse_r measures residuals after mapping each datum shape into the reference
frame; rmse_d maps the reference back through per-shape inverse transforms
(exact for invertible affine maps, a fitted inverse spline for the TPS).  The
cross-validation error re-solves the GPA with groups of points held out,
predicts them through the fold transforms, and gauge-corrects with a rigid
Procrustes between the fold reference and the full reference.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DefgpaError,
    DegenerateConfiguration,
    DimensionError,
    InsufficientOverlap,
    SingularTransform,
)
from . import gpa as _gpa
from .warps import TpsWarp, apply_warp, fit_inverse_tps


@dataclass(frozen=True)
class CveConfig:
    """Leave-N-out layout: contiguous folds of group_size points."""

    group_size: int = 1

    def __post_init__(self):
        if self.group_size < 1:
            raise DimensionError("fold size must be at least 1")


def _masked_sq_norm(residual, mask):
    r = residual * mask[None, :]
    return float(np.sum(r * r))


def rmse_r(solution, shape_set, models):
    """Root-mean-square reference-space residual over all visible landmarks."""
    kappa = sum(s.num_visible for s in shape_set)
    total = 0.0
    for shape, model, W in zip(shape_set, models, solution.weights):
        mapped = apply_warp(model, W, shape.filled(0.0))
        total += _masked_sq_norm(mapped - solution.reference, shape.visibility)
    return float(np.sqrt(total / kappa))


def _inverse_transform(model, W, S):
    """T^{-1}(S) for one shape: exact affine inverse or fitted inverse TPS."""
    if isinstance(model, TpsWarp):
        inverse, W_inv = fit_inverse_tps(model, W, model.internal_smoothing)
        return apply_warp(inverse, W_inv, S)
    # affine: W^T = [A | t]
    W = np.asarray(W, dtype=float)
    d = S.shape[0]
    A = W[:d, :].T
    t = W[d, :]
    try:
        return np.linalg.solve(A, S - t[:, None])
    except np.linalg.LinAlgError as exc:
        raise SingularTransform("affine transform has a singular linear part") from exc


def rmse_d(solution, shape_set, models):
    """Root-mean-square datum-space residual via per-shape inverse transforms."""
    kappa = sum(s.num_visible for s in shape_set)
    total = 0.0
    for shape, model, W in zip(shape_set, models, solution.weights):
        back = _inverse_transform(model, W, solution.reference)
        total += _masked_sq_norm(shape.filled(0.0) - back, shape.visibility)
    return float(np.sqrt(total / kappa))


def gauge_align(A, B, mask=None):
    """Rigid (R in SO(d), t) minimizing ||(R A + t 1^T - B) * mask||_F.

    The similarity Procrustes of the completion stage with the scale pinned
    to 1 and the determinant corrected to +1.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise DimensionError(f"shapes {A.shape} and {B.shape} do not match")
    d, m = A.shape
    if mask is None:
        mask = np.ones(m, dtype=bool)
    mask = np.asarray(mask, dtype=bool).ravel()
    if int(mask.sum()) < d + 1:
        raise InsufficientOverlap(f"need at least {d + 1} joint points, have {int(mask.sum())}")
    P = A[:, mask]
    Q = B[:, mask]
    muP = P.mean(axis=1, keepdims=True)
    muQ = Q.mean(axis=1, keepdims=True)
    R, sv = _gpa._rotations((P - muP) @ (Q - muQ).T)
    if sv[0] <= 0 or (d >= 2 and sv[d - 2] <= 1e-12 * sv[0]):
        raise DegenerateConfiguration("cross-covariance is rank-deficient; rotation undetermined")
    t = (muQ - R @ muP).ravel()
    return R, t


def _fold_slices(m, config):
    N = config.group_size
    return [np.arange(k, min(k + N, m)) for k in range(0, m, N)]


def cross_validation_errors(shape_set, fits, config=None, reflection_ref=0,
                            allow_reflection=False):
    """Leave-N-out CVE of several solved model sets (one per theta) on one shape set.

    `fits` holds (models, full solution) pairs, each solution the GPA of the
    whole set with those models.  The folds run on the outside and the model
    sets on the inside, so that everything that does not depend on the models
    is done once per fold: restricting the points and estimating the prior of
    the reduced set (with reflections when `allow_reflection`, as the full
    prior was).  Per fold and model set the GPA is re-solved on the kept
    points with the full solution's nu (raised to n/m of the fold if below),
    held-out points are pushed through the fold transforms, and the fold
    reference is rigidly aligned to the full reference restricted to the kept
    points.  Only originally visible landmarks enter the error.

    Returns one entry per model set: (cve, predicted shapes), or the
    DefgpaError that stopped it; a failed model set skips the later folds.
    """
    if config is None:
        config = CveConfig()
    d, m, n = shape_set.d, shape_set.m, shape_set.n
    if config.group_size >= m:
        return [DimensionError(f"fold size {config.group_size} must be below m={m}")] * len(fits)
    if m - config.group_size < d + 1:
        return [DimensionError(
            f"folds of {config.group_size} leave fewer than d+1={d + 1} points")] * len(fits)

    outcomes = [None] * len(fits)
    live = dict(enumerate(fits))
    predicted = {j: [np.full((d, m), np.nan) for _ in range(n)] for j in live}
    covered = np.zeros(m, dtype=bool)

    def fail(exc):
        for j in live:
            outcomes[j] = exc
        live.clear()

    for fold in _fold_slices(m, config):
        if not live:
            break
        keep = np.setdiff1d(np.arange(m), fold)
        if any(int(shape.visibility[keep].sum()) < d + 1 for shape in shape_set):
            fail(InsufficientOverlap(
                f"fold {fold.tolist()} leaves a shape with fewer than {d + 1} visible points"))
            break
        try:
            reduced = shape_set.restrict_points(keep)
        except DefgpaError as exc:  # a kept point visible nowhere: skip, not fatal
            warnings.warn(f"skipping fold {fold.tolist()}: {exc}")
            continue
        try:
            fold_prior = _gpa.estimate_prior_for_set(reduced, allow_reflection=allow_reflection)
        except DefgpaError as exc:
            fail(exc)
            break
        nu_fold_min = n / keep.size
        for j, (models, full) in list(live.items()):
            try:
                fold_sol = _gpa.solve(reduced, models, prior=fold_prior,
                                      nu=max(full.nu, nu_fold_min),
                                      reflection_ref=reflection_ref, check_conditions=False)
                R, t = gauge_align(fold_sol.reference, full.reference[:, keep])
                for i, shape in enumerate(shape_set):
                    pred = apply_warp(models[i], fold_sol.weights[i], shape.filled(0.0)[:, fold])
                    predicted[j][i][:, fold] = R @ pred + t[:, None]
            except DefgpaError as exc:
                outcomes[j] = exc
                del live[j]
        covered[fold] = True

    for j, (_, full) in live.items():
        kappa = 0
        total = 0.0
        for i, shape in enumerate(shape_set):
            use = shape.visibility & covered
            kappa += int(use.sum())
            diff = np.where(use[None, :], predicted[j][i] - full.reference, 0.0)
            total += float(np.sum(diff * diff))
            predicted[j][i][:, ~shape.visibility] = np.nan
        if kappa == 0:
            outcomes[j] = DegenerateConfiguration("no fold produced any prediction")
        else:
            outcomes[j] = (float(np.sqrt(total / kappa)), predicted[j])
    return outcomes


def cross_validation_error(shape_set, models, prior=None, nu=None, config=None,
                           reflection_ref=0):
    """Leave-N-out CVE and the per-shape predicted reference shapes.

    Solves the full set once (prior estimated when None, nu = n/m when None),
    then runs the one-model-set case of `cross_validation_errors`; the prior
    of every fold is re-estimated on the reduced set, as the full pipeline
    would.
    """
    full = _gpa.solve(shape_set, models, prior=prior, nu=nu, reflection_ref=reflection_ref,
                      check_conditions=False)
    outcome, = cross_validation_errors(shape_set, [(models, full)], config=config,
                                       reflection_ref=reflection_ref)
    if isinstance(outcome, DefgpaError):
        raise outcome
    return outcome
