"""Evaluation metrics: reference/datum-space residuals and cross-validation.

rmse_r measures residuals after mapping each datum shape into the reference
frame; rmse_d maps the reference back through per-shape inverse transforms
(exact for invertible affine maps, a fitted inverse spline for the TPS).  The
cross-validation error re-solves the GPA with groups of points held out,
predicts them through the fold transforms, and gauge-corrects with a rigid
Procrustes between the fold reference and the full reference.
"""

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

# Entries per stacked array of one pass over a fold's model sets: 0.5 MiB in float64, so a
# pass peaks a few MiB above a one-set pass; beyond that, flops outweigh per-call overhead.
_STACK_ENTRIES = 2**16


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
    whole set with those models.  Each shape's basis is computed once on all
    m points, and the points and masks are stacked once; a fold slices their
    kept columns and builds no shape objects.  Per fold, the kept points, their
    prior (with reflections when `allow_reflection`, as the full prior was) and
    the anchor serve all model sets, and sets with equal per-shape models are
    re-solved together, in passes bounded by _STACK_ENTRIES, each with its full
    solution's nu (raised to n/m of the fold if below).  Held-out points are
    predicted as W_i^T B_i[:, fold]; each fold reference is rigidly aligned to
    the full reference on the kept points.  Only originally visible landmarks
    count.

    Returns one entry per model set: (cve, predicted shapes), or the
    DefgpaError that stopped it; a failed model set skips the later folds.
    """
    if config is None:
        config = CveConfig()
    d, m, n = shape_set.d, shape_set.m, shape_set.n
    if not 0 <= reflection_ref < n:
        raise DimensionError(f"reflection_ref {reflection_ref} out of range for n={n}")
    if config.group_size >= m:
        return [DimensionError(f"fold size {config.group_size} must be below m={m}")] * len(fits)
    if m - config.group_size < d + 1:
        return [DimensionError(
            f"folds of {config.group_size} leave fewer than d+1={d + 1} points")] * len(fits)

    outcomes = [None] * len(fits)
    smoothing, bases, batches = {}, {}, {}  # model sets with equal per-shape models share bases
    for j, (models, _) in enumerate(fits):
        key = tuple((type(model), repr(model.describe())) for model in models)
        try:
            smoothing[j] = _gpa._smoothings(shape_set, models)
            if key not in bases:
                bases[key] = _gpa._bases(shape_set, models)
        except DefgpaError as exc:
            outcomes[j] = exc
            continue
        batches.setdefault(key, []).append(j)
    passes = []  # per model set, a pass stacks n x l x m' solved terms and an m' x m' matrix
    for key, indices in batches.items():  # (r x r on the span when all shapes are full)
        nl = n * bases[key][0].shape[1]
        size = max(1, _STACK_ENTRIES // (nl * m + (min(m, nl + 1) if shape_set.all_full else m) ** 2))
        passes += [(bases[key], indices[k:k + size]) for k in range(0, len(indices), size)]
    live = {j: fits[j] for _, indices in passes for j in indices}
    X0, G0 = _gpa._stacked(shape_set)
    predicted = {j: np.full((n, d, m), np.nan) for j in live}
    covered = np.zeros(m, dtype=bool)

    def fail(exc):
        for j in live:
            outcomes[j] = exc
        live.clear()

    for fold in _fold_slices(m, config):
        if not live:
            break
        keep = np.delete(np.arange(m), fold)
        X, G = X0[:, :, keep], G0[:, keep]
        if np.any(G.sum(axis=1) < d + 1):
            fail(InsufficientOverlap(
                f"fold {fold.tolist()} leaves a shape with fewer than {d + 1} visible points"))
            break
        try:
            fold_prior = _gpa.estimate_prior(_gpa._completed(X, G, allow_reflection))
        except DefgpaError as exc:
            fail(exc)
            break
        anchor, datum = _gpa._gram_anchor(X, G), (X[reflection_ref], G[reflection_ref])
        for (B, grams, dims), batch in passes:
            indices = [j for j in batch if j in live]
            if not indices:
                continue
            nus = np.maximum([fits[j][1].nu for j in indices], n / keep.size)
            Bg, solved, errors = _gpa._per_shape_terms(G, (B[:, :, keep], grams, dims),
                                                       np.array([smoothing[j] for j in indices]))
            references = _gpa._references(G, anchor, datum, Bg, solved, errors, nus, fold_prior)
            for j, solved_j, S in zip(indices, solved, references):
                try:
                    if isinstance(S, DefgpaError):
                        raise S
                    R, t = gauge_align(S, fits[j][1].reference[:, keep])
                    pred = np.swapaxes(solved_j @ S.T, -1, -2) @ B[:, :, fold]  # W_i^T B_i[:, fold]
                    predicted[j][:, :, fold] = R @ pred + t[:, None]
                except DefgpaError as exc:
                    outcomes[j] = exc
                    del live[j]
        covered[fold] = True

    visible = shape_set.visibility_matrix()[:, None, :]
    use = visible & covered
    for j, (_, full) in live.items():
        if not use.any():
            outcomes[j] = DegenerateConfiguration("no fold produced any prediction")
            continue
        total = sum(float(np.sum(D * D)) for D in np.where(use, predicted[j] - full.reference, 0.0))
        outcomes[j] = (float(np.sqrt(total / int(use.sum()))), list(np.where(visible, predicted[j], np.nan)))
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
