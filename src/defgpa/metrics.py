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
from .spectral import _bottom_pairs_dplr
from .warps import TpsWarp, apply_warp, fit_inverse_tps

# Entries the stacked arrays of one block of (fold, model set) pairs or one chunk of fold priors may hold:
# 0.5 MiB in float64, so a CVE peaks a few MiB above one pair's; beyond that, flops outweigh call overhead.
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


def _drain(parts):
    """The arrays of a list concatenated (a lone array as it is), the list emptied so that each part
    is freed."""
    whole = parts[0] if len(parts) == 1 else np.concatenate(parts)
    parts.clear()
    return whole


def _fold_slices(m, config):
    N = config.group_size
    return [np.arange(k, min(k + N, m)) for k in range(0, m, N)]


def cross_validation_errors(shape_set, fits, config=None, reflection_ref=0,
                            allow_reflection=False):
    """Leave-N-out CVE of several solved model sets (one per theta) on one shape set.

    `fits` holds (models, full solution) pairs, each solution the GPA of the
    whole set with those models.  Each shape's basis is computed once on all
    m points, and the points and masks are stacked once; a fold slices their
    kept columns and builds no shape objects.  Every fold prior comes first,
    in chunks of folds bounded by _STACK_ENTRIES: the whole set's pair
    moments minus those of each fold's held-out columns (with reflections
    when `allow_reflection`, as the full prior was), up to the first fold
    that fails.  Then sets with equal per-shape models share passes bounded
    by _STACK_ENTRIES, and a pass takes the folds with priors in fixed blocks
    within the same bound, a ragged last fold in a block of its own.  Each
    fold of a block gets the pass's per-shape terms in one call and its solve
    matrices from `gpa._factors`, each with n/m' of the fold on 11^T.  The
    block then runs one stacked eigensolve of its (fold, set) pairs, each
    started from its full reference on the fold's kept points (DPLR, or dense
    where the factors have k >= m' columns), and its tail on the same stack:
    scaling, reflection, the rigid alignment of each fold reference to the
    full reference on the kept points, and the prediction of held-out points
    as W_i^T B_i[:, fold].  Only originally visible landmarks count.

    Returns one entry per model set: (cve, predicted shapes), or the
    DefgpaError of its earliest failing fold; a failed model set skips the
    later folds.
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
    # a (fold, model set) pair holds its m' x k factor (k = n l + 2) and n l x l inverse Cholesky
    # factors.  A fold copies the kept columns of the bases' array: in a pass of one set that copy
    # becomes the pair's factor, in a pass of several it is freed once the pairs' factors are written.
    # A pass takes the folds in blocks of `step` folds, at most `size` pairs, and ends each
    # block in one stacked eigensolve and its tail.  Where k < m' that is the DPLR eigensolver, with
    # two k x k kernels per pair and, in a block of several folds, one concatenated copy of the
    # factors; the bound counts 3 m' k + 2 k^2 there, an over-count of up to m' k.  Where k >= m' it
    # is dense, with an m' x m' matrix per pair.  The tail holds about 12 d m + 4 n d g entries per
    # pair once the factors are freed, and a pair counts whichever of the two is larger.
    passes = []
    tail = 12 * d * m + 4 * n * d * config.group_size
    for key, indices in batches.items():
        k = len(bases[key][0])
        size = max(1, _STACK_ENTRIES // max(m * k + m * m if k >= m else 3 * m * k + 2 * k * k, tail))
        passes += [(bases[key], indices[i:i + size], size) for i in range(0, len(indices), size)]
    X0, G0 = _gpa._stacked(shape_set)
    _, Y0 = _gpa._centred(X0, G0)
    moments = _gpa._moments(Y0, G0)
    folds = _fold_slices(m, config)
    g = config.group_size
    held = np.minimum(np.arange(len(folds) * g).reshape(-1, g), m)  # the folds' columns, padded with m
    dropped = np.concatenate([G0, np.zeros((n, 1))], axis=1)[:, held].sum(axis=-1)
    short = np.flatnonzero(np.any(G0.sum(axis=1)[:, None] - dropped < d + 1, axis=0))
    last = int(short[0]) if short.size else len(folds)  # the folds before it reach their priors
    error = None if last == len(folds) else InsufficientOverlap(
        f"fold {folds[last].tolist()} leaves a shape with fewer than {d + 1} visible points")
    # a prior chunk stacks, per fold, about a dozen (n, n, d, d) table and prior moments; of each
    # prior only its d eigenvalues are kept
    chunk = max(1, _STACK_ENTRIES // (12 * n * n * d * d))
    lambdas = []
    for first in range(0, last, chunk):
        priors, failure = _gpa._fold_priors(Y0, G0, moments, held[first:min(first + chunk, last)],
                                            allow_reflection)
        lambdas += [prior.lambdas for prior in priors]
        if failure is not None:
            error = failure
            break
    lambdas = np.array(lambdas)
    whole = min(len(lambdas), m // g)  # the first m // g folds are whole; a ragged last fold keeps more
    fold_of = np.arange(m) // g
    counts = G0.sum(axis=0)
    predicted = {j: np.full((n, d, m), np.nan) for _, batch, _ in passes for j in batch}
    failures = {}  # model set -> (fold, error) of its earliest failing fold
    for (stack, grams, dims), batch, size in passes:
        B = stack[:-2].reshape(n, -1, m)
        Bg0 = B * G0[:, None, :]
        step = max(1, size // len(batch))
        cuts = [*range(0, whole, step), whole, len(lambdas)]
        for first, end in zip(cuts, cuts[1:]):
            rows, Ws, Linvs = [], [], []  # the block's (fold, set) pairs, factors and L_i^-1
            for f in range(first, end):
                indices = [j for j in batch if j not in failures]
                if not indices:
                    break
                keep = np.flatnonzero(fold_of != f)
                # C order: stack[:, keep] is F order, so a pass of one set, whose F is written over
                # it, would round unlike a pass of several
                kept = stack.take(keep, axis=1)
                Linv, factor, errors = _gpa._per_shape_terms(G0[:, keep], (kept, grams, dims),
                                                             np.array([smoothing[j] for j in indices]))
                for t, exc in errors.items():
                    failures[indices[t]] = (f, exc)
                ok = [t for t in range(len(indices)) if t not in errors]
                if not ok:
                    continue
                if errors:
                    Linv, factor, indices = Linv[ok], factor[ok], [indices[t] for t in ok]
                rows += [(f, j) for j in indices]
                Ws.append(_gpa._factors(factor, counts[keep], n)[0])
                Linvs.append(Linv)
                del kept, factor, Linv  # held only in the block's lists
            if not rows:
                continue
            f, j = np.array(rows).T
            mask = (fold_of != f[:, None]).astype(float)
            keep = np.nonzero(mask)[1].reshape(len(f), -1)
            full = np.stack([fits[i][1].reference for i in j])
            W = _drain(Ws)
            warm = None if W.shape[2] >= W.shape[1] else np.swapaxes(
                np.take_along_axis(full, keep[:, None], axis=-1), -1, -2)
            values, V = _bottom_pairs_dplr(counts[keep], W, d, warm)
            del W
            lifted = np.zeros((len(f), m, d))
            lifted[mask > 0] = V.reshape(-1, d)
            # S = F V^T (F = S V) gives W_i^T B_i[:, fold] = F (N_i^-1 Bg0_i lifted)^T B_i[:, fold]
            Linv = _drain(Linvs)
            solved = np.swapaxes(Linv, -1, -2) @ (Linv @ (Bg0 @ lifted[:, None]))
            cols = held[f]  # held is padded with m: zero columns there
            P = np.swapaxes(solved, -1, -2) @ np.moveaxis(
                B[:, :, np.minimum(cols, m - 1)] * (cols < m), 2, 0)
            S, undetermined = _gpa._references(
                values, lifted, lambdas[f], lambda k: _gpa._gram_anchor(X0, G0 * mask[k]),
                X0[reflection_ref], G0[reflection_ref] * mask)
            R, t, sv = _gpa._procrustes(S, full, mask)
            deficient = _gpa._rank_below(sv, d - 1)
            pred = R[:, None] @ ((S @ lifted)[:, None] @ P) + t[:, None, :, None]
            for k, (f, j) in enumerate(rows):
                if j in failures and failures[j][0] < f:
                    continue
                if undetermined[k] or deficient[k]:
                    failures[j] = (f, DegenerateConfiguration(
                        _gpa._UNORIENTED if undetermined[k] else _gpa._RANK_DEFICIENT))
                else:
                    predicted[j][:, :, folds[f]] = pred[k, :, :, :folds[f].size]

    # a set with no failing fold has a prediction at every fold; its CVE stands if every fold has a prior
    visible = shape_set.visibility_matrix()[:, None, :]
    for j, points in predicted.items():
        if j in failures or error is not None:
            outcomes[j] = failures[j][1] if j in failures else error
            continue
        total = sum(float(np.sum(D * D)) for D in np.where(visible, points - fits[j][1].reference, 0.0))
        outcomes[j] = (float(np.sqrt(total / visible.sum())), list(np.where(visible, points, np.nan)))
    return outcomes


def cross_validation_error(shape_set, models, prior=None, config=None, reflection_ref=0):
    """Leave-N-out CVE and the per-shape predicted reference shapes.

    Solves the full set once (prior estimated when None), then runs the
    one-model-set case of `cross_validation_errors`; the prior of every fold
    is re-estimated on the reduced set, as the full pipeline would.
    """
    full = _gpa.solve(shape_set, models, prior=prior, reflection_ref=reflection_ref,
                      check_conditions=False)
    outcome, = cross_validation_errors(shape_set, [(models, full)], config=config,
                                       reflection_ref=reflection_ref)
    if isinstance(outcome, DefgpaError):
        raise outcome
    return outcome
