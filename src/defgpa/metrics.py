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


def _fold_slices(m, config):
    N = config.group_size
    return [np.arange(k, min(k + N, m)) for k in range(0, m, N)]


def cross_validation_errors(shape_set, fits, config=None, reflection_ref=0,
                            allow_reflection=False):
    """Leave-N-out CVE of several solved model sets (one per theta) on one shape set.

    `fits` holds (models, full solution) pairs, each solution the GPA of the
    whole set with those models.  Each shape's basis is computed once per pass
    on all m points, and the points and masks are stacked once; a fold slices
    their kept columns and builds no shape objects.  Every fold prior comes
    first, in chunks of folds bounded by _STACK_ENTRIES: the whole set's pair
    moments minus those of each fold's held-out columns (with reflections when
    `allow_reflection`, as the full prior was), up to the first fold that
    fails.  Then sets with equal per-shape models share passes bounded by
    _STACK_ENTRIES.  A pass factors its sets once, on all m points, and takes
    the folds with priors in fixed blocks within the same bound, a ragged last
    fold in a block of its own.  Each (fold, set) pair of a block downdates
    that factorization by the fold's held-out columns (`gpa._downdated_terms`)
    into the factors of its solve matrix, with n/m' of the fold on 11^T; a
    fold whose normal matrix is singular fails its set, and so does a failed
    whole-set factorization, at the first fold.  The block then runs one
    stacked eigensolve of its pairs, each started from its full reference on
    the fold's kept points (DPLR, or dense where the factors have k >= m'
    columns), and its tail on the same stack: scaling, reflection, the rigid
    alignment of each fold reference to the full reference on the kept points,
    and the prediction of held-out points as W_i^T B_i[:, fold].  Only
    originally visible landmarks count.

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
    smoothing, batches = {}, {}  # model sets with equal per-shape models share passes
    for j, (models, _) in enumerate(fits):
        try:
            smoothing[j] = _gpa._smoothings(shape_set, models)
        except DefgpaError as exc:
            outcomes[j] = exc
            continue
        batches.setdefault(tuple((type(model), repr(model.describe())) for model in models), []).append(j)
    # A pass factors its T <= size sets on all m points into a T x k x m array (k = n l + 2), with T = 1
    # the array of the bases it computes, and ends each block of `step` folds, at most `size` (fold,
    # set) pairs, in one stacked eigensolve and its tail.  A pair counts its m' x k factor and, where
    # k >= m' makes the eigensolve dense, its m' x m' matrix: m k + m^2.  Where k < m' it also counts
    # its set's row of the pass's array (held once per set in a block of one fold) and the DPLR's three
    # k x k kernels (S^-1 and the certificate's two): 2 m k + 3 k^2.  The dense count leaves that row
    # out, so that the CLI's grid of eleven smoothing values shares one pass at m = 40.  The tail holds
    # about 12 d m + 4 n d g entries per pair once the factors and the block before are freed, and a
    # pair counts whichever of the two is larger.
    passes = []
    tail = 12 * d * m + 4 * n * d * config.group_size
    for indices in batches.values():
        k = n * max(model.feature_dim for model in fits[indices[0]][0]) + 2
        size = max(1, _STACK_ENTRIES // max(m * k + m * m if k >= m else 2 * m * k + 3 * k * k, tail))
        passes += [(indices[i:i + size], size) for i in range(0, len(indices), size)]
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
    del Y0, moments, dropped  # read by the fold priors only
    whole = min(len(lambdas), m // g)  # the first m // g folds are whole; a ragged last fold keeps more
    fold_of = np.arange(m) // g
    counts = G0.sum(axis=0)
    predicted = {j: np.full((n, d, m), np.nan) for batch, _ in passes for j in batch}
    failures = {}  # model set -> (fold, error) of its earliest failing fold
    for batch, size in passes:
        try:
            bases = _gpa._bases(shape_set, fits[batch[0]][0])
        except DefgpaError as exc:  # the pass's sets share their models
            failures.update({j: (-1, exc) for j in batch})
            continue
        Linv, terms, errors = _gpa._per_shape_terms(G0, bases, np.array([smoothing[j] for j in batch]))
        if len(lambdas):  # a set that fails on all m points fails at the first fold
            failures.update({batch[t]: (0, exc) for t, exc in errors.items()})
        F = terms[:, :-2].reshape(len(batch), n, -1, m)
        L = np.linalg.inv(Linv)  # the Cholesky factors of the whole sets' normal matrices
        step = max(1, size // len(batch))
        cuts = [*range(0, whole, step), whole, len(lambdas)]
        for first, end in zip(cuts, cuts[1:]):
            rows = [(f, j) for f in range(first, end) for j in batch if j not in failures]
            if not rows:
                continue
            f, j = np.array(rows).T
            keep = np.nonzero(fold_of != f[:, None])[1].reshape(len(f), -1)
            cols = held[f]  # held is padded with m: zero columns of U there
            at = np.array([batch.index(i) for i in j])  # the pass row of each pair
            U = np.moveaxis(F[at[:, None], :, :, np.minimum(cols, m - 1)], 1, -1)
            U *= (cols < m)[:, None, None]
            Einv, factor, fold_errors = _gpa._downdated_terms(L, F, at, U, keep)
            for p, exc in sorted(fold_errors.items()):  # rows are fold-major: a set's first is its earliest
                failures.setdefault(rows[p][1], (rows[p][0], exc))
            ok = [p for p, (f, j) in enumerate(rows) if j not in failures or f < failures[j][0]]
            if not ok:
                continue
            if len(ok) < len(rows):
                rows, keep, U, Einv, factor = [rows[p] for p in ok], keep[ok], U[ok], Einv[ok], factor[ok]
            f, j = np.array(rows).T
            mask = (fold_of != f[:, None]).astype(float)
            full = np.stack([fits[i][1].reference for i in j])
            W, centre = _gpa._factors(factor, counts[keep], n)
            warm = None if W.shape[2] >= W.shape[1] else np.swapaxes(
                np.take_along_axis(full, keep[:, None], axis=-1), -1, -2)
            values, V = _bottom_pairs_dplr(counts[keep], W, d, warm)
            lifted = np.zeros((len(f), m, d))
            lifted[mask > 0] = V.reshape(-1, d)
            # S = C V^T (C = S V) and B_i[:, H] = L_i U_i where visible give W_i^T B_i[:, H] =
            # C (F_i' V)^T E_i^-1 U_i, and F' V = F'_c V + c 1^T V with F'_c centred by `_factors`
            FV = (factor[:, :-2] @ V + centre * V.sum(axis=1, keepdims=True)).reshape(len(f), n, -1, d)
            P = np.swapaxes(FV, -1, -2) @ (Einv @ U)
            del W, factor, FV
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
            del lifted, S, full, mask, keep, V  # freed before the next block forms its factors
        del L, terms, F

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
