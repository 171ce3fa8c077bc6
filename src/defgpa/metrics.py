"""Evaluation metrics: reference/datum-space residuals and cross-validation.

rmse_r measures residuals after mapping each datum shape into the reference
frame.  Its square is the solve's data term per visible landmark: for a
solution and the models it was solved with,
rmse_r = sqrt(data_cost / sum_i nnz(Gamma_i)), which is how the CLI reads it.
rmse_d maps the reference back through per-shape inverse transforms
(exact for invertible affine maps, a fitted inverse spline for the TPS).  The
cross-validation error holds out groups of points: each fold's solve
downdates the factorization of the full solve on all points, predicts the
held-out points through the fold transforms, and gauge-corrects with a rigid
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
    _raised,
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
        if not isinstance(self.group_size, (int, np.integer)) or self.group_size < 1:
            raise DimensionError(f"fold size must be an integer of at least 1, got {self.group_size!r}")


def _rms(solution, shape_set, models, residual):
    """The root-mean-square of residual(shape, model, W) (d x m) over all visible landmarks, for a solution
    (d x m reference, weights of d columns) and models that fit the shape set (else DimensionError)."""
    n, size = shape_set.n, (shape_set.d, shape_set.m)
    if not len(models) == len(solution.weights) == n:
        raise DimensionError(f"{n} shapes but {len(models)} models and {len(solution.weights)} weights")
    if np.shape(solution.reference) != size:
        raise DimensionError(f"reference has shape {np.shape(solution.reference)}, expected {size}")
    for i, W in enumerate(solution.weights):
        if np.shape(W)[1:] != size[:1]:
            raise DimensionError(f"weights {i} have shape {np.shape(W)}, expected d={size[0]} columns")
    total = sum(float(np.sum((residual(shape, model, W) * shape.visibility) ** 2))
                for shape, model, W in zip(shape_set, models, solution.weights))
    return float(np.sqrt(total / sum(s.num_visible for s in shape_set)))


def rmse_r(solution, shape_set, models):
    """Root-mean-square reference-space residual over all visible landmarks."""
    return _rms(solution, shape_set, models,
                lambda shape, model, W: apply_warp(model, W, shape.filled(0.0)) - solution.reference)


def _inverse_transform(model, W, S):
    """T^{-1}(S) for one shape: exact affine inverse or fitted inverse TPS."""
    if isinstance(model, TpsWarp):
        inverse, W_inv = fit_inverse_tps(model, W)
        return apply_warp(inverse, W_inv, S)
    # affine: W^T = [A | t]
    W = np.asarray(W, dtype=float)
    d = S.shape[0]
    if W.shape != (d + 1, d):
        raise DimensionError(f"no inverse for {type(model).__name__} weights of shape {W.shape}: "
                             f"an affine inverse needs ({d + 1},{d})")
    A, t = W[:d].T, W[d]
    try:
        return np.linalg.solve(A, S - t[:, None])
    except np.linalg.LinAlgError as exc:
        raise SingularTransform("affine transform has a singular linear part") from exc


def rmse_d(solution, shape_set, models):
    """Root-mean-square datum-space residual via per-shape inverse transforms."""
    return _rms(solution, shape_set, models,
                lambda shape, model, W: shape.filled(0.0) - _inverse_transform(model, W, solution.reference))


def _fold_slices(m, config):
    N = config.group_size
    return [np.arange(k, min(k + N, m)) for k in range(0, m, N)]


def _cve_folds(shape_set, config, allow_reflection):
    """The stacked points and masks (`gpa._stacked`), the folds' columns (F x g, padded with m), the
    prior eigenvalues of the folds before the first that fails (`gpa._fold_priors`, in chunks bounded by
    _STACK_ENTRIES), and that fold's error or None; a fold size that leaves < d+1 points fails fold 0."""
    d, m, n = shape_set.d, shape_set.m, shape_set.n
    X0, G0 = _gpa._stacked(shape_set)
    folds = _fold_slices(m, config)
    g = config.group_size
    held = np.minimum(np.arange(len(folds) * g).reshape(-1, g), m)
    if m - g < d + 1:
        error = DimensionError(f"fold size {g} must be below m={m}") if g >= m else DimensionError(
            f"folds of {g} leave fewer than d+1={d + 1} points")
        return X0, G0, held, np.zeros((0, d)), error
    _, Y0 = _gpa._centred(X0, G0)
    moments = _gpa._moments(Y0, G0)
    dropped = np.concatenate([G0, np.zeros((n, 1))], axis=1)[:, held].sum(axis=-1)
    short = np.flatnonzero(np.any(G0.sum(axis=1)[:, None] - dropped < d + 1, axis=0))
    last = int(short[0]) if short.size else len(folds)  # the folds before it reach their priors
    error = None if last == len(folds) else InsufficientOverlap(
        f"fold {folds[last].tolist()} leaves a shape with fewer than {d + 1} visible points")
    # a prior chunk stacks, per fold, about a dozen (n, n, d, d) table and prior moments; of each
    # prior only its d eigenvalues are kept
    chunk = max(1, _STACK_ENTRIES // (12 * n * n * d * d))
    lambdas = [np.zeros((0, d))]
    for first in range(0, last, chunk):
        rows, failure = _gpa._fold_priors(Y0, G0, moments, held[first:min(first + chunk, last)],
                                          allow_reflection)
        lambdas.append(rows)
        if failure is not None:
            error = failure
            break
    return X0, G0, held, np.concatenate(lambdas), error


def _pass_layout(shape_set, model_sets, outcomes, g):
    """The passes (model sets, size, smoothing rows) of model sets with equal per-shape models, for folds
    of g points (0 for none); a set that `gpa._smoothings` rejects gets its error in outcomes instead."""
    d, m, n = shape_set.d, shape_set.m, shape_set.n
    smoothing, batches = {}, {}
    for j, models in enumerate(model_sets):
        try:
            smoothing[j] = _gpa._smoothings(shape_set, models)
        except DefgpaError as exc:
            outcomes[j] = exc
            continue
        batches.setdefault(tuple((type(model), repr(model.describe())) for model in models), []).append(j)
    # A pass of T <= size sets holds one T x k x m factor array (k = n l + 2; at T = 1 the bases' own
    # array) and solves its T full matrices in one stacked eigensolve; a block of its folds holds at most
    # `size` (fold, set) pairs.  A pair counts its m' x k factor and its m' x m' matrix where k >= m' makes
    # the eigensolve dense (m k + m^2), else also its set's row of the pass's array and the DPLR's three
    # k x k kernels (2 m k + 3 k^2); the dense count leaves that row out, so that the CLI's grid of eleven
    # smoothing values shares one pass at m = 40.  The tail holds about 12 d m + 4 n d g entries per
    # pair, and a pair counts the larger.  A full matrix counts no more than a pair.
    passes = []
    tail = 12 * d * m + 4 * n * d * g
    for indices in batches.values():
        k = n * max(model.feature_dim for model in model_sets[indices[0]]) + 2
        size = max(1, _STACK_ENTRIES // max(m * k + m * m if k >= m else 2 * m * k + 3 * k * k, tail))
        passes += [(indices[i:i + size], size) for i in range(0, len(indices), size)]
    return [(batch, size, np.array([smoothing[j] for j in batch])) for batch, size in passes]


def _fold_blocks(folds, batch, size, terms, fulls, reflection_ref):
    """The CVE outcomes of one pass's model sets, from its `gpa._per_shape_terms` array (F uncentred)
    and each set's full solution; a set whose full solve failed runs no fold.

    The folds (`_cve_folds`) come in blocks of at most `size` (fold, set) pairs,
    a ragged last fold in a block of its own.  Each pair downdates its set's
    factorization (`gpa._downdated_terms`), and a block ends in one stacked
    eigensolve and tail on each pair's kept columns.  A set's earliest failing
    fold fails it."""
    X0, G0, held, lambdas, error = folds
    (n, d, m), g = X0.shape, held.shape[1]
    whole = min(len(lambdas), m // g)  # the first m // g folds are whole; a ragged last fold keeps more
    fold_of = np.arange(m) // g
    counts = G0.sum(axis=0)
    F = terms[:, :-2].reshape(len(batch), n, -1, m)
    predicted = np.full((len(batch), n, d, m), np.nan)
    step = max(1, size // len(batch))
    cuts = [*range(0, whole, step), whole, len(lambdas)]
    failures = {j: (0, exc) for j, exc in zip(batch, fulls) if isinstance(exc, DefgpaError)}
    for first, end in zip(cuts, cuts[1:]):
        rows = [(f, j) for f in range(first, end) for j in batch if j not in failures]
        if not rows:
            continue
        f, j = np.array(rows).T
        keep = np.nonzero(fold_of != f[:, None])[1].reshape(len(f), -1)
        at = np.array([batch.index(i) for i in j])  # the pass row of each pair
        EU, factor, fold_errors = _gpa._downdated_terms(F, at, held[f], keep)
        for p, exc in sorted(fold_errors.items()):  # rows are fold-major: a set's first is its earliest
            failures.setdefault(rows[p][1], (rows[p][0], exc))
        ok = [p for p, (f, j) in enumerate(rows) if j not in failures or f < failures[j][0]]
        if not ok:
            continue
        if len(ok) < len(rows):
            rows, at, keep, EU, factor = [rows[p] for p in ok], at[ok], keep[ok], EU[ok], factor[ok]
        f, j = np.array(rows).T
        # the full references on the kept columns: the warm start and the gauge target
        full = np.take_along_axis(np.stack([fulls[t].reference for t in at]), keep[:, None], axis=-1)
        W, centre = _gpa._factors(factor, counts[keep], n)
        values, V = _bottom_pairs_dplr(counts[keep], W, d, np.swapaxes(full, -1, -2))
        # the fold weights W_i = L_i'^-T F_i' S^T and Bg_i[:, H] = L_i' E_i^-1 U_i give W_i^T Bg_i[:, H] =
        # C (F_i' V)^T E_i^-1 U_i with S = C V^T, and F' V = F'_c V + c 1^T V with F'_c centred by `_factors`
        FV = (factor[:, :-2] @ V + centre * V.sum(axis=1, keepdims=True)).reshape(len(f), n, -1, d)
        P = np.swapaxes(FV, -1, -2) @ EU
        del W, factor, FV
        S, undetermined = _gpa._references(
            values, V, lambdas[f], lambda k: _gpa._gram_anchor(X0[..., keep[k]], G0[:, keep[k]]),
            np.take_along_axis(X0[reflection_ref][None], keep[:, None], axis=-1), G0[reflection_ref][keep])
        R, t, sv = _gpa._procrustes(S, full, np.ones(keep.shape))
        deficient = _gpa._rank_below(sv, d - 1)
        pred = R[:, None] @ ((S @ V)[:, None] @ P) + t[:, None, :, None]
        for k, (f, j) in enumerate(rows):
            if j in failures and failures[j][0] < f:
                continue
            if undetermined[k] or deficient[k]:
                failures[j] = (f, DegenerateConfiguration(
                    _gpa._UNORIENTED if undetermined[k] else _gpa._RANK_DEFICIENT))
            else:
                cols = held[f][held[f] < m]
                predicted[at[k]][:, :, cols] = pred[k, :, :, :cols.size]
        del S, full, keep, V  # freed before the next block forms its factors

    # a set with no failing fold has a prediction at every fold; its CVE stands if every fold has a prior
    visible = G0[:, None, :] > 0
    outcomes = []
    for j, points, full in zip(batch, predicted, fulls):
        if j in failures or error is not None:
            outcomes.append(failures[j][1] if j in failures else error)
            continue
        total = sum(float(np.sum(D * D)) for D in np.where(visible, points - full.reference, 0.0))
        outcomes.append((float(np.sqrt(total / visible.sum())), list(np.where(visible, points, np.nan))))
    return outcomes


def _grid(shape_set, model_sets, prior, config=None, reflection_ref=0, allow_reflection=False,
          check_conditions=False):
    """The full solves of model sets on one shape set under one checked prior (`gpa._checked_args`), and
    their CVE when `config` is set.

    The fold priors come first (`_cve_folds`); each pass (`_pass_layout`)
    computes its bases once, solves its sets at once (`gpa._solve_pass`), and
    its folds downdate that factorization (`_fold_blocks`).  Returns per set
    the DefgpaError that stopped its full solve, or (GpaSolution, CVE outcome
    or None)."""
    outcomes = [None] * len(model_sets)
    passes = _pass_layout(shape_set, model_sets, outcomes, 0 if config is None else config.group_size)
    folds = None if config is None else _cve_folds(shape_set, config, allow_reflection)
    for batch, size, mus in passes:
        try:
            bases = _gpa._bases(shape_set, model_sets[batch[0]])
        except DefgpaError as exc:  # the pass's sets share their models
            for j in batch:
                outcomes[j] = exc
            continue
        fulls, factor = _gpa._solve_pass(shape_set, [model_sets[j] for j in batch], bases, mus, prior,
                                         reflection_ref, check_conditions)
        cves = [None] * len(batch)
        if folds is not None:
            cves = _fold_blocks(folds, batch, size, factor, fulls, reflection_ref)
        for j, full, cve in zip(batch, fulls, cves):
            outcomes[j] = full if isinstance(full, DefgpaError) else (full, cve)
        del bases, factor  # freed before the next pass computes its bases
    return outcomes


def cross_validation_errors(shape_set, model_sets, prior=None, config=None, reflection_ref=0,
                            allow_reflection=False):
    """The full solves of several model sets (one per theta, say) on one shape set and their leave-N-out
    CVE, in the pass `defgpa sweep` runs (`_grid`).

    The prior (estimated when None) is shared by every full solve; every
    fold's prior is re-estimated on the reduced set, as the full pipeline
    would.  Returns one entry per model set: the DefgpaError that stopped its
    full solve, or (GpaSolution, (cve, predicted shapes) or the DefgpaError
    of its earliest failing fold).
    """
    prior = _gpa._checked_args(shape_set, prior, reflection_ref, allow_reflection)
    return _grid(shape_set, model_sets, prior, config or CveConfig(), reflection_ref, allow_reflection)


def cross_validation_error(shape_set, models, prior=None, config=None, reflection_ref=0):
    """Leave-N-out CVE and per-shape predicted reference shapes of one model set, reflections always
    forbidden: `cross_validation_errors` (which takes `allow_reflection`) of the set; raises what stops it."""
    (outcome,) = cross_validation_errors(shape_set, [models], prior, config, reflection_ref)
    return _raised(_raised(outcome)[1])
