"""Evaluation metrics: reference/datum-space residuals and cross-validation.

rmse_r measures residuals after mapping each datum shape into the reference
frame.  Its square is the solve's data term per visible landmark: for a
solution and the models it was solved with,
rmse_r = sqrt(data_cost / sum_i nnz(Gamma_i)), which is how the CLI reads it.
rmse_d maps the reference back through per-shape inverse transforms
(exact for invertible affine maps, a fitted inverse spline for the TPS); the
inverse splines of a grid's solutions are one stacked fit per shape.  The
cross-validation error holds out groups of points: each fold's solve judges
its held-out columns against the factorization of the full solve on all
points, builds its matrix from that solve's Gram where the matrix is dense
and downdates its factor elsewhere, predicts the held-out points through the
fold transforms, and gauge-corrects with a rigid Procrustes between the fold
reference and the full reference.
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
from .spectral import _bottom_pairs, _bottom_pairs_dplr
from .warps import TpsWarp, _inverse_tps, _tps_basis, apply_warp

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


def _check_fit(solution, shape_set, models):
    """Raise DimensionError unless a solution (d x m reference, weights of d columns) and models fit the
    shape set."""
    n, size = shape_set.n, (shape_set.d, shape_set.m)
    if not len(models) == len(solution.weights) == n:
        raise DimensionError(f"{n} shapes but {len(models)} models and {len(solution.weights)} weights")
    if np.shape(solution.reference) != size:
        raise DimensionError(f"reference has shape {np.shape(solution.reference)}, expected {size}")
    for i, W in enumerate(solution.weights):
        if np.shape(W)[1:] != size[:1]:
            raise DimensionError(f"weights {i} have shape {np.shape(W)}, expected d={size[0]} columns")


def rmse_r(solution, shape_set, models):
    """Root-mean-square reference-space residual over all visible landmarks."""
    _check_fit(solution, shape_set, models)
    residuals = ((apply_warp(model, W, shape.filled(0.0)) - solution.reference) * shape.visibility
                 for shape, model, W in zip(shape_set, models, solution.weights))
    total = sum(float(np.sum(residual ** 2)) for residual in residuals)
    return float(np.sqrt(total / sum(s.num_visible for s in shape_set)))


def _inverse_transforms(model, Ws, S):
    """T_k^{-1}(S_k) (K x d x m) of one shape's weights Ws (K x l x d) at references S (K x d x m), and
    per k the DefgpaError that stops it or None: the exact affine inverse, or the fitted inverse TPS of
    all K in one stacked fit (`warps._inverse_tps`), evaluated in chunks of _STACK_ENTRIES features."""
    K, d, m = S.shape
    mapped, errors = np.zeros(S.shape), [None] * K
    if isinstance(model, TpsWarp):
        images, recovery, errors = _inverse_tps(model, Ws, model.internal_smoothing)
        ok = [k for k in range(K) if errors[k] is None]
        step = max(1, _STACK_ENTRIES // (model.feature_dim * m))
        for chunk in (ok[i:i + step] for i in range(0, len(ok), step)):
            mapped[chunk] = model.centers @ _tps_basis(images[chunk], recovery[chunk], S[chunk])
        return mapped, errors
    if Ws.shape[1:] != (d + 1, d):  # affine: W^T = [A | t]
        raise DimensionError(f"no inverse for {type(model).__name__} weights of shape {Ws.shape[1:]}: "
                             f"an affine inverse needs ({d + 1},{d})")
    for k, (W, Sk) in enumerate(zip(Ws, S)):
        try:
            mapped[k] = np.linalg.solve(W[:d].T, Sk - W[d][:, None])
        except np.linalg.LinAlgError:
            errors[k] = SingularTransform("affine transform has a singular linear part")
    return mapped, errors


def rmse_d(solution, shape_set, models):
    """Root-mean-square datum-space residual via per-shape inverse transforms (`_rmse_ds` of one
    solution)."""
    return _raised(_rmse_ds(shape_set, [models], [solution])[0])


def _rmse_ds(shape_set, model_sets, solutions):
    """rmse_d of each solution with its model set, or the DefgpaError of its first inverse that fails;
    raises DimensionError where a solution and its models do not fit the shape set.  The sets share
    each shape's basis, as a grid's do (they differ in smoothing only), so each shape's inverse
    transforms of every solution come from one `_inverse_transforms` call."""
    for models, solution in zip(model_sets, solutions):
        _check_fit(solution, shape_set, models)
    totals, errors = np.zeros(len(solutions)), [None] * len(solutions)
    for i, shape in enumerate(shape_set if solutions else ()):
        S = np.stack([solution.reference for solution in solutions])
        Ws = np.stack([np.asarray(solution.weights[i], dtype=float) for solution in solutions])
        mapped, failed = _inverse_transforms(model_sets[0][i], Ws, S)
        residual = (shape.filled(0.0) - mapped) * shape.visibility
        totals += np.sum(residual * residual, axis=(-2, -1))
        errors = [error or failure for error, failure in zip(errors, failed)]
    visible = sum(s.num_visible for s in shape_set)
    return [error or float(np.sqrt(total / visible)) for error, total in zip(errors, totals)]


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
    # `size` (fold, set) pairs.  Where k >= m' = m - g the fold eigensolve is dense, and a pair counts what
    # it holds: its m' x m' matrix, built from its row's Gram, the eigensolver's m' x m' vectors, its
    # n g m' held columns and its n l x l held-column verdicts (2 m'^2 + n (g m' + l^2)).  Else a pair
    # counts its set's row of the pass's array, its downdated m' x k factor and the DPLR's three k x k
    # kernels (2 m k + 3 k^2).  The dense count leaves the pass's array out, so that the CLI's grid of
    # eleven smoothing values shares one pass at m = 40.  The tail holds about 12 d m + 4 n d g entries
    # per pair, and a pair counts the larger.  A full matrix counts no more than a pair.
    passes = []
    tail, kept = 12 * d * m + 4 * n * d * g, m - g
    for indices in batches.values():
        l = max(model.feature_dim for model in model_sets[indices[0]])
        k = n * l + 2
        pair = 2 * kept * kept + n * (g * kept + l * l) if k >= kept else 2 * m * k + 3 * k * k
        size = max(1, _STACK_ENTRIES // max(pair, tail))
        passes += [(indices[i:i + size], size) for i in range(0, len(indices), size)]
    return [(batch, size, np.array([smoothing[j] for j in batch])) for batch, size in passes]


def _gram_folds(F, at, keep, U, counts):
    """The dense fold matrices (P x m' x m') of P folds and their held terms a_i C_i (P x m' x n g),
    from the pass's factors F (T x n x l x m, uncentred) and per fold its pass row at[p], its kept
    columns and its held columns U (`gpa._held_terms`).

    With a_i = F_i[:, keep]^T U_i and C_i = (I - U_i^T U_i)^-1, Woodbury gives the downdated
    F'^T F' = G_t[keep, keep] + sum_i a_i C_i a_i^T with the row's Gram G_t = F_t^T F_t, so the fold
    matrix H'(diag(c') - F'^T F')H' + (n/m') 11^T needs no downdated factor.  By the push-through
    identity (I - U U^T)^-1 U = U C, the held factor of the fold weights is F'^T E^-1 U = a_i C_i.
    Each row's Gram is formed once per call and added to its folds one at a time."""
    (P, n, _, g), (m, kept) = U.shape, (F.shape[-1], keep.shape[1])
    a = np.empty((P, m, n, g))
    for t in np.unique(at):
        a[at == t] = np.moveaxis(np.swapaxes(F[t], -1, -2) @ U[at == t], 1, 2)
    a = a.reshape(P * m, n, g)[np.arange(P)[:, None] * m + keep]  # the kept rows, P x m' x n x g
    C = np.linalg.inv(np.eye(g) - np.swapaxes(U, -1, -2) @ U)
    aC = np.einsum("pjig,pigh->pjih", a, C).reshape(P, kept, n * g)
    M = aC @ np.swapaxes(a.reshape(P, kept, n * g), -1, -2)
    for t in np.unique(at):
        gram = F[t].reshape(-1, m).T @ F[t].reshape(-1, m)
        for p in np.flatnonzero(at == t):
            M[p] += gram.take(keep[p], 0).take(keep[p], 1)
    M *= -1.0
    M.reshape(P, -1)[:, ::kept + 1] += counts[keep]
    means = M.mean(axis=-1, keepdims=True)  # H' X H' = X - r 1^T - 1 r^T + mean(r) for symmetric X
    M -= means
    M -= np.swapaxes(means, -1, -2)
    M += means.mean(axis=-2, keepdims=True) + n / kept
    return M, aC


def _fold_blocks(folds, batch, size, terms, fulls, reflection_ref):
    """The CVE outcomes of one pass's model sets, from its `gpa._per_shape_terms` array (F uncentred)
    and each set's full solution; a set whose full solve failed runs no fold.

    The folds (`_cve_folds`) come in blocks of (fold, set) pairs, a ragged
    last fold in a block of its own.  Where the fold eigensolve is dense
    (k >= m'), a block holds `size` pairs, set by set, and each pair judges
    its held columns (`gpa._held_terms`) and builds its matrix from its row's
    Gram (`_gram_folds`).  Else a block holds whole folds of every set, and
    each pair downdates its set's factorization (`gpa._downdated_terms`) for
    the DPLR eigensolver.  A block ends in one stacked eigensolve and tail on
    each pair's kept columns.  A set's earliest failing fold fails it."""
    X0, G0, held, lambdas, error = folds
    (n, d, m), g = X0.shape, held.shape[1]
    whole = min(len(lambdas), m // g)  # the first m // g folds are whole; a ragged last fold keeps more
    fold_of = np.arange(m) // g
    counts = G0.sum(axis=0)
    F = terms[:, :-2].reshape(len(batch), n, -1, m)
    width = terms.shape[1]  # k = n l + 2
    predicted = np.full((len(batch), n, d, m + 1), np.nan)
    if width < m - g:  # whole folds of every set
        pairs, step = [(f, j) for f in range(whole) for j in batch], max(1, size // len(batch)) * len(batch)
    else:  # `size` pairs, set by set, so that a block spans few pass rows
        pairs, step = [(f, j) for j in batch for f in range(whole)], size
    blocks = [pairs[i:i + step] for i in range(0, len(pairs), step)]
    blocks.append([(f, j) for f in range(whole, len(lambdas)) for j in batch])
    failures = {j: (0, exc) for j, exc in zip(batch, fulls) if isinstance(exc, DefgpaError)}
    for block in blocks:
        rows = [(f, j) for f, j in block if j not in failures]
        if not rows:
            continue
        f, j = np.array(rows).T
        keep = np.nonzero(fold_of != f[:, None])[1].reshape(len(f), -1)
        at = np.array([batch.index(i) for i in j])  # the pass row of each pair
        dense = width >= keep.shape[1]
        if dense:
            *held_terms, fold_errors = _gpa._held_terms(F, at, held[f])
            del held_terms[1]  # E: the pair writes no factor
        else:
            *held_terms, fold_errors = _gpa._downdated_terms(F, at, held[f], keep)
        for p, exc in sorted(fold_errors.items()):  # a set's rows come in fold order: the first is earliest
            failures.setdefault(rows[p][1], (rows[p][0], exc))
        ok = [p for p, (f, j) in enumerate(rows) if j not in failures or f < failures[j][0]]
        if not ok:
            continue
        if len(ok) < len(rows):
            rows, at, keep, held_terms = [rows[p] for p in ok], at[ok], keep[ok], [x[ok] for x in held_terms]
        f, j = np.array(rows).T
        # the full references on the kept columns: the warm start and the gauge target
        full = np.take_along_axis(np.stack([fulls[t].reference for t in at]), keep[:, None], axis=-1)
        if dense:
            M, aC = _gram_folds(F, at, keep, held_terms[0], counts)
            values, V = _bottom_pairs(M, d)
            P = np.moveaxis((np.swapaxes(V, -1, -2) @ aC).reshape(len(f), d, n, -1), 2, 1)
            del M, aC
        else:
            EU, factor = held_terms
            W, centre = _gpa._factors(factor, counts[keep], n)
            values, V = _bottom_pairs_dplr(counts[keep], W, d, np.swapaxes(full, -1, -2))
            # the fold weights W_i = L_i'^-T F_i' S^T and Bg_i[:, H] = L_i' E_i^-1 U_i give W_i^T Bg_i[:, H] =
            # C (F_i' V)^T E_i^-1 U_i with S = C V^T, and F' V = F'_c V + c 1^T V with F'_c centred by `_factors`
            FV = (factor[:, :-2] @ V + centre * V.sum(axis=1, keepdims=True)).reshape(len(f), n, -1, d)
            P = np.swapaxes(FV, -1, -2) @ EU
            del W, factor, FV
        del held_terms
        S, undetermined = _gpa._references(
            values, V, lambdas[f], lambda k: _gpa._gram_anchor(X0[..., keep[k]], G0[:, keep[k]]),
            np.take_along_axis(X0[reflection_ref][None], keep[:, None], axis=-1), G0[reflection_ref][keep])
        R, t, sv = _gpa._procrustes(S, full, np.ones(keep.shape))
        deficient = _gpa._rank_below(sv, d - 1)
        for k in np.flatnonzero(undetermined | deficient):
            fold, j = rows[k]
            if j not in failures or fold < failures[j][0]:
                failures[j] = (fold, DegenerateConfiguration(
                    _gpa._UNORIENTED if undetermined[k] else _gpa._RANK_DEFICIENT))
        # every pair writes its held columns (padded ones to column m); a failed set's are never read
        pred = R[:, None] @ ((S @ V)[:, None] @ P) + t[:, None, :, None]
        predicted[at[:, None], :, :, held[f]] = np.moveaxis(pred, -1, 1)
        del S, full, keep, V  # freed before the next block forms its matrices

    # a set with no failing fold has a prediction at every fold; its CVE stands if every fold has a prior
    visible = G0[:, None, :] > 0
    outcomes = []
    for j, points, full in zip(batch, predicted[..., :m], fulls):
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
