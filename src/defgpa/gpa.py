"""The DefGPA solver.

Pipeline (all closed-form): pairwise similarity Procrustes between shapes,
completion of missing points by visibility-weighted averaging, estimation of
the reference covariance prior from per-shape singular values, assembly of the
point-space matrix P, and the trace minimization under S S^T = Lambda and
S 1 = 0 whose optimum is the bottom-d eigenvectors of H P H + (n/m) 11^T
(H = I - 11^T/m) scaled by the prior: 1 is an eigenvector at n >= lambda_max(P),
so S 1 = 0 holds exactly, and free-translation models have H P H = P.  That
matrix is diagonal plus low rank (`_factors`), and the DPLR eigensolver of
`spectral` solves it without forming an m x m matrix wherever it can certify
the selection.  A reflection correction against one datum shape fixes the
orientation gauge.
"""

from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import (
    DegenerateConfiguration,
    DegenerateInput,
    DimensionError,
    InsufficientOverlap,
    SingularSystem,
    _raised,
)
from .spectral import CovariancePrior, _bottom_pairs_dplr, _scale_selected, leftmost_singular_vector
from .warps import AffineWarp, _witness_and_residual


@dataclass
class ShapeConditions:
    """Per-shape residuals of the closed-form solvability conditions."""

    index: int
    projector_residual: float   # ||Q_i 1 - 1||_inf (full) or ||P_i 1||_inf (partial)
    witness_residual: float
    witness_found: bool
    passes: bool


@dataclass
class TheoremConditionReport:
    """Aggregated pass/fail record of the all-ones eigenvector conditions."""

    tolerance: float
    aggregate_residual: float
    all_pass: bool
    shapes: list


@dataclass
class GpaSolution:
    """Optimal reference shape with per-shape weights and diagnostics."""

    reference: np.ndarray          # d x m
    weights: tuple                 # n matrices, l_i x d
    prior: CovariancePrior
    nu: float
    cost: float                    # data + regularization + penalty
    data_cost: float               # sum_i ||W_i^T B_i Gamma_i - S Gamma_i||^2 = rmse_r^2 * sum_i nnz(Gamma_i)
    reg_cost: float
    penalty_cost: float
    mus: tuple = ()
    models: tuple = ()             # model descriptor dicts
    report: TheoremConditionReport | None = None

    def to_json_dict(self):
        return {
            "d": int(self.reference.shape[0]),
            "m": int(self.reference.shape[1]),
            "n": len(self.weights),
            "reference": self.reference.tolist(),
            "weights": [W.tolist() for W in self.weights],
            "prior": self.prior.lambdas.tolist(),
            "nu": float(self.nu),
            "mu": [float(v) for v in self.mus],
            "models": list(self.models),
            "cost": float(self.cost),
            "data_cost": float(self.data_cost),
            "reg_cost": float(self.reg_cost),
            "penalty_cost": float(self.penalty_cost),
            "conditions": asdict(self.report) if self.report is not None else None,
        }


# ---------------------------------------------------------------------------
# pairwise similarity Procrustes and shape completion


def _rotations(M, allow_reflection=False):
    """Rotations R maximizing trace(R M) for a d x d cross-covariance or a stack of them.

    M sums source-times-target outer products.  With M = U diag(sv) V^T the
    optimum is R = V U^T; unless reflections are allowed, a negative
    determinant is fixed to +1 by flipping the weakest singular direction.
    Returns R and the singular values, descending, for the callers' own
    degeneracy checks.  A 2 x 2 M has a closed form: the best rotation attains
    p = |(a + e, b - c)| and the best reflection q = |(a - e, b + c)|, and
    the singular values are (p + q)/2 and |p - q|/2.
    """
    if M.shape[-1] == 2:
        a, b, c, e = M[..., 0, 0], M[..., 0, 1], M[..., 1, 0], M[..., 1, 1]
        p, q = np.hypot(a + e, b - c), np.hypot(a - e, b + c)
        sign = np.where(allow_reflection & (q > p), -1.0, 1.0)  # -1 where the best reflection wins
        r = np.where(sign < 0, q, p)
        safe = np.where(r > 0, r, 1.0)
        cos, sin = np.where(r > 0, (a + sign * e) / safe, 1.0), (b - sign * c) / safe
        R = np.stack([cos, -sign * sin, sin, sign * cos], axis=-1).reshape(M.shape)
        return R, np.stack([(p + q) / 2, np.abs(p - q) / 2], axis=-1)
    U, sv, Vt = np.linalg.svd(M)
    R = np.swapaxes(Vt, -1, -2) @ np.swapaxes(U, -1, -2)
    if not allow_reflection:
        Vt[..., -1, :] *= np.where(np.linalg.det(R) < 0, -1.0, 1.0)[..., None]
        R = np.swapaxes(Vt, -1, -2) @ np.swapaxes(U, -1, -2)
    return R, sv


def _rank_below(sv, rank):
    """Which cross-covariances, by their descending singular values sv (..., d) from `_rotations`,
    have rank below `rank`: the largest value is zero, or the rank-th is at most 1e-12 of it.  An SO(d)
    rotation needs rank d-1, an O(d) one rank d."""
    low = sv[..., 0] <= 0
    if rank >= 1:
        low |= sv[..., rank - 1] <= 1e-12 * sv[..., 0]
    return low


def _stacked(shape_set):
    """Zero-filled n x d x m point stack and n x m float visibility masks."""
    X = np.stack([s.filled(0.0) for s in shape_set])
    return X, shape_set.visibility_matrix().astype(float)


def _centred(X, G):
    """Weighted centroids c (..., d) of points X (..., d, m) with weights G (..., m), and Y = (X - c) G."""
    c = (X @ G[..., :, None])[..., 0] / G.sum(axis=-1)[..., None]
    return c, (X - c[..., None]) * G[..., None, :]


def _procrustes(A, B, w, allow_reflection=False):
    """Weighted orthogonal Procrustes of point stacks A onto B (..., d, m) under weights w (..., m).

    R (..., d, d) and t (..., d) minimize sum_j w_j |R A_j + t - B_j|^2, with R
    in SO(d) unless reflections are allowed (Umeyama 1991 with the scale pinned
    to 1); sv are the singular values of the cross-covariance, for `_rank_below`.
    """
    cA, YA = _centred(A, w)
    cB, _ = _centred(B, w)
    R, sv = _rotations(YA @ np.swapaxes(B - cB[..., None], -1, -2), allow_reflection)
    return R, cB - (R @ cA[..., None])[..., 0], sv


def _moments(Y, G):
    """Pair moments of centred, masked points Y (..., n, d, k) with masks G (..., n, k).

    joint [i, k] counts the jointly visible columns, sums [i, k] = sum_j G_ij Y_kj,
    cross [i, k] = Y_k Y_i^T and sq [i, k] = sum_j G_ij |Y_kj|^2.  They are sums
    over columns, so the moments of a point subset are the whole set's minus
    those of the columns it drops.
    """
    *lead, n, d, k = Y.shape
    Yflat = Y.reshape(*lead, n * d, k)
    Gt = np.swapaxes(G, -1, -2)
    sums = np.moveaxis((Yflat @ Gt).reshape(*lead, n, d, n), -1, -3)
    cross = np.moveaxis((Yflat @ np.swapaxes(Yflat, -1, -2)).reshape(*lead, n, d, n, d), -2, -4)
    return G @ Gt, sums, cross, G @ np.swapaxes((Y * Y).sum(axis=-2), -1, -2)


def _transform_table(joint, sums, cross, sq, allow_reflection):
    """Similarity Procrustes of every ordered pair from its `_moments`, which may carry leading (fold) axes.

    Entry [i, k] maps shape k onto shape i over their jointly visible points:
    scales s, rotations R, and translations t between the centred frames.  One
    batched `_rotations` call gives the rotations (determinants corrected to +1
    unless reflections are allowed); the diagonal is the identity.  Every pair
    i != k is checked; the last value returned is None, or the leading index
    and the error of the first failing pair in row-major order, which a loop
    over the folds and pairs would raise.
    """
    n, d = sums.shape[-2:]
    safe = np.maximum(joint, 1.0)[..., None]
    mu_src = sums / safe                               # [i, k]: joint mean of Y_k
    mu_tgt = np.swapaxes(sums, -2, -3) / safe          # [i, k]: joint mean of Y_i
    M = cross - joint[..., None, None] * mu_src[..., :, None] * mu_tgt[..., None, :]
    denom = sq - joint * np.sum(mu_src * mu_src, axis=-1)

    R, sv = _rotations(M, allow_reflection)
    s = np.einsum("...ab,...ba->...", R, M) / np.where(denom > 0, denom, 1.0)
    diag = np.eye(n, dtype=bool)
    s[..., diag] = 1.0
    R[..., diag, :, :] = np.eye(d)
    t = mu_tgt - s[..., None] * (R @ mu_src[..., None])[..., 0]

    checks = (
        (joint < d + 1, InsufficientOverlap, "need at least {need} jointly visible points, have {have}"),
        # relative to the raw second moment, so that round-off cannot pass for spread
        (denom <= 1e-12 * sq, DegenerateConfiguration, "source points are coincident"),
        (_rank_below(sv, d - 1), DegenerateConfiguration, _RANK_DEFICIENT),
        (s <= 0, DegenerateConfiguration, "optimal similarity scale is not positive"),
    )
    failed = np.stack([mask for mask, _, _ in checks]) & ~diag
    bad = np.flatnonzero(failed.any(axis=0))
    if not bad.size:
        return s, R, t, None
    index = np.unravel_index(bad[0], joint.shape)
    _, error, message = checks[int(np.argmax(failed[(slice(None),) + index]))]
    return s, R, t, (index[:-2], error(message.format(need=d + 1, have=int(joint[index]))))


def _fills(s, R, t, Y, G, J):
    """sum_k G_kj (s_ik R_ik Y_kj + t_ik) (..., n, d, g) at the columns J (n x g) of each shape i, for a
    `_transform_table` (s, R, t) with any leading (fold) axes and the `_centred` points Y and masks G;
    over the count of column j and shifted by shape i's centroid, the completion of its missing point j."""
    n, d, _ = Y.shape
    maps = np.swapaxes(s[..., None, None] * R, -2, -3).reshape(*s.shape[:-2], n, d, n * d)
    Z = maps @ Y[:, :, J].transpose(2, 0, 1, 3).reshape(n, n * d, -1)
    return Z + np.swapaxes(t, -1, -2) @ G[:, J].transpose(1, 0, 2)


def _missing_first(G):
    """Per shape, the columns of its missing points first (n x g, g the most points a shape misses, >= 1)."""
    return np.argsort(G, axis=1, kind="stable")[:, :max(1, int(np.max(G.shape[1] - G.sum(axis=1))))]


def complete_all(shape_set, allow_reflection=False):
    """Completed full matrices for every shape (full shapes pass through).

    Each missing point of shape i is the visibility-weighted average of its
    occurrences in all shapes, each mapped into frame i by the similarity
    Procrustes of the pair (`_transform_table`, whose first failing pair raises).
    """
    X, G = _stacked(shape_set)
    if G.all():
        return list(X)
    c, Y = _centred(X, G)
    s, R, t, failure = _transform_table(*_moments(Y, G), allow_reflection)
    if failure is not None:
        raise failure[1]
    J = _missing_first(G)
    i, k = np.nonzero(np.take_along_axis(G, J, axis=1) == 0)
    X[i, :, J[i, k]] = c[i] + _fills(s, R, t, Y, G, J)[i, :, k] / G.sum(axis=0)[J[i, k], None]
    return list(X)


# ---------------------------------------------------------------------------
# reference covariance prior


def estimate_prior_for_set(shape_set, allow_reflection=False):
    """Reference covariance prior from per-shape singular values.

    Partial shapes are completed first.  Each centered shape contributes the
    unit vector of its d leading singular values; the consensus direction is
    the leading left singular vector of their stack, rescaled by the average
    shape scale and squared.  This is `_fold_priors` of one subset with no
    column held out.
    """
    X, G = _stacked(shape_set)
    _, Y = _centred(X, G)
    lambdas, error = _fold_priors(Y, G, _moments(Y, G), np.zeros((1, 0), dtype=int), allow_reflection)
    if error is not None:
        raise error
    return CovariancePrior(lambdas[0])


def _fold_priors(Y, G, moments, held, allow_reflection):
    """Priors of F point subsets, each the whole set minus the columns in one row of held (F x g).

    Y and G are the centred, masked points and masks of `_centred` (n x d x m)
    and moments their `_moments`; rows of held shorter than g are padded
    with m.  A completed shape differs from its zero-filled form only at its
    missing points, so its centred second moment is the visible part (from
    the subset's moments) plus that of its fills.  Each fill is the
    visibility-weighted average of the other shapes' points mapped through
    the pairwise table of the subset's moments, built and checked only for
    subsets with a missing point.  Each shape's singular values are the
    square roots of its moment's eigenvalues, and it contributes their unit
    vector; the consensus direction is the leading left singular vector of
    their stack (one stacked SVD call), rescaled by the average shape scale
    and squared.  Those squares are non-negative and, as a non-negative
    combination of descending unit vectors, descending: each row is a
    valid prior's eigenvalues.

    Returns the prior eigenvalues of the subsets before the first that fails
    (count x d), and that subset's error, or all F rows and None.
    """
    n, d, m = Y.shape
    F = len(held)
    Yh = np.concatenate([Y, np.zeros((n, d, 1))], axis=2)[:, :, held].transpose(2, 0, 1, 3)
    Gh = np.concatenate([G, np.zeros((n, 1))], axis=1)[:, held].transpose(1, 0, 2)
    joint, sums, cross, sq = (whole - part for whole, part in zip(moments, _moments(Yh, Gh)))
    keep = np.ones((F, m + 1), dtype=bool)
    keep[np.arange(F)[:, None], held] = False
    J = _missing_first(G)
    fill = keep[:, J] & (G[np.arange(n)[:, None], J] == 0)   # F x n x |J|: missing and kept
    diag = np.arange(n)
    total, second = sums[:, diag, diag], cross[:, diag, diag]
    count, error = F, None
    need = np.flatnonzero(fill.any(axis=(1, 2)))
    if need.size:
        s, R, t, failure = _transform_table(joint[need], sums[need], cross[need], sq[need], allow_reflection)
        if failure is not None:
            count, error = need[failure[0][0]], failure[1]
        Z = _fills(s, R, t, Y, G, J) * (fill[need, :, None, :] / G.sum(axis=0)[J][:, None, :])
        total[need] += Z.sum(axis=-1)
        second[need] += Z @ np.swapaxes(Z, -1, -2)
    C = second - total[..., :, None] * total[..., None, :] / (m - (held < m).sum(axis=1))[:, None, None, None]
    sv = np.sqrt(np.clip(np.linalg.eigvalsh(C[:count])[..., ::-1], 0.0, None))
    norms = np.sqrt(np.sum(sv * sv, axis=-1))
    zero = np.flatnonzero(norms == 0)
    if zero.size:
        count, i = np.unravel_index(zero[0], norms.shape)
        error = DegenerateInput(f"shape {i} has zero scale")
    theta = sv[:0, 0]  # count x d
    if count:
        theta = leftmost_singular_vector(np.swapaxes(sv[:count] / norms[:count, :, None], -1, -2))
    return (np.mean(norms[:count], axis=-1)[:, None] * theta) ** 2, error


# ---------------------------------------------------------------------------
# P-matrix assembly and the closed-form solve


def _cholesky(N):
    """Cholesky factors of a stack of matrices N (..., l, l) and where N fails: it is non-finite, not positive
    definite, or has a pivot with L_jj^2 <= 1e-12 N_jj, as a semidefinite N can pass by round-off alone.  A
    failed N gets the identity factor; only if the stacked call fails is each matrix factored alone."""
    failed = np.array(~np.isfinite(N).all(axis=(-2, -1)))
    N = np.where(failed[..., None, None], np.eye(N.shape[-1]), N)
    try:
        L = np.linalg.cholesky(N)
    except np.linalg.LinAlgError:
        L = np.zeros(N.shape)
        for index in np.ndindex(failed.shape):
            try:
                L[index] = np.linalg.cholesky(N[index])
            except np.linalg.LinAlgError:
                failed[index] = True
    failed |= np.any(np.diagonal(L, 0, -2, -1) ** 2 <= 1e-12 * np.diagonal(N, 0, -2, -1), axis=-1)
    L[failed] = np.eye(N.shape[-1])
    return L, failed


def _singular(failed, finite=True):
    """The SingularSystem of each row t of a T x n mask of failed normal matrices, naming its first
    failed shape, "non-finite" where `finite` (broadcast to the mask) is False."""
    errors = {}
    for t in np.flatnonzero(failed.any(axis=1)):
        i = int(np.argmax(failed[t]))
        kind = "singular" if np.broadcast_to(finite, failed.shape)[t, i] else "non-finite"
        errors[int(t)] = SingularSystem(f"normal matrix of shape {i} is {kind}", shape_index=i)
    return errors


def _smoothings(shape_set, models):
    """The weights mu_i of a model set; raises DimensionError unless one model per shape, mu_i >= 0."""
    if len(models) != shape_set.n:
        raise DimensionError(f"{shape_set.n} shapes but {len(models)} models")
    mus = np.array([model.smoothing for model in models], dtype=float)
    if np.any(mus < 0):
        raise DimensionError(f"model {int(np.argmax(mus < 0))} has negative smoothing")
    return mus


def _bases(shape_set, models):
    """A zeroed (n l + 2) x m array whose first n l rows hold the bases B_i (l x m each), the Grams
    Z_i^T Z_i (n x l x l), both zero-padded to the largest l, and each l_i.

    The array has the layout of a solve's factor: `_per_shape_terms` turns its B rows into F."""
    dims = tuple(model.feature_dim for model in models)
    stack = np.zeros((shape_set.n * max(dims) + 2, shape_set.m))
    B = stack[:-2].reshape(shape_set.n, max(dims), shape_set.m)
    grams = np.zeros((shape_set.n, max(dims), max(dims)))
    for i, (shape, model, l) in enumerate(zip(shape_set, models, dims)):
        Bi = model.basis(shape.filled(0.0))
        if Bi.shape != (l, shape.m):
            raise DimensionError(f"model {i} basis has shape {Bi.shape}, expected ({l},{shape.m})")
        B[i, :l] = Bi
        grams[i, :l, :l] = model.gram_regularizer()
    return stack, grams, dims


def _per_shape_terms(G, bases, mus):
    """L_ti^-1 (T x n x l x l) and a T x (n l + 2) x m array whose first n l rows hold F_ti = L_ti^-1 Bg_i,
    for masks G (n x m), the `_bases` of the points and smoothing rows mus (T x n).

    The B rows of the bases' array are masked in place into Bg.  With T = 1
    that array becomes row 0 of the returned one: F is written over Bg one
    shape at a time, so numpy's overlap copy is one l x m block and a solve
    holds one array of n l m entries.  With T > 1 the T rows are a new array.
    N_ti = Bg_i Bg_i^T + mus[t, i] Z_i^T Z_i = L_ti L_ti^T (identity on padded rows)
    is factored by `_cholesky`; a row t with a matrix that fails it gets the SingularSystem of its first
    such shape in the returned dict, "non-finite" where N or the basis is.  Row t's P is
    diag(sum_i Gamma_i) - F_t^T F_t, Bg_i = L_ti F_ti; `_factors` completes the array in place.
    """
    stack, grams, dims = bases
    n, width, m = len(dims), grams.shape[-1], stack.shape[-1]
    B = stack[:-2].reshape(n, width, m)
    B *= G[:, None, :]
    N = B @ np.swapaxes(B, -1, -2)
    for i, l in enumerate(dims):
        N[i, l:, l:] = np.eye(width - l)
    N = N + mus[:, :, None, None] * grams
    factor = stack[None] if len(mus) == 1 else np.zeros((len(mus), *stack.shape))
    F = factor[:, :-2].reshape(len(mus), n, width, m)
    finite = np.isfinite(N).all(axis=(-2, -1)) & np.isfinite(B).all(axis=(-2, -1))  # before F overwrites B
    L, failed = _cholesky(N)
    Linv = np.linalg.inv(L)
    for i in range(n):
        np.matmul(Linv[:, i], B[i], out=F[:, i])
    return Linv, factor, _singular(failed, finite)


def _held_terms(F, rows, held):
    """The held columns U (P x n x l x g) of P folds of the sets whose `_per_shape_terms` are F
    (T x n x l x m), the factors E (P x n x l x l) of I - U_i U_i^T and the `_singular` errors of the
    folds where that fails: fold p takes row rows[p] and holds out the columns held[p] (padded with m,
    where U is zero).

    With U_i = F_i[:, held], N_i' = L_i (I - U_i U_i^T) L_i^T (Hager 1989).  L_i has passed the whole
    set's checks, so a fold judges E_i alone: N_i' is singular where `_cholesky` fails
    I - U_i U_i^T, and a held point of leverage one fails its fold.
    """
    m = F.shape[-1]
    U = np.moveaxis(F[rows[:, None], :, :, np.minimum(held, m - 1)], 1, -1)
    U *= (held < m)[:, None, None]
    E, failed = _cholesky(np.eye(F.shape[-2]) - U @ np.swapaxes(U, -1, -2))  # L_i^-1 N_i' L_i^-T
    return U, E, _singular(failed)


def _downdated_terms(F, rows, held, keep):
    """E^-1 U (P x n x l x g), a P x (n l + 2) x m' array whose first n l rows hold F' and the
    `_singular` errors of P folds (`_held_terms`) that keep the columns keep[p].

    E_i = chol(I - U_i U_i^T) gives L_i'^-1 = E_i^-1 L_i^-1, F_i' = E_i^-1 F_i[:, keep] and the held
    factor E_i^-1 U_i = L_i'^-1 Bg_i[:, held], and no normal matrix is formed or factored again.
    """
    U, E, errors = _held_terms(F, rows, held)
    P, (n, width, m) = len(rows), F.shape[1:]
    Einv = np.zeros(E.shape)
    for j in range(width):  # forward substitution, one row of every E^-1 per call (not one call per matrix)
        row = np.eye(width)[j] - E[..., j, None, :j] @ Einv[..., :j, :]
        Einv[..., j, :] = row[..., 0, :] / E[..., j, j, None]
    factor = np.zeros((P, n * width + 2, keep.shape[1]))
    for p, (t, kept) in enumerate(zip(rows, keep)):
        np.take(F[t].reshape(n * width, -1), kept, axis=1, out=factor[p, :-2], mode="clip")
    folds = factor[:, :-2].reshape(P, n, width, -1)
    for i in range(n):  # numpy's overlap copy is one shape's l x m' block per fold
        np.matmul(Einv[:, i], folds[:, i], out=folds[:, i])
    return Einv @ U, factor, errors


def _factors(factor, counts, n):
    """The factors W_t = [H F_t^T, u_t, v_t] (T x m x (n l + 2)) with H P_t H + (n/m) 11^T =
    diag(counts_t) - W_t J W_t^T, J = diag(I, -1), as the transposed view of `_per_shape_terms`'
    array (its F rows centred in place) and the counts (T x m or m) of P_t over n shapes, and the
    row means (T x n l x 1) subtracted from F, which restore it.  With a = counts - mean and
    b = n - mean, u = (a + (1 - b)/2)/sqrt(m) and v = u - 1/sqrt(m) give
    u u^T - v v^T = (a 1^T + 1 a^T - b 11^T)/m = D - H D H - (n/m) 11^T; a full set has a = b = 0."""
    m = factor.shape[-1]
    F = factor[:, :-2]
    centre = F.mean(axis=-1, keepdims=True)
    F -= centre
    mean = np.mean(counts, axis=-1, keepdims=True)
    factor[:, -2] = (counts - mean + (1 - n + mean) / 2) / np.sqrt(m)
    factor[:, -1] = factor[:, -2] - 1 / np.sqrt(m)
    return np.swapaxes(factor, -1, -2), centre


def _terms(shape_set, models):
    """L_i^-1 (n x l x l), F_i = L_i^-1 Bg_i (n x l x m) and the array holding F of a model set
    (`_per_shape_terms`, from `_bases` it consumes); raises SingularSystem."""
    mus = _smoothings(shape_set, models)[None]
    stack, grams, dims = _bases(shape_set, models)
    Linv, factor, errors = _per_shape_terms(shape_set.visibility_matrix(), (stack, grams, dims), mus)
    if errors:
        raise errors[0]
    return Linv[0], factor[0, :-2].reshape(shape_set.n, -1, shape_set.m), factor[0]


def assemble_P(shape_set, models):
    """P = sum_i (Gamma_i - Gamma_i B_i^T N_i^{-1} B_i Gamma_i); symmetric, 0 <= P <= nI."""
    F = _terms(shape_set, models)[2][:-2]
    return np.diag(shape_set.visibility_matrix().sum(axis=0).astype(float)) - F.T @ F


def _gram_anchor(X, G):
    """The stacked centered, visibility-masked shapes A (n d x m) of points X (n x d x m), masks G (n x m).

    Its Gram A^T A is rigid-transform invariant; it serves only to resolve
    numerically degenerate eigenvalue clusters of the solve matrix
    deterministically (zero-residual data makes the bottom-d eigenvalue
    exactly d-fold degenerate).
    """
    return _centred(X, G)[1].reshape(-1, X.shape[-1])


_UNORIENTED = "orientation is undetermined for this reference shape"
_RANK_DEFICIENT = "cross-covariance is rank-deficient; rotation undetermined"


def _theorem_conditions(shape_set, Linv, F, models, tol):
    """Theorem-condition report from the per-shape terms L_i^-1 and F_i = L_i^-1 Bg_i of a solve
    (see `_terms`)."""
    results = []
    aggregate = 0.0
    for i, (shape, model) in enumerate(zip(shape_set, models)):
        l = model.feature_dim
        gamma = shape.visibility.astype(float)
        # P_i 1 = gamma - Bg_i^T N_i^-1 Bg_i gamma; for full shapes this equals 1 - Q_i 1, so one
        # residual serves both
        Pi_1 = gamma - F[i].T @ (F[i] @ gamma)
        aggregate = aggregate + Pi_1
        projector_residual = float(np.max(np.abs(Pi_1)))
        # Bg_i = L_i F_i equals B_i on the visible columns (L_i is the identity on padded rows)
        Bv = np.linalg.inv(Linv[i, :l, :l]) @ F[i, :l][:, shape.visibility]
        _, witness_residual = _witness_and_residual(model, Bv.T)
        witness_found = witness_residual < tol
        passes = projector_residual < tol and witness_found
        results.append(ShapeConditions(i, projector_residual, witness_residual, witness_found, passes))
    aggregate_residual = float(np.max(np.abs(aggregate)))
    all_pass = aggregate_residual < tol and all(r.passes for r in results)
    return TheoremConditionReport(tolerance=tol, aggregate_residual=aggregate_residual, all_pass=all_pass,
                                  shapes=results)


def check_theorem_conditions(shape_set, models, tol=1e-6):
    """Evaluate the equivalent closed-form solvability statements per shape.

    For full shapes the projector condition is Q_i 1 = 1, for partial shapes
    P_i 1 = 0; the witness condition asks for x with
    Gamma_i B_i^T x = Gamma_i 1 (and Z_i x = 0 when regularized).  Also checks
    the aggregate P 1 = 0.
    """
    Linv, F, _ = _terms(shape_set, models)
    return _theorem_conditions(shape_set, Linv, F, models, tol)


def _checked_args(shape_set, prior, reflection_ref, allow_reflection=False):
    """The prior of a solve, checked against the shape set.

    Needs a datum shape index 0 <= reflection_ref < n; the m >= d+1 points
    that exclude the ones vector hold for every Shape.  A prior of None is
    estimated from the (completed) shapes, a plain array is coerced to a
    CovariancePrior, and either must have d entries.
    """
    d, n = shape_set.d, shape_set.n
    if not isinstance(reflection_ref, (int, np.integer)) or not 0 <= reflection_ref < n:
        raise DimensionError(f"reflection_ref {reflection_ref!r} is not a shape index for n={n}")
    if prior is None:
        prior = estimate_prior_for_set(shape_set, allow_reflection=allow_reflection)
    if not isinstance(prior, CovariancePrior):
        prior = CovariancePrior(prior)
    if prior.d != d:
        raise DimensionError(f"prior has {prior.d} entries, shapes have d={d}")
    return prior


def _references(values, X, lambdas, anchor, D, gamma):
    """Prior-scaled, reflection-corrected references of stacked bottom-d eigenpairs (K x d, K x m x d).

    lambdas (K x d) holds the prior of each, anchor resolves degenerate
    clusters (see `spectral._scale_selected`), and the zero-filled datum points
    D (d x m or K x d x m) with masks gamma (m or K x m) fix the orientation of
    each reference whose prior has no zero entry.  Returns the references
    (K x d x m) and which orientations are undetermined.
    """
    S = _scale_selected(values, X, lambdas, anchor)
    R, _, sv = _procrustes(D, S, gamma, allow_reflection=True)
    oriented = lambdas[:, -1] > 0
    S[(np.linalg.det(R) < 0) & oriented, 0] *= -1.0
    return S, _rank_below(sv, S.shape[-2]) & oriented


def _solution(shape_set, S, Linv, F, models, prior, report=None):
    """The GpaSolution of an oriented reference S and the solve's per-shape terms L_i^-1 and F_i.

    Recovers the per-shape weights W_i = N_i^{-1} B_i Gamma_i S^T = L_i^-T (F_i S^T) and
    evaluates the data, regularization and penalty costs, the last at
    nu = n/m, where S 1 = 0 leaves it at round-off.  The fit W_i^T Bg_i is
    S F_i^T F_i, so the data residual is (F_i S^T)^T F_i - S Gamma_i.
    """
    nu = shape_set.n / shape_set.m
    weights = []
    data_cost = 0.0
    reg_cost = 0.0
    for i, (shape, model) in enumerate(zip(shape_set, models)):
        FS = F[i] @ S.T
        W = (Linv[i].T @ FS)[:model.feature_dim]
        weights.append(W)
        residual = FS.T @ F[i] - S * shape.visibility[None, :]
        data_cost += float(np.sum(residual * residual))
        if model.smoothing > 0:
            reg_cost += model.smoothing * float(
                np.einsum("ij,ik,kj->", W, model.gram_regularizer(), W))
    penalty_cost = nu * float(np.sum(S.sum(axis=1) ** 2))
    return GpaSolution(
        reference=S,
        weights=tuple(weights),
        prior=prior,
        nu=nu,
        cost=data_cost + reg_cost + penalty_cost,
        data_cost=data_cost,
        reg_cost=reg_cost,
        penalty_cost=penalty_cost,
        mus=tuple(model.smoothing for model in models),
        models=tuple(model.describe() for model in models),
        report=report,
    )


def _solve_pass(shape_set, model_sets, bases, mus, prior, reflection_ref, check_conditions):
    """The full solves of T model sets with the per-shape models of `bases` (`_bases`), one per row of
    smoothing weights mus (T x n), under a checked prior: one `_per_shape_terms` call, and one stacked
    eigensolve and `_references` of the rows it does not fail.  Returns each row's GpaSolution or
    DefgpaError, and the `_per_shape_terms` array with F uncentred, which the CVE's folds downdate."""
    n, d, m = shape_set.n, shape_set.d, shape_set.m
    Linv, factor, outcomes = _per_shape_terms(shape_set.visibility_matrix(), bases, mus)
    ok = [t for t in range(len(mus)) if t not in outcomes]
    if ok:
        counts = shape_set.visibility_matrix().sum(axis=0, dtype=float)
        W, centre = _factors(factor, counts, n)
        values, V = _bottom_pairs_dplr(np.broadcast_to(counts, (len(ok), m)), W[ok] if outcomes else W, d)
        factor[:, :-2] += centre  # the tail and the folds read F uncentred
        X, G = _stacked(shape_set)
        S, undetermined = _references(values, V, prior.lambdas[None], _gram_anchor(X, G),
                                      X[reflection_ref], G[reflection_ref])
    F = factor[:, :-2].reshape(len(mus), n, -1, m)
    for k, t in enumerate(ok):
        models = model_sets[t]
        report = _theorem_conditions(shape_set, Linv[t], F[t], models, 1e-6) if check_conditions else None
        outcomes[t] = DegenerateConfiguration(_UNORIENTED) if undetermined[k] else _solution(
            shape_set, S[k], Linv[t], F[t], models, prior, report)
    return [outcomes[t] for t in range(len(mus))], factor


def solve(shape_set, models, prior=None, reflection_ref=0,
          allow_reflection=False, check_conditions=True):
    """Closed-form GPA with linear basis warps.

    Takes the bottom-d eigenvectors of H P H + (n/m) 11^T (from the DPLR
    eigensolver, with the dense matrix only where it cannot certify the
    selection), scales them by the prior, corrects reflection against one
    datum shape, and recovers per-shape weights by regularized least squares.
    With prior=None the reference covariance prior is estimated from the
    (completed) shapes.  This is the one-set `_solve_pass`, which writes
    F = L^-1 Bg over the bases: a solve holds one basis-sized array.
    """
    prior = _checked_args(shape_set, prior, reflection_ref, allow_reflection)
    mus = _smoothings(shape_set, models)[None]
    (solution,), _ = _solve_pass(shape_set, [models], _bases(shape_set, models), mus, prior,
                                 reflection_ref, check_conditions)
    return _raised(solution)


def solve_affine_centered(shape_set, prior=None, reflection_ref=0):
    """Affine GPA via translation elimination on full shapes.

    Centers every shape, sums the projectors onto the centered row spaces
    (Q_o), and scales the d top eigenvectors by the prior; equivalent to the
    homogeneous path up to row signs.  They are the bottom d of n I - Q_o, the
    solve matrix of the centred bases Dbar_i, so this is `_solve_pass` on
    them; with F_i = L_i^-1 Dbar_i the weights are A_i^T = L_i^-T (F_i S^T)
    and, as S 1 = 0, t_i = -A_i cbar_i at the centroid cbar_i.
    """
    if not shape_set.all_full:
        raise DegenerateInput("translation-eliminated affine GPA requires full shapes")
    prior = _checked_args(shape_set, prior, reflection_ref)
    n, d, m = shape_set.n, shape_set.d, shape_set.m
    X = np.stack([shape.points for shape in shape_set])
    centroids = X.mean(axis=2)
    stack = np.zeros((n * d + 2, m))  # the centred shapes Dbar, in the rows that become F
    np.subtract(X, centroids[..., None], out=stack[:-2].reshape(n, d, m))
    (solution,), _ = _solve_pass(shape_set, [[AffineWarp(d)] * n], (stack, np.zeros((n, d, d)), (d,) * n),
                                 np.zeros((1, n)), prior, reflection_ref, False)
    if isinstance(solution, SingularSystem):
        i = solution.shape_index
        raise SingularSystem(f"centered shape {i} is degenerate", shape_index=i) from solution
    weights = _raised(solution).weights
    return replace(solution, weights=tuple(np.vstack([A, -c @ A]) for A, c in zip(weights, centroids)))
