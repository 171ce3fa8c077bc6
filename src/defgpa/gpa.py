"""The DefGPA solver.

Pipeline (all closed-form): pairwise similarity Procrustes between shapes,
completion of missing points by visibility-weighted averaging, estimation of
the reference covariance prior from per-shape singular values, assembly of the
point-space matrix P, and the constrained trace minimization whose optimum is
the bottom-d eigenvectors of P + nu*11^T scaled by the prior.  When every
shape is full that eigenproblem is solved on the span of the stacked bases,
without forming an m x m matrix.  A reflection correction against one datum
shape fixes the orientation gauge.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConfiguration,
    DegenerateInput,
    DimensionError,
    InsufficientOverlap,
    SingularSystem,
    UnconstrainedPoint,
)
from .spectral import CovariancePrior, bottom_d_scaled, bottom_d_scaled_on_span, leftmost_singular_vector
from .warps import AffineWarp, _witness_and_residual


@dataclass
class ShapeConditions:
    """Per-shape residuals of the closed-form solvability conditions."""

    index: int
    projector_residual: float   # ||Q_i 1 - 1||_inf (full) or ||P_i 1||_inf (partial)
    witness_residual: float
    witness_found: bool
    passes: bool

    def to_dict(self):
        return {
            "index": self.index,
            "projector_residual": self.projector_residual,
            "witness_residual": self.witness_residual,
            "witness_found": self.witness_found,
            "passes": self.passes,
        }


@dataclass
class TheoremConditionReport:
    """Aggregated pass/fail record of the all-ones eigenvector conditions."""

    shapes: list
    aggregate_residual: float
    tolerance: float
    all_pass: bool

    def to_dict(self):
        return {
            "tolerance": self.tolerance,
            "aggregate_residual": self.aggregate_residual,
            "all_pass": self.all_pass,
            "shapes": [s.to_dict() for s in self.shapes],
        }


@dataclass
class GpaSolution:
    """Optimal reference shape with per-shape weights and diagnostics."""

    reference: np.ndarray          # d x m
    weights: tuple                 # n matrices, l_i x d
    prior: CovariancePrior
    nu: float
    cost: float                    # data + regularization + penalty
    data_cost: float
    reg_cost: float
    penalty_cost: float
    mus: tuple = ()
    models: tuple = ()             # model descriptor dicts
    report: TheoremConditionReport | None = None

    def to_json_dict(self):
        doc = {
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
        }
        doc["conditions"] = self.report.to_dict() if self.report is not None else None
        return doc


# ---------------------------------------------------------------------------
# pairwise similarity Procrustes and shape completion


def _rotations(M, allow_reflection=False):
    """Rotations R maximizing trace(R M) for a d x d cross-covariance or a stack of them.

    M sums source-times-target outer products.  With M = U diag(sv) V^T the
    optimum is R = V U^T; unless reflections are allowed, a negative
    determinant is fixed to +1 by flipping the weakest singular direction.
    Returns R and the singular values, descending, for the callers' own
    degeneracy checks.
    """
    U, sv, Vt = np.linalg.svd(M)
    R = np.swapaxes(Vt, -1, -2) @ np.swapaxes(U, -1, -2)
    if not allow_reflection:
        Vt[..., -1, :] *= np.where(np.linalg.det(R) < 0, -1.0, 1.0)[..., None]
        R = np.swapaxes(Vt, -1, -2) @ np.swapaxes(U, -1, -2)
    return R, sv


def _stacked(shape_set):
    """Zero-filled n x d x m point stack and n x m float visibility masks."""
    X = np.stack([s.filled(0.0) for s in shape_set])
    return X, shape_set.visibility_matrix().astype(float)


def pairwise_transform_table(shape_set, allow_reflection=False):
    """Similarity Procrustes between every ordered pair of shapes.

    Entry [i, k] of the returned s (n, n), R (n, n, d, d) and t (n, n, d)
    maps shape k onto shape i over their jointly visible points,
    s R D_k + t 1^T ~ D_i; the diagonal is the identity.

    Each shape is first shifted by its own visible centroid.  The masked sums,
    cross-covariances and squared norms of all pairs then come from matmuls
    over m, and one batched SVD of the (n, n, d, d) stack gives the rotations
    (determinants corrected to +1 unless reflections are allowed).  Every
    pair i != k is checked, and the first failing one in row-major order
    raises, as a loop over the pairs would.
    """
    X, G = _stacked(shape_set)
    n, d, m = X.shape
    centroids = (X @ G[:, :, None])[:, :, 0] / G.sum(axis=1)[:, None]
    Y = (X - centroids[:, :, None]) * G[:, None, :]
    Yflat = Y.reshape(n * d, m)
    joint = G @ G.T
    safe = np.maximum(joint, 1.0)[:, :, None]
    sums = (Yflat @ G.T).reshape(n, d, n)           # [k, :, i]: Y_k summed over joint(i, k)
    mu_src = sums.transpose(2, 0, 1) / safe         # [i, k]: joint mean of Y_k
    mu_tgt = sums.transpose(0, 2, 1) / safe         # [i, k]: joint mean of Y_i
    cross = (Yflat @ Yflat.T).reshape(n, d, n, d).transpose(2, 0, 1, 3)  # [i, k] = Y_k Y_i^T
    M = cross - joint[:, :, None, None] * mu_src[:, :, :, None] * mu_tgt[:, :, None, :]
    sq = ((Y * Y).sum(axis=1) @ G.T).T              # [i, k]: |Y_k|^2 summed over joint
    denom = sq - joint * np.sum(mu_src * mu_src, axis=-1)

    R, sv = _rotations(M, allow_reflection)
    s = np.einsum("...ab,...ba->...", R, M) / np.where(denom > 0, denom, 1.0)
    src_mean = mu_src + centroids[None, :, :]
    t = mu_tgt + centroids[:, None, :] - s[:, :, None] * (R @ src_mean[..., None])[..., 0]
    diag = np.arange(n)
    s[diag, diag] = 1.0
    R[diag, diag] = np.eye(d)
    t[diag, diag] = 0.0

    rank_deficient = sv[..., 0] <= 0
    if d >= 2:
        rank_deficient |= sv[..., d - 2] <= 1e-12 * sv[..., 0]
    orth_error = np.max(np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(d)), axis=(-2, -1))
    checks = (
        (joint < d + 1, InsufficientOverlap, "need at least {need} jointly visible points, have {have}"),
        # relative to the raw second moment, so that round-off cannot pass for spread
        (denom <= 1e-12 * sq, DegenerateConfiguration, "source points are coincident"),
        (rank_deficient, DegenerateConfiguration,
         "cross-covariance is rank-deficient; rotation undetermined"),
        (s <= 0, DegenerateConfiguration, "optimal similarity scale is not positive"),
        (orth_error > 1e-10, DegenerateConfiguration, "rotation block is not orthonormal"),
    )
    failed = np.stack([mask for mask, _, _ in checks]) & ~np.eye(n, dtype=bool)
    bad = np.flatnonzero(failed.any(axis=0))
    if bad.size:
        i, k = divmod(int(bad[0]), n)
        _, error, message = checks[int(np.argmax(failed[:, i, k]))]
        raise error(message.format(need=d + 1, have=int(joint[i, k])))
    return s, R, t


def complete_all(shape_set, allow_reflection=False):
    """Completed full matrices for every shape (full shapes pass through).

    Each missing point of shape i is the visibility-weighted average of its
    occurrences in all shapes, each mapped into frame i through the pairwise
    table; the transforms are applied as one (n d) x (n d) matmul.
    """
    if shape_set.all_full:
        return [s.points.copy() for s in shape_set]
    s, R, t = pairwise_transform_table(shape_set, allow_reflection)
    X, G = _stacked(shape_set)
    n, d, m = X.shape
    maps = (s[:, :, None, None] * R).transpose(0, 2, 1, 3).reshape(n * d, n * d)
    acc = (maps @ X.reshape(n * d, m) + t.transpose(0, 2, 1).reshape(n * d, n) @ G).reshape(n, d, m)
    counts = G.sum(axis=0)
    if np.any(counts == 0):  # such a point is missing from every shape
        raise UnconstrainedPoint(f"points {np.flatnonzero(counts == 0).tolist()} are visible in no shape")
    return list(np.where(G[:, None, :] > 0, X, acc / np.where(counts > 0, counts, 1.0)))


# ---------------------------------------------------------------------------
# reference covariance prior


def estimate_prior(full_shapes):
    """Reference covariance prior from per-shape singular values.

    Each centered full shape contributes the unit vector of its d leading
    singular values; the consensus direction is the leading left singular
    vector of their stack, rescaled by the average shape scale and squared.
    """
    columns = []
    norms = []
    for i, D in enumerate(full_shapes):
        D = np.asarray(D, dtype=float)
        Dbar = D - D.mean(axis=1, keepdims=True)
        sv = np.linalg.svd(Dbar, compute_uv=False)[: D.shape[0]]
        nrm = float(np.linalg.norm(sv))
        if nrm == 0:
            raise DegenerateInput(f"shape {i} has zero scale")
        columns.append(sv / nrm)
        norms.append(nrm)
    pi = np.column_stack(columns)
    theta = leftmost_singular_vector(pi)
    s = float(np.mean(norms))
    return CovariancePrior((s * theta) ** 2)


def estimate_prior_for_set(shape_set, allow_reflection=False):
    """Algorithm-level prior: completes partial shapes first, then estimates."""
    return estimate_prior(complete_all(shape_set, allow_reflection=allow_reflection))


# ---------------------------------------------------------------------------
# P-matrix assembly and the closed-form solve


def _cholesky_solve(N, rhs):
    """N^{-1} rhs for SPD N: a Cholesky factor, then two triangular solves.

    Raises np.linalg.LinAlgError when N is not positive definite or either
    input holds a non-finite entry.
    """
    if not (np.all(np.isfinite(N)) and np.all(np.isfinite(rhs))):
        raise np.linalg.LinAlgError("non-finite entries")
    L = np.linalg.cholesky(N)
    return np.linalg.solve(L.T, np.linalg.solve(L, rhs))


def _solve_normal(N, rhs, index):
    """SPD solve with one diagonal-jitter retry before giving up."""
    try:
        return _cholesky_solve(N, rhs)
    except np.linalg.LinAlgError:
        pass
    jitter = 1e-12 * max(np.trace(N) / N.shape[0], np.finfo(float).tiny)
    try:
        return _cholesky_solve(N + jitter * np.eye(N.shape[0]), rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"normal matrix of shape {index} is singular", shape_index=index) from exc


def _per_shape_terms(shape_set, models):
    """Per shape: masked basis B_i Gamma_i and the solved N_i^{-1} B_i Gamma_i."""
    if len(models) != shape_set.n:
        raise DimensionError(f"{shape_set.n} shapes but {len(models)} models")
    terms = []
    for i, (shape, model) in enumerate(zip(shape_set, models)):
        if model.smoothing < 0:
            raise DimensionError(f"model {i} has negative smoothing")
        B = model.basis(shape.filled(0.0))
        if B.shape != (model.feature_dim, shape.m):
            raise DimensionError(f"model {i} basis has shape {B.shape}, expected ({model.feature_dim},{shape.m})")
        Bg = B * shape.visibility[None, :]
        N = Bg @ B.T + model.smoothing * model.gram_regularizer()
        solved = _solve_normal(N, Bg, i)
        terms.append((shape, Bg, solved))
    return terms


def _dense(shift, factors):
    """diag(shift) - sum_i L_i^T R_i as an m x m array, symmetrized against round-off."""
    M = np.diag(shift)
    for L, R in factors:
        M -= L.T @ R
    return 0.5 * (M + M.T)


def assemble_P(shape_set, models):
    """P = sum_i (Gamma_i - Gamma_i B_i^T N_i^{-1} B_i Gamma_i); symmetric, 0 <= P <= nI."""
    terms = _per_shape_terms(shape_set, models)
    return _dense(shape_set.visibility_matrix().sum(axis=0).astype(float),
                  [(Bg, solved) for _, Bg, solved in terms])


def _span_basis(columns):
    """Orthonormal basis (m x r) of the column span of an m x k matrix.

    Columns are scaled to unit norm first, so that the rank cutoff does not
    depend on their scale; singular values at or below max(m, k) * eps times
    the largest count as zero (the default of np.linalg.matrix_rank).
    """
    norms = np.linalg.norm(columns, axis=0)
    columns = columns[:, norms > 0] / norms[norms > 0]
    if columns.shape[1] == 0:
        return columns
    U, sv, _ = np.linalg.svd(columns, full_matrices=False)
    return U[:, sv > max(columns.shape) * np.finfo(float).eps * sv[0]]


def _bottom_d_of_sum(shift, factors, nu, prior, anchor):
    """Prior-scaled bottom-d eigenvectors of M = diag(shift) - sum_i L_i^T R_i + nu 11^T.

    `factors` holds the l_i x m pairs (L_i, R_i) with R_i = K_i L_i for a
    symmetric K_i (the solved normal equations).
    With a scalar shift c, M equals c I outside the span of the L_i^T (and of
    1 when nu > 0), a subspace of dimension r <= sum_i l_i + 1.  The
    eigenproblem is then solved on that span, C = U^T M U, and no m x m array
    is formed.  The dense matrix serves a vector shift, and a scalar one when
    the restricted spectrum cannot certify the selection.
    """
    m = factors[0][0].shape[1]
    if np.ndim(shift) == 0:
        ones = [np.ones((m, 1))] if nu else []
        U = _span_basis(np.hstack([L.T for L, _ in factors] + ones))
        w = U.sum(axis=0)  # U^T 1
        C = shift * np.eye(U.shape[1]) + nu * np.outer(w, w)
        for L, R in factors:
            C -= (L @ U).T @ (R @ U)
        S = bottom_d_scaled_on_span(U, 0.5 * (C + C.T), shift, prior, anchor=anchor)
        if S is not None:
            return S
        shift = np.full(m, float(shift))
    M = _dense(shift, factors)
    M += nu
    return bottom_d_scaled(M, prior, anchor=anchor)


def _gram_anchor(shape_set):
    """The stacked centered, visibility-masked shapes A (n d x m).

    Its Gram A^T A is rigid-transform invariant; it serves only to resolve
    numerically degenerate eigenvalue clusters of the solve matrix
    deterministically (zero-residual data makes the bottom-d eigenvalue
    exactly d-fold degenerate).
    """
    rows = []
    for s in shape_set:
        mu = s.visible_points().mean(axis=1, keepdims=True)
        rows.append((s.filled(0.0) - mu) * s.visibility[None, :])
    return np.vstack(rows)


def correct_reflection(S, ref_shape):
    """Flip the first row of S if an orthogonal Procrustes to ref_shape reflects.

    The Procrustes runs over the visible points of ref_shape; det of the
    optimal orthogonal factor is the orientation test, and flipping one row of
    S flips it back to +1.
    """
    S = np.asarray(S, dtype=float)
    gamma = ref_shape.visibility.astype(float)
    nnz = gamma.sum()
    Dk = ref_shape.filled(0.0) * gamma[None, :]
    centered = Dk - (Dk @ gamma)[:, None] * gamma[None, :] / nnz
    R, sv = _rotations(centered @ S.T, allow_reflection=True)
    if sv[0] <= 0 or sv[-1] <= 1e-12 * sv[0]:
        raise DegenerateConfiguration("orientation is undetermined for this reference shape")
    if np.linalg.det(R) < 0:
        S = S.copy()
        S[0, :] *= -1.0
    return S


def _theorem_conditions(terms, models, tol):
    """Theorem-condition report from the per-shape terms of a solve."""
    results = []
    aggregate = 0.0
    for i, ((shape, Bg, solved), model) in enumerate(zip(terms, models)):
        gamma = shape.visibility.astype(float)
        # P_i 1; for full shapes this equals 1 - Q_i 1, so one residual serves both
        Pi_1 = gamma - Bg.T @ (solved @ gamma)
        aggregate = aggregate + Pi_1
        projector_residual = float(np.max(np.abs(Pi_1)))
        # Bg^T equals B^T on the visible rows
        _, witness_residual = _witness_and_residual(model, Bg.T[shape.visibility, :])
        witness_found = witness_residual < tol
        passes = projector_residual < tol and witness_found
        results.append(ShapeConditions(i, projector_residual, witness_residual, witness_found, passes))
    aggregate_residual = float(np.max(np.abs(aggregate)))
    all_pass = aggregate_residual < tol and all(r.passes for r in results)
    return TheoremConditionReport(results, aggregate_residual, tol, all_pass)


def check_theorem_conditions(shape_set, models, tol=1e-6):
    """Evaluate the equivalent closed-form solvability statements per shape.

    For full shapes the projector condition is Q_i 1 = 1, for partial shapes
    P_i 1 = 0; the witness condition asks for x with
    Gamma_i B_i^T x = Gamma_i 1 (and Z_i x = 0 when regularized).  Also checks
    the aggregate P 1 = 0.
    """
    return _theorem_conditions(_per_shape_terms(shape_set, models), models, tol)


def _checked_args(shape_set, prior, nu, allow_reflection=False):
    """The prior and nu of a solve, checked against the shape set.

    Needs d <= m-1, so that the ones vector can be excluded.  A prior of None
    is estimated from the (completed) shapes, a plain array is coerced to a
    CovariancePrior, and either must have d entries.  A nu of None defaults
    to n/m; a given one must be finite and non-negative.
    """
    d, m, n = shape_set.d, shape_set.m, shape_set.n
    if d > m - 1:
        raise DimensionError(f"need m >= d+1 landmarks to exclude the ones vector, got d={d}, m={m}")
    if prior is None:
        prior = estimate_prior_for_set(shape_set, allow_reflection=allow_reflection)
    if not isinstance(prior, CovariancePrior):
        prior = CovariancePrior(prior)
    if prior.d != d:
        raise DimensionError(f"prior has {prior.d} entries, shapes have d={d}")
    if nu is None:
        nu = n / m
    elif not 0 <= nu < np.inf:
        raise DimensionError(f"penalty weight nu must be finite and non-negative, got {nu}")
    return prior, float(nu)


def _solution(shape_set, S, terms, models, prior, nu, reflection_ref, report=None):
    """The GpaSolution of a prior-scaled reference S and the solve's per-shape terms.

    Corrects the reflection of S against the datum shape, recovers the
    per-shape weights W_i = N_i^{-1} B_i Gamma_i S^T, and evaluates the data,
    regularization and penalty costs.
    """
    if prior.lambdas[-1] > 0:
        S = correct_reflection(S, shape_set[reflection_ref])
    weights = []
    data_cost = 0.0
    reg_cost = 0.0
    for (shape, Bg, solved), model in zip(terms, models):
        W = solved @ S.T
        weights.append(W)
        residual = (W.T @ Bg) - S * shape.visibility[None, :]
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


def solve(shape_set, models, prior=None, nu=None, reflection_ref=0,
          allow_reflection=False, check_conditions=True):
    """Closed-form GPA with linear basis warps.

    Takes the bottom-d eigenvectors of P + nu*11^T (on the span of the
    stacked bases when every shape is full, else from the dense matrix),
    scales them by the prior, corrects reflection against one datum shape,
    and recovers per-shape weights by regularized least squares.  With
    prior=None the reference covariance prior is estimated from the
    (completed) shapes; with nu=None the penalty weight defaults to n/m.
    """
    prior, nu = _checked_args(shape_set, prior, nu, allow_reflection)
    terms = _per_shape_terms(shape_set, models)
    shift = float(shape_set.n) if shape_set.all_full else shape_set.visibility_matrix().sum(axis=0).astype(float)
    S = _bottom_d_of_sum(shift, [(Bg, solved) for _, Bg, solved in terms], nu, prior,
                         _gram_anchor(shape_set))
    report = _theorem_conditions(terms, models, 1e-6) if check_conditions else None
    return _solution(shape_set, S, terms, models, prior, nu, reflection_ref, report)


def solve_affine_centered(shape_set, prior=None, reflection_ref=0):
    """Affine GPA via translation elimination on full shapes.

    Centers every shape, sums the projectors onto the centered row spaces
    (Q_o), and scales the d top eigenvectors by the prior; equivalent to the
    homogeneous path up to row signs.  The eigenproblem is solved on the span
    of the centered shapes' rows, outside which Q_o vanishes.  Weights and
    costs follow as in `solve`, with affine warps and nu = 0.
    """
    if not shape_set.all_full:
        raise DegenerateInput("translation-eliminated affine GPA requires full shapes")
    prior, nu = _checked_args(shape_set, prior, 0.0)
    factors = []
    for i, s in enumerate(shape_set):
        Dbar = s.points - s.points.mean(axis=1, keepdims=True)
        try:
            factors.append((Dbar, _cholesky_solve(Dbar @ Dbar.T, Dbar)))
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"centered shape {i} is degenerate", shape_index=i) from exc

    # top-d of Q = sum_i Dbar_i^T (Dbar_i Dbar_i^T)^{-1} Dbar_i are the bottom-d
    # of -Q, with identical prior pairing; -Q vanishes outside the row spaces
    S = _bottom_d_of_sum(0.0, factors, nu, prior, _gram_anchor(shape_set))
    models = [AffineWarp(shape_set.d) for _ in shape_set]
    return _solution(shape_set, S, _per_shape_terms(shape_set, models), models, prior, nu,
                     reflection_ref)
