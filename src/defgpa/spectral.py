"""Symmetric eigendecomposition utilities and constrained Brockett selection rules.

The closed-form GPA solvers reduce to trace minimization over matrices with
orthonormal rows (a Brockett cost on the Stiefel manifold), whose optimum is
assembled from ordered eigenvectors.  This module owns that assembly: the
eigensolver wrapper with a deterministic sign convention, the covariance
prior, the bottom-d selection scaled by that prior, and the
leading-singular-vector helper used by the prior estimator.  Every solve
matrix is diagonal plus low rank, D - W J W^T with J = diag(I, -1) (see
`gpa._factors`); its bottom d come from one structured (DPLR) eigensolver,
shift-invert subspace iteration with a Woodbury inverse and an inertia
certificate, which hands to the dense eigensolver only the matrices it cannot
certify.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionError, InvalidMatrix

# Inputs whose relative asymmetry exceeds this are rejected rather than
# silently symmetrized: asymmetry at that level signals an assembly bug.
_ASYMMETRY_TOL = 1e-8

# Eigenvalues of the selected bottom-d block closer than this (relative to the
# spectral scale) are treated as one degenerate cluster.
_CLUSTER_TOL = 1e-9

# The diagonal-plus-low-rank (DPLR) eigensolver: its shift sigma = -_SHIFT max D, its
# residual stop relative to max D, and the step cap beyond which the dense eigh runs.
_SHIFT = 1e-3
_RESIDUAL_TOL = 1e-13
_MAX_STEPS = 100
_KERNEL_ROWS = 128  # rows of W per product in the k x k kernels W^T diag(c) W: no m x k weighted copy


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues in ascending order with matching orthonormal columns."""

    values: np.ndarray   # (..., k)
    vectors: np.ndarray  # (..., m, k), column j pairs with values[..., j]


def _canonical_signs(vectors):
    """Flip column signs (of a matrix or a stack) so each column's largest-magnitude entry is positive.

    Ties break toward the lowest index (np.argmax returns the first maximum),
    which makes downstream reference shapes bitwise reproducible.
    """
    V = np.asarray(vectors, dtype=float)
    idx = np.argmax(np.abs(V), axis=-2)
    flip = np.take_along_axis(V, idx[..., None, :], axis=-2) < 0.0
    return np.where(flip, -V, V)


def eig_sym(A):
    """Full spectrum of a symmetric matrix, or of each in a stack, ascending, with canonical signs.

    Each matrix must be symmetric within 1e-8 relative Frobenius norm; it is
    symmetrized as (A + A^T)/2 before decomposition.  Non-finite entries or
    excessive asymmetry in any matrix raise InvalidMatrix.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidMatrix("matrix contains non-finite entries")
    scale = np.linalg.norm(A, axis=(-2, -1))
    if np.any(np.linalg.norm(A - np.swapaxes(A, -1, -2), axis=(-2, -1)) > _ASYMMETRY_TOL * scale):
        raise InvalidMatrix("matrix is not symmetric within 1e-8 relative tolerance")
    values, vectors = np.linalg.eigh(0.5 * (A + np.swapaxes(A, -1, -2)))
    return EigenPairs(values=values, vectors=_canonical_signs(vectors))


@dataclass(frozen=True)
class CovariancePrior:
    """Prescribed eigenvalues of the reference covariance S S^T, descending."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float).ravel()
        if lam.size == 0:
            raise DimensionError("empty covariance prior")
        scale = max(1.0, float(np.max(np.abs(lam))))
        if np.any(lam < -1e-12 * scale):
            raise DegenerateInput("prior eigenvalues must be non-negative")
        if np.any(np.diff(lam) > 1e-12 * scale):
            raise DegenerateInput("prior eigenvalues must be non-ascending")
        lam = np.clip(lam, 0.0, None)
        lam.setflags(write=False)
        object.__setattr__(self, "lambdas", lam)

    @property
    def d(self):
        return self.lambdas.size

    def matrix(self):
        return np.diag(self.lambdas)


def _anchor_rotate(X, joined, anchor):
    """Resolve degenerate eigenvalue clusters against a data anchor, in place.

    joined[j] marks columns j and j+1 of X as one cluster of (numerically)
    equal eigenvalues.  Within a cluster any orthonormal basis is
    cost-optimal; rotate each cluster's columns to diagonalize the Gram of
    the anchor's restriction, (A X_c)^T (A X_c), ordering by its eigenvalues
    descending so the largest prior entry pairs with the strongest data
    direction.
    """
    cuts = [0, *(np.flatnonzero(~joined) + 1), X.shape[1]]
    for start, stop in zip(cuts, cuts[1:]):
        if stop - start > 1:
            AXc = anchor @ X[:, start:stop]
            restricted = AXc.T @ AXc
            omega = np.linalg.eigh(0.5 * (restricted + restricted.T))[1]
            X[:, start:stop] = X[:, start:stop] @ omega[:, ::-1]


def _scale_selected(values, X, lam, anchor):
    """The shared tail of the bottom-d selections, for one selection or a stack of them.

    values (..., d) ascending and X (..., m, d) are the selected eigenpairs and
    lam (d,) or (..., d) the prior of each.  Selections with a degenerate
    cluster, neighbours within _CLUSTER_TOL of the spectral scale, are rotated
    against their anchor: one array for all, or a function of the selection's
    flat index for per-selection anchors (None skips the rotation).  Then
    canonical signs are fixed and row k is scaled by sqrt(lambda_k).
    """
    if anchor is not None:
        flat_values = values.reshape(-1, values.shape[-1])
        tol = _CLUSTER_TOL * np.maximum(1.0, np.max(np.abs(flat_values), axis=-1, initial=0.0))
        joined = np.diff(flat_values, axis=-1) <= tol[:, None]
        clustered = np.flatnonzero(np.any(joined, axis=-1))
        if clustered.size:
            flat_X = X.reshape((-1,) + X.shape[-2:]).copy()
            for k in clustered:
                A = anchor(k) if callable(anchor) else anchor
                _anchor_rotate(flat_X[k], joined[k], np.asarray(A, dtype=float))
            X = flat_X.reshape(X.shape)
    return np.sqrt(lam)[..., :, None] * np.swapaxes(_canonical_signs(X), -1, -2)


def _bottom_pairs(M, d):
    """The d bottom eigenpairs, values (..., d) and vectors (..., m, d), of a matrix or stack that
    is symmetric by construction: of `eig_sym`'s checks only the finiteness check applies."""
    if not np.all(np.isfinite(M)):
        raise InvalidMatrix("matrix contains non-finite entries")
    values, vectors = np.linalg.eigh(M)
    return values[..., :d].copy(), vectors[..., :, :d].copy()  # copies free the m x m arrays


def _dplr_matrix(D, W):
    """The dense M_t = diag(D_t) - W_t J W_t^T of each t in a stack, J = diag(I, -1), so that
    W J W^T = W W^T - 2 v v^T with v the last column of W."""
    M = W @ np.swapaxes(W, -1, -2)
    M *= -1.0
    M += 2.0 * W[..., -1:] @ np.swapaxes(W[..., -1:], -1, -2)
    diagonal = np.arange(M.shape[-1])
    M[:, diagonal, diagonal] += D
    return M


def _kernels(W, J, ts, weights):
    """The k x k kernels diag(J) - W_t^T diag(weights_t) W_t of the factors W (T x m x k) at the rows t of ts.

    W diag(weights) is formed _KERNEL_ROWS rows at a time by einsum in one buffer (np.multiply would
    also buffer the broadcast weights), laid out as numpy lays out that product of W's rows, so that
    each k x k product rounds as it would on a new array."""
    m, k = W.shape[-2:]
    scaled, order = np.empty(min(m, _KERNEL_ROWS) * k), "F" if W.strides[-2] < W.strides[-1] else "C"
    K = np.zeros((len(ts), k, k))
    for Kt, t, c in zip(K, ts, weights):
        for r in range(0, m, _KERNEL_ROWS):
            Wr = W[t, r:r + _KERNEL_ROWS]
            Kt += Wr.T @ np.einsum("ij,i->ij", Wr, c[r:r + _KERNEL_ROWS],
                                   out=scaled[:Wr.size].reshape(Wr.shape, order=order))
    return np.diag(J) - K


def _bottom_pairs_dplr(D, W, d, start=None):
    """Bottom-d eigenpairs, values (T x d) and vectors (T x m x d), of each M_t = diag(D_t) - W_t J W_t^T.

    D (T x m) is positive, and W (T x m x k) holds the columns of `gpa._factors`
    with J = diag(I, -1), a single -1 on the last.  Shift-invert subspace
    iteration on blocks of d+1 columns (Golub 1973; Parlett): with
    sigma = -_SHIFT max D and Delta = D - sigma I, Woodbury applies
    (M - sigma I)^-1 = Delta^-1 + Delta^-1 W S^-1 W^T Delta^-1 through one k x k
    inverse of S = J - W^T Delta^-1 W, and a Rayleigh-Ritz step on M follows.
    The block starts from `start` (T x m x s, s <= d+1), completed by a fixed
    sketch Delta^-1 W Omega of W's range.  Each matrix stops one step after its
    d selected Ritz residuals fall below _RESIDUAL_TOL max D, a step that at
    the usual rates takes them to the round-off floor.

    Haynsworth's inertia additivity certifies a selection: for a cut
    c < min D, M has as many eigenvalues below c as J - W^T (D - cI)^-1 W has
    negative ones, less the one of J.  The cut lies midway between the Ritz
    values theta_d and min(theta_d+1, min D), and the count must be d.  The
    dense eigensolver runs where no certificate holds: k >= m, no
    convergence within _MAX_STEPS, theta_d+1 - theta_d within the cluster
    tolerance, theta_d >= min D, or a count other than d.
    """
    T, m, k = W.shape
    if k >= m:
        return _bottom_pairs(_dplr_matrix(D, W), d)
    if not (np.all(np.isfinite(D)) and np.all(np.isfinite(W))):
        raise InvalidMatrix("matrix contains non-finite entries")
    J = np.append(np.ones(k - 1), -1.0)
    scale = D.max(axis=-1)
    Delta = (D + _SHIFT * scale[:, None])[..., None]
    Sinv = np.linalg.inv(_kernels(W, J, range(T), 1.0 / Delta[..., 0]))
    X = W @ np.cos(np.outer(np.arange(1, k + 1), np.arange(1, d + 2))) / Delta
    if start is not None:
        X = np.concatenate([start, X], axis=-1)[..., :d + 1]
    values, vectors = np.full((T, d + 1), np.nan), np.zeros((T, m, d + 1))
    met = done = np.zeros(T, dtype=bool)  # a converged matrix keeps iterating with the stack
    for _ in range(_MAX_STEPS):
        X /= Delta
        Q = np.linalg.qr(X + W @ (Sinv @ (np.swapaxes(W, -1, -2) @ X)) / Delta)[0]
        MQ = D[..., None] * Q - W @ (J[:, None] * (np.swapaxes(W, -1, -2) @ Q))
        ritz, Z = np.linalg.eigh(np.swapaxes(Q, -1, -2) @ MQ)
        X = Q @ Z
        take = met & ~done
        values[take], vectors[take] = ritz[take], X[take]
        done = done | take
        if done.all():
            break
        residual = np.linalg.norm(MQ @ Z - X * ritz[:, None, :], axis=-2)[:, :d]
        met = np.all(residual <= _RESIDUAL_TOL * scale[:, None], axis=-1)
    lo, hi = values[:, d - 1], np.minimum(values[:, d], D.min(axis=-1))
    ok = hi - lo > _CLUSTER_TOL * np.maximum(1.0, scale)  # False where NaN: not converged
    counted = np.flatnonzero(ok)
    if counted.size:
        cut = (lo + hi)[counted, None] / 2
        negative = np.linalg.eigvalsh(_kernels(W, J, counted, 1.0 / (D[counted] - cut))) < 0
        ok[counted] = np.sum(negative, axis=-1) - 1 == d
    values, vectors = values[:, :d], vectors[:, :, :d]
    if not ok.all():
        values[~ok], vectors[~ok] = _bottom_pairs(_dplr_matrix(D[~ok], W[~ok]), d)
    return values, vectors


def leftmost_singular_vector(M):
    """Unit vector maximizing ||M^T theta||_2, the leading left singular vector, of M or of each in a stack.

    The sign is fixed by the canonical convention; for matrices with
    non-negative entries this makes every entry non-negative (Perron-Frobenius),
    with round-off negatives above -1e-12 clamped to zero.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2:
        raise DimensionError(f"expected a matrix or a stack of them, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidMatrix("matrix contains non-finite entries")
    if np.any(np.linalg.norm(M, axis=(-2, -1)) == 0):
        raise DegenerateInput("all-zero matrix has no leading singular vector")
    U, _, _ = np.linalg.svd(M, full_matrices=False)
    theta = _canonical_signs(U[..., :1])[..., 0]
    clipped = np.clip(theta, 0.0, None)
    clipped /= np.linalg.norm(clipped, axis=-1, keepdims=True)
    return np.where(np.min(theta, axis=-1, keepdims=True) >= -1e-12, clipped, theta)
