"""Symmetric eigendecomposition utilities and constrained Brockett selection rules.

The closed-form GPA solvers reduce to trace minimization over matrices with
orthonormal rows (a Brockett cost on the Stiefel manifold), whose optimum is
assembled from ordered eigenvectors.  This module owns that assembly: the
eigensolver wrapper with a deterministic sign convention, the covariance
prior, the bottom-d selection scaled by that prior, and the
leading-singular-vector helper used by the prior estimator.
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


def _cluster_slices(values, tol):
    """Contiguous index ranges of near-equal eigenvalues."""
    slices = []
    start = 0
    for j in range(1, values.size + 1):
        if j == values.size or values[j] - values[j - 1] > tol:
            slices.append(slice(start, j))
            start = j
    return slices


def _anchor_rotate(X, values, anchor):
    """Resolve degenerate eigenvalue clusters against a data anchor.

    Within a cluster of (numerically) equal eigenvalues any orthonormal basis
    is cost-optimal; rotate each cluster's columns to diagonalize the Gram of
    the anchor's restriction, (A X_c)^T (A X_c), ordering by its eigenvalues
    descending so the largest prior entry pairs with the strongest data
    direction.  A no-op when all selected eigenvalues are separated.
    """
    tol = _CLUSTER_TOL * max(1.0, float(np.max(np.abs(values), initial=0.0)))
    X = np.array(X, copy=True)
    for cluster in _cluster_slices(values, tol):
        width = cluster.stop - cluster.start
        if width < 2:
            continue
        Xc = X[:, cluster]
        AXc = anchor @ Xc
        restricted = AXc.T @ AXc
        w, omega = np.linalg.eigh(0.5 * (restricted + restricted.T))
        X[:, cluster] = Xc @ omega[:, ::-1]
    return X


def _scale_selected(values, X, lam, anchor):
    """The shared tail of the bottom-d selections, for one selection or a stack of them.

    values (..., d) ascending and X (..., m, d) are the selected eigenpairs and
    lam (d,) or (..., d) the prior of each.  Selections with a degenerate
    cluster are rotated against their anchor: one array for all, or a function
    of the selection's flat index for per-selection anchors (None skips the
    rotation).  Then canonical signs are fixed and row k is scaled by
    sqrt(lambda_k).
    """
    if anchor is not None:
        flat_values = values.reshape(-1, values.shape[-1])
        tol = _CLUSTER_TOL * np.maximum(1.0, np.max(np.abs(flat_values), axis=-1, initial=0.0))
        clustered = np.flatnonzero(np.any(np.diff(flat_values, axis=-1) <= tol[:, None], axis=-1))
        if clustered.size:
            flat_X = X.reshape((-1,) + X.shape[-2:]).copy()
            for k in clustered:
                A = anchor(k) if callable(anchor) else anchor
                flat_X[k] = _anchor_rotate(flat_X[k], flat_values[k], np.asarray(A, dtype=float))
            X = flat_X.reshape(X.shape)
    return np.sqrt(lam)[..., :, None] * np.swapaxes(_canonical_signs(X), -1, -2)


def _bottom_pairs(M, d):
    """The d bottom eigenpairs, values (..., d) and vectors (..., m, d), of a matrix or stack that
    is symmetric by construction, such as (A + A^T)/2 plus nu 11^T: of `eig_sym`'s checks
    only the finiteness check applies."""
    if not np.all(np.isfinite(M)):
        raise InvalidMatrix("matrix contains non-finite entries")
    values, vectors = np.linalg.eigh(M)
    return values[..., :d].copy(), vectors[..., :, :d].copy()  # copies free the m x m arrays


def _span_pairs(U, values, vectors, complement):
    """Lift the d bottom eigenpairs (T x d, T x r x d) of each C_t = U^T M_t U, r >= d, to M_t.

    U (m x r, orthonormal columns) spans a subspace that M_t maps into itself,
    and M_t acts as `complement` * I on its orthogonal complement.  The
    eigenpairs of M_t are then those of C_t lifted by U, plus `complement` with
    multiplicity m - r, so the lift is M_t's bottom d whenever lambda_d(C_t)
    lies below `complement` by more than the cluster tolerance (or r = m).
    Returns the lifted vectors U V_t (T x m x d) and which selections that
    rule certifies.
    """
    m, r = U.shape
    scale = np.maximum(max(1.0, abs(complement)), np.max(np.abs(values), axis=-1))
    return U @ vectors, (r == m) | (values[:, -1] < complement - _CLUSTER_TOL * scale)


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
