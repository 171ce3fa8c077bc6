"""Symmetric eigendecomposition utilities and constrained Brockett selection rules.

The closed-form GPA solvers reduce to trace minimization over matrices with
orthonormal rows (a Brockett cost on the Stiefel manifold), whose optimum is
assembled from ordered eigenvectors.  This module owns that assembly: the
eigensolver wrapper with a deterministic sign convention, the covariance
prior, the bottom-d selection scaled by that prior (from a dense matrix or
from its restriction to an invariant subspace), and the leading-singular-vector
helper used by the prior estimator.
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
    values, vectors = _checked_eigh(A)
    return EigenPairs(values=values, vectors=_canonical_signs(vectors))


def _checked_eigh(A):
    """`eig_sym` without the sign convention, for callers that fix the signs of the columns they keep."""
    A = np.asarray(A, dtype=float)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise DimensionError(f"expected a square matrix or a stack of them, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidMatrix("matrix contains non-finite entries")
    scale = np.linalg.norm(A, axis=(-2, -1))
    if np.any(np.linalg.norm(A - np.swapaxes(A, -1, -2), axis=(-2, -1)) > _ASYMMETRY_TOL * scale):
        raise InvalidMatrix("matrix is not symmetric within 1e-8 relative tolerance")
    return np.linalg.eigh(0.5 * (A + np.swapaxes(A, -1, -2)))


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


def _prior_lambdas(prior):
    """Accept a CovariancePrior or a plain descending array of eigenvalue targets."""
    return (prior if isinstance(prior, CovariancePrior) else CovariancePrior(prior)).lambdas


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


def _scale_selected(values, X, prior, anchor):
    """The shared tail of the bottom-d selections.

    values (d,) ascending and X (m x d) are the selected eigenpairs; resolve
    their degenerate clusters against the anchor, fix canonical signs, and
    scale row k by sqrt(lambda_k).
    """
    if anchor is not None:
        X = _anchor_rotate(X, values, np.asarray(anchor, dtype=float))
    return np.sqrt(prior)[:, None] * _canonical_signs(X).T


def bottom_d_scaled(P, prior, anchor=None):
    """Scale the d bottom eigenvectors of P by the square root of the prior.

    Returns S (d x m) with row k = sqrt(lambda_k) * xi_k^T, pairing the largest
    prior entry with the smallest eigenvalue of P.  S minimizes
    trace(S P S^T) subject to S S^T = diag(prior).  A stack of matrices
    (T x m x m) takes one eigensolver call and gives a T x d x m stack.

    `anchor` (optional k x m matrix A) resolves degenerate eigenvalue clusters
    deterministically through the Gram A^T A; see _anchor_rotate.
    """
    lam = _prior_lambdas(prior)
    d = lam.size
    values, vectors = _checked_eigh(P)
    m = vectors.shape[-1]
    if d > m:
        raise DimensionError(f"prior dimension {d} exceeds matrix size {m}")
    S = [_scale_selected(w[:d], V[:, :d], lam, anchor)
         for w, V in zip(values.reshape(-1, m), vectors.reshape(-1, m, m))]
    return np.reshape(S, values.shape[:-1] + (d, m))


def bottom_d_scaled_on_span(U, C, complement, prior, anchor=None):
    """`bottom_d_scaled` of an m x m matrix M given on an invariant subspace.

    U (m x r, orthonormal columns) spans a subspace that M maps into itself,
    C = U^T M U, and M acts as `complement` * I on the orthogonal complement
    of U.  The eigenpairs of M are then those of C lifted by U, plus the
    eigenvalue `complement` with multiplicity m - r (Rayleigh-Ritz on an
    exactly invariant subspace), so the d bottom eigenvectors are U V[:, :d]
    whenever lambda_d(C) lies below `complement`.

    Returns None when r < m and the restricted spectrum cannot certify the
    selection: r < d, or lambda_d(C) within the cluster tolerance of (or
    above) `complement`.  The caller then solves the dense problem.  A stack
    C (T x r x r) takes one eigensolver call and gives a list of T results.
    """
    lam = _prior_lambdas(prior)
    d = lam.size
    U = np.asarray(U, dtype=float)
    m, r = U.shape
    if d > m:
        raise DimensionError(f"prior dimension {d} exceeds matrix size {m}")
    selected = []
    for values, vectors in zip(*_checked_eigh(C if C.ndim > 2 else C[None])):
        values = values[:d]
        scale = max(1.0, abs(complement), float(np.max(np.abs(values), initial=0.0)))
        certified = d <= r and (r == m or values[-1] < complement - _CLUSTER_TOL * scale)
        selected.append(_scale_selected(values, U @ vectors[:, :d], lam, anchor) if certified else None)
    return selected if C.ndim > 2 else selected[0]


def leftmost_singular_vector(M):
    """Unit vector maximizing ||M^T theta||_2, the leading left singular vector.

    The sign is fixed by the canonical convention; for matrices with
    non-negative entries this makes every entry non-negative (Perron-Frobenius),
    with round-off negatives above -1e-12 clamped to zero.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"expected a matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidMatrix("matrix contains non-finite entries")
    if np.linalg.norm(M) == 0:
        raise DegenerateInput("all-zero matrix has no leading singular vector")
    U, _, _ = np.linalg.svd(M, full_matrices=False)
    theta = _canonical_signs(U[:, :1]).ravel()
    if np.min(theta) >= -1e-12:
        theta = np.clip(theta, 0.0, None)
        theta /= np.linalg.norm(theta)
    return theta
