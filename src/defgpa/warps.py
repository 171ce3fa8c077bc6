"""Linear basis warps: the affine map and the thin-plate spline.

A linear basis warp (LBW) sends a point p through W^T beta(p), where beta
lifts p to an l-dimensional feature vector and W (l x d) carries all
transformation parameters.  On a point matrix D (d x m) this reads
W^T B(D) with B(D) collecting per-column features.  Warps may carry a
quadratic regularizer ||Z W||_F^2; for the TPS, Z^T Z is the bending-energy
matrix whose null space is exactly the affine maps.

The TPS is parameterized in its regression form: the weights W are the images
of the control centers, and the feature map routes through the parameter
recovery matrix E_lambda so no side constraints remain on W.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCenters, DimensionError
from .spectral import _canonical_signs, eig_sym


def affine_basis(D):
    """Homogeneous lift: D stacked over a row of ones, (d+1) x m."""
    D = np.asarray(D, dtype=float)
    if D.ndim != 2:
        raise DimensionError(f"expected a d x m matrix, got shape {D.shape}")
    return np.vstack([D, np.ones((1, D.shape[1]))])


def _distances(A, B):
    """Euclidean distances between the columns of A (... x d x p) and B (... x d x q), ... x p x q."""
    sq = np.zeros(np.broadcast_shapes(A.shape[:-2], B.shape[:-2]) + (A.shape[-1], B.shape[-1]))
    for a, b in zip(np.moveaxis(A, -2, 0), np.moveaxis(B, -2, 0)):  # by coordinate: no d x p x q array
        diff = a[..., :, None] - b[..., None, :]
        diff *= diff
        sq += diff
    return np.sqrt(sq, out=sq)


def tps_kernel(r, d):
    """Radial kernel: r^2 log(r^2) in 2D (0 at r=0 by continuity), -r in 3D."""
    r = np.asarray(r, dtype=float)
    if d == 2:
        r2 = r * r
        safe = np.where(r2 > 0, r2, 1.0)
        out = np.where(r2 > 0, r2 * np.log(safe), 0.0)
        return out if out.ndim else float(out)
    if d == 3:
        out = -np.abs(r)
        return out if out.ndim else float(out)
    raise DimensionError(f"TPS kernel is defined for d in {{2, 3}}, got d={d}")


class LbwModel:
    """Base interface shared by the affine and TPS warps."""

    feature_dim = 0
    smoothing = 0.0

    def basis(self, D):
        """Feature matrix B(D), l x m, column-wise independent."""
        raise NotImplementedError

    @property
    def regularizer(self):
        """Matrix Z with Z^T Z equal to the (possibly zero) bending matrix."""
        raise NotImplementedError

    def gram_regularizer(self):
        """Z^T Z, the l x l PSD quadratic form penalizing W."""
        Z = self.regularizer
        return Z.T @ Z

    def describe(self):
        raise NotImplementedError


class AffineWarp(LbwModel):
    """The homogeneous affine map as an unregularized LBW (l = d+1)."""

    def __init__(self, d):
        if d < 1:
            raise DimensionError("affine warp needs d >= 1")
        self.d = d
        self.feature_dim = d + 1
        self.smoothing = 0.0

    def basis(self, D):
        D = np.asarray(D, dtype=float)
        if D.shape[0] != self.d:
            raise DimensionError(f"expected {self.d} x m points, got {D.shape}")
        return affine_basis(D)

    @property
    def regularizer(self):
        return np.zeros((0, self.feature_dim))

    def gram_regularizer(self):
        return np.zeros((self.feature_dim, self.feature_dim))

    def describe(self):
        return {"type": "affine", "d": self.d}


@dataclass(frozen=True)
class TpsWarp(LbwModel):
    """A thin-plate spline warp anchored at l control centers.

    centers: d x l control-center matrix.
    internal_smoothing: the diagonal loading lambda of the kernel matrix.
    recovery: E_lambda, (l+d+1) x l, mapping prescribed center images to the
        constrained spline coefficients.
    bending: the l x l bending-energy matrix (PSD, rank l-(d+1)).
    smoothing: the data-term weight mu of ||Z W||_F^2 in a GPA solve.
    """

    centers: np.ndarray
    internal_smoothing: float
    recovery: np.ndarray
    bending: np.ndarray
    smoothing: float = 0.0

    @property
    def d(self):
        return self.centers.shape[0]

    @property
    def feature_dim(self):
        return self.centers.shape[1]

    def basis(self, D):
        D = np.asarray(D, dtype=float)
        if D.shape[0] != self.d:
            raise DimensionError(f"expected {self.d} x m points, got {D.shape}")
        return _tps_basis(self.centers, self.recovery, D)

    @property
    def sqrt_bending(self):
        """The symmetric PSD square root Z of the bending matrix, computed on each read."""
        return _psd_sqrt(self.bending)

    @property
    def regularizer(self):
        return self.sqrt_bending

    def gram_regularizer(self):
        return self.bending

    def with_smoothing(self, mu):
        return TpsWarp(self.centers, self.internal_smoothing, self.recovery,
                       self.bending, float(mu))

    def describe(self):
        return {
            "type": "tps",
            "centers": self.centers.tolist(),
            "internal_smoothing": float(self.internal_smoothing),
        }


def _tps_basis(centers, recovery, D):
    """The features E_lambda^T [phi(|c_k - p|); p; 1] of points D, for one spline (centres d x l,
    recovery (l+d+1) x l, D d x m) or a stack of them (K x ... each): l x m or K x l x m."""
    phi = tps_kernel(_distances(centers, D), D.shape[-2])
    stacked = np.concatenate([phi, D, np.ones(D.shape[:-2] + (1, D.shape[-1]))], axis=-2)
    return np.swapaxes(recovery, -1, -2) @ stacked


def _psd_sqrt(A):
    """Symmetric PSD square root with round-off negatives clamped to zero."""
    pairs = eig_sym(A)
    vals = pairs.values
    vals = np.where(vals < 1e-12 * max(vals.max(initial=0.0), 0.0), 0.0, vals)
    V = pairs.vectors
    return (V * np.sqrt(vals)) @ V.T


def default_internal_smoothing(centers):
    """1e-8 of the kernel magnitude at the median pairwise center distance."""
    centers = np.asarray(centers, dtype=float)
    d, l = centers.shape
    dist = _distances(centers, centers)
    off = dist[np.triu_indices(l, k=1)]
    if off.size == 0 or np.all(off == 0):
        raise DegenerateCenters("control centers are coincident")
    scale = abs(tps_kernel(float(np.median(off)), d))
    return 1e-8 * max(scale, np.finfo(float).tiny)


def _recoveries(centers, internal_smoothing):
    """The recovery matrices E_lambda (K x (l+d+1) x l) of a stack of center sets (K x d x l) at one
    internal loading lambda, and per set the DegenerateCenters that rejects it or None.

    The bordered interpolation systems [[K_lambda, C~^T], [C~, O]] are inverted
    in one stacked call; E_lambda is each inverse's first l columns.  A set
    whose C~ = [C; 1^T] is rank-deficient is rejected before the call, and
    only if the call fails is each system inverted alone.  (Block inversion
    shows E_lambda equals the explicit K^{-1}-based formulas whenever K_lambda
    is invertible, and it stays valid for symmetric center layouts where K_0
    alone is singular.)
    """
    if internal_smoothing < 0:
        raise DegenerateCenters("internal smoothing must be non-negative")
    sets, d, l = centers.shape
    C = np.concatenate([centers, np.ones((sets, 1, l))], axis=1)
    errors = [DegenerateCenters("control centers are not in general position (C~ rank-deficient)")
              if rank < d + 1 else None for rank in np.linalg.matrix_rank(C)]
    bordered = np.zeros((sets, l + d + 1, l + d + 1))
    bordered[:, :l, :l] = tps_kernel(_distances(centers, centers), d)
    bordered[:, range(l), range(l)] = internal_smoothing
    bordered[:, :l, l:] = np.swapaxes(C, -1, -2)
    bordered[:, l:, :l] = C
    bordered[[e is not None for e in errors]] = np.eye(l + d + 1)
    try:
        inv = np.linalg.inv(bordered)
    except np.linalg.LinAlgError:
        inv = np.zeros(bordered.shape)
        for k in range(sets):
            try:
                inv[k] = np.linalg.inv(bordered[k])
            except np.linalg.LinAlgError:
                errors[k] = errors[k] or DegenerateCenters("TPS system matrix is singular for these centers")
    recovery = inv[:, :, :l]
    # functional validity check: E_lambda C~^T must be [O; I]
    target = np.vstack([np.zeros((l, d + 1)), np.eye(d + 1)])
    residual = np.max(np.abs(recovery @ np.swapaxes(C, -1, -2) - target), axis=(-2, -1))
    for k in np.flatnonzero(residual > 1e-6):
        errors[k] = errors[k] or DegenerateCenters(
            "TPS system matrix is numerically singular for these centers")
    return recovery, errors


def _spline(centers, internal_smoothing, recovery):
    """The TpsWarp of centers and their recovery matrix; the bending matrix is its top l x l block."""
    l = centers.shape[1]
    return TpsWarp(centers=centers, internal_smoothing=float(internal_smoothing), recovery=recovery,
                   bending=0.5 * (recovery[:l, :] + recovery[:l, :].T))


def tps_build(centers, internal_smoothing=None):
    """Construct a TpsWarp from control centers and the internal loading lambda (`_recoveries` of one
    center set)."""
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[0] not in (2, 3):
        raise DimensionError(f"centers must be d x l with d in {{2, 3}}, got {centers.shape}")
    d, l = centers.shape
    if l < d + 2:
        raise DegenerateCenters(f"TPS needs at least d+2={d + 2} centers, got {l}")
    if internal_smoothing is None:
        internal_smoothing = default_internal_smoothing(centers)
    (recovery,), (error,) = _recoveries(centers[None], internal_smoothing)
    if error is not None:
        raise error
    return _spline(centers.copy(), internal_smoothing, recovery)


def place_control_points(data, k, flat_axes=0):
    """A k-per-axis grid aligned with the principal axes of the data.

    `data` may be a Shape (its visible points) or a raw d x m matrix.  The
    grid spans exactly the per-axis min/max of the centered data; the last
    `flat_axes` (lowest-variance) axes receive two layers instead of k, as
    used for nearly flat shapes.
    """
    if k < 2:
        raise DimensionError("need at least k=2 control points per axis")
    if hasattr(data, "visible_points"):
        pts = data.visible_points()
    else:
        pts = np.asarray(data, dtype=float)
    d = pts.shape[0]
    if not 0 <= flat_axes < d:
        raise DimensionError(f"flat_axes must lie in [0, d), got {flat_axes}")
    mu = pts.mean(axis=1, keepdims=True)
    X = pts - mu
    pairs = eig_sym(X @ X.T)
    axes = _canonical_signs(pairs.vectors[:, ::-1])  # principal first
    coords = axes.T @ X
    lo = coords.min(axis=1)
    hi = coords.max(axis=1)
    scale = float(np.max(hi - lo))
    if np.any(hi - lo <= 1e-12 * max(scale, 1.0)):
        raise DegenerateCenters("shape has zero extent along a principal axis")
    counts = [2 if j >= d - flat_axes else k for j in range(d)]
    ticks = [np.linspace(lo[j], hi[j], counts[j]) for j in range(d)]
    mesh = np.meshgrid(*ticks, indexing="ij")
    grid = np.vstack([m.ravel() for m in mesh])
    return mu + axes @ grid


def apply_warp(model, W, D):
    """W^T B(D): the warped point matrix, d x m."""
    W = np.asarray(W, dtype=float)
    B = model.basis(D)
    if W.shape[0] != B.shape[0]:
        raise DimensionError(f"weights have {W.shape[0]} rows, basis has {B.shape[0]}")
    return W.T @ B


def bending_energy(model, W):
    """trace(W^T (Z^T Z) W), the integrated second-derivative energy; >= 0."""
    W = np.asarray(W, dtype=float)
    G = model.gram_regularizer()
    if W.shape[0] != G.shape[0]:
        raise DimensionError(f"weights have {W.shape[0]} rows, regularizer expects {G.shape[0]}")
    return float(max(np.einsum("ij,ik,kj->", W, G, W), 0.0))


def _inverse_tps(model, Ws, internal_smoothing):
    """The center images W_k^T beta(c) (K x d x l) of a stack of weights Ws (K x l x d) of one forward
    TPS, and the `_recoveries` of the inverse splines through them: the basis at the centers is
    evaluated once."""
    if Ws.shape[-2] != model.feature_dim:
        raise DimensionError(f"weights have {Ws.shape[-2]} rows, basis has {model.feature_dim}")
    images = np.swapaxes(Ws, -1, -2) @ model.basis(model.centers)
    return images, *_recoveries(images, internal_smoothing)


def fit_inverse_tps(model, W, internal_smoothing=None):
    """A TPS mapping the forward warp's center images back to the centers (`_inverse_tps` of one fit).

    The inverse warp's centers are the forward images c'_k = W^T beta(c_k) and
    its weights prescribe the original centers as images, so it interpolates
    c'_k -> c_k exactly at internal_smoothing 0 and in regularized
    least-squares otherwise.
    """
    if internal_smoothing is None:
        internal_smoothing = model.internal_smoothing
    W = np.asarray(W, dtype=float)
    (images,), (recovery,), (error,) = _inverse_tps(model, W[None], internal_smoothing)
    if error is not None:
        raise error
    return _spline(images, internal_smoothing, recovery), model.centers.T.copy()


def _witness_and_residual(model, Bv):
    """Least-squares x for Bv x = 1 (and Z x = 0 when regularized), and its residual.

    Bv holds the basis rows of the visible points (m_vis x l).  The residual
    is the largest violation of either equation; x is a witness when it lies
    below the tolerance.
    """
    rows = [Bv]
    rhs = [np.ones(Bv.shape[0])]
    Z = model.regularizer
    use_reg = model.smoothing > 0 and Z.shape[0] > 0
    if use_reg:
        rows.append(Z)
        rhs.append(np.zeros(Z.shape[0]))
    x, *_ = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=None)
    residual = float(np.max(np.abs(Bv @ x - 1.0)))
    if use_reg:
        residual = max(residual, float(np.max(np.abs(Z @ x))))
    return x, residual


def free_translation_witness(model, D, tol=1e-6):
    """A vector x with B(D)^T x = 1 (and Z x = 0 when the warp is regularized).

    Returns None when no such vector exists within tolerance; its existence is
    what licenses the closed-form GPA solution (the all-ones eigenvector).
    """
    x, residual = _witness_and_residual(model, model.basis(D).T)
    return x if residual < tol else None
